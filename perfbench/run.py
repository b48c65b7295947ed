#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine library (src/) and the
program (perfbench/src/) are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the first run builds, later
runs reuse the build. The program's stdout is passed through: an `info`
line, then the result line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json. Traced runs leave their span file
and per-layer summary under <build dir>/traces/.

--record FILE appends {"workload", "seed", "trace", "info", "result"} as
one JSON line, the input of compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lineage_read", "social_scan", "social_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("engine sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)
    binary = os.path.join(out_dir, "kaskade_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no benchmark binary")
    return binary


def parse_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if trace else "end_to_end"]
        got = result["metrics"]
        wrong = [m["name"] for m in wanted
                 if got.get(m["name"], {}).get("unit") != m["unit"]]
        if wrong:
            raise ValueError("missing metrics or units: %s" % wrong)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run to this JSONL file")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work, "--trace-dir", os.path.join(out_dir, "traces")]
    started = time.time()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = parse_result(lines[-1], args.trace)
        info = json.loads(lines[-2][len("info "):])
    except ValueError as error:
        sys.stderr.write(stdout)
        fail("malformed benchmark output: %s" % error)
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "wall_s": round(time.time() - started, 3),
                  "info": info, "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
