#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares them against BENCHMARK.json.

    python3 perfbench/compare.py sweep --out A.jsonl [--workloads a,b]
                                       [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py report A.jsonl [B.jsonl]

`sweep` runs run.py once per workload x seed (run_seconds from
BENCHMARK.json) and appends each run to the JSONL file.

`report` prints, per workload x metric, the median and quartiles of a set
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the metric's bound. With a second set it also prints the second
median and how much worse it is than the first, in the metric's "worse"
direction. Every end-to-end metric, setup_s included, is held to its
bound. End-to-end times are reported scaled by the run's speed reference
(see perfbench/src/bench.h); the same figures unscaled (info.raw) are
compared too: `raw` is their spread and `raw worse` their second median
against the first, and `track` is the correlation over the first set's
runs between the unscaled figure and the reference kernel's median time
(near +1 for times, -1 for ops/s when the kernel tracks the engine's
drift). Flags:
    SPREAD    spread above the bound            (the benchmark is too noisy)
    NOISY     spread above a third of the bound (steadiness target missed)
    WORSE     second median worse by more than the bound
    DISAGREE  scaled and unscaled figures disagree on WORSE: a change that
              slowed or sped up the reference kernel itself shows here
report also checks that equal seeds gave equal op-stream digests and
different seeds different ones. Exits 1 when any SPREAD or WORSE flag or
digest mismatch is raised, or a run was incorrect or had failures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace), "--record", args.out]
            code = subprocess.call(command, stdout=subprocess.DEVNULL)
            print("%s seed %d: %s" % (workload, seed,
                                      "ok" if code == 0 else "exit %d" % code))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(runs, raw=False):
    """{(workload, trace): {metric: [values]}}; raw: info.raw and the
    reference median (as "reference_us") of untraced runs."""
    table = defaultdict(lambda: defaultdict(list))
    for run in runs:
        metrics = {name: m["value"] for name, m in run["result"]["metrics"].items()}
        if raw:
            if run["trace"] != 0:
                continue
            metrics = dict(run["info"]["raw"],
                           reference_us=run["info"]["speed_reference"]["median_us"])
        for name, value in metrics.items():
            table[(run["workload"], run["trace"])][name].append(value)
    return table


def worse_by(name, med, med2, better):
    if not med:
        return 0.0
    sign = 1 if better.get(name) == "lower" else -1
    return sign * (med2 - med) / abs(med)


def correlation(xs, ys):
    if len(xs) < 3 or statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
        return float("nan")
    return statistics.correlation(xs, ys)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_runs(runs):
    problems = []
    digests = defaultdict(set)
    for run in runs:
        digests[(run["workload"], run["seed"])].add(run["info"]["op_stream_digest"])
        result = run["result"]
        if not result["correct"] or result["failed"]:
            problems.append("%s seed %d: correct=%s failed=%d %s" % (
                run["workload"], run["seed"], result["correct"],
                result["failed"], run["info"].get("check_failures")))
    by_workload = defaultdict(dict)
    for (workload, seed), seen in digests.items():
        if len(seen) != 1:
            problems.append("%s seed %d: digests differ %s" % (workload, seed, seen))
        by_workload[workload][seed] = next(iter(seen))
    for workload, seeds in by_workload.items():
        if len(set(seeds.values())) != len(seeds):
            problems.append("%s: different seeds share a digest" % workload)
    return problems


def report(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_runs(p) for p in args.sets]
    tables = [summarize(runs) for runs in sets]
    raws = [summarize(runs, raw=True) for runs in sets]
    failed = False
    for runs in sets:
        for problem in check_runs(runs):
            print("RUN " + problem)
            failed = True
    header = "%-13s %-30s %12s %12s %12s %7s %6s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound")
    if len(tables) > 1:
        header += " %12s %7s" % ("median2", "worse")
    header += " %7s %6s" % ("raw", "track")
    if len(tables) > 1:
        header += " %9s" % "raw worse"
    print(header)
    for key in sorted(tables[0]):
        workload, trace = key
        for name in sorted(tables[0][key]):
            values = tables[0][key][name]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            metric = bounds.get(name) if trace == 0 else None
            bound = metric["bound"] if metric else None
            line = "%-13s %-30s %12.5g %12.5g %12.5g %6.1f%% %6s" % (
                workload, name, q1, med, q3, 100 * spread,
                "%.0f%%" % (100 * bound) if bound is not None else "-")
            flags = []
            if bound is not None:
                if spread > bound:
                    flags.append("SPREAD")
                    failed = True
                elif spread > bound / 3:
                    flags.append("NOISY")
            compared = len(tables) > 1 and name in tables[1].get(key, {})
            if compared:
                med2 = statistics.median(tables[1][key][name])
                worse = worse_by(name, med, med2, better)
                line += " %12.5g %6.1f%%" % (med2, 100 * worse)
                if bound is not None and worse > bound:
                    flags.append("WORSE")
                    failed = True
            raw = raws[0].get(key, {}).get(name)
            if bound is not None and raw:
                r1, rmed, r3 = quartiles(raw)
                track = correlation(raw, raws[0][key]["reference_us"])
                line += " %6.1f%% %6.2f" % (100 * (r3 - r1) / rmed, track)
                if compared and name in raws[1].get(key, {}):
                    raw_worse = worse_by(name, rmed,
                                         statistics.median(raws[1][key][name]),
                                         better)
                    line += " %8.1f%%" % (100 * raw_worse)
                    if (raw_worse > bound) != (worse > bound):
                        flags.append("DISAGREE")
            print(line + ("  " + " ".join(flags) if flags else ""))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("sweep")
    run.add_argument("--out", required=True)
    run.add_argument("--workloads")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report")
    rep.add_argument("sets", nargs="+")
    args = parser.parse_args()
    spec = load_spec()
    if args.command == "sweep":
        sweep(args, spec)
        return 0
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
