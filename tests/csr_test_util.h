// Shared helper: structural equality of two CsrGraph snapshots, used by
// the patched-vs-fresh differential tests. Two snapshots are equal when
// every per-vertex slice — neighbors, lineage edge ids, out-edge types,
// and every typed sub-slice — is identical through the public API, and
// every segment's raw arrays (offsets, type directories with their
// `begin`s) match element for element. The API walk also (re-)verifies
// the sorted-by-neighbor, type-partitioned invariants the CSR MATCH
// backend's binary searches rely on.

#ifndef KASKADE_TESTS_CSR_TEST_UTIL_H_
#define KASKADE_TESTS_CSR_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/property_graph.h"

namespace kaskade::testutil {

inline void ExpectEdgeSpansEqual(const graph::EdgeSpan& a,
                                 const graph::EdgeSpan& b,
                                 const std::string& where) {
  ASSERT_EQ(a.size, b.size) << where;
  for (size_t i = 0; i < a.size; ++i) {
    ASSERT_EQ(a.vertex(i), b.vertex(i)) << where << " slot " << i;
    ASSERT_EQ(a.edge_id(i), b.edge_id(i)) << where << " slot " << i;
  }
}

/// Asserts two segments hold identical arrays.
inline void ExpectSegmentsEqual(const graph::CsrSegment& a,
                                const graph::CsrSegment& b,
                                const std::string& where) {
  ASSERT_EQ(a.first_vertex, b.first_vertex) << where;
  ASSERT_EQ(a.num_vertices, b.num_vertices) << where;
  ASSERT_EQ(a.vertex_types, b.vertex_types) << where;
  ASSERT_EQ(a.out_offsets, b.out_offsets) << where << " out offsets";
  ASSERT_EQ(a.out_targets, b.out_targets) << where << " out targets";
  ASSERT_EQ(a.out_edge_ids, b.out_edge_ids) << where << " out edge ids";
  ASSERT_EQ(a.in_offsets, b.in_offsets) << where << " in offsets";
  ASSERT_EQ(a.in_sources, b.in_sources) << where << " in sources";
  ASSERT_EQ(a.in_edge_ids, b.in_edge_ids) << where << " in edge ids";
  ASSERT_EQ(a.out_type_dir_offsets, b.out_type_dir_offsets) << where;
  ASSERT_EQ(a.in_type_dir_offsets, b.in_type_dir_offsets) << where;
  auto dirs_equal = [&](const std::vector<graph::CsrSegment::TypeDirEntry>& x,
                        const std::vector<graph::CsrSegment::TypeDirEntry>& y,
                        const std::string& side) {
    ASSERT_EQ(x.size(), y.size()) << where << side;
    for (size_t d = 0; d < x.size(); ++d) {
      ASSERT_EQ(x[d].type, y[d].type) << where << side << " dir " << d;
      ASSERT_EQ(x[d].begin, y[d].begin) << where << side << " dir " << d;
    }
  };
  dirs_equal(a.out_type_dirs, b.out_type_dirs, " out dirs");
  dirs_equal(a.in_type_dirs, b.in_type_dirs, " in dirs");
}

/// Asserts `a` and `b` are indistinguishable snapshots of `g`.
inline void ExpectCsrEqual(const graph::CsrGraph& a, const graph::CsrGraph& b,
                           const graph::PropertyGraph& g,
                           const std::string& context) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices()) << context;
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << context;
  ASSERT_EQ(a.edge_id_space(), b.edge_id_space()) << context;
  ASSERT_EQ(a.num_segments(), b.num_segments()) << context;
  for (size_t i = 0; i < a.num_segments(); ++i) {
    ExpectSegmentsEqual(*a.segment(i), *b.segment(i),
                        context + " segment " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  const size_t num_edge_types = g.schema().num_edge_types();
  for (graph::VertexId v = 0; v < a.NumVertices(); ++v) {
    const std::string at = context + " vertex " + std::to_string(v);
    ASSERT_EQ(a.VertexType(v), b.VertexType(v)) << at;
    ExpectEdgeSpansEqual(a.OutEdges(v), b.OutEdges(v), at + " out");
    ExpectEdgeSpansEqual(a.InEdges(v), b.InEdges(v), at + " in");
    for (size_t i = 0; i < a.OutDegree(v); ++i) {
      ASSERT_EQ(a.OutEdgeType(v, i), b.OutEdgeType(v, i))
          << at << " out type slot " << i;
    }
    // Typed sub-slices exercise the per-vertex type directories.
    for (size_t t = 0; t < num_edge_types; ++t) {
      const graph::EdgeTypeId type = static_cast<graph::EdgeTypeId>(t);
      ExpectEdgeSpansEqual(a.TypedOutEdges(v, type), b.TypedOutEdges(v, type),
                           at + " typed-out " + std::to_string(t));
      ExpectEdgeSpansEqual(a.TypedInEdges(v, type), b.TypedInEdges(v, type),
                           at + " typed-in " + std::to_string(t));
    }
    // Invariant check (not just equality): typed slices are sorted
    // ascending by neighbor id so filter edges can binary-search.
    for (size_t t = 0; t < num_edge_types; ++t) {
      graph::EdgeSpan span =
          a.TypedOutEdges(v, static_cast<graph::EdgeTypeId>(t));
      for (size_t i = 1; i < span.size; ++i) {
        ASSERT_LE(span.vertex(i - 1), span.vertex(i))
            << at << " typed-out slice of type " << t << " unsorted";
      }
    }
  }
}

}  // namespace kaskade::testutil

#endif  // KASKADE_TESTS_CSR_TEST_UTIL_H_
