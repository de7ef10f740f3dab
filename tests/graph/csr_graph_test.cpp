#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace nbwp::graph {
namespace {

CsrGraph triangle_plus_isolated() {
  // 0-1, 1-2, 0-2 and an isolated vertex 3.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  return CsrGraph::from_undirected_edges(4, edges);
}

TEST(CsrGraph, BasicCounts) {
  const CsrGraph g = triangle_plus_isolated();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(CsrGraph, NeighborsSorted) {
  const CsrGraph g = triangle_plus_isolated();
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
}

TEST(CsrGraph, SelfLoopsDropped) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}};
  const CsrGraph g = CsrGraph::from_undirected_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CsrGraph, DuplicateEdgesCollapsed) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}};
  const CsrGraph g = CsrGraph::from_undirected_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(CsrGraph, HasEdge) {
  const CsrGraph g = triangle_plus_isolated();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(CsrGraph, OutOfRangeEndpointThrows) {
  const std::vector<Edge> edges = {{0, 5}};
  EXPECT_THROW(CsrGraph::from_undirected_edges(3, edges), Error);
}

TEST(CsrGraph, UndirectedEdgesRoundTrip) {
  const CsrGraph g = triangle_plus_isolated();
  const auto edges = g.undirected_edges();
  const CsrGraph h = CsrGraph::from_undirected_edges(4, edges);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g = CsrGraph::from_undirected_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraph, FromCsrValidates) {
  EXPECT_THROW(CsrGraph::from_csr(2, {0, 1}, {1}), Error);  // bad row_ptr size
  EXPECT_THROW(CsrGraph::from_csr(1, {0, 2}, {0}), Error);  // bad back()
}

TEST(CsrGraph, BytesReflectFootprint) {
  const CsrGraph g = triangle_plus_isolated();
  EXPECT_DOUBLE_EQ(g.bytes(), 5 * 8 + 6 * 4);
}

// --- validate(): each invariant violated individually ----------------------

namespace {
void expect_invalid(Vertex n, std::vector<uint64_t> row_ptr,
                    std::vector<Vertex> adj, const std::string& needle) {
  try {
    (void)CsrGraph::from_csr(n, std::move(row_ptr), std::move(adj));
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}
}  // namespace

TEST(CsrGraphValidate, AcceptsWellFormedArcs) {
  // Path 0-1-2, both arc directions present, lists sorted.
  const CsrGraph g = CsrGraph::from_csr(3, {0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_NO_THROW(g.validate());
  EXPECT_NO_THROW(CsrGraph{}.validate());  // empty graph is valid
}

TEST(CsrGraphValidate, RejectsWrongRowPtrLength) {
  expect_invalid(2, {0, 1}, {1}, "row_ptr");
}

TEST(CsrGraphValidate, RejectsNonZeroRowPtrFront) {
  expect_invalid(1, {1, 1}, {}, "row_ptr");
}

TEST(CsrGraphValidate, RejectsRowPtrBackMismatch) {
  expect_invalid(1, {0, 2}, {0}, "row_ptr");
}

TEST(CsrGraphValidate, RejectsDecreasingRowPtr) {
  // Edge 0-1 is intact and back() matches the adjacency size; the only
  // violation is the dip at vertex 2, placed after every span the
  // symmetry check walks.
  expect_invalid(4, {0, 1, 2, 1, 2}, {1, 0}, "monotone");
}

TEST(CsrGraphValidate, RejectsNeighborOutOfRange) {
  // The bad id sits in the first list so the range check fires before the
  // symmetry check can.
  expect_invalid(2, {0, 1, 1}, {5}, "range");
}

TEST(CsrGraphValidate, RejectsSelfLoop) {
  expect_invalid(2, {0, 1, 2}, {0, 0}, "self-loop");
}

TEST(CsrGraphValidate, RejectsUnsortedNeighborList) {
  // Vertex 0 lists {2, 1}: out of order (edges 0-1, 0-2 with reverses).
  expect_invalid(3, {0, 2, 3, 4}, {2, 1, 0, 0}, "increasing");
}

TEST(CsrGraphValidate, RejectsDuplicateNeighbors) {
  expect_invalid(2, {0, 2, 4}, {1, 1, 0, 0}, "increasing");
}

TEST(CsrGraphValidate, RejectsMissingReverseArc) {
  // Arc 0->1 present, 1->0 absent: directed, not an undirected CSR.
  expect_invalid(2, {0, 1, 1}, {1}, "reverse");
}

TEST(CsrGraphValidate, RejectsMissingReverseArcOnLastVertex) {
  // 0-1 and 1-2 intact; vertex 2 also lists 0, which does not list 2.
  expect_invalid(3, {0, 1, 3, 5}, {1, 0, 2, 0, 1}, "reverse");
  // The mirror case: 0 lists 2, but 2 (the last vertex) does not list 0.
  expect_invalid(3, {0, 2, 4, 5}, {1, 2, 0, 2, 1}, "reverse");
}

TEST(CsrGraphValidate, RejectsDirectedCycleWithBalancedDegrees) {
  // 0->1->2->0: every list has as many entries as arcs point into it, so
  // only matching arc values (not counts) exposes the asymmetry.
  expect_invalid(3, {0, 1, 2, 3}, {1, 2, 0}, "reverse");
}

TEST(CsrGraphValidate, RowPtrOvershootIsRejectedInBounds) {
  // row_ptr climbs past the adjacency size and dips back; the lists must
  // not be read before this is caught.
  expect_invalid(2, {0, 5, 2}, {1, 0}, "monotone");
}

TEST(CsrGraphValidate, LargeRandomGraphAdoptedAndOneRedirectedArcRejected) {
  Rng rng(2024);
  const Vertex n = 5000;
  std::vector<Edge> edges;
  for (int i = 0; i < 40000; ++i)
    edges.emplace_back(static_cast<Vertex>(rng.uniform(n)),
                       static_cast<Vertex>(rng.uniform(n)));
  const CsrGraph g = CsrGraph::from_undirected_edges(n, edges);
  std::vector<uint64_t> row_ptr(g.row_ptr().begin(), g.row_ptr().end());
  std::vector<Vertex> adj(g.adjacency().begin(), g.adjacency().end());
  const CsrGraph adopted = CsrGraph::from_csr(n, row_ptr, adj);
  EXPECT_EQ(adopted.num_edges(), g.num_edges());

  // Redirect one arc u->v to u->w, keeping u's list sorted and loop-free:
  // w is absent from u's list and lies strictly between its neighbours.
  int redirected = 0;
  for (Vertex u = 0; u < n && redirected == 0; ++u) {
    for (uint64_t i = row_ptr[u]; i < row_ptr[u + 1]; ++i) {
      const Vertex lo = i == row_ptr[u] ? 0 : adj[i - 1] + 1;
      const Vertex v = adj[i];
      if (v > lo && v - 1 != u) {
        adj[i] = v - 1;
        ++redirected;
        break;
      }
    }
  }
  ASSERT_EQ(redirected, 1);
  expect_invalid(n, row_ptr, adj, "reverse");
}

}  // namespace
}  // namespace nbwp::graph
