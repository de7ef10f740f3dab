#include "graph/csr_graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nbwp::graph {

CsrGraph CsrGraph::from_undirected_edges(Vertex n,
                                         std::span<const Edge> edges) {
  // Count both directions (self-loops excluded).
  std::vector<uint64_t> counts(static_cast<size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    NBWP_REQUIRE(u < n && v < n, "edge endpoint out of range");
    if (u == v) continue;
    ++counts[u + 1];
    ++counts[v + 1];
  }
  for (size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];

  std::vector<Vertex> adj(counts[n]);
  std::vector<uint64_t> cursor(counts.begin(), counts.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adj[cursor[u]++] = v;
    adj[cursor[v]++] = u;
  }

  // Sort each adjacency list and drop duplicates, compacting in place.
  CsrGraph g;
  g.n_ = n;
  g.row_ptr_.assign(static_cast<size_t>(n) + 1, 0);
  uint64_t write = 0;
  for (Vertex v = 0; v < n; ++v) {
    const uint64_t lo = counts[v], hi = counts[v + 1];
    std::sort(adj.begin() + static_cast<ptrdiff_t>(lo),
              adj.begin() + static_cast<ptrdiff_t>(hi));
    uint64_t unique_start = write;
    for (uint64_t i = lo; i < hi; ++i) {
      if (i > lo && adj[i] == adj[i - 1]) continue;
      adj[write++] = adj[i];
    }
    g.row_ptr_[v + 1] = g.row_ptr_[v] + (write - unique_start);
  }
  adj.resize(write);
  adj.shrink_to_fit();
  g.adj_ = std::move(adj);
  return g;
}

CsrGraph CsrGraph::from_csr(Vertex n, std::vector<uint64_t> row_ptr,
                            std::vector<Vertex> adj) {
  CsrGraph g;
  g.n_ = n;
  g.row_ptr_ = std::move(row_ptr);
  g.adj_ = std::move(adj);
  g.validate();
  return g;
}

void CsrGraph::validate() const {
  NBWP_REQUIRE(row_ptr_.size() == static_cast<size_t>(n_) + 1,
               "graph csr: row_ptr must have n+1 entries");
  NBWP_REQUIRE(row_ptr_.front() == 0, "graph csr: row_ptr must start at 0");
  NBWP_REQUIRE(row_ptr_.back() == adj_.size(),
               "graph csr: row_ptr must end at the adjacency size");
  // Monotone from 0 to the adjacency size keeps every list in bounds
  // before any is read.
  for (Vertex v = 0; v < n_; ++v)
    NBWP_REQUIRE(row_ptr_[v] <= row_ptr_[v + 1],
                 "graph csr: row_ptr must be monotone non-decreasing");
  // Symmetry in one linear pass.  Visiting u in ascending order, the arcs
  // into v arrive in ascending u, so with sorted duplicate-free lists arc
  // (u, v) must match the next unmatched entry of v's list.  Each match
  // uses one entry and there are as many arcs as entries, so when every
  // arc matches every list is used up.
  std::vector<uint64_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (Vertex u = 0; u < n_; ++u) {
    for (uint64_t i = row_ptr_[u]; i < row_ptr_[u + 1]; ++i) {
      const Vertex v = adj_[i];
      NBWP_REQUIRE(v < n_, "graph csr: neighbor id out of range");
      NBWP_REQUIRE(v != u, "graph csr: self-loop");
      NBWP_REQUIRE(i == row_ptr_[u] || adj_[i - 1] < v,
                   "graph csr: neighbors must be strictly increasing");
      NBWP_REQUIRE(cursor[v] < row_ptr_[v + 1] && adj_[cursor[v]] == u,
                   "graph csr: missing reverse arc (asymmetric adjacency)");
      ++cursor[v];
    }
  }
}

bool CsrGraph::has_edge(Vertex u, Vertex v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> CsrGraph::undirected_edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

}  // namespace nbwp::graph
