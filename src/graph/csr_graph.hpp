// Compressed-sparse-row undirected graph.
//
// Both directions of every undirected edge are stored (standard adjacency
// CSR), so `adjacency().size() == 2 * num_edges()`.  Vertex ids are 32-bit;
// the paper's largest graph (asia_osm, 12M nodes) fits comfortably.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace nbwp::graph {

using Vertex = uint32_t;
using Edge = std::pair<Vertex, Vertex>;

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Build from an undirected edge list.  Self-loops are dropped and
  /// duplicate edges are collapsed; each surviving edge appears in both
  /// endpoint adjacency lists, sorted by neighbor id.
  static CsrGraph from_undirected_edges(Vertex n, std::span<const Edge> edges);

  /// Build directly from validated CSR arrays (both directions present).
  static CsrGraph from_csr(Vertex n, std::vector<uint64_t> row_ptr,
                           std::vector<Vertex> adj);

  Vertex num_vertices() const { return n_; }
  uint64_t num_edges() const { return adj_.size() / 2; }  ///< undirected
  uint64_t num_directed_edges() const { return adj_.size(); }

  uint64_t degree(Vertex v) const { return row_ptr_[v + 1] - row_ptr_[v]; }

  std::span<const Vertex> neighbors(Vertex v) const {
    return {adj_.data() + row_ptr_[v],
            static_cast<size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  std::span<const uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const Vertex> adjacency() const { return adj_; }

  bool has_edge(Vertex u, Vertex v) const;

  /// Check every adjacency-CSR invariant and throw nbwp::Error on the
  /// first violation: row_ptr has n+1 monotone entries from 0 to the
  /// adjacency size, neighbor ids are in range and strictly increasing
  /// per list (sorted, duplicate-free), no self-loops, and every arc has
  /// its reverse (undirected symmetry).  Linear in n + m.  from_csr runs
  /// this on adopted arrays.
  void validate() const;

  /// Memory footprint of the CSR arrays in bytes (used for PCIe costs).
  double bytes() const {
    return static_cast<double>(row_ptr_.size() * sizeof(uint64_t) +
                               adj_.size() * sizeof(Vertex));
  }

  /// Recover the undirected edge list (u < v), sorted.
  std::vector<Edge> undirected_edges() const;

 private:
  Vertex n_ = 0;
  std::vector<uint64_t> row_ptr_{0};
  std::vector<Vertex> adj_;
};

}  // namespace nbwp::graph
