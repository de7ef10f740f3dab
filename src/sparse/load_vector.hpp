// Work-volume estimation for SpGEMM (Section IV).
//
// For C = A x B, the paper observes that with V_B[k] = nnz of row k of B,
// the product A x V_B (counting one unit per multiply) yields L_AB where
// L_AB[i] is the exact work volume of row i of A.  Algorithm 2 splits A so
// the CPU receives the first rows holding r% of sum(L_AB).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr_matrix.hpp"

namespace nbwp::sparse {

/// V_B: nnz of each row of B.
std::vector<uint64_t> row_nnz_vector(const CsrMatrix& b);

/// L_AB[i] = sum over k in row i of A of V_B[k] (the multiply count, which
/// is also the intermediate-product count of Gustavson's algorithm).
std::vector<uint64_t> load_vector(const CsrMatrix& a,
                                  std::span<const uint64_t> v_b);

/// Load vector of the masked product A x B[mask == keep]: only the rows k
/// of B with b_row_mask[k] == keep contribute V_B[k].
std::vector<uint64_t> load_vector_masked(const CsrMatrix& a,
                                         std::span<const uint64_t> v_b,
                                         std::span<const uint8_t> b_row_mask,
                                         uint8_t keep);

/// Prefix sums: out[i] = sum of loads[0..i), out has size loads.size()+1.
std::vector<uint64_t> prefix_sums(std::span<const uint64_t> loads);

/// Algorithm 2 line 3: the split row index i such that the prefix load
/// through row i-1 is closest to `target` (CPU takes rows [0, i)).
Index split_row_for_load(std::span<const uint64_t> load_prefix,
                         uint64_t target);

/// Convenience: split index for a CPU share of r% of the total load.
Index split_row_for_share(std::span<const uint64_t> load_prefix,
                          double cpu_share_pct);

/// Nearly balanced contiguous partition of the rows into `parts` ranges:
/// out[p] is the first row of part p, out[0] = 0, out[parts] = row count,
/// and part p's prefix load ends closest to (p+1)/parts of the total
/// (Algorithm 2's split applied at every internal boundary).  When the
/// total load is zero the split degenerates to equal row counts.
std::vector<Index> balanced_boundaries(std::span<const uint64_t> load_prefix,
                                       unsigned parts);

/// The same partition restricted to rows [first, last): out[0] = first,
/// out[parts] = last, and the internal boundaries split the range's own
/// load (load_prefix[last] - load_prefix[first]) nearly evenly.
std::vector<Index> balanced_boundaries(std::span<const uint64_t> load_prefix,
                                       Index first, Index last,
                                       unsigned parts);

}  // namespace nbwp::sparse
