// Test-local frozen copy of the four-product HH-CPU execute (Phases I-IV
// as HeteroSpmmHh::run computed them before the one-pass kernel):
// extract A_H and A_L, run the four masked products A_H*B_H, A_H*B_L,
// A_L*B_L and A_L*B_H, add them pairwise with sp_add, and scatter the two
// halves back into input row order.  The equivalence tests hold the
// one-pass product to these bits, signed zeros included.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/row_subset.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::hetalg::frozen {

/// Counters of the four frozen partial products.
struct FrozenHhCounters {
  sparse::SpgemmCounters hh, hl, ll, lh;
};

/// Row classes of A at cutoff t: 1 for H (more than t nonzeros), else 0.
inline std::vector<uint8_t> hh_mask(const sparse::CsrMatrix& a, double t) {
  std::vector<uint8_t> mask(a.rows(), 0);
  for (sparse::Index r = 0; r < a.rows(); ++r)
    mask[r] = static_cast<double>(a.row_nnz(r)) > t ? 1 : 0;
  return mask;
}

/// A x A through the frozen Phase I-IV path.
inline sparse::CsrMatrix frozen_hh_product(const sparse::CsrMatrix& a,
                                           double t, ThreadPool& pool,
                                           FrozenHhCounters* counters =
                                               nullptr) {
  const std::vector<uint8_t> mask = hh_mask(a, t);
  std::vector<sparse::Index> ids_h, ids_l;
  for (sparse::Index r = 0; r < a.rows(); ++r)
    (mask[r] ? ids_h : ids_l).push_back(r);
  const sparse::CsrMatrix a_h = sparse::extract_rows(a, ids_h);
  const sparse::CsrMatrix a_l = sparse::extract_rows(a, ids_l);
  FrozenHhCounters local;
  const sparse::CsrMatrix c_hh =
      sparse::spgemm_parallel_masked(a_h, a, pool, mask, 1, &local.hh);
  const sparse::CsrMatrix c_ll =
      sparse::spgemm_parallel_masked(a_l, a, pool, mask, 0, &local.ll);
  const sparse::CsrMatrix c_hl =
      sparse::spgemm_parallel_masked(a_h, a, pool, mask, 0, &local.hl);
  const sparse::CsrMatrix c_lh =
      sparse::spgemm_parallel_masked(a_l, a, pool, mask, 1, &local.lh);
  if (counters) *counters = local;
  const sparse::CsrMatrix c_h = sparse::sp_add(c_hh, c_hl);
  const sparse::CsrMatrix c_l = sparse::sp_add(c_ll, c_lh);
  return sparse::scatter_rows(a.rows(), ids_h, c_h, ids_l, c_l);
}

/// Same shape, pattern and value *bits* (operator== would let -0.0 match
/// +0.0).
inline ::testing::AssertionResult bitwise_equal(const sparse::CsrMatrix& x,
                                                const sparse::CsrMatrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    return ::testing::AssertionFailure() << "shape differs";
  if (!std::ranges::equal(x.row_ptr(), y.row_ptr()))
    return ::testing::AssertionFailure() << "row_ptr differs";
  if (!std::ranges::equal(x.col_idx(), y.col_idx()))
    return ::testing::AssertionFailure() << "col_idx differs";
  if (x.nnz() != y.nnz() ||
      (x.nnz() > 0 && std::memcmp(x.values().data(), y.values().data(),
                                  x.nnz() * sizeof(double)) != 0))
    return ::testing::AssertionFailure() << "value bits differ";
  return ::testing::AssertionSuccess();
}

}  // namespace nbwp::hetalg::frozen
