// HH-CPU execute equivalence: HeteroSpmmHh::run and the one-pass kernel
// under it (sparse::spgemm_parallel_two_class) must reproduce the frozen
// four-product Phase I-IV path (hh_frozen_path.hpp) bit for bit, at every
// team size (one worker included), on inputs chosen to reach every corner
// of the combine: empty rows, all rows heavy, all rows light, fewer rows
// than four per worker, and values whose products cancel or carry a signed
// zero into the H/L sum.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "hetalg/hetero_spmm_hh.hpp"
#include "hetalg/hh_frozen_path.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"
#include "util/error.hpp"

namespace nbwp::hetalg {
namespace {

using frozen::bitwise_equal;
using frozen::frozen_hh_product;
using sparse::CsrMatrix;
using sparse::Index;

struct NamedMatrix {
  std::string name;
  CsrMatrix a;
};

/// Rebuild `pattern` with each value drawn from `next_value()`.
template <typename Value>
CsrMatrix with_values(const CsrMatrix& pattern, const Value& next_value) {
  std::vector<uint64_t> row_ptr(pattern.row_ptr().begin(),
                                pattern.row_ptr().end());
  std::vector<Index> col_idx(pattern.col_idx().begin(),
                             pattern.col_idx().end());
  std::vector<double> values(pattern.nnz());
  for (double& v : values) v = next_value();
  return CsrMatrix::from_parts(pattern.rows(), pattern.cols(),
                               std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

/// Every 5th row of a scale-free matrix emptied (so A and B both have
/// empty rows).
CsrMatrix with_empty_rows() {
  Rng rng(11);
  const CsrMatrix base = sparse::scale_free(600, 8, 2.2, rng);
  std::vector<sparse::Triplet> entries;
  for (Index r = 0; r < base.rows(); ++r) {
    if (r % 5 == 0) continue;
    const auto cs = base.row_cols(r);
    const auto vs = base.row_vals(r);
    for (size_t j = 0; j < cs.size(); ++j) entries.push_back({r, cs[j], vs[j]});
  }
  return CsrMatrix::from_triplets(base.rows(), base.cols(), entries);
}

/// Every row holds at least two entries, so cutoff 1 makes all rows heavy.
CsrMatrix all_rows_heavy() {
  Rng rng(12);
  const CsrMatrix base = sparse::scale_free(500, 6, 2.2, rng);
  std::vector<sparse::Triplet> entries;
  const Index n = base.rows();
  for (Index r = 0; r < n; ++r) {
    const auto cs = base.row_cols(r);
    const auto vs = base.row_vals(r);
    for (size_t j = 0; j < cs.size(); ++j) entries.push_back({r, cs[j], vs[j]});
    entries.push_back({r, r, 1.0});
    entries.push_back({r, (r + 1) % n, -0.5});
  }
  return CsrMatrix::from_triplets(n, n, entries);
}

/// Six rows: fewer than four per worker for every team of two or more (the
/// frozen path's serial cutoff; some workers of the one pass get no row).
CsrMatrix tiny() {
  std::vector<sparse::Triplet> entries = {
      {0, 0, 2.0}, {0, 3, -1.0}, {0, 5, 0.5}, {1, 1, 1.0}, {2, 0, -2.0},
      {2, 1, 3.0}, {2, 4, 1.0},  {2, 5, 1.5}, {4, 2, 1.0}, {5, 0, 1.0},
      {5, 5, -1.0}};
  return CsrMatrix::from_triplets(6, 6, entries);
}

/// Scale-free pattern with values from {-0, +0, +-1, +-0.5}: products are
/// exact, so sums cancel to +0 and lone -0 products survive, and the H/L
/// combine sees every signed-zero case.
CsrMatrix signed_zeros() {
  Rng pattern_rng(13);
  const CsrMatrix base = sparse::scale_free(700, 8, 2.2, pattern_rng);
  Rng rng(14);
  constexpr double kValues[] = {-0.0, 0.0, 1.0, -1.0, 0.5, -0.5};
  return with_values(
      base, [&] { return kValues[rng.uniform(std::size(kValues))]; });
}

std::vector<NamedMatrix> inputs() {
  Rng rng(1);
  return {{"scale_free", sparse::scale_free(1200, 10, 2.2, rng)},
          {"empty_rows", with_empty_rows()},
          {"all_heavy", all_rows_heavy()},
          {"tiny", tiny()},
          {"signed_zeros", signed_zeros()}};
}

/// The cutoffs the equivalence covers: {1, 5, 20, 75, max degree, 1e9}.
std::vector<double> cutoffs(const HeteroSpmmHh& problem) {
  return {1.0, 5.0, 20.0, 75.0, problem.threshold_hi(), 1e9};
}

TEST(HhEquivalence, InputsReachEveryCombineCase) {
  const auto all = inputs();
  const CsrMatrix& heavy = all[2].a;
  const HeteroSpmmHh problem(heavy, hetsim::Platform::reference());
  EXPECT_EQ(problem.structure_at(1.0).rows_l, 0u);
  EXPECT_EQ(problem.structure_at(problem.threshold_hi()).rows_h, 0u);

  bool empty_row = false;
  for (Index r = 0; r < all[1].a.rows(); ++r)
    empty_row = empty_row || all[1].a.row_nnz(r) == 0;
  EXPECT_TRUE(empty_row);

  // The signed-zero input must carry a -0.0 and a +0.0 into C.
  ThreadPool pool(2);
  const CsrMatrix c = frozen_hh_product(all[4].a, 5.0, pool);
  bool neg_zero = false, pos_zero = false;
  for (const double v : c.values()) {
    neg_zero = neg_zero || (v == 0.0 && std::signbit(v));
    pos_zero = pos_zero || (v == 0.0 && !std::signbit(v));
  }
  EXPECT_TRUE(neg_zero);
  EXPECT_TRUE(pos_zero);
}

TEST(HhEquivalence, RunIsBitwiseEqualToFrozenPathAtEveryCutoff) {
  for (const auto& [name, a] : inputs()) {
    const HeteroSpmmHh problem(a, hetsim::Platform::reference());
    for (const double t : cutoffs(problem)) {
      CsrMatrix c;
      const hetsim::RunReport report = problem.run(t, &c);
      const CsrMatrix expected =
          frozen_hh_product(a, t, ThreadPool::global());
      EXPECT_TRUE(bitwise_equal(c, expected)) << name << " t=" << t;
      EXPECT_EQ(report.counter("c_nnz"), static_cast<double>(expected.nnz()))
          << name << " t=" << t;
    }
  }
}

/// The counters the frozen partial products and the one pass share.
void expect_same_work(const sparse::SpgemmCounters& got,
                      const sparse::SpgemmCounters& want,
                      const std::string& what) {
  EXPECT_EQ(got.multiplies, want.multiplies) << what;
  EXPECT_EQ(got.c_nnz, want.c_nnz) << what;
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.a_nnz, want.a_nnz) << what;
  EXPECT_EQ(got.rows_spa + got.rows_hash, got.rows) << what;
}

class SpgemmTwoClassTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpgemmTwoClassTest, BitwiseEqualToFrozenPathAtEveryCutoff) {
  ThreadPool pool(GetParam());
  for (const auto& [name, a] : inputs()) {
    const HeteroSpmmHh problem(a, hetsim::Platform::reference());
    for (const double t : cutoffs(problem)) {
      const std::string what = name + " t=" + std::to_string(t);
      const std::vector<uint8_t> mask = frozen::hh_mask(a, t);
      sparse::SpgemmClassCounters got;
      const CsrMatrix c =
          sparse::spgemm_parallel_two_class(a, pool, mask, &got);
      frozen::FrozenHhCounters want;
      EXPECT_TRUE(bitwise_equal(c, frozen_hh_product(a, t, pool, &want)))
          << what;
      expect_same_work(got.by[1][1], want.hh, what + " hh");
      expect_same_work(got.by[1][0], want.hl, what + " hl");
      expect_same_work(got.by[0][0], want.ll, what + " ll");
      expect_same_work(got.by[0][1], want.lh, what + " lh");
    }
  }
}

TEST_P(SpgemmTwoClassTest, EveryRouteAndScheduleKeepsTheBits) {
  ThreadPool pool(GetParam());
  using sparse::SpgemmAccumulator;
  using sparse::SpgemmSchedule;
  const sparse::SpgemmParallelOptions variants[] = {
      {.accumulator = SpgemmAccumulator::kForceSpa},
      {.accumulator = SpgemmAccumulator::kForceHash},
      {.schedule = SpgemmSchedule::kDynamic, .dynamic_chunk = 7},
      {.schedule = SpgemmSchedule::kWorkBalanced}};
  const auto all = inputs();
  for (const size_t which : {size_t{0}, size_t{4}}) {
    const CsrMatrix& a = all[which].a;
    const std::vector<uint8_t> mask = frozen::hh_mask(a, 5.0);
    const CsrMatrix expected = frozen_hh_product(a, 5.0, pool);
    for (size_t v = 0; v < std::size(variants); ++v) {
      EXPECT_TRUE(bitwise_equal(sparse::spgemm_parallel_two_class(
                                    a, pool, mask, nullptr, variants[v]),
                                expected))
          << all[which].name << " variant " << v;
    }
  }
}

TEST_P(SpgemmTwoClassTest, RejectsMismatchedMasks) {
  ThreadPool pool(GetParam());
  const CsrMatrix a = tiny();
  const std::vector<uint8_t> good(a.rows(), 0), bad(a.rows() + 1, 0);
  EXPECT_THROW(sparse::spgemm_parallel_two_class(a, pool, bad), Error);
  const CsrMatrix wide(a.rows(), a.cols() + 1);
  EXPECT_THROW(sparse::spgemm_parallel_two_class(wide, pool, good), Error);
}

INSTANTIATE_TEST_SUITE_P(Teams, SpgemmTwoClassTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto& param_info) {
                           return "Team" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace nbwp::hetalg
