#include "hetalg/hetero_spmm_hh.hpp"

#include <gtest/gtest.h>

#include "hetalg/hh_frozen_path.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::hetalg {
namespace {

using sparse::CsrMatrix;

const hetsim::Platform& plat() { return hetsim::Platform::reference(); }

CsrMatrix scale_free_matrix(uint64_t seed = 1) {
  Rng rng(seed);
  return sparse::scale_free(1200, 10, 2.2, rng);
}

class HeteroHhCutoffTest : public ::testing::TestWithParam<double> {};

TEST_P(HeteroHhCutoffTest, RunMatchesAnalyticTime) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  const double t = GetParam();
  EXPECT_NEAR(problem.run(t).total_ns(), problem.time_ns(t),
              problem.time_ns(t) * 1e-9);
}

TEST_P(HeteroHhCutoffTest, ProductCorrectAtEveryCutoff) {
  const CsrMatrix a = scale_free_matrix();
  const CsrMatrix expected = sparse::spgemm(a, a);
  const HeteroSpmmHh problem(a, plat());
  CsrMatrix c;
  const auto report = problem.run(GetParam(), &c);
  EXPECT_EQ(report.counter("c_nnz"), static_cast<double>(expected.nnz()));
  // Values too: bit for bit the frozen four-product Phase I-IV path.
  EXPECT_TRUE(frozen::bitwise_equal(
      c, frozen::frozen_hh_product(a, GetParam(), ThreadPool::global())));
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, HeteroHhCutoffTest,
                         ::testing::Values(1.0, 5.0, 20.0, 75.0, 1e9));

TEST(HeteroSpmmHh, RowClassificationPartitions) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  const HhStructure s = problem.structure_at(12.0);
  EXPECT_EQ(s.rows_h + s.rows_l, problem.a().rows());
  EXPECT_GT(s.rows_h, 0u);
  EXPECT_GT(s.rows_l, 0u);
}

TEST(HeteroSpmmHh, FourProductsCoverAllWork) {
  const CsrMatrix a = scale_free_matrix();
  sparse::SpgemmCounters all;
  sparse::spgemm(a, a, &all);
  const HeteroSpmmHh problem(a, plat());
  const HhStructure s = problem.structure_at(10.0);
  EXPECT_EQ(s.cpu2.multiplies + s.cpu3.multiplies + s.gpu2.multiplies +
                s.gpu3.multiplies,
            all.multiplies);
}

TEST(HeteroSpmmHh, ExtremeCutoffsDegenerate) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  // Cutoff above max degree: everything is low-dense (GPU side).
  const HhStructure all_l = problem.structure_at(problem.threshold_hi());
  EXPECT_EQ(all_l.rows_h, 0u);
  // Cutoff 0.5: every non-empty row is high-dense.
  const HhStructure all_h = problem.structure_at(0.5);
  EXPECT_EQ(all_h.gpu2.multiplies + all_h.gpu3.multiplies, 0u);
}

TEST(HeteroSpmmHh, WorkShareAboveDecreasing) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  double prev = 1.0;
  for (double t : {1.0, 2.0, 5.0, 10.0, 30.0, 100.0}) {
    const double share = problem.work_share_above(t);
    EXPECT_LE(share, prev + 1e-12);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
    prev = share;
  }
  EXPECT_DOUBLE_EQ(problem.work_share_above(1e12), 0.0);
}

TEST(HeteroSpmmHh, ThresholdForWorkShareInverts) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  for (double t : {3.0, 8.0, 25.0}) {
    const double share = problem.work_share_above(t);
    const double back = problem.threshold_for_work_share(share);
    // Inversion is exact up to the degree quantization.
    EXPECT_NEAR(problem.work_share_above(back), share, 0.02);
  }
}

TEST(HeteroSpmmHh, CandidateThresholdsSpanRange) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  const auto cands = problem.candidate_thresholds(32);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_LE(cands.front(), 1.0 + 1e-9);
  EXPECT_GE(cands.back(), problem.threshold_hi() * 0.9);
  EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
}

TEST(HeteroSpmmHh, SampleKeepsHeavyTailSignal) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  Rng rng(3);
  const HeteroSpmmHh sample = problem.make_sample(2.0, rng);
  // Column folding preserves row degrees, so a scale-free input should
  // leave a sample whose max degree is far above its average.
  const double avg =
      static_cast<double>(sample.a().nnz()) / sample.a().rows();
  EXPECT_GT(static_cast<double>(sample.max_degree()), 3.0 * avg);
}

TEST(HeteroSpmmHh, NonSquareRejected) {
  const CsrMatrix a(3, 4);
  EXPECT_THROW(HeteroSpmmHh(a, plat()), Error);
}

TEST(HeteroSpmmHh, BalancePositiveAtExtremes) {
  const HeteroSpmmHh problem(scale_free_matrix(), plat());
  EXPECT_GT(problem.balance_ns(1.0), 0.0);
  EXPECT_GT(problem.balance_ns(problem.threshold_hi()), 0.0);
}

}  // namespace
}  // namespace nbwp::hetalg
