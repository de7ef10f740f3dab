#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "exp/report.hpp"
#include "hetalg/hetero_spmv.hpp"

namespace nbwp::exp {
namespace {

// Suite smoke runs use a tiny scale so the whole file stays fast.
SuiteOptions tiny() {
  SuiteOptions o;
  o.scale = 0.03;
  return o;
}

TEST(Experiment, DefaultScaleQuartersOnlyHugeInputs) {
  EXPECT_DOUBLE_EQ(default_scale(datasets::spec_by_name("cant")), 1.0);
  EXPECT_DOUBLE_EQ(default_scale(datasets::spec_by_name("asia_osm")), 0.25);
}

TEST(Experiment, CcSuiteProducesConsistentRows) {
  const auto results =
      run_cc_suite(hetsim::Platform::reference(), tiny());
  ASSERT_EQ(results.size(), 15u);
  for (const auto& r : results) {
    EXPECT_GE(r.exhaustive_threshold, 0.0);
    EXPECT_LE(r.exhaustive_threshold, 100.0);
    EXPECT_GE(r.estimated_threshold, 0.0);
    EXPECT_LE(r.estimated_threshold, 100.0);
    EXPECT_GT(r.exhaustive_ns, 0.0);
    // Exhaustive is the argmin: nothing beats it.
    EXPECT_GE(r.estimated_ns, r.exhaustive_ns - 1.0);
    EXPECT_GE(r.naive_static_ns, r.exhaustive_ns - 1.0);
    EXPECT_GE(r.naive_average_ns, r.exhaustive_ns - 1.0);
    EXPECT_GE(r.gpu_only_ns, r.exhaustive_ns - 1.0);
    EXPECT_GT(r.estimation_cost_ns, 0.0);
    EXPECT_GE(r.overhead_pct, 0.0);
    EXPECT_LE(r.overhead_pct, 100.0);
    EXPECT_EQ(r.threshold_diff_pct,
              std::abs(r.estimated_threshold - r.exhaustive_threshold));
  }
}

TEST(Experiment, SpmmSuiteRespectsExhaustiveOptimality) {
  const auto results =
      run_spmm_suite(hetsim::Platform::reference(), tiny());
  ASSERT_EQ(results.size(), 15u);
  for (const auto& r : results) {
    // The race's coarse estimate is fractional and can nose ahead of the
    // 1-percent exhaustive grid by a hair.
    EXPECT_GE(r.estimated_ns, r.exhaustive_ns * 0.995) << r.dataset;
    EXPECT_GT(r.n, 0u);
    EXPECT_GT(r.nnz, 0u);
  }
}

TEST(Experiment, HhSuiteCoversScaleFreeRows) {
  const auto results = run_hh_suite(hetsim::Platform::reference(), tiny());
  ASSERT_EQ(results.size(), 9u);
  for (const auto& r : results) {
    // The estimate is a continuous cutoff; the oracle walks a log-spaced
    // candidate grid, so the estimate can beat it by a sliver.
    EXPECT_GE(r.estimated_ns, r.exhaustive_ns * 0.97) << r.dataset;
    EXPECT_GE(r.estimated_threshold, 1.0);
  }
}

TEST(Experiment, DenseStudyRegularShape) {
  const auto results =
      run_dense_study(hetsim::Platform::reference(), {4096, 8192});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    // The regular-workload message: NaiveStatic within a few points.
    EXPECT_NEAR(r.naive_static_threshold, r.exhaustive_threshold, 5.0);
    EXPECT_LE(r.naive_static_ns / r.exhaustive_ns, 1.05);
  }
}

TEST(Experiment, SensitivityReturnsRequestedFactors) {
  const auto points = run_sensitivity(
      hetsim::Platform::reference(), Workload::kCc,
      datasets::spec_by_name("rma10"), {0.5, 1.0, 2.0}, tiny());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].sample_size, points[2].sample_size);
  // Estimation cost grows with the sample.
  EXPECT_LT(points[0].estimation_cost_ns, points[2].estimation_cost_ns);
  for (const auto& p : points)
    EXPECT_DOUBLE_EQ(p.total_ns, p.estimation_cost_ns + p.run_ns);
}

TEST(Experiment, SensitivityServesSpmv) {
  // The n/4-style submatrix sample reports its row count, so the study
  // runs on spmv like on the other registered workloads.
  SuiteOptions options;
  options.scale = 0.05;
  const auto spec = datasets::spec_by_name("cant");
  const auto points = run_sensitivity(hetsim::Platform::reference(),
                                      Workload::kSpmv, spec,
                                      {0.125, 0.25, 0.5}, options);
  ASSERT_EQ(points.size(), 3u);
  const hetalg::HeteroSpmv problem(load_matrix(spec, options),
                                   hetsim::Platform::reference());
  for (const auto& p : points) {
    EXPECT_EQ(p.sample_size, problem.sample_size(p.factor));
    EXPECT_GT(p.estimation_cost_ns, 0.0);
    EXPECT_DOUBLE_EQ(p.total_ns, p.estimation_cost_ns + p.run_ns);
  }
  EXPECT_LT(points[0].sample_size, points[2].sample_size);
}

TEST(Experiment, RandomnessStudyHasRandomAndCorners) {
  const auto points = run_randomness_study(
      hetsim::Platform::reference(), datasets::spec_by_name("cant"), tiny());
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points[0].label, "random");
  int corners = 0;
  for (const auto& p : points)
    corners += p.label.rfind("corner@", 0) == 0;
  EXPECT_EQ(corners, 4);
}

TEST(Experiment, SummarizeAverages) {
  std::vector<CaseResult> results(2);
  results[0].threshold_diff_pct = 2;
  results[0].time_diff_pct = 10;
  results[0].overhead_pct = 4;
  results[1].threshold_diff_pct = 4;
  results[1].time_diff_pct = -2;  // clamped to 0 in the summary
  results[1].overhead_pct = 8;
  const SummaryRow row = summarize("CC", results);
  EXPECT_DOUBLE_EQ(row.threshold_diff_pct, 3.0);
  EXPECT_DOUBLE_EQ(row.time_diff_pct, 5.0);
  EXPECT_DOUBLE_EQ(row.overhead_pct, 6.0);
}

TEST(Report, TablesRenderWithoutError) {
  std::vector<CaseResult> results(1);
  results[0].dataset = "demo";
  std::ostringstream os;
  threshold_figure("t", results, true).print(os);
  time_figure("t", results).print(os);
  std::vector<SummaryRow> rows = {summarize("CC", results)};
  table_one(rows).print(os);
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace nbwp::exp
