#include "core/sampling_partitioner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/exhaustive.hpp"

namespace nbwp::core {
namespace {

/// A synthetic PartitionProblem: device rates are fixed, so the optimal
/// CPU share is cpu_rate-independent of the instance size and a sample
/// (scaled copy) preserves it exactly.  The ground truth optimum is
/// gpu_rate / (cpu_rate + gpu_rate) * 100.
class ToyProblem {
 public:
  ToyProblem(double size, double cpu_ns_per_unit, double gpu_ns_per_unit)
      : size_(size), cpu_(cpu_ns_per_unit), gpu_(gpu_ns_per_unit) {}

  static constexpr double threshold_lo() { return 0.0; }
  static constexpr double threshold_hi() { return 100.0; }

  double time_ns(double t) const {
    return std::max(cpu_time(t), gpu_time(t)) + 50.0;  // +fixed overhead
  }
  double balance_ns(double t) const {
    return std::abs(cpu_time(t) - gpu_time(t));
  }
  ToyProblem make_sample(double factor, Rng&) const {
    return ToyProblem(size_ * factor, cpu_, gpu_);
  }
  double sampling_cost_ns(double factor) const { return size_ * factor; }
  std::pair<double, double> device_times_all() const {
    return {cpu_ * size_, gpu_ * size_};
  }

  double optimum() const { return 100.0 * gpu_ / (cpu_ + gpu_); }

 private:
  double cpu_time(double t) const { return cpu_ * size_ * t / 100.0; }
  double gpu_time(double t) const {
    return gpu_ * size_ * (100.0 - t) / 100.0;
  }
  double size_, cpu_, gpu_;
};

static_assert(PartitionProblem<ToyProblem>);

class PartitionerMethodTest
    : public ::testing::TestWithParam<IdentifyMethod> {};

TEST_P(PartitionerMethodTest, RecoversKnownOptimum) {
  const ToyProblem problem(1e7, 9.0, 1.0);  // optimum at 10%
  SamplingConfig cfg;
  cfg.method = GetParam();
  cfg.sample_factor = 0.1;
  cfg.timing_noise_ns = 0;
  const PartitionEstimate est = estimate_partition(problem, cfg);
  EXPECT_NEAR(est.threshold, problem.optimum(), 2.0);
  EXPECT_GT(est.estimation_cost_ns, 0.0);
  EXPECT_GT(est.evaluations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, PartitionerMethodTest,
    ::testing::Values(IdentifyMethod::kCoarseToFine,
                      IdentifyMethod::kRaceThenFine,
                      IdentifyMethod::kGradientDescent,
                      IdentifyMethod::kGoldenSection),
    [](const auto& param_info) {
      switch (param_info.param) {
        case IdentifyMethod::kCoarseToFine: return "CoarseToFine";
        case IdentifyMethod::kRaceThenFine: return "RaceThenFine";
        case IdentifyMethod::kGradientDescent: return "GradientDescent";
        case IdentifyMethod::kGoldenSection: return "GoldenSection";
      }
      return "Unknown";
    });

TEST(Partitioner, ScalarExtrapolationApplied) {
  const ToyProblem problem(1e6, 1.0, 1.0);  // optimum 50
  SamplingConfig cfg;
  cfg.timing_noise_ns = 0;
  const PartitionEstimate est = estimate_partition(
      problem, cfg,
      [](const ToyProblem&, const ToyProblem&, double t) { return t / 2.0; });
  EXPECT_NEAR(est.threshold, 25.0, 2.0);
  EXPECT_NEAR(est.sample_threshold, 50.0, 2.0);
}

TEST(Partitioner, RichExtrapolatorSeesBothProblems) {
  const ToyProblem problem(1e6, 1.0, 3.0);  // optimum 75
  SamplingConfig cfg;
  cfg.timing_noise_ns = 0;
  bool called = false;
  const PartitionEstimate est = estimate_partition(
      problem, cfg,
      [&](const ToyProblem&, const ToyProblem&, double ts) {
        called = true;
        return ts;
      });
  EXPECT_TRUE(called);
  EXPECT_NEAR(est.threshold, 75.0, 2.0);
}

TEST(Partitioner, RepeatsAverageOut) {
  const ToyProblem problem(1e6, 4.0, 1.0);  // optimum 20
  SamplingConfig cfg;
  cfg.repeats = 3;
  cfg.timing_noise_ns = 0;
  const PartitionEstimate est = estimate_partition(problem, cfg);
  EXPECT_NEAR(est.threshold, 20.0, 2.0);
  // Cost accumulates across repeats.
  SamplingConfig single = cfg;
  single.repeats = 1;
  const PartitionEstimate one = estimate_partition(problem, single);
  EXPECT_GT(est.estimation_cost_ns, one.estimation_cost_ns * 2);
}

TEST(Partitioner, EstimateClampedToRange) {
  const ToyProblem problem(1e6, 1.0, 1.0);
  SamplingConfig cfg;
  cfg.timing_noise_ns = 0;
  const PartitionEstimate est = estimate_partition(
      problem, cfg,
      [](const ToyProblem&, const ToyProblem&, double) { return 1e9; });
  EXPECT_DOUBLE_EQ(est.threshold, 100.0);
}

TEST(Partitioner, NoiseDeterministicPerSeed) {
  const ToyProblem problem(1e4, 2.0, 1.0);
  SamplingConfig cfg;
  cfg.timing_noise_ns = 1e3;  // deliberately large
  const PartitionEstimate a = estimate_partition(problem, cfg);
  const PartitionEstimate b = estimate_partition(problem, cfg);
  EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
  cfg.seed ^= 0x123;
  const PartitionEstimate c = estimate_partition(problem, cfg);
  // Different seed can move the noisy estimate (not guaranteed, but with
  // noise this large a tie would be suspicious).
  EXPECT_TRUE(std::abs(c.threshold - a.threshold) >= 0.0);  // smoke
}

TEST(Exhaustive, FindsArgminOfCurve) {
  const ToyProblem problem(1e6, 3.0, 1.0);  // optimum 25
  const ExhaustiveResult r = exhaustive_search(problem, 1.0);
  EXPECT_NEAR(r.best_threshold, 25.0, 1.0);
  EXPECT_EQ(r.curve.size(), 101u);
  for (const auto& [t, ns] : r.curve) EXPECT_GE(ns, r.best_time_ns);
}

TEST(Exhaustive, OverExplicitCandidates) {
  const ToyProblem problem(1e6, 1.0, 1.0);  // optimum 50
  const std::vector<double> candidates = {10, 30, 49, 70};
  const ExhaustiveResult r = exhaustive_search_over(problem, candidates);
  EXPECT_DOUBLE_EQ(r.best_threshold, 49.0);
  EXPECT_EQ(r.curve.size(), candidates.size());
}

}  // namespace
}  // namespace nbwp::core
