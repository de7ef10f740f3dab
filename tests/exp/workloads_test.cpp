// The workload registry: names round-trip, unknown names fail typed, each
// workload's identify config is pinned field by field, and a problem
// built through exp::visit_workload plans exactly like the same type
// constructed by hand with the same config and extrapolator.
#include "exp/workloads.hpp"

#include <gtest/gtest.h>

#include "core/robust_estimate.hpp"

namespace nbwp::exp {
namespace {

using core::IdentifyMethod;
using core::SamplingConfig;
using core::Workload;

TEST(Workloads, NamesRoundTrip) {
  for (Workload w : core::kWorkloads)
    EXPECT_EQ(core::parse_workload(core::workload_name(w)), w);
  EXPECT_STREQ(core::workload_name(Workload::kCc), "cc");
  EXPECT_STREQ(core::workload_name(Workload::kSpmm), "spmm");
  EXPECT_STREQ(core::workload_name(Workload::kSpmv), "spmv");
  EXPECT_STREQ(core::workload_name(Workload::kHh), "hh");
}

TEST(Workloads, UnknownNameThrowsTypedErrorListingTheRegistry) {
  try {
    core::parse_workload("gemm");
    FAIL() << "parse_workload accepted 'gemm'";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown workload 'gemm' (cc|spmm|hh|spmv)");
  }
  EXPECT_THROW(core::parse_workload(""), Error);
  EXPECT_THROW(core::parse_workload("CC"), Error);
}

/// Every field of a SamplingConfig except the std::function probe hook.
void expect_config(const SamplingConfig& got, const SamplingConfig& want) {
  EXPECT_EQ(got.sample_factor, want.sample_factor);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.repeats, want.repeats);
  EXPECT_EQ(got.coarse_step, want.coarse_step);
  EXPECT_EQ(got.fine_step, want.fine_step);
  EXPECT_EQ(got.race_fine_halfwidth, want.race_fine_halfwidth);
  EXPECT_EQ(got.race_fine_step, want.race_fine_step);
  EXPECT_EQ(got.gradient.initial_step_fraction,
            want.gradient.initial_step_fraction);
  EXPECT_EQ(got.gradient.shrink, want.gradient.shrink);
  EXPECT_EQ(got.gradient.max_iterations, want.gradient.max_iterations);
  EXPECT_EQ(got.gradient.log_space, want.gradient.log_space);
  EXPECT_EQ(got.gradient.starts, want.gradient.starts);
  EXPECT_EQ(got.timing_noise_ns, want.timing_noise_ns);
  EXPECT_EQ(got.identify_wall_deadline_ns, want.identify_wall_deadline_ns);
  EXPECT_EQ(got.identify_virtual_budget_ns, want.identify_virtual_budget_ns);
  EXPECT_EQ(got.identify_max_evaluations, want.identify_max_evaluations);
  EXPECT_FALSE(got.probe_hook);
  EXPECT_EQ(got.warm_start_cpu_share, want.warm_start_cpu_share);
  EXPECT_EQ(got.warm.halfwidth, want.warm.halfwidth);
  EXPECT_EQ(got.warm.step, want.warm.step);
  EXPECT_EQ(got.warm.log_space, want.warm.log_space);
  EXPECT_EQ(got.warm.log_ratio, want.warm.log_ratio);
  EXPECT_EQ(got.warm.log_points, want.warm.log_points);
}

/// The per-workload identify configs as written out literally: the
/// Section III-V settings plus the warm-start brackets of the serve path.
SamplingConfig pinned_config(Workload w, uint64_t seed, int repeats) {
  SamplingConfig cfg;
  cfg.seed = seed;
  cfg.repeats = repeats;
  cfg.objective = core::Objective::kBalance;
  cfg.coarse_step = 8;
  cfg.fine_step = 1;
  cfg.race_fine_halfwidth = 7.5;
  cfg.race_fine_step = 3;
  cfg.gradient.initial_step_fraction = 0.25;
  cfg.gradient.shrink = 0.5;
  cfg.gradient.max_iterations = 24;
  cfg.gradient.log_space = false;
  cfg.gradient.starts = 3;
  cfg.timing_noise_ns = 150.0;
  cfg.warm_start_cpu_share = -1.0;
  cfg.warm.log_space = false;
  cfg.warm.log_ratio = 1.5;
  cfg.warm.log_points = 3;
  switch (w) {
    case Workload::kCc:
      cfg.sample_factor = 1.0;
      cfg.method = IdentifyMethod::kCoarseToFine;
      cfg.warm.halfwidth = 4;
      cfg.warm.step = 1;
      break;
    case Workload::kSpmm:
    case Workload::kSpmv:
      cfg.sample_factor = 0.25;
      cfg.method = IdentifyMethod::kRaceThenFine;
      cfg.warm.halfwidth = 3;
      cfg.warm.step = 3;
      break;
    case Workload::kHh:
      cfg.sample_factor = 1.0;
      cfg.method = IdentifyMethod::kGradientDescent;
      cfg.gradient.log_space = true;
      cfg.gradient.starts = 2;
      cfg.gradient.max_iterations = 10;
      cfg.gradient.initial_step_fraction = 0.2;
      cfg.warm.halfwidth = 4;
      cfg.warm.step = 1;
      cfg.warm.log_space = true;
      break;
  }
  return cfg;
}

TEST(Workloads, SamplingConfigsArePinned) {
  for (Workload w : core::kWorkloads) {
    SCOPED_TRACE(core::workload_name(w));
    expect_config(core::sampling_config(w), pinned_config(w, 0x5EED, 1));
    expect_config(core::sampling_config(w, 24301, 3),
                  pinned_config(w, 24301, 3));
  }
}

/// Registry-built problem vs. the type constructed by hand: the robust
/// estimate must agree bitwise.
template <typename P, typename Extrapolate>
void expect_same_plan(Workload w, const char* dataset, P direct,
                      Extrapolate extrapolate) {
  SCOPED_TRACE(core::workload_name(w));
  SuiteOptions options;
  options.scale = 0.05;
  core::RobustConfig cfg;
  cfg.sampling = pinned_config(w, 24301, 1);
  const core::RobustEstimate want =
      core::robust_estimate_partition(direct, cfg, extrapolate);
  core::RobustConfig registry_cfg;
  registry_cfg.sampling = core::sampling_config(w, 24301);
  const core::RobustEstimate got = visit_workload(
      w, datasets::spec_by_name(dataset), options,
      hetsim::Platform::reference(),
      [&](const auto& problem, const auto& registry_extrapolate,
          const auto&) {
        return core::robust_estimate_partition(problem, registry_cfg,
                                               registry_extrapolate);
      });
  EXPECT_EQ(got.stage, core::FallbackStage::kSampled);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.estimation_cost_ns, want.estimation_cost_ns);
}

TEST(Workloads, RegistryProblemsPlanLikeDirectConstruction) {
  SuiteOptions options;
  options.scale = 0.05;
  const auto& platform = hetsim::Platform::reference();
  const auto identity = [](const auto&, const auto&, double t) { return t; };
  expect_same_plan(
      Workload::kCc, "pwtk",
      hetalg::HeteroCc(load_graph(datasets::spec_by_name("pwtk"), options),
                       platform),
      identity);
  expect_same_plan(
      Workload::kSpmm, "cant",
      hetalg::HeteroSpmm(
          load_matrix(datasets::spec_by_name("cant"), options), platform),
      identity);
  expect_same_plan(
      Workload::kSpmv, "cant",
      hetalg::HeteroSpmv(
          load_matrix(datasets::spec_by_name("cant"), options), platform),
      identity);
  expect_same_plan(
      Workload::kHh, "web-BerkStan",
      hetalg::HeteroSpmmHh(
          load_matrix(datasets::spec_by_name("web-BerkStan"), options),
          platform),
      [](const hetalg::HeteroSpmmHh& full,
         const hetalg::HeteroSpmmHh& sample, double ts) {
        return core::work_share_extrapolate(full, sample, ts);
      });
}

TEST(Workloads, OraclesMatchTheHarnessGrids) {
  SuiteOptions options;
  options.scale = 0.05;
  const auto& platform = hetsim::Platform::reference();
  const hetalg::HeteroSpmm spmm(
      load_matrix(datasets::spec_by_name("cant"), options), platform);
  EXPECT_EQ(grid_oracle(spmm).best_threshold,
            core::exhaustive_search(spmm, 1.0).best_threshold);
  const hetalg::HeteroSpmmHh hh(
      load_matrix(datasets::spec_by_name("web-BerkStan"), options), platform);
  const auto candidates = hh.candidate_thresholds(192);
  EXPECT_EQ(cutoff_oracle(hh).best_threshold,
            core::exhaustive_search_over(hh, candidates).best_threshold);
}

}  // namespace
}  // namespace nbwp::exp
