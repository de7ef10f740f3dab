// Regression test for the instrumented estimation pipeline: running
// estimate_partition plus one real execution with metrics enabled must
// populate the documented metric names (identify evaluation counters,
// per-phase span histograms, kernel counters, pool utilization).
#include <gtest/gtest.h>

#include "core/sampling_partitioner.hpp"
#include "datasets/table2.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "sparse/generators.hpp"
#include "obs/obs.hpp"

namespace nbwp {
namespace {

struct PipelineMetricsFixture : ::testing::Test {
  void SetUp() override {
    obs::Registry::global().clear();
    obs::Tracer::global().clear();
    obs::set_metrics_enabled(true);
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::global().set_enabled(false);
    obs::set_metrics_enabled(false);
    obs::Tracer::global().clear();
    obs::Registry::global().clear();
  }
};

TEST_F(PipelineMetricsFixture, EstimateEmitsDocumentedMetrics) {
  const auto g = datasets::make_graph(datasets::spec_by_name("pwtk"), 0.05);
  const hetalg::HeteroCc problem(g, hetsim::Platform::reference());
  core::SamplingConfig cfg;  // defaults: sqrt(n) sample, coarse-to-fine
  cfg.repeats = 2;
  (void)core::estimate_partition(problem, cfg);
  // The CLI's instrumented execute pass; a mid split guarantees both
  // devices run and cross edges exist.
  (void)problem.run(50.0);

  const auto snap = obs::Registry::global().snapshot();

  // Identify instrumentation: per-method counters.
  EXPECT_GE(snap.counters.at("identify.coarse_to_fine.calls"), 2.0);
  const double evals = snap.counters.at("identify.coarse_to_fine.evaluations");
  const double visited =
      snap.counters.at("identify.coarse_to_fine.thresholds_visited");
  EXPECT_GT(evals, 0.0);
  EXPECT_GT(visited, 0.0);
  EXPECT_LE(visited, evals);  // distinct <= total
  EXPECT_GT(snap.counters.at("identify.coarse_to_fine.virtual_cost_ns"), 0.0);

  // Estimate phase counters and span histograms (one entry per repeat).
  EXPECT_DOUBLE_EQ(snap.counters.at("estimate.calls"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("estimate.repeats"), 2.0);
  EXPECT_GT(snap.counters.at("estimate.evaluations"), 0.0);
  EXPECT_EQ(snap.histograms.at("span.estimate").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.estimate.sample").count, 2u);
  EXPECT_EQ(snap.histograms.at("span.estimate.identify").count, 2u);
  EXPECT_EQ(snap.histograms.at("span.estimate.extrapolate").count, 2u);

  // The execute pass ran the real kernels on the pool.
  EXPECT_GT(snap.counters.at("kernel.cc.cross_edges"), 0.0);
  EXPECT_EQ(snap.gauges.count("pool.utilization"), 1u);
  EXPECT_GT(snap.counters.at("pool.busy_ns"), 0.0);

  // And the tracer holds nested estimate phases.
  bool saw_estimate = false, saw_identify = false;
  for (const auto& e : obs::Tracer::global().events()) {
    if (e.name == "estimate") saw_estimate = true;
    if (e.name == "estimate.identify") saw_identify = true;
  }
  EXPECT_TRUE(saw_estimate);
  EXPECT_TRUE(saw_identify);
}

TEST_F(PipelineMetricsFixture, HhRunEmitsEachExecuteSpanOnce) {
  // One HH execute: classify, the two fault gates, then the one-pass
  // kernel's symbolic and numeric passes, each exactly once.
  Rng rng(5);
  const hetalg::HeteroSpmmHh problem(sparse::scale_free(2000, 10, 2.2, rng),
                                     hetsim::Platform::reference());
  const double t = problem.threshold_for_work_share(0.5);
  ASSERT_GT(problem.structure_at(t).rows_h, 0u);
  ASSERT_GT(problem.structure_at(t).rows_l, 0u);
  (void)problem.run(t);

  const auto snap = obs::Registry::global().snapshot();
  for (const char* name :
       {"span.hetalg.hh.classify", "span.hetalg.hh.gates",
        "span.kernel.spgemm.two_class",
        "span.kernel.spgemm.two_class.symbolic",
        "span.kernel.spgemm.two_class.numeric"}) {
    ASSERT_EQ(snap.histograms.count(name), 1u) << name;
    EXPECT_EQ(snap.histograms.at(name).count, 1u) << name;
  }
  // No four-product glue is left on the execute path.
  EXPECT_EQ(snap.histograms.count("span.kernel.spgemm.masked.parallel"), 0u);
  EXPECT_EQ(snap.histograms.count("span.kernel.spgemm.masked"), 0u);
}

TEST_F(PipelineMetricsFixture, DisabledPipelineRecordsNothing) {
  obs::set_metrics_enabled(false);
  obs::Tracer::global().set_enabled(false);
  const auto g = datasets::make_graph(datasets::spec_by_name("pwtk"), 0.05);
  const hetalg::HeteroCc problem(g, hetsim::Platform::reference());
  core::SamplingConfig cfg;
  (void)core::estimate_partition(problem, cfg);
  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
  EXPECT_TRUE(obs::Tracer::global().events().empty());
}

}  // namespace
}  // namespace nbwp
