// Retry-then-reroute: under injected GPU faults every case study must
// complete without throwing and produce output bitwise-identical to the
// healthy run — only the virtual-time accounting and the reroute counters
// may differ.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "hetalg/hh_frozen_path.hpp"
#include "hetalg/spmm_cost.hpp"
#include "obs/metrics.hpp"
#include "sparse/generators.hpp"

namespace nbwp::hetalg {
namespace {

hetsim::Platform faulty(const std::string& plan) {
  hetsim::Platform p = hetsim::Platform::reference();
  p.set_fault_plan(hetsim::FaultPlan::parse(plan));
  return p;
}

graph::CsrGraph test_graph() {
  Rng rng(1);
  return graph::banded_mesh(3000, 10, 32, rng);
}

sparse::CsrMatrix test_matrix() {
  Rng rng(2);
  return sparse::random_uniform(800, 800, 6400, rng);
}

sparse::CsrMatrix scale_free_matrix() {
  Rng rng(3);
  return sparse::scale_free(800, 8, 2.2, rng);
}

// Hard faults at several injection points: the first GPU kernel, the
// second one, and a virtual-clock point mid-run (the latter two only for
// executors with more than one GPU kernel — SpMM gates a single kernel).
const char* const kTwoKernelPlans[] = {"gpu-hard@0", "gpu-hard@1",
                                       "gpu-hard-after=0.001"};
const char* const kOneKernelPlans[] = {"gpu-hard@0"};

TEST(FaultReroute, CcLabelsIdenticalUnderHardFaults) {
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);
  ASSERT_EQ(healthy.size(), g.num_vertices());

  for (const char* plan : kTwoKernelPlans) {
    const hetsim::Platform platform = faulty(plan);
    const HeteroCc problem(g, platform);
    std::vector<graph::Vertex> labels;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(25.0, &labels)) << plan;
    EXPECT_EQ(labels, healthy) << plan;
    EXPECT_GE(report.counter("gpu_rerouted"), 1.0) << plan;
  }
}

TEST(FaultReroute, SpmmProductIdenticalUnderHardFaults) {
  const sparse::CsrMatrix a = test_matrix();
  sparse::CsrMatrix healthy;
  HeteroSpmm(a, hetsim::Platform::reference()).run(30.0, &healthy);

  for (const char* plan : kOneKernelPlans) {
    const hetsim::Platform platform = faulty(plan);
    const HeteroSpmm problem(a, platform);
    sparse::CsrMatrix c;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(30.0, &c)) << plan;
    EXPECT_TRUE(c == healthy) << plan;
    EXPECT_GE(report.counter("gpu_rerouted"), 1.0) << plan;
  }
}

/// The report a healthy HH run turns into when its GPU gates reroute: a
/// rerouted product's overlapped phase keeps its CPU side and reads 0 on
/// the GPU side, a "<phase>.reroute" phase right after it charges the
/// product at CPU cost, and "gpu_rerouted" counts the rerouted products.
hetsim::RunReport rerouted_hh_report(const hetsim::RunReport& healthy,
                                     const HhStructure& s,
                                     const hetsim::Platform& platform,
                                     bool ll_rerouted, bool lh_rerouted) {
  hetsim::RunReport r;
  r.add_phase("phase1", healthy.phase_ns("phase1"));
  r.add_overlapped_phase("phase2", healthy.phase_ns("phase2.cpu"),
                         ll_rerouted ? 0.0 : healthy.phase_ns("phase2.gpu"));
  if (ll_rerouted)
    r.add_phase("phase2.reroute", spgemm_cpu_work_ns(platform, s.gpu2));
  r.add_overlapped_phase("phase3", healthy.phase_ns("phase3.cpu"),
                         lh_rerouted ? 0.0 : healthy.phase_ns("phase3.gpu"));
  if (lh_rerouted)
    r.add_phase("phase3.reroute", spgemm_cpu_work_ns(platform, s.gpu3));
  r.add_phase("phase4", healthy.phase_ns("phase4"));
  for (const auto& [name, value] : healthy.counters())
    r.set_counter(name, value);
  r.set_counter("gpu_rerouted",
                (ll_rerouted ? 1.0 : 0.0) + (lh_rerouted ? 1.0 : 0.0));
  return r;
}

/// Same phases (names and exact virtual ns, in order), total and counters.
void expect_same_report(const hetsim::RunReport& got,
                        const hetsim::RunReport& want,
                        const std::string& what) {
  ASSERT_EQ(got.phases().size(), want.phases().size()) << what;
  for (size_t i = 0; i < want.phases().size(); ++i) {
    EXPECT_EQ(got.phases()[i].name, want.phases()[i].name) << what;
    EXPECT_EQ(got.phases()[i].ns, want.phases()[i].ns)
        << what << " " << want.phases()[i].name;
  }
  EXPECT_EQ(got.total_ns(), want.total_ns()) << what;
  EXPECT_EQ(got.counters(), want.counters()) << what;
}

struct HhFaultCase {
  const char* plan;
  bool ll_rerouted, lh_rerouted;
};

// Which of the two HH gates ("hh.ll", then "hh.lh") each plan reroutes:
// gpu-hard@1 only the second, gpu-hard@0 both; gpu-hard-after=0.001 lets
// the first product through (its modeled time crosses the 1 us trigger
// point) and kills the device for the second.
const HhFaultCase kHhFaultCases[] = {
    {"gpu-hard@0", true, true},
    {"gpu-hard@1", false, true},
    {"gpu-hard-after=0.001", false, true},
};

TEST(FaultReroute, HhProductIdenticalUnderHardFaults) {
  const sparse::CsrMatrix a = scale_free_matrix();
  const HeteroSpmmHh reference(a, hetsim::Platform::reference());
  const double t = reference.threshold_for_work_share(0.5);
  sparse::CsrMatrix healthy;
  const hetsim::RunReport healthy_report = reference.run(t, &healthy);
  ASSERT_GT(reference.structure_at(t).rows_l, 0u);  // both gates are live

  for (const HhFaultCase& fc : kHhFaultCases) {
    obs::Registry::global().clear();
    obs::set_metrics_enabled(true);
    const hetsim::Platform platform = faulty(fc.plan);
    const HeteroSpmmHh problem(a, platform);
    sparse::CsrMatrix c;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(t, &c)) << fc.plan;
    obs::set_metrics_enabled(false);

    EXPECT_TRUE(frozen::bitwise_equal(c, healthy)) << fc.plan;
    // A rerouted product shows as its ".reroute" phase and a zero GPU
    // side; one that ran on the GPU keeps its overlapped phase intact.
    EXPECT_EQ(report.counter("gpu_rerouted"),
              (fc.ll_rerouted ? 1.0 : 0.0) + (fc.lh_rerouted ? 1.0 : 0.0))
        << fc.plan;
    EXPECT_EQ(report.phase_ns("phase2.reroute") > 0, fc.ll_rerouted)
        << fc.plan;
    EXPECT_EQ(report.phase_ns("phase3.reroute") > 0, fc.lh_rerouted)
        << fc.plan;
    EXPECT_EQ(report.phase_ns("phase2.gpu") > 0, !fc.ll_rerouted) << fc.plan;
    EXPECT_EQ(report.phase_ns("phase3.gpu") > 0, !fc.lh_rerouted) << fc.plan;
    expect_same_report(report,
                       rerouted_hh_report(healthy_report,
                                          reference.structure_at(t), platform,
                                          fc.ll_rerouted, fc.lh_rerouted),
                       fc.plan);

    // The reroute counters name exactly the rerouted gates.
    const auto snapshot = obs::Registry::global().snapshot();
    const auto count = [&](const std::string& name) {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0.0 : it->second;
    };
    EXPECT_EQ(count("robustness.reroute"),
              (fc.ll_rerouted ? 1.0 : 0.0) + (fc.lh_rerouted ? 1.0 : 0.0))
        << fc.plan;
    EXPECT_EQ(count("robustness.reroute.hh.ll"), fc.ll_rerouted ? 1.0 : 0.0)
        << fc.plan;
    EXPECT_EQ(count("robustness.reroute.hh.lh"), fc.lh_rerouted ? 1.0 : 0.0)
        << fc.plan;
    EXPECT_EQ(snapshot.counters.count("robustness.retry"), 0u) << fc.plan;

    // The injector was consulted once per gate, in order (ll, then lh):
    // its GPU clock holds exactly the products that ran there.
    ASSERT_NE(platform.faults(), nullptr);
    EXPECT_TRUE(platform.faults()->gpu_dead()) << fc.plan;
    EXPECT_EQ(platform.faults()->gpu_invocations(), 2u) << fc.plan;
    const double gpu_ran_ns =
        fc.ll_rerouted ? 0.0 : healthy_report.phase_ns("phase2.gpu");
    EXPECT_EQ(platform.faults()->gpu_busy_ms(), gpu_ran_ns / 1e6) << fc.plan;
  }
  obs::Registry::global().clear();
}

TEST(FaultReroute, HhWithoutLightRowsNeverGatesTheGpu) {
  // A cutoff below every degree puts all rows in H: no GPU product exists,
  // so neither gate runs and a dead-on-arrival GPU changes nothing.
  const sparse::CsrMatrix a = scale_free_matrix();
  const HeteroSpmmHh reference(a, hetsim::Platform::reference());
  ASSERT_EQ(reference.structure_at(-1.0).rows_l, 0u);
  sparse::CsrMatrix healthy;
  const hetsim::RunReport healthy_report = reference.run(-1.0, &healthy);

  const hetsim::Platform platform = faulty("gpu-hard@0");
  sparse::CsrMatrix c;
  const hetsim::RunReport report = HeteroSpmmHh(a, platform).run(-1.0, &c);
  EXPECT_TRUE(frozen::bitwise_equal(c, healthy));
  expect_same_report(report, healthy_report, "all rows heavy");
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_FALSE(platform.faults()->gpu_dead());
  EXPECT_EQ(platform.faults()->gpu_invocations(), 0u);
}

TEST(FaultReroute, TransientFaultRecoversWithoutReroute) {
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);

  const hetsim::Platform platform = faulty("gpu-transient@0");
  const HeteroCc problem(g, platform);
  std::vector<graph::Vertex> labels;
  const hetsim::RunReport report = problem.run(25.0, &labels);
  EXPECT_EQ(labels, healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);  // retry succeeded
}

TEST(FaultReroute, RetryBacksOffThenSucceedsAndCountsIt) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);

  const hetsim::Platform platform = faulty("gpu-transient@0,retries=2");
  std::vector<graph::Vertex> labels;
  const hetsim::RunReport report =
      HeteroCc(g, platform).run(25.0, &labels);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(labels, healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);  // retry recovered it
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_GE(snapshot.counters.at("robustness.retry"), 1.0);
  EXPECT_GE(snapshot.counters.at("robustness.retry.success"), 1.0);
  EXPECT_GT(snapshot.counters.at("robustness.retry.backoff_ns"), 0.0);
  // The backoff accrued on the injector's host-side clock, not the GPU
  // busy clock.
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_GT(platform.faults()->backoff_ms(), 0.0);
  obs::Registry::global().clear();
}

TEST(FaultReroute, DeadDeviceShortCircuitsRetriesAndReroutes) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const graph::CsrGraph g = test_graph();
  const hetsim::Platform platform = faulty("gpu-hard@0,retries=3");
  const hetsim::RunReport report = HeteroCc(g, platform).run(25.0);
  obs::set_metrics_enabled(false);

  // A hard fault kills the device; waiting out three backoffs on a dead
  // device would only burn the deadline, so no retry is attempted.
  EXPECT_GE(report.counter("gpu_rerouted"), 1.0);
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(snapshot.counters.count("robustness.retry"), 0u);
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_DOUBLE_EQ(platform.faults()->backoff_ms(), 0.0);
  obs::Registry::global().clear();
}

TEST(FaultReroute, ReroutedRunChargesCpuTime) {
  // A rerouted GPU piece must cost more virtual time than the healthy run
  // (the CPU absorbs the GPU share, non-overlapped).
  const graph::CsrGraph g = test_graph();
  const double healthy_ns =
      HeteroCc(g, hetsim::Platform::reference()).run(25.0).total_ns();
  const hetsim::Platform platform = faulty("gpu-hard@0");
  const double faulted_ns = HeteroCc(g, platform).run(25.0).total_ns();
  EXPECT_GT(faulted_ns, healthy_ns);
}

TEST(FaultReroute, HealthyPlatformReportsNoReroutes) {
  const graph::CsrGraph g = test_graph();
  const auto report = HeteroCc(g, hetsim::Platform::reference()).run(25.0);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);
}

}  // namespace
}  // namespace nbwp::hetalg
