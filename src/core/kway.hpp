// K-way identification: Sample -> Identify -> Extrapolate over
// PartitionDescriptors instead of scalar thresholds, under the same
// guard rails as the scalar pipeline (robust_estimate_partition_kway).
//
// K = 2 is not reimplemented: it *delegates* to the scalar
// robust_estimate_partition and embeds the resulting threshold as a
// two-way descriptor.  That makes the equivalence claim of
// docs/PARTITIONING.md structural — the K = 2 descriptor path runs the
// identical code, so thresholds, objective values and evaluation counts
// match the scalar path bitwise.  Each CostObjective maps to the scalar
// objective with the same K = 2 argmin: kBalanced and kGreedy reduce to
// |cpu - gpu| (Objective::kBalance; at two devices the greedy overload is
// exactly half the spread), kCriticalPath and kMinMaxWorkloads to the
// makespan (Objective::kMakespan).
//
// K > 2 needs the problem to expose the descriptor interface
// (KwayExecutableProblem below; hetalg::HeteroSpmm implements it).  The
// identify step is a coordinate-descent sweep over the K-1 interior
// boundaries in cumulative-share-percent space — the coarse-then-fine
// grid of Section III-A.2 lifted one dimension per extra device — with
// the same per-observation timing noise, probe hook and identify budgets
// as the scalar search.  Extrapolation is the identity in share space
// (shares survive sampling where raw cutoffs do not, the same reasoning
// as the serve warm-start path).
//
// The K > 2 chain is the scalar guard-rail ladder
// (detail::guarded_estimate) with descriptor stage bodies: sampled ->
// naive-static (shares proportional to per-device effective throughput);
// the race stage is inherently two-device and is skipped.  A GPU known
// dead degrades to the all-CPU descriptor, as in the scalar chain.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <vector>

#include "core/partition_descriptor.hpp"
#include "core/robust_estimate.hpp"

namespace nbwp::core {

/// A problem that can price and execute an arbitrary descriptor (beyond
/// the scalar PartitionProblem interface).
template <typename P>
concept KwayExecutableProblem =
    requires(const P& p, const PartitionDescriptor& d) {
      { p.kway_marginal_work_ns(d) }
          -> std::convertible_to<std::vector<double>>;
      { p.kway_time_ns(d) } -> std::convertible_to<double>;
    };

struct KwayConfig {
  int devices = 2;
  CostObjective objective = CostObjective::kBalanced;
  /// The scalar pipeline's configuration: sampling, identify budgets,
  /// noise, probe hook, start stage.  At K = 2 it is forwarded verbatim
  /// (only `objective` above overrides sampling.objective).
  RobustConfig robust{};
};

struct KwayEstimate {
  PartitionDescriptor descriptor;
  /// Scalar threshold when devices == 2 (the delegated estimate);
  /// unused for K > 2.
  double threshold = 0;
  FallbackStage stage = FallbackStage::kSampled;
  std::string reason;
  double estimation_cost_ns = 0;
  int evaluations = 0;
};

namespace detail {

inline Objective scalar_objective_for(CostObjective objective) {
  switch (objective) {
    case CostObjective::kBalanced:
    case CostObjective::kGreedy:
      return Objective::kBalance;
    case CostObjective::kCriticalPath:
    case CostObjective::kMinMaxWorkloads:
      return Objective::kMakespan;
  }
  return Objective::kBalance;
}

/// Boundary grid steps (percent of cumulative share) of the K > 2
/// coordinate descent — the scalar coarse-to-fine defaults — and the cap
/// on full sweeps per grid resolution.
inline constexpr double kKwayCoarseStepPct = 8.0;
inline constexpr double kKwayFineStepPct = 1.0;
inline constexpr int kKwayMaxSweeps = 8;

/// Coordinate descent over the K-1 interior boundaries on `sample`.
/// Budgets, noise and the probe hook behave exactly as in identify_on;
/// throws IdentifyDeadlineExceeded when a budget runs out.
template <typename P>
IdentifyResult identify_kway_on(const P& sample, int k,
                                CostObjective objective,
                                const SamplingConfig& scfg,
                                PartitionDescriptor& best_out,
                                Rng& noise_rng) {
  const auto wall_start = std::chrono::steady_clock::now();
  IdentifyResult result;
  // Memoized on the quantized boundary vector: revisited corners during
  // later sweeps are free, like the scalar searches' threshold memo.
  std::map<std::vector<long long>, double> memo;

  auto objective_at = [&](const std::vector<double>& cum) {
    std::vector<long long> key(cum.size());
    for (size_t i = 0; i < cum.size(); ++i)
      key[i] = std::llround(cum[i] * 64.0);
    if (auto it = memo.find(key); it != memo.end()) {
      ++result.cache_hits;
      return it->second;
    }
    const double wall_elapsed =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if ((scfg.identify_max_evaluations > 0 &&
         result.evaluations >= scfg.identify_max_evaluations) ||
        (scfg.identify_wall_deadline_ns > 0 &&
         wall_elapsed >= scfg.identify_wall_deadline_ns) ||
        (scfg.identify_virtual_budget_ns > 0 &&
         result.cost_ns >= scfg.identify_virtual_budget_ns)) {
      throw IdentifyDeadlineExceeded(
          strfmt("k-way identify budget exhausted after %d evaluations",
                 result.evaluations),
          result.evaluations, wall_elapsed, result.cost_ns);
    }
    const PartitionDescriptor d =
        PartitionDescriptor::from_cumulative_pct(cum);
    const double makespan = sample.kway_time_ns(d);
    const double raw =
        objective == CostObjective::kCriticalPath
            ? makespan
            : descriptor_cost(objective, sample.kway_marginal_work_ns(d));
    const double sigma_factor = scfg.probe_hook ? scfg.probe_hook(raw) : 1.0;
    double observed = raw;
    if (scfg.timing_noise_ns > 0) {
      observed = std::max(
          0.0, raw + noise_rng.normal(0, scfg.timing_noise_ns * sigma_factor));
    }
    // Each evaluation stands for one run of the heterogeneous algorithm
    // on the sample; charge its makespan.
    result.cost_ns += makespan;
    ++result.evaluations;
    memo.emplace(std::move(key), observed);
    return observed;
  };

  // Start from the throughput-proportional boundaries so the first sweep
  // refines a sane split instead of crawling away from a corner.
  std::vector<double> cum(static_cast<size_t>(k - 1), 0.0);
  {
    const hetsim::Platform& platform = platform_of(sample);
    const PartitionDescriptor seed = PartitionDescriptor::from_weights(
        platform.device_ops_per_s(static_cast<size_t>(k)));
    cum = seed.cumulative_pct();
  }
  double best = objective_at(cum);
  for (double step : {kKwayCoarseStepPct, kKwayFineStepPct}) {
    bool improved = true;
    for (int sweep = 0; improved && sweep < kKwayMaxSweeps; ++sweep) {
      improved = false;
      for (int j = 0; j < k - 1; ++j) {
        const double lo = j == 0 ? 0.0 : cum[static_cast<size_t>(j - 1)];
        const double hi =
            j == k - 2 ? 100.0 : cum[static_cast<size_t>(j + 1)];
        for (double c = lo; c < hi + step; c += step) {
          std::vector<double> trial = cum;
          trial[static_cast<size_t>(j)] = std::min(c, hi);
          const double obj = objective_at(trial);
          if (obj < best) {
            best = obj;
            cum = std::move(trial);
            improved = true;
          }
        }
      }
    }
  }
  best_out = PartitionDescriptor::from_cumulative_pct(cum);
  result.best_objective = best;
  result.best_threshold = cum.empty() ? 0.0 : cum[0];
  return result;
}

}  // namespace detail

/// Sample -> Identify -> Extrapolate over descriptors under guard rails.
/// K = 2 delegates to the scalar robust_estimate_partition (identical
/// chain, identical plans); K > 2 requires the problem to model
/// KwayExecutableProblem and runs the shared ladder as sampled ->
/// naive-static, with the degraded all-CPU descriptor when the GPU is
/// known dead.  Fires plan.devices, and identify.kway.evals for a K > 2
/// sampled search.
template <PartitionProblem P>
KwayEstimate robust_estimate_partition_kway(const P& problem,
                                            const KwayConfig& cfg) {
  NBWP_REQUIRE(cfg.devices >= 2, "k-way estimation needs >= 2 devices");
  obs::count("plan.devices", cfg.devices);
  if (cfg.devices == 2) {
    RobustConfig rcfg = cfg.robust;
    rcfg.sampling.objective = detail::scalar_objective_for(cfg.objective);
    const RobustEstimate est = robust_estimate_partition(problem, rcfg);
    KwayEstimate out;
    out.descriptor = PartitionDescriptor::two_way(
        detail::cpu_share_of_threshold(problem, est.threshold));
    out.threshold = est.threshold;
    out.stage = est.stage;
    out.reason = est.reason;
    out.estimation_cost_ns = est.estimation_cost_ns;
    out.evaluations = est.evaluations;
    return out;
  }
  if constexpr (!KwayExecutableProblem<P>) {
    NBWP_REQUIRE(false,
                 "problem does not implement the k-way descriptor "
                 "interface (kway_marginal_work_ns / kway_time_ns)");
  } else {
    const size_t k = static_cast<size_t>(cfg.devices);
    const hetsim::Platform& platform = detail::platform_of(problem);
    return detail::guarded_estimate<KwayEstimate>(
        problem, cfg.robust,
        [&](KwayEstimate& out) {
          out.descriptor = PartitionDescriptor::all_cpu(cfg.devices);
        },
        [&](const SamplingConfig& scfg, KwayEstimate& out) {
          obs::Span estimate_span("estimate.kway");
          Rng rng(scfg.seed);
          const P sample = problem.make_sample(scfg.sample_factor, rng);
          Rng noise_rng = rng.fork();
          PartitionDescriptor best;
          const IdentifyResult found = detail::identify_kway_on(
              sample, cfg.devices, cfg.objective, scfg, best, noise_rng);
          obs::count("identify.kway.evals", found.evaluations);
          log_debug(strfmt("k-way estimate: %s after %d evaluations",
                           best.to_string().c_str(), found.evaluations));
          if (!best.valid()) return false;
          out.descriptor = std::move(best);
          out.estimation_cost_ns =
              problem.sampling_cost_ns(scfg.sample_factor) + found.cost_ns;
          out.evaluations = found.evaluations;
          return true;
        },
        detail::NoRace{},
        [&](KwayEstimate& out, bool gpu_dead) {
          // Shares proportional to each device's effective throughput.
          out.descriptor =
              gpu_dead ? PartitionDescriptor::all_cpu(cfg.devices)
                       : PartitionDescriptor::from_weights(
                             platform.device_ops_per_s(k));
        });
  }
}

}  // namespace nbwp::core
