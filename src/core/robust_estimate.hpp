// Guarded estimation: SamplingPartitioner wrapped in a fallback chain.
//
// The framework's Sample -> Identify -> Extrapolate pipeline assumes the
// platform and the input behave.  robust_estimate_partition() drops that
// assumption: it runs the sampled estimate under the configured identify
// budgets and, whenever the estimate cannot be trusted — identify deadline
// exhausted, a degenerate sample or input, an injected device fault, any
// estimation error — degrades through progressively cheaper strategies
// instead of propagating the failure:
//
//   kSampled       the paper's pipeline (estimate_partition)
//   kRace          race-based coarse estimate: time both devices on the
//                  whole input, split by the throughput ratio (the spmm
//                  Section IV-A.b idea applied as a recovery strategy)
//   kNaiveStatic   peak-FLOPS ratio of the devices (Section III-B.2);
//                  needs no input inspection at all, cannot fail
//   kDegraded      the GPU is known dead before estimation: all work goes
//                  to the CPU-most threshold, no search at all
//
// Every transition is counted (robustness.fallback.<stage>,
// robustness.trigger.<reason>) so run manifests show how a threshold was
// obtained.  The chain is deterministic per seed for virtual/seeded
// triggers; the identify *wall* deadline is the only machine-dependent
// trigger (docs/ROBUSTNESS.md).  The ladder itself is written once
// (detail::guarded_estimate); the K > 2 descriptor chain of core/kway.hpp
// runs through it with its own stage bodies.
#pragma once

#include <cmath>
#include <string>
#include <type_traits>

#include "core/baselines.hpp"
#include "core/sampling_partitioner.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/platform.hpp"

namespace nbwp::core {

enum class FallbackStage { kSampled, kRace, kNaiveStatic, kDegraded };

const char* fallback_stage_name(FallbackStage stage);

/// Thrown inside the sampled stage when the drawn sample carries no signal
/// (no vertices/rows, zero work volume): searching it would return an
/// arbitrary threshold.
class DegenerateSample : public Error {
 public:
  using Error::Error;
};

struct RobustConfig {
  SamplingConfig sampling;
  /// First stage to try; later stages remain reachable.  kRace and
  /// kNaiveStatic let callers skip sampling deliberately (nbwp_cli
  /// --fallback race|naive-static).
  FallbackStage start_stage = FallbackStage::kSampled;
};

struct RobustEstimate {
  double threshold = 0;
  FallbackStage stage = FallbackStage::kSampled;
  /// Why the preceding stage(s) were abandoned; empty when the start stage
  /// succeeded outright.
  std::string reason;
  double estimation_cost_ns = 0;
  int evaluations = 0;
  /// The sampled pipeline's full result; meaningful when stage == kSampled.
  PartitionEstimate sampled{};
};

namespace detail {

/// The threshold routing (nearly) all work to the CPU.  For percent-share
/// thresholds this is threshold_hi(); HH-style cutoff problems expose
/// threshold_for_work_share and get the cutoff whose heavy-row (CPU) work
/// share is total.
template <typename P>
double cpu_most_threshold(const P& p) {
  if constexpr (requires { p.threshold_for_work_share(1.0); }) {
    return p.threshold_for_work_share(1.0);
  } else {
    return p.threshold_hi();
  }
}

template <typename P>
double gpu_most_threshold(const P& p) {
  if constexpr (requires { p.threshold_for_work_share(0.0); }) {
    return p.threshold_for_work_share(0.0);
  } else {
    return p.threshold_lo();
  }
}

// threshold_for_cpu_share / cpu_share_of_threshold live in
// core/sampling_partitioner.hpp (shared with the serve warm-start path).

/// True when `p` carries no partitionable signal: estimating on it would
/// return an arbitrary threshold (and some kernels would divide by zero).
template <typename P>
bool is_degenerate(const P& p) {
  if (!(p.threshold_lo() <= p.threshold_hi())) return true;
  if constexpr (requires { p.input().num_vertices(); }) {
    if (p.input().num_vertices() == 0 || p.input().num_edges() == 0)
      return true;
  }
  if constexpr (requires { p.total_work(); }) {
    if (p.total_work() == 0) return true;
  }
  if constexpr (requires { p.a().nnz(); }) {
    if (p.a().nnz() == 0) return true;
  }
  const double t_lo = p.time_ns(p.threshold_lo());
  const double t_hi = p.time_ns(p.threshold_hi());
  if (!std::isfinite(t_lo) || !std::isfinite(t_hi)) return true;
  return false;
}

template <typename P>
const hetsim::Platform& platform_of(const P& p) {
  if constexpr (requires {
                  { p.platform() } -> std::convertible_to<const hetsim::Platform&>;
                }) {
    return p.platform();
  } else {
    return hetsim::Platform::reference();
  }
}

inline void count_stage(FallbackStage stage) {
  obs::count(std::string("robustness.fallback.") + fallback_stage_name(stage));
}

inline void count_trigger(const std::string& reason) {
  if (!reason.empty())
    obs::count("robustness.trigger." + reason);
}

/// Stage body for a chain without a race stage (K > 2: the race is
/// inherently two-device).
struct NoRace {};

/// The guard-rail ladder shared by robust_estimate_partition and the
/// K > 2 branch of robust_estimate_partition_kway (core/kway.hpp).  The
/// ladder owns the GPU-dead short-circuit, the degenerate-input check,
/// the fault-probe hook, the catches and the trigger/stage counters; the
/// caller passes the plan-specific stage bodies, each filling `out`:
///
///   degraded(out)            the all-CPU plan (GPU known dead)
///   sampled(scfg, out)       the sampled pipeline under `scfg` (probe
///                            hook installed); false = no usable plan
///   race(out)                the race estimate, or NoRace to skip it;
///                            false = the input carries no timing signal
///   naive_static(out, dead)  spec-sheet plan; cannot fail
///
/// `Out` needs stage, reason, estimation_cost_ns and evaluations.
template <typename Out, typename P, typename Degraded, typename Sampled,
          typename Race, typename NaiveStatic>
Out guarded_estimate(const P& problem, const RobustConfig& cfg,
                     Degraded&& degraded, Sampled&& sampled, Race&& race,
                     NaiveStatic&& naive_static) {
  constexpr bool kHasRace = !std::is_same_v<std::decay_t<Race>, NoRace>;
  const char* fallback = kHasRace ? "; falling back to race estimate"
                                  : "; falling back to naive static";
  Out out;
  hetsim::FaultInjector* injector = platform_of(problem).faults();

  // A GPU already known dead makes any device-ratio estimate meaningless:
  // route everything to the CPU and skip estimation entirely.
  if (injector && injector->gpu_dead()) {
    out.stage = FallbackStage::kDegraded;
    out.reason = "gpu_offline";
    degraded(out);
    count_trigger(out.reason);
    count_stage(out.stage);
    log_warn("robust estimate: gpu offline, degraded to the all-CPU plan");
    return out;
  }

  auto note = [&out](const std::string& reason) {
    count_trigger(reason);
    out.reason = out.reason.empty() ? reason : out.reason + "," + reason;
  };

  if (cfg.start_stage == FallbackStage::kSampled) {
    if (is_degenerate(problem)) {
      note("degenerate_input");
    } else {
      SamplingConfig scfg = cfg.sampling;
      if (injector && !scfg.probe_hook) {
        // Estimation probes share the run's device timeline: each probe is
        // one GPU kernel invocation (advancing the virtual clock by the
        // observed objective) and may draw a noise spike.
        scfg.probe_hook = [injector](double observed_ns) {
          injector->gpu_kernel("estimate.probe", observed_ns);
          return injector->noise_sigma_factor();
        };
      }
      try {
        if (sampled(scfg, out)) {
          out.stage = FallbackStage::kSampled;
          count_stage(out.stage);
          return out;
        }
        note("degenerate_sample");
      } catch (const IdentifyDeadlineExceeded& e) {
        obs::count("robustness.deadline.identify");
        note("identify_deadline");
        out.estimation_cost_ns += e.virtual_spent_ns();
        out.evaluations += e.evaluations();
        log_warn(std::string("robust estimate: ") + e.what() + fallback);
      } catch (const hetsim::DeviceFault& e) {
        note("device_fault");
        log_warn(std::string("robust estimate: ") + e.what() + fallback);
      } catch (const DegenerateSample& e) {
        note("degenerate_sample");
        log_warn(std::string("robust estimate: ") + e.what() + fallback);
      } catch (const Error& e) {
        note("estimate_error");
        log_warn(std::string("robust estimate: ") + e.what() + fallback);
      }
    }
  }

  if constexpr (kHasRace) {
    if (cfg.start_stage != FallbackStage::kNaiveStatic) {
      try {
        if (race(out)) {
          out.stage = FallbackStage::kRace;
          count_stage(out.stage);
          return out;
        }
        note("degenerate_input");
      } catch (const hetsim::DeviceFault& e) {
        note("device_fault");
        log_warn(std::string("robust estimate: race failed: ") + e.what() +
                 "; falling back to naive static");
      } catch (const Error& e) {
        note("estimate_error");
        log_warn(std::string("robust estimate: race failed: ") + e.what() +
                 "; falling back to naive static");
      }
    }
  }

  // Device spec sheets only, cannot fail.  Under an injected hard fault
  // the injector reports the GPU dead by now and the plan collapses to
  // CPU-only.
  out.stage = FallbackStage::kNaiveStatic;
  naive_static(out, injector && injector->gpu_dead());
  count_stage(out.stage);
  return out;
}

}  // namespace detail

/// Sample -> Identify -> Extrapolate under guard rails; see the file
/// comment for the chain.  `extrapolate` has the signature of
/// estimate_partition's: (full, sample, t_sample) -> t_full.  Never throws
/// for platform faults, deadlines, or degenerate inputs — only for
/// genuine programming errors (e.g. a Problem whose naive-static mapping
/// itself throws).
template <PartitionProblem P, typename ExtrapolateFn = IdentityExtrapolate>
  requires std::invocable<ExtrapolateFn, const P&, const P&, double>
RobustEstimate robust_estimate_partition(const P& problem,
                                         const RobustConfig& cfg,
                                         ExtrapolateFn&& extrapolate = {}) {
  return detail::guarded_estimate<RobustEstimate>(
      problem, cfg,
      [&](RobustEstimate& out) {
        out.threshold = detail::cpu_most_threshold(problem);
      },
      [&](const SamplingConfig& scfg, RobustEstimate& out) {
        const PartitionEstimate est = estimate_partition(
            problem, scfg,
            [&](const P& full, const P& sample, double t_sample) {
              if (detail::is_degenerate(sample)) {
                throw DegenerateSample(
                    "sampled sub-instance carries no signal");
              }
              return extrapolate(full, sample, t_sample);
            });
        if (!std::isfinite(est.threshold)) return false;
        out.threshold = est.threshold;
        out.estimation_cost_ns = est.estimation_cost_ns;
        out.evaluations = est.evaluations;
        out.sampled = est;
        return true;
      },
      [&](RobustEstimate& out) {
        // Race-based coarse estimate: run the whole input on both devices
        // (in the cost model) and split by the throughput ratio.  A
        // dead/dying GPU is caught here too — the race "runs" a GPU kernel.
        double cpu_all = 0, gpu_all = 0;
        if constexpr (requires { problem.device_times_all(); }) {
          const auto [c, g] = problem.device_times_all();
          cpu_all = c;
          gpu_all = g;
        } else {
          cpu_all = problem.time_ns(detail::cpu_most_threshold(problem));
          gpu_all = problem.time_ns(detail::gpu_most_threshold(problem));
        }
        if (hetsim::FaultInjector* injector =
                detail::platform_of(problem).faults())
          injector->gpu_kernel("estimate.race", gpu_all);
        const double denom = cpu_all + gpu_all;
        if (!(denom > 0 && std::isfinite(denom))) return false;
        out.threshold =
            detail::threshold_for_cpu_share(problem, gpu_all / denom);
        out.estimation_cost_ns += std::min(cpu_all, gpu_all);
        out.evaluations += 1;
        return true;
      },
      [&](RobustEstimate& out, bool gpu_dead) {
        // Peak-FLOPS ratio of the devices (Section III-B.2).
        const double cpu_share =
            gpu_dead ? 1.0
                     : naive_static_cpu_share_pct(
                           detail::platform_of(problem)) /
                           100.0;
        out.threshold = detail::threshold_for_cpu_share(problem, cpu_share);
      });
}

}  // namespace nbwp::core
