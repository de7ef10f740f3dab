// PlanService: batched, cached, concurrent partition planning.
//
// One-shot estimation (core/sampling_partitioner.hpp) pays the full
// Sample -> Identify -> Extrapolate cost for every input.  The service
// turns that into a planning layer fit for the ROADMAP's many-requests
// setting:
//
//   * every request carries a structural Fingerprint; plans for finished
//     requests land in a PlanCache keyed by (algorithm, platform,
//     size bucket);
//   * an exact fingerprint repeat reuses the cached threshold verbatim
//     (identical partition, zero identify evaluations);
//   * a near repeat warm-starts: the cached plan's CPU work share seeds
//     warm_refine() around the equivalent sample threshold, replacing
//     the cold search with a handful of probes;
//   * plan_all() schedules the remaining cold/warm jobs over the
//     ThreadPool and coalesces requests with identical fingerprints so
//     each distinct input is identified exactly once per batch;
//   * every job runs through the robust_estimate fallback chain
//     (core/robust_estimate.hpp), so a faulty platform degrades a
//     request's plan instead of failing the batch.  Fallback plans
//     (race / naive-static / degraded) are not cached — they are not
//     identified optima worth warm-starting from.
//
// Savings are reported via serve.* counters (docs/SERVING.md): each plan
// records the identify evaluations a cold search would have spent
// (cold_evaluations of the cached plan), and serve.evals_saved
// accumulates cold_evaluations - actually_spent across hits, warm starts
// and coalesced duplicates.
//
// Concurrency note: planning jobs run *on* pool workers, which is safe
// precisely because the estimation path is analytic — make_sample and
// the cost-model evaluations never enter a nested parallel region (the
// pool is only used by run()/execution kernels).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/robust_estimate.hpp"
#include "hetsim/platform.hpp"
#include "obs/span.hpp"
#include "parallel/parallel_for.hpp"
#include "serve/plan_cache.hpp"

namespace nbwp::serve {

/// Hash of everything that invalidates a plan when the machine changes:
/// device specs, injected slowdowns, link degradation, and the active
/// fault plan.  Two platforms with equal keys cost identically, so their
/// plans are interchangeable; any drift lands on a different cache line.
uint64_t platform_key_of(const hetsim::Platform& platform);

/// What one planning job produced (the type-erased closure's result).
struct PlanOutcome {
  double threshold = 0;
  double objective_ns = 0;  ///< full-input makespan at `threshold`
  double cpu_share = 0;     ///< share-space seed for future warm starts
  int evaluations = 0;      ///< identify evaluations actually spent
  core::FallbackStage stage = core::FallbackStage::kSampled;
  std::string reason;       ///< fallback trail, empty when sampled cleanly
  /// K-way work shares of the plan; two_way(cpu_share) on the scalar path.
  core::PartitionDescriptor descriptor;
};

/// How one solve invocation is allowed to spend effort.  The service
/// fills warm_cpu_share from the cache; the admission layer
/// (serve/admission.hpp) supplies the other two to demote a request down
/// the sampled -> race -> naive_static chain under overload.
struct SolveOptions {
  /// Negative = cold; a value in [0, 1] warm-starts the identify search
  /// at that CPU work share.
  double warm_cpu_share = -1.0;
  /// Demotion floor: the cheapest stage the chain may *start* at.  The
  /// solve closure combines it with the request's own configured
  /// start_stage (the later of the two wins), so a request configured
  /// for `race` stays at race even when admitted cleanly.
  core::FallbackStage start_stage = core::FallbackStage::kSampled;
  /// Remaining wall-clock budget for the identify search; 0 keeps the
  /// request's own configured deadline, a positive value min-combines
  /// with it (PR-4 deadline budgets — an exhausted identify degrades to
  /// the race estimate instead of failing).
  double identify_deadline_ns = 0;
};

/// One planning request: the fingerprint/key pair that addresses the
/// cache plus a type-erased `solve` closure owning the bound problem.
/// `solve(options)` runs the robust estimation pipeline under the given
/// warm-start / demotion / deadline constraints.  Build with
/// make_plan_request().
struct PlanRequest {
  std::string id;         ///< caller label, e.g. "cc:pwtk:0"
  std::string algorithm;  ///< cache-key component, e.g. "cc"
  Fingerprint fingerprint;
  uint64_t platform_key = 0;
  std::function<PlanOutcome(const SolveOptions&)> solve;

  PlanKey key() const {
    return {algorithm, platform_key, fingerprint.bucket};
  }
};

/// Per-submission constraints the admission layer imposes on plan_one():
/// everything in SolveOptions except the warm share, which stays the
/// cache's business.
struct PlanConstraints {
  core::FallbackStage start_stage = core::FallbackStage::kSampled;
  double identify_deadline_ns = 0;

  bool demoted() const {
    return start_stage != core::FallbackStage::kSampled;
  }
};

/// Per-request planning result.
struct PlannedPartition {
  std::string id;
  double threshold = 0;
  double objective_ns = 0;
  core::FallbackStage stage = core::FallbackStage::kSampled;
  std::string reason;
  HitKind cache = HitKind::kMiss;
  bool coalesced = false;  ///< deduplicated onto an identical in-flight job
  int evaluations = 0;     ///< identify evaluations this request spent
  double evals_saved = 0;  ///< evaluations avoided vs a cold plan
  /// K-way work shares of the plan (two_way(cpu_share) for scalar solves;
  /// may be empty on plans restored from descriptor-less producers).
  core::PartitionDescriptor descriptor;
};

class PlanService {
 public:
  struct Options {
    PlanCache::Options cache{};
    bool cache_enabled = true;
    ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::global()
  };

  PlanService() : PlanService(Options{}) {}
  explicit PlanService(Options options);

  /// Plan one request through the cache (no batching machinery).
  PlannedPartition plan_one(const PlanRequest& request);

  /// Plan one request under admission constraints: the solve starts no
  /// earlier than `constraints.start_stage` and inherits the remaining
  /// identify deadline.  Exact cache hits are still served — a stored
  /// threshold is cheaper than any fallback stage — but near hits are
  /// treated as misses (warm starts need the sampled search the
  /// constraints just skipped), and demoted outcomes are never cached.
  PlannedPartition plan_one(const PlanRequest& request,
                            const PlanConstraints& constraints);

  /// Plan a batch: requests with identical (key, exact fingerprint) are
  /// coalesced onto one job, jobs run concurrently on the pool, results
  /// come back in request order.
  std::vector<PlannedPartition> plan_all(
      const std::vector<PlanRequest>& requests);

  PlanCache& cache() { return cache_; }
  const Options& options() const { return options_; }

 private:
  PlannedPartition run_job(const PlanRequest& request,
                           const PlanConstraints& constraints = {});
  /// The per-class latency series a finished job records into, e.g.
  /// serve.request_ms{class="exact"}.
  obs::HistogramHandle& class_series(const PlannedPartition& result);

  Options options_;
  PlanCache cache_;
  // Cached histogram handles: every request records latency into
  // serve.request_ms plus its per-class series, and re-resolving those
  // names through the Registry mutex per request would put a lock on the
  // serving hot path.  Handles resolve once and survive Registry::clear()
  // (they re-resolve on generation change).
  obs::HistogramHandle request_ms_{"serve.request_ms"};
  obs::HistogramHandle exact_ms_{"serve.request_ms", {{"class", "exact"}}};
  obs::HistogramHandle near_ms_{"serve.request_ms", {{"class", "near"}}};
  obs::HistogramHandle miss_ms_{"serve.request_ms", {{"class", "miss"}}};
  obs::HistogramHandle degraded_ms_{"serve.request_ms",
                                    {{"class", "degraded"}}};
  obs::HistogramHandle plan_ms_{"serve.plan_ms"};
  obs::HistogramHandle batch_ms_{"serve.batch_ms"};
};

/// Bind a problem to a PlanRequest.  The problem is moved into the
/// closure (requests own their inputs, so a batch can outlive the
/// loader's locals).  `extrapolate` has estimate_partition's signature
/// (full, sample, t_sample) -> t_full.
template <core::PartitionProblem P,
          typename ExtrapolateFn = core::IdentityExtrapolate>
  requires std::invocable<ExtrapolateFn, const P&, const P&, double>
PlanRequest make_plan_request(std::string id, std::string algorithm,
                              P problem, core::RobustConfig config,
                              ExtrapolateFn extrapolate = {}) {
  PlanRequest req;
  req.id = std::move(id);
  req.algorithm = std::move(algorithm);
  if constexpr (requires { problem.input(); }) {
    req.fingerprint = fingerprint_of(problem.input());
  } else {
    req.fingerprint = fingerprint_of(problem.a());
  }
  req.platform_key = platform_key_of(core::detail::platform_of(problem));
  req.solve = [problem = std::make_shared<const P>(std::move(problem)),
               config = std::move(config),
               extrapolate = std::move(extrapolate)](
                  const SolveOptions& opts) {
    core::RobustConfig cfg = config;
    cfg.sampling.warm_start_cpu_share = opts.warm_cpu_share;
    // The later (cheaper) of the configured start stage and the admission
    // floor wins; kDegraded is not a startable stage, so cap at
    // naive_static (which cannot fail).
    cfg.start_stage =
        std::min(std::max(cfg.start_stage, opts.start_stage),
                 core::FallbackStage::kNaiveStatic);
    if (opts.identify_deadline_ns > 0) {
      cfg.sampling.identify_wall_deadline_ns =
          cfg.sampling.identify_wall_deadline_ns > 0
              ? std::min(cfg.sampling.identify_wall_deadline_ns,
                         opts.identify_deadline_ns)
              : opts.identify_deadline_ns;
    }
    const core::RobustEstimate est =
        core::robust_estimate_partition(*problem, cfg, extrapolate);
    PlanOutcome out;
    out.threshold = est.threshold;
    out.objective_ns = problem->time_ns(est.threshold);
    out.cpu_share = core::detail::cpu_share_of_threshold(*problem,
                                                         est.threshold);
    out.evaluations = est.evaluations;
    out.stage = est.stage;
    out.reason = est.reason;
    out.descriptor = core::PartitionDescriptor::two_way(out.cpu_share);
    return out;
  };
  return req;
}

}  // namespace nbwp::serve
