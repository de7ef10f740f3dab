// serve_throughput — cold vs cached vs warm-started planning cost, plus
// an open-loop serving stress phase with SLO verdicts.
//
// Phase 1 plans the same three-workload mix (cc:pwtk, spmm:cant,
// hh:web-BerkStan) through one PlanService three times:
//
//   cold       empty cache: every request pays the full sampled search;
//   repeat     the identical inputs again: exact fingerprint hits reuse
//              the cached thresholds verbatim (zero identify evaluations,
//              bit-identical thresholds);
//   perturbed  the same datasets regenerated with a different seed (the
//              "web crawl grown a day" case): near fingerprint hits
//              warm-start a narrow refinement around the cached optimum.
//
// Phase 2 (--stress-requests, default 10000) drives an open-loop request
// stream over a pool of base + perturbed inputs through the same
// service.  With metrics on, every request records into the streaming
// serve.request_ms histograms (per class: exact / near / miss /
// degraded), so the phase demonstrates the O(1)-memory observability
// claim at 100k+ requests and yields per-class p50/p95/p99 latencies.
// The run ends with an SLO evaluation (--slo, docs/OBSERVABILITY.md
// grammar) whose report embeds into the JSON and optionally lands in
// --slo-report for the CI smoke job.
//
// Phase 3 (--overload-requests) runs the AdmissionController overload
// drill: arrivals are submitted back-to-back against a token bucket far
// below the arrival rate (arrival > capacity by construction), cycling
// interactive / batch / best-effort priorities with per-class deadlines,
// optionally on a faulted platform (--fault-plan).  The claims: the
// interactive end-to-end p99 stays within its SLO while best-effort is
// shed (shed count > 0) and demoted requests still return valid plans
// with their chain stage recorded.
//
// Phase 4 snapshots the plan cache (serve/cache_persist.hpp), restores it
// into a fresh PlanService, and replays the repeat mix: the warm boot
// must reproduce at least the in-process exact-hit savings (zero
// identify evaluations).  A deliberately corrupted copy of the snapshot
// must be rejected loudly and leave the fresh service planning cold —
// without crashing.
//
// Emits BENCH_serve.json with per-round evaluation counts, the serve.*
// counter snapshot, the stress-phase latency summaries and SLO report,
// the overload and warm-boot phase results, and machine-checked claims
// consumed by CI: exact repeats return identical thresholds,
// repeat/perturbed rounds spend strictly fewer identify evaluations than
// the cold round, the SLO holds, overload keeps interactive within SLO
// while shedding best-effort, degraded plans stay valid, warm boots
// replay the cache savings, and corrupt snapshots cold-start cleanly.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/robust_estimate.hpp"
#include "core/workloads.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "hetsim/faults.hpp"
#include "obs/request_trace.hpp"
#include "obs/slo.hpp"
#include "serve/serve.hpp"
#include "sparse/spgemm.hpp"
#include "util/json.hpp"
#include "util/strfmt.hpp"
#include "util/table.hpp"

namespace {

using namespace nbwp;

std::vector<serve::PlanRequest> make_mix(const exp::SuiteOptions& options,
                                         uint64_t generation_seed,
                                         const std::string& tag,
                                         const hetsim::Platform& platform) {
  exp::SuiteOptions opt = options;
  opt.seed = generation_seed;
  const std::pair<core::Workload, const char*> mix[] = {
      {core::Workload::kCc, "pwtk"},
      {core::Workload::kSpmm, "cant"},
      {core::Workload::kHh, "web-BerkStan"}};
  std::vector<serve::PlanRequest> requests;
  for (const auto& [workload, dataset] : mix) {
    const std::string name = core::workload_name(workload);
    core::RobustConfig rcfg;
    rcfg.sampling = core::sampling_config(workload, options.sampling_seed);
    requests.push_back(exp::visit_workload(
        workload, datasets::spec_by_name(dataset), opt, platform,
        [&](auto& problem, const auto& extrapolate, const auto&) {
          return serve::make_plan_request(name + ":" + dataset + ":" + tag,
                                          name, std::move(problem), rcfg,
                                          extrapolate);
        }));
  }
  return requests;
}

struct Round {
  std::string name;
  std::vector<serve::PlannedPartition> plans;
  double evaluations = 0;
  double evals_saved = 0;
};

Round run_round(serve::PlanService& service, const std::string& name,
                std::vector<serve::PlanRequest> requests) {
  Round round;
  round.name = name;
  round.plans = service.plan_all(requests);
  for (const auto& plan : round.plans) {
    round.evaluations += plan.evaluations;
    round.evals_saved += plan.evals_saved;
  }
  return round;
}

struct StressStats {
  int requests = 0;
  double wall_s = 0;
  double arrival_hz = 0;  ///< 0 = back-to-back issuing
};

/// Open-loop request stream over a pool of base + perturbed inputs.
/// PlanRequests are reusable (solve closures own their problems), so the
/// pool is built once and requests cycle through it; after the warm-up
/// rounds most are exact hits, the fresh perturbed seeds warm-start.
StressStats run_stress(serve::PlanService& service,
                       const exp::SuiteOptions& options, int n,
                       double arrival_hz, uint64_t perturb_seed) {
  std::vector<serve::PlanRequest> pool;
  for (uint64_t seed : {options.seed, perturb_seed, perturb_seed + 1,
                        perturb_seed + 2}) {
    auto mix = make_mix(options, seed,
                        strfmt("stress%llu", (unsigned long long)seed),
                        hetsim::Platform::reference());
    for (auto& request : mix) pool.push_back(std::move(request));
  }
  StressStats stats;
  stats.requests = n;
  stats.arrival_hz = arrival_hz;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    if (arrival_hz > 0) {
      // Open-loop pacing: arrival i is scheduled at i/rate regardless of
      // how long earlier requests took (no coordinated omission).
      const auto arrival =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(i / arrival_hz));
      std::this_thread::sleep_until(arrival);
    }
    service.plan_one(pool[static_cast<size_t>(i) % pool.size()]);
  }
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return stats;
}

struct OverloadResult {
  int requests = 0;
  double wall_s = 0;
  std::array<serve::AdmissionController::ClassCounts,
             serve::kPriorityCount>
      counts{};  ///< tallied from measured-segment outcomes only
  std::map<std::string, uint64_t> shed_reasons;
  bool degraded_valid = true;  ///< every non-shed outcome had a finite
                               ///< threshold and a recorded chain stage
  bool any_degraded = false;
};

/// Phase 3: the overload drill.  Back-to-back submission against a token
/// bucket whose sustained rate is far below the submit rate, so overload
/// is structural, not a timing accident: best-effort sheds, interactive
/// and batch demote down the fallback chain, and the bounded queues +
/// eviction keep interactive end-to-end latency flat.
OverloadResult run_overload(serve::PlanService& service,
                            const exp::SuiteOptions& options,
                            const hetsim::Platform& platform, int n,
                            double tokens_per_sec, double deadline_ms,
                            uint64_t perturb_seed) {
  std::vector<serve::PlanRequest> pool;
  for (uint64_t seed : {options.seed, perturb_seed}) {
    auto mix = make_mix(options, seed,
                        strfmt("overload%llu", (unsigned long long)seed),
                        platform);
    for (auto& request : mix) pool.push_back(std::move(request));
  }

  serve::AdmissionController::Options opts;
  opts.interactive_queue = 32;
  opts.batch_queue = 64;
  opts.best_effort_queue = 16;
  opts.total_queue = 48;  // below the cap sum: forces best-effort eviction
  opts.workers = 2;
  opts.tokens_per_sec = tokens_per_sec;
  opts.bucket_capacity = 16;
  opts.slo = "serve.request_ms p99 < 250ms";
  serve::AdmissionController admission(service, opts);

  // Warm-up burst, drained and settled, then the phase boundary: the
  // measured segment reports its own queue-depth peaks, not the
  // warm-up's (gauge hygiene, the spgemm high-water pattern).
  {
    std::vector<std::future<serve::AdmitOutcome>> warm;
    for (int i = 0; i < 24; ++i)
      warm.push_back(admission.submit(
          pool[static_cast<size_t>(i) % pool.size()],
          static_cast<serve::Priority>(i % serve::kPriorityCount)));
    for (auto& f : warm) (void)f.get();
  }
  admission.drain();
  admission.reset_queue_gauges();

  OverloadResult result;
  result.requests = n;
  const std::array<double, serve::kPriorityCount> deadlines = {
      deadline_ms, deadline_ms * 4, deadline_ms / 2};
  std::vector<std::future<serve::AdmitOutcome>> futures;
  futures.reserve(static_cast<size_t>(n));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    const auto priority =
        static_cast<serve::Priority>(i % serve::kPriorityCount);
    futures.push_back(admission.submit(
        pool[static_cast<size_t>(i) % pool.size()], priority,
        deadlines[static_cast<size_t>(priority)]));
  }
  for (auto& future : futures) {
    const serve::AdmitOutcome out = future.get();
    auto& counts = result.counts[static_cast<size_t>(out.priority)];
    counts.submitted++;
    switch (out.status) {
      case serve::AdmitStatus::kPlanned:
        counts.admitted++;
        break;
      case serve::AdmitStatus::kDegraded:
        counts.degraded++;
        result.any_degraded = true;
        break;
      case serve::AdmitStatus::kShed:
        counts.shed++;
        result.shed_reasons[serve::shed_reason_name(out.shed_reason)]++;
        break;
    }
    if (out.status != serve::AdmitStatus::kShed &&
        !std::isfinite(out.plan.threshold))
      result.degraded_valid = false;
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return result;
}

struct WarmBootResult {
  bool save_ok = false;
  bool restore_ok = false;
  size_t entries = 0;
  double replay_evals = 0;
  double replay_saved = 0;
  bool replay_all_exact = true;
  bool corrupt_rejected = false;
  bool corrupt_cold_ok = false;
};

/// Phase 4: snapshot -> fresh service -> restore -> replay, then the same
/// with a deliberately corrupted snapshot (one flipped byte).
WarmBootResult run_warm_boot(serve::PlanService& service,
                             const exp::SuiteOptions& options,
                             const std::string& path) {
  WarmBootResult result;
  const serve::SnapshotResult saved =
      serve::save_plan_cache(service.cache(), path);
  result.save_ok = saved.ok;
  result.entries = saved.entries;
  if (!saved.ok) {
    std::fprintf(stderr, "snapshot save failed: %s\n", saved.error.c_str());
    return result;
  }

  serve::PlanService warm;
  result.restore_ok = serve::restore_plan_cache(warm.cache(), path).ok;
  const auto replay = warm.plan_all(make_mix(
      options, options.seed, "warmboot", hetsim::Platform::reference()));
  for (const auto& plan : replay) {
    result.replay_evals += plan.evaluations;
    result.replay_saved += plan.evals_saved;
    if (plan.cache != serve::HitKind::kExact)
      result.replay_all_exact = false;
  }

  // Corrupt a copy: flip one byte in the middle (inside the entry lines),
  // which must trip either the strict parse or the checksum.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  if (bytes.size() > 2) bytes[bytes.size() / 2] ^= 0x01;
  const std::string corrupt_path = path + ".corrupt";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  serve::PlanService cold;
  const serve::SnapshotResult rejected =
      serve::restore_plan_cache(cold.cache(), corrupt_path);
  result.corrupt_rejected = !rejected.ok && cold.cache().size() == 0;
  const auto cold_plans = cold.plan_all(make_mix(
      options, options.seed, "coldboot", hetsim::Platform::reference()));
  result.corrupt_cold_ok = !cold_plans.empty();
  for (const auto& plan : cold_plans) {
    if (!std::isfinite(plan.threshold) ||
        plan.cache != serve::HitKind::kMiss)
      result.corrupt_cold_ok = false;
  }
  return result;
}

std::string overload_json(const OverloadResult& o) {
  static const char* const kClasses[serve::kPriorityCount] = {
      "interactive", "batch", "best_effort"};
  std::string out = strfmt(
      "{\"requests\": %d, \"wall_s\": %.4g, \"classes\": {", o.requests,
      o.wall_s);
  for (int p = 0; p < serve::kPriorityCount; ++p) {
    const auto& c = o.counts[static_cast<size_t>(p)];
    const obs::Histogram* h = obs::Registry::global().find_histogram(
        obs::labeled_name("serve.e2e_ms", {{"class", kClasses[p]}}));
    const obs::HistogramSummary s =
        h ? h->summary() : obs::HistogramSummary{};
    out += strfmt(
        "%s\"%s\": {\"submitted\": %llu, \"planned\": %llu, "
        "\"degraded\": %llu, \"shed\": %llu, \"e2e_p50_ms\": %.6g, "
        "\"e2e_p99_ms\": %.6g}",
        p ? ", " : "", kClasses[p],
        (unsigned long long)c.submitted, (unsigned long long)c.admitted,
        (unsigned long long)c.degraded, (unsigned long long)c.shed, s.p50,
        s.p99);
  }
  out += "}, \"shed_reasons\": {";
  bool first = true;
  for (const auto& [reason, count] : o.shed_reasons) {
    out += strfmt("%s\"%s\": %llu", first ? "" : ", ", reason.c_str(),
                  (unsigned long long)count);
    first = false;
  }
  out += "}}";
  return out;
}

std::string warm_boot_json(const WarmBootResult& w) {
  return strfmt(
      "{\"save_ok\": %s, \"restore_ok\": %s, \"entries\": %zu, "
      "\"replay_evals\": %.0f, \"replay_saved\": %.0f, "
      "\"replay_all_exact\": %s, \"corrupt_rejected\": %s, "
      "\"corrupt_cold_ok\": %s}",
      w.save_ok ? "true" : "false", w.restore_ok ? "true" : "false",
      w.entries, w.replay_evals, w.replay_saved,
      w.replay_all_exact ? "true" : "false",
      w.corrupt_rejected ? "true" : "false",
      w.corrupt_cold_ok ? "true" : "false");
}

std::string latency_classes_json() {
  std::string out = "{";
  bool first = true;
  for (const char* cls : {"exact", "near", "miss", "degraded"}) {
    const obs::Histogram* h = obs::Registry::global().find_histogram(
        obs::labeled_name("serve.request_ms", {{"class", cls}}));
    if (!h || h->count() == 0) continue;
    const obs::HistogramSummary s = h->summary();
    if (!first) out += ", ";
    first = false;
    out += strfmt(
        "\"%s\": {\"count\": %zu, \"mean\": %.6g, \"p50\": %.6g, "
        "\"p95\": %.6g, \"p99\": %.6g, \"max\": %.6g}",
        cls, s.count, s.mean, s.p50, s.p95, s.p99, s.max);
  }
  out += "}";
  return out;
}

std::string obs_footprint_json() {
  const obs::Histogram* h =
      obs::Registry::global().find_histogram("serve.request_ms");
  const size_t bytes = h ? h->memory_bytes() : 0;
  const bool streaming =
      h && h->mode() == obs::HistogramMode::kStreaming;
  return strfmt(
      "{\"histogram_mode\": \"%s\", \"request_histogram_bytes\": %zu}",
      streaming ? "streaming" : "exact", bytes);
}

struct Claims {
  bool exact_identical = true;
  bool warm_fewer = true;
  bool slo_ok = true;
  bool overload_interactive_slo_ok = true;
  bool overload_shed_best_effort = true;
  bool overload_degraded_valid = true;
  bool warm_boot_replays_savings = true;
  bool corrupt_snapshot_cold_start = true;

  bool all() const {
    return exact_identical && warm_fewer && slo_ok &&
           overload_interactive_slo_ok && overload_shed_best_effort &&
           overload_degraded_valid && warm_boot_replays_savings &&
           corrupt_snapshot_cold_start;
  }
};

void write_json(const std::string& path, const std::vector<Round>& rounds,
                const StressStats& stress, const std::string& latency_json,
                const std::string& obs_json, const std::string& slo_json,
                const std::string& overload, const std::string& warm_boot,
                const Claims& claims) {
  std::ofstream out(path);
  out << "{\n  \"tool\": \"serve_throughput\",\n  \"rounds\": [\n";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& round = rounds[i];
    out << "    {\"name\": " << json_quote(round.name)
        << ", \"evaluations\": " << round.evaluations
        << ", \"evals_saved\": " << round.evals_saved << ", \"plans\": [\n";
    for (size_t j = 0; j < round.plans.size(); ++j) {
      const auto& plan = round.plans[j];
      out << "      {\"id\": " << json_quote(plan.id) << ", \"source\": "
          << json_quote(serve::hit_kind_name(plan.cache))
          << ", \"threshold\": " << strfmt("%.17g", plan.threshold)
          << ", \"makespan_ns\": " << strfmt("%.6g", plan.objective_ns)
          << ", \"evaluations\": " << plan.evaluations
          << ", \"evals_saved\": " << plan.evals_saved << "}"
          << (j + 1 < round.plans.size() ? ",\n" : "\n");
    }
    out << "    ]}" << (i + 1 < rounds.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << strfmt(
      "  \"stress\": {\"requests\": %d, \"wall_s\": %.4g, "
      "\"arrival_hz\": %.4g, \"throughput_rps\": %.6g,\n"
      "    \"latency_ms\": %s,\n    \"obs\": %s},\n",
      stress.requests, stress.wall_s, stress.arrival_hz,
      stress.wall_s > 0 ? stress.requests / stress.wall_s : 0.0,
      latency_json.c_str(), obs_json.c_str());
  if (!slo_json.empty()) out << "  \"slo\": " << slo_json << ",\n";
  if (!overload.empty()) out << "  \"overload\": " << overload << ",\n";
  if (!warm_boot.empty()) out << "  \"warm_boot\": " << warm_boot << ",\n";
  const auto snapshot = obs::Registry::global().snapshot();
  out << "  \"counters\": {\n";
  bool first = true;
  for (const auto& [key, value] : snapshot.counters) {
    if (key.rfind("serve.", 0) != 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "    " << json_quote(key) << ": " << strfmt("%.17g", value);
  }
  out << "\n  },\n";
  auto claim = [&](const char* name, bool value, bool last = false) {
    out << "  \"" << name << "\": " << (value ? "true" : "false")
        << (last ? "\n" : ",\n");
  };
  claim("exact_repeat_identical", claims.exact_identical);
  claim("warm_fewer_evals_than_cold", claims.warm_fewer);
  claim("slo_ok", claims.slo_ok);
  claim("overload_interactive_slo_ok", claims.overload_interactive_slo_ok);
  claim("overload_shed_best_effort", claims.overload_shed_best_effort);
  claim("overload_degraded_valid", claims.overload_degraded_valid);
  claim("warm_boot_replays_savings", claims.warm_boot_replays_savings);
  claim("corrupt_snapshot_cold_start", claims.corrupt_snapshot_cold_start,
        /*last=*/true);
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("serve_throughput",
          "cold vs cached vs warm-started planning cost (BENCH_serve.json)");
  bench::add_suite_options(cli);
  cli.add_option("json", "BENCH_serve.json", "machine-readable output path");
  cli.add_option("perturb-seed", "7",
                 "generation seed of the perturbed round");
  cli.add_option("stress-requests", "10000",
                 "open-loop stress phase length (0 = skip)");
  cli.add_option("arrival-hz", "0",
                 "stress arrival rate; 0 = issue back-to-back");
  cli.add_option("slo",
                 "serve.request_ms p99 < 250ms; "
                 "serve.requests{class=\"degraded\"} / serve.requests "
                 "rate < 0.01",
                 "SLO spec evaluated after the run (empty = skip)");
  cli.add_option("slo-report", "", "also write the SLO report JSON here");
  cli.add_option("flight-recorder", "",
                 "dump the last-requests flight ring JSON here at exit");
  cli.add_option("overload-requests", "600",
                 "overload drill length (0 = skip the phase)");
  cli.add_option("overload-tokens-per-sec", "200",
                 "admission token rate during the drill; back-to-back "
                 "submission makes arrival > capacity by construction");
  cli.add_option("overload-deadline-ms", "50",
                 "interactive deadline in the drill (batch 4x, "
                 "best-effort 0.5x)");
  cli.add_option("overload-slo",
                 "serve.e2e_ms{class=\"interactive\"} p99 < 250ms",
                 "SLO the interactive class must hold under overload");
  cli.add_option("fault-plan", "",
                 "fault plan for the overload drill's platform, e.g. "
                 "gpu-transient-rate=0.05 (see hetsim/faults.hpp)");
  cli.add_option("snapshot", "BENCH_serve.snapshot",
                 "plan-cache snapshot path for the warm-boot phase "
                 "(empty = skip)");
  if (!cli.parse(argc, argv)) return 0;
  const exp::SuiteOptions options = bench::suite_options(cli);
  obs::set_metrics_enabled(true);  // serve.* counters feed the JSON
  const std::string slo_spec = cli.str("slo");

  serve::PlanService service;
  const hetsim::Platform& reference = hetsim::Platform::reference();
  std::vector<Round> rounds;
  rounds.push_back(run_round(
      service, "cold", make_mix(options, options.seed, "cold", reference)));
  rounds.push_back(run_round(
      service, "repeat",
      make_mix(options, options.seed, "repeat", reference)));
  const uint64_t perturb_seed =
      static_cast<uint64_t>(cli.integer("perturb-seed"));
  rounds.push_back(run_round(
      service, "perturbed",
      make_mix(options, perturb_seed, "perturbed", reference)));

  const int stress_requests =
      static_cast<int>(cli.integer("stress-requests"));
  StressStats stress;
  if (stress_requests > 0) {
    // Phase boundary: the stress phase's manifest gauges must report its
    // own arena peak, not the planning rounds'.
    sparse::spgemm_workspace_reset_high_water();
    stress = run_stress(service, options, stress_requests,
                        cli.real("arrival-hz"), perturb_seed);
  }

  Claims claims;
  claims.exact_identical = true;
  for (size_t i = 0; i < rounds[0].plans.size(); ++i) {
    if (rounds[1].plans[i].threshold != rounds[0].plans[i].threshold)
      claims.exact_identical = false;
  }
  claims.warm_fewer =
      rounds[1].evaluations < rounds[0].evaluations &&
      rounds[2].evaluations < rounds[0].evaluations &&
      rounds[1].evals_saved > 0 && rounds[2].evals_saved > 0;

  // Capture the stress-phase views *before* the overload drill: the
  // regression gate compares per-class stress latency, which must not
  // absorb the deliberately adversarial phase that follows.
  const std::string latency_json = latency_classes_json();
  const std::string obs_json = obs_footprint_json();
  std::string slo_json;
  if (!slo_spec.empty()) {
    const obs::SloMonitor monitor = obs::SloMonitor::parse(slo_spec);
    const obs::SloReport report =
        monitor.evaluate(obs::Registry::global());
    claims.slo_ok = report.ok();
    std::ostringstream ss;
    obs::write_slo_report_json(ss, report);
    slo_json = ss.str();
    for (const auto& r : report.results)
      std::printf("slo %-4s %s (observed %.4g, bound %.4g, burn %.2f)\n",
                  r.ok ? "ok" : "FAIL", r.objective.spec.c_str(),
                  r.observed, r.objective.bound, r.burn_rate);
    if (!cli.str("slo-report").empty()) {
      std::ofstream f(cli.str("slo-report"));
      f << slo_json;
    }
  }

  const int overload_requests =
      static_cast<int>(cli.integer("overload-requests"));
  std::string overload_js;
  if (overload_requests > 0) {
    // Phase boundary again: the drill owns its workspace peaks too.
    sparse::spgemm_workspace_reset_high_water();
    hetsim::Platform drill_platform = hetsim::Platform::reference();
    if (!cli.str("fault-plan").empty()) {
      const auto plan = hetsim::FaultPlan::parse(cli.str("fault-plan"));
      drill_platform.set_fault_plan(plan);
      std::printf("overload fault plan: %s\n", plan.summary().c_str());
    }
    const OverloadResult overload = run_overload(
        service, options, drill_platform, overload_requests,
        cli.real("overload-tokens-per-sec"),
        cli.real("overload-deadline-ms"), perturb_seed);
    overload_js = overload_json(overload);
    const auto& best_effort = overload.counts[static_cast<size_t>(
        serve::Priority::kBestEffort)];
    claims.overload_shed_best_effort = best_effort.shed > 0;
    claims.overload_degraded_valid =
        overload.degraded_valid && overload.any_degraded;
    const std::string overload_slo = cli.str("overload-slo");
    if (!overload_slo.empty()) {
      const obs::SloReport report =
          obs::SloMonitor::parse(overload_slo)
              .evaluate(obs::Registry::global());
      claims.overload_interactive_slo_ok = report.ok();
      for (const auto& r : report.results)
        std::printf("overload slo %-4s %s (observed %.4g, bound %.4g)\n",
                    r.ok ? "ok" : "FAIL", r.objective.spec.c_str(),
                    r.observed, r.objective.bound);
    }
    std::printf(
        "overload: %d requests in %.2f s — interactive %llu/%llu/%llu "
        "planned/degraded/shed, best-effort shed %llu\n",
        overload.requests, overload.wall_s,
        (unsigned long long)overload.counts[0].admitted,
        (unsigned long long)overload.counts[0].degraded,
        (unsigned long long)overload.counts[0].shed,
        (unsigned long long)best_effort.shed);
  }

  std::string warm_boot_js;
  if (!cli.str("snapshot").empty()) {
    const WarmBootResult warm_boot =
        run_warm_boot(service, options, cli.str("snapshot"));
    warm_boot_js = warm_boot_json(warm_boot);
    claims.warm_boot_replays_savings =
        warm_boot.save_ok && warm_boot.restore_ok &&
        warm_boot.replay_all_exact && warm_boot.replay_evals == 0 &&
        warm_boot.replay_saved >= rounds[1].evals_saved;
    claims.corrupt_snapshot_cold_start =
        warm_boot.corrupt_rejected && warm_boot.corrupt_cold_ok;
    std::printf(
        "warm boot: %zu entries, replay %s (%.0f evals, %.0f saved); "
        "corrupt snapshot %s\n",
        warm_boot.entries,
        warm_boot.replay_all_exact ? "all exact" : "NOT exact",
        warm_boot.replay_evals, warm_boot.replay_saved,
        claims.corrupt_snapshot_cold_start ? "rejected, cold start ok"
                                           : "NOT handled");
  }

  if (!cli.str("flight-recorder").empty())
    obs::FlightRecorder::global().write_json_file(
        cli.str("flight-recorder"));

  Table table("serve throughput — cold vs cached vs warm");
  table.set_header({"round", "source mix", "evals", "saved"});
  for (const Round& round : rounds) {
    std::string sources;
    for (const auto& plan : round.plans) {
      if (!sources.empty()) sources += ",";
      sources += serve::hit_kind_name(plan.cache);
    }
    table.add_row({round.name, sources, Table::num(round.evaluations, 0),
                   Table::num(round.evals_saved, 0)});
  }
  exp::emit(table, cli.str("csv"));
  if (stress.requests > 0)
    std::printf("stress: %d requests in %.2f s (%.0f rps)\n",
                stress.requests, stress.wall_s,
                stress.wall_s > 0 ? stress.requests / stress.wall_s : 0.0);
  std::printf("exact repeats identical: %s; warm rounds cheaper: %s; "
              "slo: %s; overload claims: %s; warm-boot claims: %s\n",
              claims.exact_identical ? "yes" : "NO",
              claims.warm_fewer ? "yes" : "NO",
              slo_spec.empty() ? "skipped"
                               : (claims.slo_ok ? "ok" : "FAIL"),
              claims.overload_interactive_slo_ok &&
                      claims.overload_shed_best_effort &&
                      claims.overload_degraded_valid
                  ? "ok"
                  : "FAIL",
              claims.warm_boot_replays_savings &&
                      claims.corrupt_snapshot_cold_start
                  ? "ok"
                  : "FAIL");

  write_json(cli.str("json"), rounds, stress, latency_json, obs_json,
             slo_json, overload_js, warm_boot_js, claims);
  std::printf("json written: %s\n", cli.str("json").c_str());
  bench::finish_run(cli, "serve_throughput", cli.str("json"));
  return claims.all() ? 0 : 1;
}
