// nbwp_cli — command-line driver for the library.
//
//   nbwp_cli info
//       platform calibration and the Table II dataset catalog.
//   nbwp_cli estimate   --workload cc|spmm|hh|spmv --dataset <name>
//       run the Sample -> Identify -> Extrapolate framework and compare
//       the estimate against the exhaustive oracle and naive baselines.
//   nbwp_cli exhaustive --workload ... --dataset ...
//       just the oracle.
//   nbwp_cli sweep      --workload ... --dataset ... [--csv curve.csv]
//       full threshold -> makespan curve.
//   nbwp_cli run        --workload ... --dataset ... --threshold T
//                       [--trace run.json]
//       execute the heterogeneous algorithm once, print the phase
//       breakdown, optionally write a Chrome trace.
//   nbwp_cli batch      --batch <manifest> [--plan-cache on|off]
//                       [--plan-cache-capacity N] [--plan-cache-shards N]
//                       [--cache-snapshot s.txt] [--cache-restore s.txt]
//       plan every request in the manifest through the serve layer
//       (fingerprint cache + warm starts + in-flight dedup); each
//       manifest line is `workload=<w> dataset=<d> [scale=] [seed=]
//       [repeat=]` (see docs/SERVING.md for a worked example).  Malformed
//       lines are reported individually and the rest of the batch still
//       plans; the exit code is non-zero when any line was bad.
//       --cache-snapshot/--cache-restore persist the plan cache across
//       invocations (warm boot).
//
// K-way partitioning (docs/PARTITIONING.md): --devices K grows the
// simulated platform with K-2 extra accelerators (--accel-spec scale
// factors) and routes estimate/run through a PartitionDescriptor searched
// under --objective (spmm only).
//
// Observability flags work with every command: --metrics, --trace-real,
// --slo "<objectives>" [--slo-report s.json] (exit non-zero on
// violation), --flight-recorder f.json [--flight-threshold-ms T]
// (see docs/OBSERVABILITY.md for the SLO grammar and dump format).
//
// Datasets resolve against the synthetic Table II catalog, or against
// --mtx-dir when the original files are present.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/baselines.hpp"
#include "core/kway.hpp"
#include "core/robust_estimate.hpp"
#include "core/workloads.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "hetsim/trace.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "serve/serve.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"
#include "util/table.hpp"

namespace {

using namespace nbwp;

struct Request {
  std::string workload;
  std::string dataset;
  exp::SuiteOptions options;
  double threshold = -1;
  std::string csv;
  std::string trace;
  std::string metrics;     ///< --metrics: metric snapshot JSON path
  std::string trace_real;  ///< --trace-real: wall-clock Chrome trace path
  std::string fault_plan;  ///< --fault-plan: hetsim::FaultPlan spec
  double identify_deadline_ms = 0;  ///< --identify-deadline-ms
  std::string fallback = "auto";    ///< --fallback: auto|race|naive-static|off
  std::string batch_manifest;       ///< --batch: request manifest path
  bool plan_cache = true;           ///< --plan-cache on|off
  int plan_cache_capacity = 256;    ///< --plan-cache-capacity
  int plan_cache_shards = 4;        ///< --plan-cache-shards
  std::string cache_snapshot;       ///< --cache-snapshot: save path
  std::string cache_restore;        ///< --cache-restore: load path
  int devices = 2;                  ///< --devices: partition K ways
  std::string accel_spec;           ///< --accel-spec: accel scale factors
  std::string objective = "balanced";  ///< --objective: K-way cost objective
};

core::FallbackStage parse_fallback_stage(const std::string& s) {
  if (s == "auto") return core::FallbackStage::kSampled;
  if (s == "race") return core::FallbackStage::kRace;
  if (s == "naive-static") return core::FallbackStage::kNaiveStatic;
  throw Error("unknown --fallback value '" + s +
              "' (auto | race | naive-static | off)");
}

/// The registry's identify config for `workload`, with the CLI's
/// identify deadline and fallback start stage applied.
core::RobustConfig robust_config_for(core::Workload workload,
                                     const Request& req) {
  core::RobustConfig rcfg;
  rcfg.sampling =
      core::sampling_config(workload, req.options.sampling_seed);
  rcfg.sampling.identify_wall_deadline_ns = req.identify_deadline_ms * 1e6;
  if (req.fallback != "off")
    rcfg.start_stage = parse_fallback_stage(req.fallback);
  return rcfg;
}

template <typename Problem, typename Estimate, typename Exhaust>
int drive(const char* command, const Request& req, const Problem& problem,
          const Estimate& estimate, const Exhaust& exhaust) {
  const auto& platform = problem.platform();
  if (std::strcmp(command, "exhaustive") == 0) {
    const auto ex = exhaust(problem);
    std::printf("exhaustive threshold: %.1f  (makespan %.3f ms)\n",
                ex.best_threshold, ex.best_time_ns / 1e6);
    return 0;
  }
  if (std::strcmp(command, "sweep") == 0) {
    const auto ex = exhaust(problem);
    Table table("threshold sweep — " + req.workload + " on " + req.dataset);
    table.set_header({"threshold", "makespan(ms)"});
    for (const auto& [t, ns] : ex.curve)
      table.add_row({Table::num(t, 1), Table::ns_to_ms(ns)});
    exp::emit(table, req.csv);
    return 0;
  }
  if (std::strcmp(command, "run") == 0) {
    const double t = req.threshold >= 0
                         ? req.threshold
                         : estimate(problem).threshold;
    const auto report = problem.run(t);
    std::printf("threshold %.1f: %s\n", t, report.summary().c_str());
    for (const auto& [k, v] : report.counters())
      std::printf("  %-18s %.0f\n", k.c_str(), v);
    if (!req.trace.empty()) {
      hetsim::write_chrome_trace_file(req.trace, report,
                                      req.workload + ":" + req.dataset);
      std::printf("trace written: %s\n", req.trace.c_str());
    }
    return 0;
  }
  // estimate (default)
  const auto ex = exhaust(problem);
  const auto est = estimate(problem);
  if (obs::metrics_enabled() || obs::trace_enabled()) {
    // Execute the algorithm once at the estimate so kernel spans and
    // thread-pool utilization show up alongside the estimation metrics.
    obs::Span span("execute");
    (void)problem.run(est.threshold);
  }
  Table table("estimate — " + req.workload + " on " + req.dataset);
  table.set_header({"strategy", "threshold", "makespan(ms)",
                    "vs exhaustive"});
  auto row = [&](const char* name, double t) {
    const double ns = problem.time_ns(t);
    table.add_row({name, Table::num(t, 1), Table::ns_to_ms(ns),
                   Table::pct(100.0 * (ns / ex.best_time_ns - 1.0))});
  };
  row("exhaustive", ex.best_threshold);
  row("sampling estimate", est.threshold);
  if (problem.threshold_hi() == 100.0) {
    row("naive static (FLOPS)",
        core::naive_static_cpu_share_pct(platform));
  }
  table.print(std::cout);
  std::printf("estimation cost: %.3f ms over %d sample runs\n",
              est.estimation_cost_ns / 1e6, est.evaluations);
  if constexpr (requires { est.stage; }) {
    std::printf("estimate stage: %s%s%s\n",
                core::fallback_stage_name(est.stage),
                est.reason.empty() ? "" : " — after ",
                est.reason.c_str());
  }
  return 0;
}

serve::PlanRequest make_batch_request(const serve::BatchEntry& entry,
                                      const std::string& id,
                                      const Request& req,
                                      const hetsim::Platform& platform) {
  const core::Workload workload = core::parse_workload(entry.workload);
  exp::SuiteOptions options = req.options;
  options.scale = entry.scale;
  options.seed = entry.seed;
  return exp::visit_workload(
      workload, datasets::spec_by_name(entry.dataset), options, platform,
      [&](auto& problem, const auto& extrapolate, const auto&) {
        return serve::make_plan_request(id, entry.workload,
                                        std::move(problem),
                                        robust_config_for(workload, req),
                                        extrapolate);
      });
}

int run_batch(const Request& req) {
  hetsim::Platform platform = hetsim::Platform::reference();
  if (!req.fault_plan.empty()) {
    const auto plan = hetsim::FaultPlan::parse(req.fault_plan);
    platform.set_fault_plan(plan);
    log_info("fault plan: " + plan.summary());
  }
  // One bad manifest line must not abort the batch: plan every line that
  // parses, report every line that does not, exit non-zero if any did.
  const serve::BatchManifest manifest =
      serve::parse_batch_manifest(req.batch_manifest);
  for (const auto& error : manifest.errors)
    std::fprintf(stderr, "manifest error: %s\n",
                 error.format(req.batch_manifest).c_str());
  const auto& entries = manifest.entries;
  std::vector<serve::PlanRequest> requests;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (int r = 0; r < entries[i].repeat; ++r) {
      const std::string id = strfmt("%s:%s:%zu.%d",
                                    entries[i].workload.c_str(),
                                    entries[i].dataset.c_str(), i, r);
      requests.push_back(make_batch_request(entries[i], id, req, platform));
    }
  }

  serve::PlanService::Options options;
  options.cache_enabled = req.plan_cache;
  options.cache.capacity = static_cast<size_t>(req.plan_cache_capacity);
  options.cache.shards = static_cast<size_t>(req.plan_cache_shards);
  serve::PlanService service(options);
  if (!req.cache_restore.empty()) {
    const serve::SnapshotResult restored =
        serve::restore_plan_cache(service.cache(), req.cache_restore);
    std::printf("cache restore: %s (%zu entries%s%s)\n",
                restored.ok ? "ok" : "FAILED — cold start",
                restored.entries, restored.error.empty() ? "" : "; ",
                restored.error.c_str());
  }
  const auto results = service.plan_all(requests);

  Table table(strfmt("batch plan — %zu requests, cache %s",
                     requests.size(), req.plan_cache ? "on" : "off"));
  table.set_header({"request", "source", "stage", "threshold",
                    "makespan(ms)", "evals", "saved"});
  double evaluations = 0, saved = 0;
  for (const auto& r : results) {
    const std::string source =
        r.coalesced ? "coalesced" : serve::hit_kind_name(r.cache);
    table.add_row({r.id, source, core::fallback_stage_name(r.stage),
                   Table::num(r.threshold, 1),
                   Table::ns_to_ms(r.objective_ns),
                   Table::num(r.evaluations, 0), Table::num(r.evals_saved,
                                                            0)});
    evaluations += r.evaluations;
    saved += r.evals_saved;
  }
  table.print(std::cout);
  std::printf("identify evaluations: %.0f spent, %.0f saved "
              "(cache entries: %zu)\n",
              evaluations, saved, service.cache().size());
  if (!req.cache_snapshot.empty()) {
    const serve::SnapshotResult saved_snap =
        serve::save_plan_cache(service.cache(), req.cache_snapshot);
    if (!saved_snap.ok)
      throw Error("cache snapshot failed: " + saved_snap.error);
    std::printf("cache snapshot written: %s (%zu entries)\n",
                saved_snap.path.c_str(), saved_snap.entries);
  }
  return manifest.ok() ? 0 : 1;
}

/// Grow the platform to `devices` by appending scaled copies of the
/// primary GPU (throughput-like fields multiplied by the factor, one
/// comma-separated factor per accelerator; missing factors default to
/// successive halvings: 0.5, 0.25, ...).
void add_accels(hetsim::Platform& platform, int devices,
                const std::string& spec_csv) {
  std::vector<double> scales;
  std::istringstream in(spec_csv);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (tok.empty()) continue;
    const double s = std::stod(tok);
    if (!(s > 0))
      throw Error("--accel-spec scale factors must be positive");
    scales.push_back(s);
  }
  for (int i = 0; i + 2 < devices; ++i) {
    const double scale = static_cast<size_t>(i) < scales.size()
                             ? scales[static_cast<size_t>(i)]
                             : std::pow(0.5, i + 1);
    hetsim::GpuSpec gpu = hetsim::kTeslaK40c;
    gpu.sm_count *= scale;
    gpu.cores *= scale;
    gpu.bw_stream_bps *= scale;
    gpu.bw_random_bps *= scale;
    gpu.full_occupancy_items *= scale;
    platform.add_accel(gpu, hetsim::kPcie3x16);
  }
}

/// estimate/run `problem` over a K > 2 PartitionDescriptor.
template <core::KwayExecutableProblem P>
int run_kway(const char* command, const Request& req, const P& problem,
             const core::KwayConfig& kcfg) {
  const core::KwayEstimate est =
      core::robust_estimate_partition_kway(problem, kcfg);
  std::printf("%d-way descriptor (%s): %s\n", req.devices,
              core::cost_objective_name(kcfg.objective),
              est.descriptor.to_string().c_str());
  std::printf("stage: %s%s%s\n", core::fallback_stage_name(est.stage),
              est.reason.empty() ? "" : " — after ", est.reason.c_str());
  std::printf("modeled makespan: %.3f ms  (estimation cost %.3f ms over "
              "%d evaluations)\n",
              problem.kway_time_ns(est.descriptor) / 1e6,
              est.estimation_cost_ns / 1e6, est.evaluations);
  if (std::strcmp(command, "run") == 0) {
    const auto report = problem.run_kway(est.descriptor);
    std::printf("execution: %s\n", report.summary().c_str());
    for (const auto& [k, v] : report.counters())
      std::printf("  %-18s %.0f\n", k.c_str(), v);
    if (!req.trace.empty()) {
      hetsim::write_chrome_trace_file(req.trace, report,
                                      req.workload + ":" + req.dataset);
      std::printf("trace written: %s\n", req.trace.c_str());
    }
  }
  return 0;
}

/// estimate/run over a K > 2 PartitionDescriptor (spmm only — the other
/// executors stay scalar; see docs/PARTITIONING.md).
int run_kway_command(const char* command, const Request& req,
                     core::Workload workload,
                     const hetsim::Platform& platform) {
  const Error spmm_only("--devices > 2 currently supports --workload spmm only");
  if (workload != core::Workload::kSpmm) throw spmm_only;
  if (std::strcmp(command, "estimate") != 0 &&
      std::strcmp(command, "run") != 0)
    throw Error("--devices > 2 supports the estimate and run commands only");

  core::KwayConfig kcfg;
  kcfg.devices = req.devices;
  kcfg.objective = core::parse_cost_objective(req.objective);
  kcfg.robust = robust_config_for(workload, req);
  return exp::visit_workload(
      workload, datasets::spec_by_name(req.dataset), req.options, platform,
      [&](const auto& problem, const auto&, const auto&) -> int {
        if constexpr (core::KwayExecutableProblem<
                          std::decay_t<decltype(problem)>>) {
          return run_kway(command, req, problem, kcfg);
        } else {
          throw spmm_only;
        }
      });
}

int run_command(const char* command, const Request& req) {
  if (std::strcmp(command, "batch") == 0) return run_batch(req);
  // A by-value copy of the reference platform so an injected fault plan
  // stays local to this invocation.
  hetsim::Platform platform = hetsim::Platform::reference();
  if (!req.fault_plan.empty()) {
    const auto plan = hetsim::FaultPlan::parse(req.fault_plan);
    platform.set_fault_plan(plan);
    log_info("fault plan: " + plan.summary());
  }
  const core::Workload workload = core::parse_workload(req.workload);
  if (req.devices < 2)
    throw Error("--devices must be at least 2 (CPU + primary GPU)");
  if (req.devices > 2) {
    add_accels(platform, req.devices, req.accel_spec);
    return run_kway_command(command, req, workload, platform);
  }
  const core::RobustConfig rcfg = robust_config_for(workload, req);

  // Estimate through the guarded fallback chain unless --fallback off, in
  // which case estimation errors (deadline, faults) propagate to main().
  auto guarded = [&](const auto& p, const auto& extrapolate) {
    if (req.fallback == "off") {
      const auto est =
          core::estimate_partition(p, rcfg.sampling, extrapolate);
      core::RobustEstimate out;
      out.threshold = est.threshold;
      out.estimation_cost_ns = est.estimation_cost_ns;
      out.evaluations = est.evaluations;
      out.sampled = est;
      return out;
    }
    return core::robust_estimate_partition(p, rcfg, extrapolate);
  };
  return exp::visit_workload(
      workload, datasets::spec_by_name(req.dataset), req.options, platform,
      [&](const auto& problem, const auto& extrapolate, const auto& oracle) {
        return drive(
            command, req, problem,
            [&](const auto& p) { return guarded(p, extrapolate); }, oracle);
      });
}

int info() {
  const auto& platform = hetsim::Platform::reference();
  std::printf("nbwp — nearly balanced work partitioning\n\n");
  std::printf("simulated platform (see src/hetsim/calibration.hpp):\n");
  std::printf("  CPU  %2.0f cores @ %.2f GHz, %.0f/%.0f GB/s stream/random\n",
              platform.cpu().spec().cores,
              platform.cpu().spec().freq_hz / 1e9,
              platform.cpu().spec().bw_stream_bps / 1e9,
              platform.cpu().spec().bw_random_bps / 1e9);
  std::printf("  GPU  %4.0f cores @ %.0f MHz, %.0f/%.0f GB/s stream/random\n",
              platform.gpu().spec().cores,
              platform.gpu().spec().freq_hz / 1e6,
              platform.gpu().spec().bw_stream_bps / 1e9,
              platform.gpu().spec().bw_random_bps / 1e9);
  std::printf("  PCIe %.0f GB/s, %.0f us latency\n",
              platform.link().spec().bandwidth_bps / 1e9,
              platform.link().spec().latency_ns / 1e3);
  std::printf("  NaiveStatic GPU share: %.1f%%\n\n",
              platform.naive_static_gpu_share_pct());
  exp::emit(exp::table_two(0.25, 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::printf(
        "usage: nbwp_cli <info|estimate|exhaustive|sweep|run|batch> "
        "[options]\n"
        "run `nbwp_cli estimate --help` for the option list.\n");
    return argc < 2 ? 1 : 0;
  }
  const char* command = argv[1];
  if (std::strcmp(command, "info") == 0) return info();

  Cli cli(std::string("nbwp_cli ") + command, "library driver");
  cli.add_option("workload", "cc", "cc | spmm | hh | spmv");
  cli.add_option("dataset", "cant", "Table II dataset name");
  cli.add_option("scale", "0", "generation scale (0 = default)");
  cli.add_option("seed", "1", "generation seed");
  cli.add_option("sampling-seed", "24301", "sampling seed");
  cli.add_option("mtx-dir", "", "directory with original .mtx files");
  cli.add_option("threshold", "-1", "run: threshold (default: estimate)");
  cli.add_option("devices", "2",
                 "partition across K devices (2 = the scalar CPU/GPU "
                 "threshold; >2 adds simulated accelerators, spmm only)");
  cli.add_option("accel-spec", "",
                 "comma-separated throughput scale factors for the extra "
                 "accelerators, e.g. 0.5,0.25 (default: halving)");
  cli.add_option("objective", "balanced",
                 "K-way cost objective: balanced | critical-path | greedy "
                 "| minmax (see docs/PARTITIONING.md)");
  cli.add_option("csv", "", "sweep: CSV output path");
  cli.add_option("trace", "", "run: virtual-time Chrome trace output path");
  cli.add_option("metrics", "", "write a metric snapshot JSON here");
  cli.add_option("trace-real", "",
                 "write a wall-clock Chrome/Perfetto trace here");
  cli.add_option("fault-plan", "",
                 "fault injection plan, e.g. gpu-hard@0,pcie-degrade=4 "
                 "(see hetsim/faults.hpp)");
  cli.add_option("identify-deadline-ms", "0",
                 "wall-clock budget for the identify search (0 = none)");
  cli.add_option("fallback", "auto",
                 "estimate fallback chain: auto | race | naive-static | off");
  cli.add_option("batch", "",
                 "batch: request manifest (workload=.. dataset=.. lines)");
  cli.add_option("plan-cache", "on", "batch: plan cache on | off");
  cli.add_option("plan-cache-capacity", "256",
                 "batch: total cached plans across shards");
  cli.add_option("plan-cache-shards", "4", "batch: plan cache shard count");
  cli.add_option("cache-snapshot", "",
                 "batch: save the plan cache here after planning "
                 "(versioned, checksummed; see docs/SERVING.md)");
  cli.add_option("cache-restore", "",
                 "batch: warm-boot the plan cache from this snapshot; a "
                 "corrupt file logs a warning and starts cold");
  cli.add_option("slo", "",
                 "evaluate objectives after the run, e.g. "
                 "'serve.plan_ms p99 < 50ms'; exit 1 on violation "
                 "(implies --metrics collection; see docs/OBSERVABILITY.md)");
  cli.add_option("slo-report", "", "write the SLO report JSON here");
  cli.add_option("flight-recorder", "",
                 "dump the last-requests flight ring JSON here at exit");
  cli.add_option("flight-threshold-ms", "0",
                 "flag requests slower than this as breaches (0 = off)");
  cli.add_option("log-level", "info", "debug | info | warn | error");
  if (!cli.parse(argc - 1, argv + 1)) return 0;

  Request req;
  req.workload = cli.str("workload");
  req.dataset = cli.str("dataset");
  req.options.scale = cli.real("scale");
  req.options.seed = static_cast<uint64_t>(cli.integer("seed"));
  req.options.sampling_seed =
      static_cast<uint64_t>(cli.integer("sampling-seed"));
  req.options.mtx_dir = cli.str("mtx-dir");
  req.threshold = cli.real("threshold");
  req.devices = static_cast<int>(cli.integer("devices"));
  req.accel_spec = cli.str("accel-spec");
  req.objective = cli.str("objective");
  req.csv = cli.str("csv");
  req.trace = cli.str("trace");
  req.metrics = cli.str("metrics");
  req.trace_real = cli.str("trace-real");
  req.fault_plan = cli.str("fault-plan");
  req.identify_deadline_ms = cli.real("identify-deadline-ms");
  req.fallback = cli.str("fallback");
  req.batch_manifest = cli.str("batch");
  req.plan_cache = cli.str("plan-cache") != "off";
  req.plan_cache_capacity =
      static_cast<int>(cli.integer("plan-cache-capacity"));
  req.plan_cache_shards = static_cast<int>(cli.integer("plan-cache-shards"));
  req.cache_snapshot = cli.str("cache-snapshot");
  req.cache_restore = cli.str("cache-restore");

  const std::string slo_spec = cli.str("slo");
  const std::string slo_report_path = cli.str("slo-report");
  const std::string flight_path = cli.str("flight-recorder");
  const double flight_threshold_ms = cli.real("flight-threshold-ms");

  try {
    set_log_level(parse_log_level(cli.str("log-level")));
    // SLO evaluation and the flight recorder read the metric registry /
    // request traces, so either flag opts into collection.
    if (!req.metrics.empty() || !slo_spec.empty() || !flight_path.empty())
      obs::set_metrics_enabled(true);
    if (!req.trace_real.empty()) obs::set_trace_enabled(true);
    // Parse the SLO spec *before* the run so a typo fails in seconds,
    // not after minutes of planning.
    std::optional<obs::SloMonitor> slo;
    if (!slo_spec.empty()) slo = obs::SloMonitor::parse(slo_spec);
    if (!flight_path.empty() || flight_threshold_ms > 0) {
      obs::FlightRecorder::Options flight;
      flight.latency_threshold_ms = flight_threshold_ms;
      obs::FlightRecorder::global().configure(flight);
    }

    int rc = run_command(command, req);

    if (slo) {
      const obs::SloReport report =
          slo->evaluate(obs::Registry::global());
      for (const auto& r : report.results) {
        std::printf("slo %-4s %s (observed %.4g, bound %.4g, burn %.2f%s)\n",
                    r.ok ? "ok" : "FAIL", r.objective.spec.c_str(),
                    r.observed, r.objective.bound, r.burn_rate,
                    r.missing ? ", metric missing" : "");
      }
      if (!slo_report_path.empty()) {
        std::ofstream f(slo_report_path);
        if (!f) throw Error("cannot open SLO report " + slo_report_path);
        obs::write_slo_report_json(f, report);
        std::printf("slo report written: %s\n", slo_report_path.c_str());
      }
      if (!report.ok() && rc == 0) rc = 1;
    }
    if (!flight_path.empty()) {
      obs::FlightRecorder::global().write_json_file(flight_path);
      std::printf("flight recorder dumped: %s\n", flight_path.c_str());
    }

    if (!req.metrics.empty()) {
      obs::RunManifest manifest;
      manifest.tool = "nbwp_cli";
      manifest.command = command;
      for (const auto& [k, v] : cli.items()) manifest.config[k] = v;
      manifest.outputs["metrics"] = req.metrics;
      if (!req.trace_real.empty())
        manifest.outputs["trace_real"] = req.trace_real;
      manifest.metrics = obs::Registry::global().snapshot();
      obs::write_metrics_json_file(req.metrics, manifest.metrics);
      obs::write_manifest_file(obs::manifest_path_for(req.metrics),
                               manifest);
      std::printf("metrics written: %s (+%s)\n", req.metrics.c_str(),
                  obs::manifest_path_for(req.metrics).c_str());
    }
    if (!req.trace_real.empty()) {
      obs::Tracer::global().write_chrome_trace_file(
          req.trace_real, req.workload + ":" + req.dataset);
      std::printf("real-time trace written: %s\n", req.trace_real.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
