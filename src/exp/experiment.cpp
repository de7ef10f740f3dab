#include "exp/experiment.hpp"

#include <filesystem>

#include <algorithm>
#include <cmath>

#include "core/baselines.hpp"
#include "exp/workloads.hpp"
#include "graph/convert.hpp"
#include "hetalg/hetero_gemm.hpp"
#include "obs/obs.hpp"
#include "util/log.hpp"
#include "util/mmio.hpp"
#include "util/stats.hpp"
#include "util/strfmt.hpp"

namespace nbwp::exp {

double default_scale(const datasets::DatasetSpec& spec) {
  return spec.paper_n > 1200000 ? 0.25 : 1.0;
}

namespace {

double scale_of(const SuiteOptions& options,
                const datasets::DatasetSpec& spec) {
  return options.scale > 0 ? options.scale : default_scale(spec);
}

std::string mtx_path(const datasets::DatasetSpec& spec,
                     const SuiteOptions& options) {
  if (options.mtx_dir.empty()) return {};
  const std::filesystem::path p =
      std::filesystem::path(options.mtx_dir) / (spec.name + ".mtx");
  return std::filesystem::exists(p) ? p.string() : std::string{};
}

/// One suite row: estimate on `problem` and price the estimate and the
/// baselines against the exhaustive optimum `oracle`.
template <typename P, typename Extrapolate>
CaseResult estimate_case(const P& problem, const Extrapolate& extrapolate,
                         const core::SamplingConfig& cfg,
                         const hetsim::Platform& platform,
                         const core::ExhaustiveResult& oracle,
                         double naive_avg) {
  CaseResult r;
  r.exhaustive_threshold = oracle.best_threshold;
  r.exhaustive_ns = oracle.best_time_ns;

  const core::PartitionEstimate est =
      core::estimate_partition(problem, cfg, extrapolate);
  r.estimated_threshold = est.threshold;
  r.sample_threshold = est.sample_threshold;
  r.estimation_cost_ns = est.estimation_cost_ns;
  r.evaluations = est.evaluations;
  r.estimated_ns = problem.time_ns(est.threshold);

  r.naive_average_threshold =
      std::clamp(naive_avg, problem.threshold_lo(), problem.threshold_hi());
  r.naive_average_ns = problem.time_ns(r.naive_average_threshold);

  if constexpr (requires { problem.threshold_for_work_share(0.5); }) {
    // HH: map the FLOPS ratio to a heavy-row work share; cutoffs span
    // orders of magnitude, so the diff is relative to the optimum.
    r.naive_static_threshold = problem.threshold_for_work_share(
        core::naive_static_cpu_share_pct(platform) / 100.0);
    r.threshold_diff_pct =
        100.0 * std::abs(r.estimated_threshold - r.exhaustive_threshold) /
        std::max(1.0, r.exhaustive_threshold);
    r.gpu_only_ns = problem.time_ns(problem.threshold_hi());
  } else {
    r.naive_static_threshold = core::naive_static_cpu_share_pct(platform);
    r.threshold_diff_pct =
        std::abs(r.estimated_threshold - r.exhaustive_threshold);
    r.gpu_only_ns = problem.time_ns(0.0);
  }
  if constexpr (requires { problem.input(); }) {
    r.n = problem.input().num_vertices();
    r.nnz = problem.input().num_edges();
  } else {
    r.n = problem.a().rows();
    r.nnz = problem.a().nnz();
  }
  r.naive_static_ns = problem.time_ns(r.naive_static_threshold);
  r.time_diff_pct =
      100.0 * (r.estimated_ns - r.exhaustive_ns) / r.exhaustive_ns;
  r.overhead_pct = 100.0 * r.estimation_cost_ns /
                   (r.estimation_cost_ns + r.estimated_ns);
  return r;
}

/// The shared two-pass suite skeleton: pass 1 finds every exhaustive
/// optimum (the NaiveAverage baseline is their mean, exactly the paper's
/// "average of exhaustive thresholds arrived at through multiple prior
/// runs over all the datasets"); pass 2 computes the estimates and times.
/// Each pass rebuilds the problem through the workload registry rather
/// than holding every input at once.
std::vector<CaseResult> run_suite(
    Workload workload, const std::vector<datasets::DatasetSpec>& specs,
    const hetsim::Platform& platform, const SuiteOptions& options) {
  obs::Span suite_span("suite");
  const core::SamplingConfig cfg = core::sampling_config(
      workload, options.sampling_seed, options.repeats);
  std::vector<double> optima(specs.size());
  std::vector<core::ExhaustiveResult> oracle(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    obs::Span span("suite.exhaustive");
    oracle[i] = visit_workload(
        workload, specs[i], options, platform,
        [](const auto& problem, const auto&, const auto& exhaust) {
          return exhaust(problem);
        });
    optima[i] = oracle[i].best_threshold;
    log_debug(strfmt("exhaustive %s: t=%.1f", specs[i].name.c_str(),
                     optima[i]));
  }
  const double naive_avg = core::naive_average_threshold(optima);

  std::vector<CaseResult> results;
  results.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    obs::Span case_span("suite.case");
    log_debug(strfmt("estimating %s (%zu/%zu)", specs[i].name.c_str(),
                     i + 1, specs.size()));
    CaseResult r = visit_workload(
        workload, specs[i], options, platform,
        [&](const auto& problem, const auto& extrapolate, const auto&) {
          return estimate_case(problem, extrapolate, cfg, platform,
                               oracle[i], naive_avg);
        });
    r.dataset = specs[i].name;
    log_debug(strfmt("%s: estimated t=%.1f vs exhaustive t=%.1f "
                     "(slowdown %.2f%%, overhead %.2f%%)",
                     r.dataset.c_str(), r.estimated_threshold,
                     r.exhaustive_threshold, r.time_diff_pct,
                     r.overhead_pct));
    results.push_back(std::move(r));
  }
  return results;
}

/// Rows (spmm, spmv) or sqrt(n)-scaled vertices/rows (CC, HH) a sample
/// of factor `f` draws.  Every registered workload reports one.
template <typename P>
uint64_t sample_size_of(const P& problem, double f) {
  if constexpr (requires { problem.sample_rows(f); }) {
    return problem.sample_rows(f);
  } else {
    return problem.sample_size(f);
  }
}

}  // namespace

graph::CsrGraph load_graph(const datasets::DatasetSpec& spec,
                           const SuiteOptions& options) {
  const std::string path = mtx_path(spec, options);
  if (!path.empty()) {
    log_info("loading " + path);
    const TripletMatrix mm = read_matrix_market_file(path);
    if (mm.duplicates_coalesced > 0)
      obs::count("mmio.duplicate_entries",
                 static_cast<double>(mm.duplicates_coalesced));
    return graph::graph_from_triplets(mm);
  }
  return datasets::make_graph(spec, scale_of(options, spec), options.seed);
}

sparse::CsrMatrix load_matrix(const datasets::DatasetSpec& spec,
                              const SuiteOptions& options) {
  const std::string path = mtx_path(spec, options);
  if (!path.empty()) {
    log_info("loading " + path);
    const TripletMatrix mm = read_matrix_market_file(path);
    if (mm.duplicates_coalesced > 0)
      obs::count("mmio.duplicate_entries",
                 static_cast<double>(mm.duplicates_coalesced));
    return sparse::CsrMatrix::from_mm(mm);
  }
  return datasets::make_matrix(spec, scale_of(options, spec), options.seed);
}

std::vector<CaseResult> run_cc_suite(const hetsim::Platform& platform,
                                     const SuiteOptions& options) {
  return run_suite(Workload::kCc, datasets::cc_datasets(), platform, options);
}

std::vector<CaseResult> run_spmm_suite(const hetsim::Platform& platform,
                                       const SuiteOptions& options) {
  return run_suite(Workload::kSpmm, datasets::spmm_datasets(), platform,
                   options);
}

std::vector<CaseResult> run_hh_suite(const hetsim::Platform& platform,
                                     const SuiteOptions& options) {
  return run_suite(Workload::kHh, datasets::scale_free_datasets(), platform,
                   options);
}

std::vector<DenseResult> run_dense_study(const hetsim::Platform& platform,
                                         std::vector<uint32_t> sizes,
                                         uint64_t seed) {
  std::vector<DenseResult> out;
  Rng rng(seed);
  for (uint32_t n : sizes) {
    hetalg::HeteroGemm problem(n, platform, rng);
    DenseResult r;
    r.n = n;
    const auto ex = core::exhaustive_search(problem, 1.0);
    r.exhaustive_threshold = ex.best_threshold;
    r.exhaustive_ns = ex.best_time_ns;
    core::SamplingConfig cfg;  // coarse-to-fine on a quarter-size sample
    cfg.sample_factor = 0.25;
    const auto est = core::estimate_partition(problem, cfg);
    r.estimated_threshold = est.threshold;
    r.estimated_ns = problem.time_ns(est.threshold);
    r.naive_static_threshold = core::naive_static_cpu_share_pct(platform);
    r.naive_static_ns = problem.time_ns(r.naive_static_threshold);
    out.push_back(r);
  }
  return out;
}

std::vector<SensitivityPoint> run_sensitivity(
    const hetsim::Platform& platform, Workload workload,
    const datasets::DatasetSpec& spec, std::vector<double> factors,
    const SuiteOptions& options) {
  std::vector<SensitivityPoint> out;
  auto push = [&](double factor, uint64_t sample_size,
                  const core::PartitionEstimate& est, double run_ns) {
    SensitivityPoint p;
    p.factor = factor;
    p.sample_size = sample_size;
    p.estimated_threshold = est.threshold;
    p.estimation_cost_ns = est.estimation_cost_ns;
    p.run_ns = run_ns;
    p.total_ns = est.estimation_cost_ns + run_ns;
    log_debug(strfmt("sensitivity factor %.3f: sample %llu, t=%.2f, "
                     "total %.3f ms",
                     factor, static_cast<unsigned long long>(sample_size),
                     est.threshold, p.total_ns / 1e6));
    out.push_back(p);
  };
  visit_workload(
      workload, spec, options, platform,
      [&](const auto& problem, const auto& extrapolate, const auto&) {
        for (double f : factors) {
          auto cfg = core::sampling_config(workload, options.sampling_seed,
                                           options.repeats);
          cfg.sample_factor = f;
          const auto est = core::estimate_partition(problem, cfg, extrapolate);
          push(f, sample_size_of(problem, f), est,
               problem.time_ns(est.threshold));
        }
      });
  return out;
}

std::vector<RandomnessPoint> run_randomness_study(
    const hetsim::Platform& platform, const datasets::DatasetSpec& spec,
    const SuiteOptions& options) {
  hetalg::HeteroSpmm problem(load_matrix(spec, options), platform);
  const auto ex = grid_oracle(problem);

  std::vector<RandomnessPoint> out;
  auto record = [&](const std::string& label, double threshold) {
    RandomnessPoint p;
    p.label = label;
    p.estimated_threshold = threshold;
    p.run_ns = problem.time_ns(threshold);
    p.exhaustive_threshold = ex.best_threshold;
    p.exhaustive_ns = ex.best_time_ns;
    log_debug(strfmt("randomness %s: t=%.2f (exhaustive %.2f)",
                     label.c_str(), threshold, ex.best_threshold));
    out.push_back(p);
  };

  {
    const auto cfg = core::sampling_config(
        Workload::kSpmm, options.sampling_seed, options.repeats);
    const auto est = core::estimate_partition(problem, cfg);
    record("random", est.threshold);
  }
  // Four predetermined n/4 x n/4 submatrices (Section IV-B "four different
  // predetermined submatrices").
  for (double anchor : {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}) {
    const hetalg::HeteroSpmm sample =
        problem.make_sample_predetermined(0.25, anchor);
    core::Evaluator eval;
    eval.lo = sample.threshold_lo();
    eval.hi = sample.threshold_hi();
    eval.objective_ns = [&sample](double t) { return sample.balance_ns(t); };
    eval.cost_ns = [&sample](double t) { return sample.time_ns(t); };
    const auto [cpu_ns, gpu_ns] = sample.device_times_all();
    const auto found = core::race_then_fine(eval, cpu_ns, gpu_ns);
    record(strfmt("corner@%.2f", anchor), found.best_threshold);
  }
  return out;
}

SummaryRow summarize(const std::string& workload,
                     std::span<const CaseResult> results) {
  SummaryRow row;
  row.workload = workload;
  std::vector<double> td, tm, ov;
  for (const auto& r : results) {
    td.push_back(r.threshold_diff_pct);
    tm.push_back(std::max(0.0, r.time_diff_pct));
    ov.push_back(r.overhead_pct);
  }
  row.threshold_diff_pct = mean(td);
  row.time_diff_pct = mean(tm);
  row.overhead_pct = mean(ov);
  return row;
}

}  // namespace nbwp::exp
