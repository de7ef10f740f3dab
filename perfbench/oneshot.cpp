// One-shot workloads: one request = hand-off (or file open) -> construct ->
// robust_estimate_partition -> run, as a single `nbwp_cli run` does it.
//
//   spmm-fem      Algorithm 2 on the cant analog, in-memory inputs
//   hh-scalefree  Algorithm 3 on the web-BerkStan analog at scale 0.1,
//                 in-memory inputs
//   cc-mtx        Algorithm 1 on the pwtk analog, opened as a Matrix
//                 Market file through exp::load_graph on every request
//
// `prepare` runs in its own process: it generates the inputs and the
// output oracles and writes them to the run's work directory, so the
// measuring process never holds an oracle and its peak RSS is the
// request's own.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/exhaustive.hpp"
#include "core/extrapolate.hpp"
#include "core/robust_estimate.hpp"
#include "datasets/table2.hpp"
#include "exp/experiment.hpp"
#include "graph/cc.hpp"
#include "graph/convert.hpp"
#include "graph/partition.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/row_subset.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spgemm_plan.hpp"
#include "util/mmio.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace nbwp;
using sparse::CsrMatrix;
using sparse::Index;

/// Distinct in-memory inputs per run; requests cycle through them.  The
/// FEM analogs differ in product size by under 1% from seed to seed; the
/// scale-free ones by ±20% (a few hub rows set the work), so HH takes the
/// median over many more of them and its runs differ less by seed.
constexpr int kFemInputs = 3;
constexpr int kScaleFreeInputs = 12;
/// Largest relative difference accepted between an HH product entry and
/// the serial oracle: Phase IV adds partial products in another order.
constexpr double kHhRelTolerance = 1e-10;

struct OneShot {
  const char* algorithm;
  const char* dataset;
  double scale;
  int inputs;
};

OneShot workload_spec(const std::string& name) {
  if (name == "spmm-fem") return {"spmm", "cant", 0.5, kFemInputs};
  if (name == "hh-scalefree") return {"hh", "web-BerkStan", 0.1, kScaleFreeInputs};
  if (name == "cc-mtx") return {"cc", "pwtk", 0.3, 1};
  throw std::invalid_argument("unknown one-shot workload " + name);
}

std::string input_path(const Args& a, int i) {
  return (fs::path(a.work_dir) / ("in" + std::to_string(i) + ".bin")).string();
}
std::string facts_path(const Args& a, int i) {
  return (fs::path(a.work_dir) / ("oracle" + std::to_string(i) + ".txt"))
      .string();
}
std::string values_path(const Args& a, int i) {
  return (fs::path(a.work_dir) / ("oracle" + std::to_string(i) + ".val"))
      .string();
}

// ---------------------------------------------------------------- prepare

void prepare_matrix_input(const Args& a, const OneShot& w, int i) {
  const CsrMatrix m = datasets::make_matrix(
      datasets::spec_by_name(w.dataset), w.scale,
      input_seed(a.seed, a.workload, static_cast<uint64_t>(i)));
  write_matrix(input_path(a, i), m);
  const CsrMatrix c = sparse::spgemm(m, m);  // the serial oracle
  std::map<std::string, std::string> facts;
  facts["c_nnz"] = std::to_string(c.nnz());
  if (a.workload == "spmm-fem") {
    facts["hash"] = std::to_string(hash_matrix(c));
  } else {
    facts["pattern_hash"] = std::to_string(hash_pattern(c));
    write_doubles(values_path(a, i), c.values());
  }
  write_facts(facts_path(a, i), facts);
}

}  // namespace

void prepare_oneshot(const Args& a) {
  const OneShot w = workload_spec(a.workload);
  fs::create_directories(a.work_dir);
  if (a.workload == "cc-mtx") {
    const graph::CsrGraph g = datasets::make_graph(
        datasets::spec_by_name(w.dataset), w.scale,
        input_seed(a.seed, a.workload, 0));
    write_matrix_market_file(
        (fs::path(a.work_dir) / (std::string(w.dataset) + ".mtx")).string(),
        graph::triplets_from_graph(g));
    const graph::CcResult ref = graph::cc_union_find(g);
    write_facts(facts_path(a, 0),
                {{"components",
                  std::to_string(graph::count_components(ref.labels))}});
    return;
  }
  // Oracles are serial products; build them side by side on nproc threads.
  const int threads_n = static_cast<int>(
      std::max(1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                                       static_cast<unsigned>(w.inputs))));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(threads_n);
  for (int t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = t; i < w.inputs; i += threads_n)
          prepare_matrix_input(a, w, i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

namespace {

// ---------------------------------------------------------------- measure

/// Wall-clock record of one request plus its virtual-clock columns.
struct Record {
  int input = 0;
  int cpu = -1;     ///< CPU the requesting thread was pinned to
  bool ok = false;  ///< ran and passed its output check
  double load_ms = 0, construct_ms = 0, plan_ms = 0, execute_ms = 0;
  double total_s = 0;
  double rss_load_mb = 0, rss_plan_mb = 0, rss_execute_mb = 0;
  // Virtual clock (hetsim): deterministic per input.
  double threshold = 0, makespan_ns = 0, optimum_ns = 0, estimate_ns = 0;
  int evaluations = 0;
  std::string stage;

  double handoff_to_plan_ms() const {
    return load_ms + construct_ms + plan_ms;
  }
  double gap_pct() const { return 100.0 * (makespan_ns / optimum_ns - 1.0); }
  double overhead_pct() const {
    return 100.0 * estimate_ns / (estimate_ns + makespan_ns);
  }
  std::string virtual_columns() const {
    return "threshold=" + exact(threshold) +
           " evaluations=" + std::to_string(evaluations) +
           " makespan_ns=" + exact(makespan_ns) +
           (optimum_ns > 0 ? " optimum_ns=" + exact(optimum_ns) : "") +
           " estimate_ns=" + exact(estimate_ns) + " stage=" + stage + "\n";
  }
};

/// Execute-path decomposition from replaying the public kernels on the
/// request's input at its threshold, plus the bare-kernel baseline.
struct Replay {
  double partition_ms = 0, kernel_ms = 0, glue_ms = 0;
  double plan_build_ms = 0, numeric_ms = 0, cc_ms = 0;
  double bare_ms = 0;
  double flops = 0, c_nnz = 0, bytes_computed = 0, rows_hash_share = 0;
  // Estimate sub-steps timed from outside (sample -> identify_on ->
  // extrapolate, with the pipeline's own seeding).
  double sample_ms = 0, identify_ms = 0, extrapolate_ms = 0;
  double sample_rows = 0;
  int identify_cache_hits = 0;
};

double hash_row_share(const sparse::SpgemmPlan& plan) {
  size_t hash_rows = 0;
  for (uint8_t h : plan.row_use_hash) hash_rows += h;
  return plan.rows ? static_cast<double>(hash_rows) / plan.rows : 0.0;
}

/// Bytes a row-wise SpGEMM must move at minimum, computed (not measured):
/// A read once, one B entry (index + value) per multiply, C written once.
double spgemm_bytes_computed(const CsrMatrix& a, double flops, double c_nnz) {
  return a.bytes() + 12.0 * flops + 12.0 * c_nnz +
         8.0 * (static_cast<double>(a.rows()) + 1);
}

template <typename P, typename Extrap>
void replay_estimate(const P& p, const core::RobustConfig& cfg,
                     Extrap& extrap, Replay& r) {
  Rng rng(cfg.sampling.seed);
  double t = now_s();
  const P sample = p.make_sample(cfg.sampling.sample_factor, rng);
  r.sample_ms = ms_since(t);
  Rng noise = rng.fork();
  t = now_s();
  const core::IdentifyResult found =
      core::detail::identify_on(sample, cfg.sampling, noise);
  r.identify_ms = ms_since(t);
  t = now_s();
  (void)extrap(p, sample, found.best_threshold);
  r.extrapolate_ms = ms_since(t);
  r.identify_cache_hits = found.cache_hits;
}

void replay_spmm_execute(const hetalg::HeteroSpmm& p, double threshold,
                         Replay& r) {
  ThreadPool& pool = ThreadPool::global();
  const CsrMatrix& a = p.a();
  double t = now_s();
  const sparse::SpgemmPlan plan = sparse::spgemm_plan(a, p.b(), pool);
  r.plan_build_ms = ms_since(t);
  const Index split = p.split_row(threshold);
  t = now_s();
  CsrMatrix c1 = sparse::spgemm_numeric_row_range(a, p.b(), plan, 0, split);
  CsrMatrix c2 =
      sparse::spgemm_numeric_row_range(a, p.b(), plan, split, a.rows());
  r.numeric_ms = ms_since(t);
  t = now_s();
  const CsrMatrix c = CsrMatrix::vstack(c1, c2);
  r.glue_ms = ms_since(t);
  r.kernel_ms = r.plan_build_ms + r.numeric_ms;
  r.rows_hash_share = hash_row_share(plan);
}

void replay_hh_execute(const hetalg::HeteroSpmmHh& p, double threshold,
                       Replay& r) {
  ThreadPool& pool = ThreadPool::global();
  const CsrMatrix& a = p.a();
  // Phase I and the Phase IV stitching are glue around the four products.
  double t = now_s();
  std::vector<Index> ids_h, ids_l;
  std::vector<uint8_t> mask(a.rows(), 0);
  for (Index row = 0; row < a.rows(); ++row) {
    if (static_cast<double>(a.row_nnz(row)) > threshold) {
      mask[row] = 1;
      ids_h.push_back(row);
    } else {
      ids_l.push_back(row);
    }
  }
  const CsrMatrix a_h = sparse::extract_rows(a, ids_h);
  const CsrMatrix a_l = sparse::extract_rows(a, ids_l);
  r.glue_ms = ms_since(t);
  t = now_s();
  const CsrMatrix c_hh = sparse::spgemm_parallel_masked(a_h, a, pool, mask, 1);
  const CsrMatrix c_ll = sparse::spgemm_parallel_masked(a_l, a, pool, mask, 0);
  const CsrMatrix c_hl = sparse::spgemm_parallel_masked(a_h, a, pool, mask, 0);
  const CsrMatrix c_lh = sparse::spgemm_parallel_masked(a_l, a, pool, mask, 1);
  r.kernel_ms = ms_since(t);
  t = now_s();
  {
    const CsrMatrix c_h = sparse::sp_add(c_hh, c_hl);
    const CsrMatrix c_l = sparse::sp_add(c_ll, c_lh);
    const CsrMatrix c = sparse::scatter_rows(a.rows(), ids_h, c_h, ids_l, c_l);
  }
  r.glue_ms += ms_since(t);
  r.rows_hash_share = hash_row_share(sparse::spgemm_plan(a, a, pool));
}

void replay_spgemm_bare(const CsrMatrix& a, Replay& r) {
  sparse::SpgemmCounters counters;
  const double t = now_s();
  const CsrMatrix c =
      sparse::spgemm_parallel(a, a, ThreadPool::global(), &counters);
  r.bare_ms = ms_since(t);
  r.flops = static_cast<double>(counters.multiplies);
  r.c_nnz = static_cast<double>(c.nnz());
  r.bytes_computed = spgemm_bytes_computed(a, r.flops, r.c_nnz);
}

void replay_cc_execute(const hetalg::HeteroCc& p, double threshold,
                       Replay& r) {
  const graph::CsrGraph& g = p.input();
  const graph::Vertex n = g.num_vertices();
  const auto cut =
      static_cast<graph::Vertex>(std::llround(n * threshold / 100.0));
  const hetalg::HeteroCcConfig config;
  double t = now_s();
  graph::GraphPartition part = graph::split_by_prefix(g, cut);
  r.partition_ms = ms_since(t);
  t = now_s();
  graph::CcResult cpu, gpu;
  if (cut > 0)
    cpu = graph::cc_chunked_parallel(part.cpu_part, ThreadPool::global(),
                                     config.cpu_chunks);
  if (cut < n) gpu = graph::cc_shiloach_vishkin(part.gpu_part);
  std::vector<graph::Vertex> labels(n);
  for (graph::Vertex v = 0; v < cut; ++v) labels[v] = cpu.labels[v];
  for (graph::Vertex v = cut; v < n; ++v) labels[v] = gpu.labels[v - cut] + cut;
  graph::merge_cross_edges(labels, part.cross_edges);
  r.cc_ms = ms_since(t);
  r.kernel_ms = r.cc_ms;
  t = now_s();
  (void)graph::cc_chunked_parallel(g, ThreadPool::global(), config.cpu_chunks);
  r.bare_ms = ms_since(t);
}

class OneShotRunner {
 public:
  OneShotRunner(const Args& args, RunResult& result)
      : args_(args),
        spec_(workload_spec(args.workload)),
        cfg_(robust_config(spec_.algorithm)),
        result_(result),
        cpus_(allowed_cpus()) {}

  /// Run whole rounds of requests over the CPUs, as many as bring their
  /// summed wall time nearest `budget_s` (a failed request counts its
  /// whole attempt), and return the successful ones.  Request k runs on
  /// CPU k mod n and on input k mod (inputs), shifted by one each time
  /// the pairs repeat, so the inputs take turns and each meets every CPU.
  /// `traced` reads RSS between layers; `replay` decomposes the first
  /// successful request afterwards.
  std::vector<Record> phase(double budget_s, bool traced, Replay* replay) {
    std::vector<Record> records;
    const size_t n = cpus_.size();
    const size_t period = std::lcm(n, static_cast<size_t>(spec_.inputs));
    double spent = 0;
    for (size_t j = 0;; ++j) {
      if (j > 0 && j % n == 0 && spent + 0.5 * n * spent / j >= budget_s)
        break;  // another round would overshoot more than stopping falls short
      const size_t k = attempts_++;
      pin_to_cpu(cpus_[k % n]);
      const int i = static_cast<int>((k + k / period) % spec_.inputs);
      const double attempt = now_s();
      Record rec = request(i, traced, records.empty() ? replay : nullptr);
      rec.cpu = cpus_[k % n];
      if (rec.ok) {
        spent += rec.total_s;
        records.push_back(std::move(rec));
      } else {
        spent += now_s() - attempt;
      }
    }
    return records;
  }

 private:
  template <typename P, typename Load, typename Out, typename Extrap,
            typename Optimum, typename Check, typename ReplayFn>
  Record timed(int i, bool traced, Load&& load, Out& out, Extrap&& extrap,
               Optimum&& optimum, Check&& check, ReplayFn&& replay_fn,
               Replay* replay) {
    const hetsim::Platform& platform = hetsim::Platform::reference();
    Record rec;
    rec.input = i;
    ++result_.attempted;
    try {
      const double t0 = now_s();
      auto input = load();
      const double t1 = now_s();
      if (traced) rec.rss_load_mb = rss_now_mb();
      const double t1b = now_s();
      P p(std::move(input), platform);
      const double t2 = now_s();
      const core::RobustEstimate est =
          core::robust_estimate_partition(p, cfg_, extrap);
      const double t3 = now_s();
      if (traced) rec.rss_plan_mb = rss_now_mb();
      const double t3b = now_s();
      const hetsim::RunReport report = p.run(est.threshold, &out);
      const double t4 = now_s();
      if (traced) rec.rss_execute_mb = rss_now_mb();
      rec.load_ms = (t1 - t0) * 1e3;
      rec.construct_ms = (t2 - t1b) * 1e3;
      rec.plan_ms = (t3 - t2) * 1e3;
      rec.execute_ms = (t4 - t3b) * 1e3;
      rec.total_s = (t1 - t0) + (t4 - t1b) - (t3b - t3);

      rec.threshold = est.threshold;
      rec.evaluations = est.evaluations;
      rec.estimate_ns = est.estimation_cost_ns;
      rec.stage = core::fallback_stage_name(est.stage);
      rec.makespan_ns = report.total_ns();
      // The exhaustive optimum depends on the input only, and only the
      // traced run reports it (virtual_gap_pct).
      if (args_.trace) {
        auto [opt, fresh] = optimum_.try_emplace(i, 0.0);
        if (fresh) opt->second = optimum(p);
        rec.optimum_ns = opt->second;
      }
      rec.ok = check(p, i);
      if (!rec.ok)
        result_.fail(args_.workload + " output check, input " +
                     std::to_string(i));
      check_virtual(rec);
      if (replay) {
        // Replays run untraced so they do not leak into the traced
        // phase's pool and span readings.
        const bool was = obs::metrics_enabled();
        obs::set_metrics_enabled(false);
        out = {};
        replay_estimate(p, cfg_, extrap, *replay);
        replay_fn(p, est.threshold, *replay);
        obs::set_metrics_enabled(was);
      }
    } catch (const std::exception& e) {
      result_.fail(args_.workload + " request threw: " + e.what());
    }
    return rec;
  }

  Record request(int i, bool traced, Replay* replay) {
    if (args_.workload == "spmm-fem") return spmm(i, traced, replay);
    if (args_.workload == "hh-scalefree") return hh(i, traced, replay);
    return cc(i, traced, replay);
  }

  Record spmm(int i, bool traced, Replay* replay) {
    const auto facts = read_facts(facts_path(args_, i));
    CsrMatrix in = read_matrix(input_path(args_, i));
    CsrMatrix c;
    auto identity = [](const hetalg::HeteroSpmm&, const hetalg::HeteroSpmm&,
                       double t) { return t; };
    return timed<hetalg::HeteroSpmm>(
        i, traced, [&] { return std::move(in); }, c, identity,
        [](const hetalg::HeteroSpmm& p) {
          return core::exhaustive_search(p, 1.0).best_time_ns;
        },
        [&](const hetalg::HeteroSpmm&, int) {
          return std::to_string(c.nnz()) == facts.at("c_nnz") &&
                 std::to_string(hash_matrix(c)) == facts.at("hash");
        },
        [](const hetalg::HeteroSpmm& p, double t, Replay& r) {
          replay_spmm_execute(p, t, r);
          replay_spgemm_bare(p.a(), r);
          r.sample_rows = p.sample_rows(0.25);
        },
        replay);
  }

  Record hh(int i, bool traced, Replay* replay) {
    const auto facts = read_facts(facts_path(args_, i));
    CsrMatrix in = read_matrix(input_path(args_, i));
    CsrMatrix c;
    auto extrap = [](const hetalg::HeteroSpmmHh& full,
                     const hetalg::HeteroSpmmHh& sample, double t) {
      return core::work_share_extrapolate(full, sample, t);
    };
    return timed<hetalg::HeteroSpmmHh>(
        i, traced, [&] { return std::move(in); }, c, extrap,
        [](const hetalg::HeteroSpmmHh& p) {
          // The candidate grid the Table I harness uses for HH.
          const auto candidates = p.candidate_thresholds(192);
          return core::exhaustive_search_over(p, candidates).best_time_ns;
        },
        [&](const hetalg::HeteroSpmmHh&, int idx) {
          if (std::to_string(c.nnz()) != facts.at("c_nnz") ||
              std::to_string(hash_pattern(c)) != facts.at("pattern_hash"))
            return false;
          const std::vector<double> ref = read_doubles(values_path(args_, idx));
          const auto vals = c.values();
          if (ref.size() != vals.size()) return false;
          for (size_t k = 0; k < ref.size(); ++k) {
            if (!(std::fabs(vals[k] - ref[k]) <=
                  kHhRelTolerance * std::max(1.0, std::fabs(ref[k]))))
              return false;
          }
          return true;
        },
        [](const hetalg::HeteroSpmmHh& p, double t, Replay& r) {
          replay_hh_execute(p, t, r);
          replay_spgemm_bare(p.a(), r);
          r.sample_rows = p.sample_size(1.0);
        },
        replay);
  }

  Record cc(int i, bool traced, Replay* replay) {
    const auto facts = read_facts(facts_path(args_, i));
    exp::SuiteOptions options;
    options.mtx_dir = args_.work_dir;
    const datasets::DatasetSpec& spec = datasets::spec_by_name(spec_.dataset);
    std::vector<graph::Vertex> labels;
    return timed<hetalg::HeteroCc>(
        i, traced, [&] { return exp::load_graph(spec, options); }, labels,
        [](const hetalg::HeteroCc&, const hetalg::HeteroCc&, double t) {
          return t;
        },
        [](const hetalg::HeteroCc& p) {
          return core::exhaustive_search(p, 1.0).best_time_ns;
        },
        [&](const hetalg::HeteroCc& p, int) {
          return graph::labels_equivalent(p.input(), labels) &&
                 std::to_string(graph::count_components(labels)) ==
                     facts.at("components");
        },
        [](const hetalg::HeteroCc& p, double t, Replay& r) {
          replay_cc_execute(p, t, r);
          r.sample_rows = p.sample_size(1.0);
        },
        replay);
  }

  /// Virtual-clock columns must repeat exactly: for an input seen twice in
  /// this run, and against the record an earlier run of this seed left.
  void check_virtual(const Record& rec) {
    const std::string cols = rec.virtual_columns();
    auto [it, inserted] = virtual_.try_emplace(rec.input, cols);
    if (!inserted && it->second != cols) {
      result_.fail("virtual columns differ between two requests on input " +
                   std::to_string(rec.input));
      return;
    }
    if (inserted) {
      std::printf("virtual %s input %d: %s", args_.workload.c_str(),
                  rec.input, cols.c_str());
      const std::string key = args_.workload + "-seed" +
                              std::to_string(args_.seed) + "-in" +
                              std::to_string(rec.input) +
                              (args_.trace ? "-traced" : "");
      if (!check_virtual_repeat(args_.state_dir, key, cols))
        result_.fail("virtual columns changed since an earlier run");
    }
  }

  const Args& args_;
  OneShot spec_;
  core::RobustConfig cfg_;
  RunResult& result_;
  const std::vector<int> cpus_;  ///< read before the first pin
  size_t attempts_ = 0;
  std::map<int, std::string> virtual_;
  std::map<int, double> optimum_;
};

template <typename F>
std::vector<double> field(const std::vector<Record>& rs, F f) {
  std::vector<double> v;
  for (const auto& r : rs) v.push_back(f(r));
  return v;
}

double span_mean_ms(const obs::MetricsSnapshot& snap, const std::string& name,
                    double per) {
  const auto it = snap.histograms.find("span." + name);
  if (it == snap.histograms.end() || per <= 0) return 0.0;
  return it->second.sum / 1e6 / per;
}

/// Table I columns over the distinct inputs of the run.
void set_virtual_metrics(const std::vector<Record>& rs, Metrics& m) {
  std::map<int, const Record*> distinct;
  for (const auto& r : rs) distinct.emplace(r.input, &r);
  std::vector<double> gap, overhead;
  for (const auto& [i, r] : distinct) {
    gap.push_back(r->gap_pct());
    overhead.push_back(r->overhead_pct());
  }
  m.set("virtual_gap_pct", mean(gap), "%");
  m.set("virtual_overhead_pct", mean(overhead), "%");
}

void print_requests(const char* label, const std::vector<Record>& rs) {
  for (const auto& r : rs)
    std::printf(
        "%s request input=%d cpu=%d total=%.1fms load=%.1f construct=%.1f "
        "plan=%.1f execute=%.1f\n",
        label, r.input, r.cpu, r.total_s * 1e3, r.load_ms, r.construct_ms,
        r.plan_ms, r.execute_ms);
}

}  // namespace

RunResult measure_oneshot(const Args& args) {
  RunResult result;
  const double setup_s = measure_setup_s({});
  ThreadPool::global().run_team([](unsigned) {});
  OneShotRunner runner(args, result);

  if (!args.trace) {
    const std::vector<Record> rs = runner.phase(args.seconds, false, nullptr);
    print_requests("untraced", rs);
    Metrics& m = result.metrics;
    m.set("run_s", median(field(rs, [](const Record& r) { return r.total_s; })),
          "s");
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss_peak_mb(), "MB");
    m.set("plan_p50_ms", median(field(rs, [](const Record& r) {
            return r.handoff_to_plan_ms();
          })),
          "ms");
    std::printf("samples: %zu requests\n", rs.size());
    return result;
  }

  // Traced run: an untraced half, then a traced half whose first request
  // is also decomposed by replaying the public kernels.
  const std::vector<Record> plain = runner.phase(args.seconds / 2, false,
                                                 nullptr);
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  Replay rp;
  const std::vector<Record> traced = runner.phase(args.seconds / 2, true, &rp);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  print_requests("untraced", plain);
  print_requests("traced", traced);
  if (plain.empty() || traced.empty()) return result;  // nothing succeeded

  const double n = static_cast<double>(traced.size());
  auto avg = [&](auto f) { return mean(field(traced, f)); };
  const double load = avg([](const Record& r) { return r.load_ms; });
  const double construct = avg([](const Record& r) { return r.construct_ms; });
  const double plan = avg([](const Record& r) { return r.plan_ms; });
  const double execute = avg([](const Record& r) { return r.execute_ms; });
  const double total = avg([](const Record& r) { return r.total_s * 1e3; });
  const double sample = span_mean_ms(snap, "estimate.sample", n);
  const double identify = span_mean_ms(snap, "estimate.identify", n);
  const double extrapolate = span_mean_ms(snap, "estimate.extrapolate", n);
  double input_mb = 0;
  if (args.workload == "cc-mtx") {
    input_mb = static_cast<double>(
                   fs::file_size(fs::path(args.work_dir) / "pwtk.mtx")) /
               1e6;
  }
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  };
  const double exec_s = execute * n / 1e3;
  const double pool_size = ThreadPool::global().size();

  std::printf("outside vs spans (ms/request): sample %.3f vs %.3f, identify "
              "%.3f vs %.3f, extrapolate %.3f vs %.3f\n",
              rp.sample_ms, sample, rp.identify_ms, identify,
              rp.extrapolate_ms, extrapolate);
  std::printf("kernel spans (ms total): plan.build %.1f, numeric_only.range "
              "%.1f, masked.parallel %.1f, cc.chunked_parallel %.1f, "
              "cc.shiloach_vishkin %.1f\n",
              span_mean_ms(snap, "kernel.spgemm.plan.build", 1),
              span_mean_ms(snap, "kernel.spgemm.numeric_only.range", 1),
              span_mean_ms(snap, "kernel.spgemm.masked.parallel", 1),
              span_mean_ms(snap, "kernel.cc.chunked_parallel", 1),
              span_mean_ms(snap, "kernel.cc.shiloach_vishkin", 1));
  std::printf("execute.over_bare_kernel base: %s = %.1f ms\n",
              args.workload == "cc-mtx"
                  ? "cc_chunked_parallel on the whole graph"
                  : "spgemm_parallel(A, A) on the same input",
              rp.bare_ms);

  Metrics& m = result.metrics;
  set_virtual_metrics(traced, m);
  const auto plan_latency =
      field(traced, [](const Record& r) { return r.handoff_to_plan_ms(); });
  m.set("plan_p99_ms", percentile(plan_latency, 99), "ms");
  m.set("plan.samples", n, "count");
  m.set("load.ms", load, "ms");
  m.set("load.input_mb_per_s", load > 0 ? input_mb / (load / 1e3) : 0.0,
        "MB/s");
  m.set("construct.ms", construct, "ms");
  m.set("fingerprint.ms", 0.0, "ms");
  m.set("cache.exact_share", 0.0, "ratio");
  m.set("cache.near_share", 0.0, "ratio");
  m.set("cache.miss_share", 0.0, "ratio");
  m.set("cache.evals_saved", 0.0, "count");
  m.set("admission.queue_wait_p50_ms", 0.0, "ms");
  m.set("admission.queue_wait_p99_ms", 0.0, "ms");
  m.set("admission.degraded_share", 0.0, "ratio");
  m.set("admission.shed_share", 0.0, "ratio");
  m.set("generator.late_p99_ms", 0.0, "ms");
  m.set("sample.ms", sample, "ms");
  m.set("sample.rows", rp.sample_rows, "count");
  m.set("identify.ms", identify, "ms");
  m.set("identify.evals", avg([](const Record& r) {
          return static_cast<double>(r.evaluations);
        }),
        "count");
  m.set("identify.cache_hits", rp.identify_cache_hits, "count");
  m.set("extrapolate.ms", extrapolate, "ms");
  m.set("plan.ms", plan, "ms");
  m.set("plan.unattributed_ms", plan - sample - identify - extrapolate, "ms");
  m.set("execute.ms", execute, "ms");
  m.set("execute.partition_ms", rp.partition_ms, "ms");
  m.set("execute.kernel_ms", rp.kernel_ms, "ms");
  m.set("execute.glue_ms", rp.glue_ms, "ms");
  m.set("execute.unattributed_ms",
        execute - rp.partition_ms - rp.kernel_ms - rp.glue_ms, "ms");
  m.set("execute.over_bare_kernel",
        rp.bare_ms > 0 ? execute / rp.bare_ms : 0.0, "ratio");
  m.set("request.unattributed_ms",
        total - load - construct - plan - execute, "ms");
  m.set("kernel.spgemm.plan_build_ms", rp.plan_build_ms, "ms");
  m.set("kernel.spgemm.numeric_ms", rp.numeric_ms, "ms");
  m.set("kernel.flops", rp.flops, "count");
  m.set("kernel.c_nnz", rp.c_nnz, "count");
  m.set("kernel.bytes_computed_mb", rp.bytes_computed / 1e6, "MB");
  m.set("kernel.gflops",
        rp.bare_ms > 0 && rp.flops > 0 ? 2.0 * rp.flops / (rp.bare_ms * 1e6)
                                       : 0.0,
        "GFLOP/s");
  m.set("kernel.rows_hash_share", rp.rows_hash_share, "ratio");
  m.set("kernel.cc_ms", rp.cc_ms, "ms");
  m.set("pool.utilization",
        exec_s > 0 ? counter("pool.busy_ns") / (pool_size * exec_s * 1e9)
                   : 0.0,
        "ratio");
  m.set("rss.after_load_mb", traced.front().rss_load_mb, "MB");
  m.set("rss.after_plan_mb", traced.front().rss_plan_mb, "MB");
  m.set("rss.after_execute_mb", traced.front().rss_execute_mb, "MB");
  const double untraced_run =
      median(field(plain, [](const Record& r) { return r.total_s; }));
  const double traced_run =
      median(field(traced, [](const Record& r) { return r.total_s; }));
  m.set("trace.overhead_pct", 100.0 * (traced_run / untraced_run - 1.0), "%");
  return result;
}

}  // namespace perfbench
