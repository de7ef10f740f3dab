// serve-mix: an open loop of plan-only requests through
// AdmissionController + PlanService with default options.
//
// Arrivals are Poisson at one fixed offered rate (kOfferedRate, frozen;
// see README.md for how it was chosen).  Each request picks an input from
// a Zipf-popular pool of small Table II analogs — cc, spmm and hh, each
// dataset at several generator seeds — larger than the plan cache's
// default capacity, so the exact / near / miss mix settles instead of
// warming to all hits.  Inside the timed path a request builds its
// problem and fingerprint from the in-memory input (only the copy of the
// pooled input is made ahead of the due time) and is submitted with a
// priority class from a fixed mix.  Latency counts from the due time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <variant>

#include "common.hpp"
#include "core/exhaustive.hpp"
#include "core/extrapolate.hpp"
#include "datasets/table2.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/fingerprint.hpp"
#include "serve/plan_service.hpp"

namespace perfbench {

namespace {

using namespace nbwp;
using sparse::CsrMatrix;

/// Offered load in requests per second, frozen: about a fifth of the
/// closed-loop capacity measured when this benchmark was introduced
/// (README.md).  At 60% and at 35%, minutes-long slowdowns of the shared
/// host pushed the clients towards saturation and doubled the median.
constexpr double kOfferedRate = 200.0;
/// Requests due in the first kWarmupS seconds settle the cache and are
/// not measured.
constexpr double kWarmupS = 2.0;
constexpr int kSeedsPerDataset = 16;
constexpr double kZipfExponent = 1.0;
/// Nonzeros per pooled input (scale chosen per dataset).
constexpr double kTargetNnz = 40000;
/// Client threads building and submitting requests; with the admission
/// controller's two workers this keeps the load at nproc = 4 threads.
constexpr size_t kClients = 2;
/// A p99 send lateness above this flags the run: the clients could not
/// keep the schedule, so the offered rate was not the one stated.
constexpr double kBehindMs = 100.0;
/// Priority mix: interactive, batch, best-effort.
constexpr double kPriorityShare[3] = {0.2, 0.6, 0.2};

const std::vector<std::string>& fem_datasets() {
  static const std::vector<std::string> names = {
      "cant", "consph", "cop20k_A", "pdb1HYS", "pwtk", "qcd5_4", "rma10",
      "shipsec1"};
  return names;
}

/// One pooled input plus its oracle, computed at set-up.
struct PoolItem {
  std::string algorithm;  // cc | spmm | hh
  std::string dataset;
  std::variant<graph::CsrGraph, CsrMatrix> input;
  double lo = 0, hi = 0;          // threshold range
  double cold_threshold = 0;      // the cold solve's plan
  int cold_evaluations = 0;
  double optimum_ns = 0;          // exhaustive best makespan
  double sampling_cost_ns = 0;
  double identify_cost_per_eval_ns = 0;
  double sample_rows = 0;
  int identify_cache_hits = 0;
};

double scale_for(const datasets::DatasetSpec& spec) {
  return std::clamp(kTargetNnz / static_cast<double>(spec.paper_nnz), 1e-4,
                    1.0);
}

template <typename P, typename Extrap>
void fill_oracle(const P& p, const core::RobustConfig& cfg, Extrap extrap,
                 double optimum_ns, double sample_rows, PoolItem& item) {
  item.lo = p.threshold_lo();
  item.hi = p.threshold_hi();
  const core::RobustEstimate est =
      core::robust_estimate_partition(p, cfg, extrap);
  item.cold_threshold = est.threshold;
  item.cold_evaluations = est.evaluations;
  item.optimum_ns = optimum_ns;
  item.sampling_cost_ns = p.sampling_cost_ns(cfg.sampling.sample_factor);
  item.identify_cost_per_eval_ns =
      est.evaluations > 0
          ? (est.estimation_cost_ns - item.sampling_cost_ns) / est.evaluations
          : 0.0;
  item.sample_rows = sample_rows;
  Rng rng(cfg.sampling.seed);
  const P sample = p.make_sample(cfg.sampling.sample_factor, rng);
  Rng noise = rng.fork();
  item.identify_cache_hits =
      core::detail::identify_on(sample, cfg.sampling, noise).cache_hits;
}

double hh_extrapolate(const hetalg::HeteroSpmmHh& full,
                      const hetalg::HeteroSpmmHh& sample, double t) {
  return core::work_share_extrapolate(full, sample, t);
}

void build_oracle(PoolItem& item) {
  const hetsim::Platform& platform = hetsim::Platform::reference();
  const core::RobustConfig cfg = robust_config(item.algorithm);
  auto identity = [](const auto&, const auto&, double t) { return t; };
  if (item.algorithm == "cc") {
    const hetalg::HeteroCc p(std::get<graph::CsrGraph>(item.input), platform);
    fill_oracle(p, cfg, identity, core::exhaustive_search(p, 1.0).best_time_ns,
                p.sample_size(cfg.sampling.sample_factor), item);
  } else if (item.algorithm == "spmm") {
    const hetalg::HeteroSpmm p(std::get<CsrMatrix>(item.input), platform);
    fill_oracle(p, cfg, identity, core::exhaustive_search(p, 1.0).best_time_ns,
                p.sample_rows(cfg.sampling.sample_factor), item);
  } else {
    const hetalg::HeteroSpmmHh p(std::get<CsrMatrix>(item.input), platform);
    const auto candidates = p.candidate_thresholds(192);
    fill_oracle(p, cfg, hh_extrapolate,
                core::exhaustive_search_over(p, candidates).best_time_ns,
                p.sample_size(cfg.sampling.sample_factor), item);
  }
}

std::vector<PoolItem> make_pool(uint64_t seed) {
  std::vector<PoolItem> pool;
  auto add = [&](const std::string& algorithm, const std::string& name) {
    const datasets::DatasetSpec& spec = datasets::spec_by_name(name);
    for (int k = 0; k < kSeedsPerDataset; ++k) {
      PoolItem item;
      item.algorithm = algorithm;
      item.dataset = name;
      const uint64_t s = input_seed(seed, "serve-mix/" + algorithm + "/" + name,
                                    static_cast<uint64_t>(k));
      if (algorithm == "cc")
        item.input = datasets::make_graph(spec, scale_for(spec), s);
      else
        item.input = datasets::make_matrix(spec, scale_for(spec), s);
      pool.push_back(std::move(item));
    }
  };
  for (const auto& name : fem_datasets()) add("cc", name);
  for (const auto& name : fem_datasets()) add("spmm", name);
  for (const auto& spec : datasets::scale_free_datasets())
    add("hh", spec.name);
  // Oracles are independent per item; compute them on nproc threads.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (size_t i = w; i < pool.size(); i += threads)
          build_oracle(pool[i]);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return pool;
}

/// What the solve wrapper observed; written by the admission worker
/// before it fulfils the promise, read after future.get().
struct SolveTimes {
  double start_s = 0, end_s = 0;
  bool ran = false;
};

struct Sent {
  size_t item = 0;
  serve::Priority priority = serve::Priority::kBatch;
  bool measured = false;
  double due_s = 0, start_s = 0, submit_s = 0;
  double construct_ms = 0, fingerprint_ms = 0;
  std::shared_ptr<SolveTimes> solve;
  std::future<serve::AdmitOutcome> future;
  std::string error;  ///< set when building the request threw
};

/// Build the request for `item` from a private copy of its input: the
/// problem construction and make_plan_request (which fingerprints the
/// input) are what a client pays per request.
serve::PlanRequest build_request(const PoolItem& item,
                                 std::variant<graph::CsrGraph, CsrMatrix> in,
                                 Sent& sent) {
  const hetsim::Platform& platform = hetsim::Platform::reference();
  const core::RobustConfig cfg = robust_config(item.algorithm);
  const std::string id = item.algorithm + ":" + item.dataset;
  double t = now_s();
  serve::PlanRequest req;
  if (item.algorithm == "cc") {
    hetalg::HeteroCc p(std::move(std::get<graph::CsrGraph>(in)), platform);
    sent.construct_ms = ms_since(t);
    t = now_s();
    req = serve::make_plan_request(id, item.algorithm, std::move(p), cfg);
  } else if (item.algorithm == "spmm") {
    hetalg::HeteroSpmm p(std::move(std::get<CsrMatrix>(in)), platform);
    sent.construct_ms = ms_since(t);
    t = now_s();
    req = serve::make_plan_request(id, item.algorithm, std::move(p), cfg);
  } else {
    hetalg::HeteroSpmmHh p(std::move(std::get<CsrMatrix>(in)), platform);
    sent.construct_ms = ms_since(t);
    t = now_s();
    req = serve::make_plan_request(id, item.algorithm, std::move(p), cfg,
                                   hh_extrapolate);
  }
  sent.fingerprint_ms = ms_since(t);
  auto times = std::make_shared<SolveTimes>();
  sent.solve = times;
  req.solve = [inner = std::move(req.solve),
               times](const serve::SolveOptions& options) {
    times->start_s = now_s();
    serve::PlanOutcome out = inner(options);
    times->end_s = now_s();
    times->ran = true;
    return out;
  };
  return req;
}

/// Request popularity: a (algorithm, dataset) group uniformly, then one
/// of its generator-seed variants by a Zipf law over a seeded ranking.
/// Fixing the group shares keeps the kind of work per request the same
/// for every --seed; only which variants are popular changes.
class Popularity {
 public:
  Popularity(const std::vector<PoolItem>& pool, Rng& rng) {
    for (size_t i = 0; i < pool.size(); i += kSeedsPerDataset) {
      std::vector<size_t> ranked(kSeedsPerDataset);
      for (size_t k = 0; k < ranked.size(); ++k) ranked[k] = i + k;
      for (size_t k = ranked.size(); k > 1; --k)
        std::swap(ranked[k - 1], ranked[rng.uniform(k)]);
      groups_.push_back(std::move(ranked));
    }
    double sum = 0;
    for (int k = 0; k < kSeedsPerDataset; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t pick(Rng& rng) const {
    const auto& group = groups_[rng.uniform(groups_.size())];
    const double u = rng.uniform_real();
    const auto r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return group[std::min(r, group.size() - 1)];
  }

 private:
  std::vector<std::vector<size_t>> groups_;
  std::vector<double> cdf_;
};

serve::Priority pick_priority(Rng& rng) {
  const double u = rng.uniform_real();
  if (u < kPriorityShare[0]) return serve::Priority::kInteractive;
  if (u < kPriorityShare[0] + kPriorityShare[1]) return serve::Priority::kBatch;
  return serve::Priority::kBestEffort;
}

/// Aggregates of one open-loop phase.
struct PhaseStats {
  size_t sent = 0, succeeded = 0, degraded = 0, shed = 0, failed = 0;
  size_t measured = 0, exact = 0, near = 0, miss = 0;
  std::vector<double> latency_ms, late_ms, queue_wait_ms;
  std::vector<double> construct_ms, fingerprint_ms, plan_ms, gap_pct;
  std::vector<double> sample_rows, identify_evals, identify_cache_hits;
  std::vector<double> request_rest_ms;
  double evals_saved = 0, estimate_ns = 0, makespan_ns = 0;
  bool generator_behind = false;
  std::map<std::string, size_t> stages;
};

PhaseStats run_phase(const std::vector<PoolItem>& pool, uint64_t seed,
                     double measure_s, RunResult& result) {
  serve::PlanService service;
  serve::AdmissionController controller(service, {});
  Rng rng(seed);
  const Popularity popularity(pool, rng);
  std::exponential_distribution<double> gap(kOfferedRate);

  // The whole schedule is drawn up front; client c sends arrivals
  // c, c + kClients, ... so one slow build delays only its own client.
  std::vector<Sent> sent;
  const double t0 = now_s() + 0.05;
  const double end = t0 + kWarmupS + measure_s;
  for (double due = t0 + gap(rng); due < end; due += gap(rng)) {
    Sent s;
    s.item = popularity.pick(rng);
    s.priority = pick_priority(rng);
    s.due_s = due;
    s.measured = due >= t0 + kWarmupS;
    sent.push_back(std::move(s));
  }
  auto client = [&](size_t first) {
    for (size_t i = first; i < sent.size(); i += kClients) {
      Sent& s = sent[i];
      try {
        auto copy = pool[s.item].input;  // made ahead of the due time
        while (now_s() < s.due_s) {
          const double left = s.due_s - now_s();
          if (left > 200e-6)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(left - 100e-6));
        }
        s.start_s = now_s();
        serve::PlanRequest req =
            build_request(pool[s.item], std::move(copy), s);
        s.submit_s = now_s();
        s.future = controller.submit(std::move(req), s.priority);
      } catch (const std::exception& e) {
        s.error = e.what();
      }
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  controller.drain();

  PhaseStats st;
  st.sent = sent.size();
  std::map<size_t, std::set<uint64_t>> solved;  // item -> threshold bits
  std::vector<std::pair<size_t, double>> exact_hits;
  auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  for (Sent& s : sent) {
    const double late = (s.start_s - s.due_s) * 1e3;
    if (s.measured) st.late_ms.push_back(late);
    ++result.attempted;
    if (!s.future.valid()) {
      ++st.failed;
      result.fail("serve-mix request build threw: " + s.error);
      continue;
    }
    serve::AdmitOutcome out;
    try {
      out = s.future.get();
    } catch (const std::exception& e) {
      ++st.failed;
      result.fail(std::string("serve-mix plan threw: ") + e.what());
      continue;
    }
    const PoolItem& item = pool[s.item];
    if (out.status == serve::AdmitStatus::kShed) {
      ++st.shed;
      result.fail(std::string("request shed: ") +
                  serve::shed_reason_name(out.shed_reason));
      continue;
    }
    const serve::PlannedPartition& plan = out.plan;
    ++st.succeeded;
    if (out.status == serve::AdmitStatus::kDegraded) ++st.degraded;
    ++st.stages[core::fallback_stage_name(plan.stage)];
    // Output checks: a finite plan inside the threshold range; cold
    // misses reproduce the set-up solve bit for bit; exact hits return a
    // threshold some solve of the same input produced.
    if (!(std::isfinite(plan.threshold) && plan.threshold >= item.lo &&
          plan.threshold <= item.hi))
      result.fail("plan threshold outside its range for " + plan.id);
    if (plan.cache == serve::HitKind::kExact) {
      exact_hits.emplace_back(s.item, plan.threshold);
    } else if (s.solve && s.solve->ran) {
      solved[s.item].insert(bits(plan.threshold));
      if (plan.cache == serve::HitKind::kMiss &&
          plan.stage == core::FallbackStage::kSampled &&
          (bits(plan.threshold) != bits(item.cold_threshold) ||
           plan.evaluations != item.cold_evaluations))
        result.fail("cold miss differs from the set-up solve for " + plan.id);
    }
    if (!s.measured) continue;

    ++st.measured;
    const double latency = (s.submit_s - s.due_s) * 1e3 + out.e2e_ms;
    st.latency_ms.push_back(latency);
    st.construct_ms.push_back(s.construct_ms);
    st.fingerprint_ms.push_back(s.fingerprint_ms);
    st.evals_saved += plan.evals_saved;
    st.gap_pct.push_back(100.0 * (plan.objective_ns / item.optimum_ns - 1.0));
    st.makespan_ns += plan.objective_ns;
    switch (plan.cache) {
      case serve::HitKind::kExact: ++st.exact; break;
      case serve::HitKind::kNear: ++st.near; break;
      case serve::HitKind::kMiss: ++st.miss; break;
    }
    // Estimation virtual cost: sampling plus the input's identify cost per
    // evaluation (exact for cold solves, which repeat the set-up solve).
    if (plan.cache != serve::HitKind::kExact) {
      st.estimate_ns +=
          (plan.stage == core::FallbackStage::kSampled ? item.sampling_cost_ns
                                                       : 0.0) +
          item.identify_cost_per_eval_ns * plan.evaluations;
    }
    if (s.solve && s.solve->ran) {
      const double wait = (s.solve->start_s - s.submit_s) * 1e3;
      const double solve = (s.solve->end_s - s.solve->start_s) * 1e3;
      st.queue_wait_ms.push_back(wait);
      st.plan_ms.push_back(solve);
      st.identify_evals.push_back(plan.evaluations);
      st.sample_rows.push_back(item.sample_rows);
      if (plan.cache == serve::HitKind::kMiss)
        st.identify_cache_hits.push_back(item.identify_cache_hits);
      st.request_rest_ms.push_back(latency - late - s.construct_ms -
                                   s.fingerprint_ms - wait - solve);
    }
  }
  for (const auto& [item, threshold] : exact_hits) {
    if (!solved[item].count(bits(threshold)))
      result.fail("exact hit returned a threshold no solve produced");
  }
  st.failed += st.shed;
  st.generator_behind = percentile(st.late_ms, 99) > kBehindMs;
  std::printf(
      "serve-mix accounting: sent=%zu succeeded=%zu degraded=%zu shed=%zu "
      "failed=%zu measured=%zu generator_late_ms p50=%.3f p99=%.3f max=%.3f"
      "%s\n",
      st.sent, st.succeeded, st.degraded, st.shed, st.failed, st.measured,
      percentile(st.late_ms, 50), percentile(st.late_ms, 99),
      percentile(st.late_ms, 100),
      st.generator_behind ? "  FLAG: generator fell behind the schedule" : "");
  std::printf("serve-mix stages:");
  for (const auto& [name, n] : st.stages) std::printf(" %s=%zu", name.c_str(), n);
  std::printf("  cache exact=%zu near=%zu miss=%zu\n", st.exact, st.near,
              st.miss);
  return st;
}

/// Closed-loop throughput with `window` requests in flight: the capacity
/// the offered rate was set against.
double closed_loop_rate(const std::vector<PoolItem>& pool, uint64_t seed,
                        double seconds, size_t window) {
  serve::PlanService service;
  serve::AdmissionController controller(service, {});
  std::vector<size_t> done(kClients, 0);
  std::vector<std::exception_ptr> errors(kClients);
  const double t0 = now_s();
  auto client = [&](size_t c) {
    try {
      Rng rng(seed + c);
      const Popularity popularity(pool, rng);
      std::deque<std::future<serve::AdmitOutcome>> in_flight;
      while (now_s() - t0 < seconds) {
        Sent s;
        s.item = popularity.pick(rng);
        in_flight.push_back(controller.submit(
            build_request(pool[s.item], pool[s.item].input, s),
            pick_priority(rng)));
        if (in_flight.size() >= window) {
          in_flight.front().get();
          in_flight.pop_front();
          ++done[c];
        }
      }
      for (auto& f : in_flight) f.get();
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  const double elapsed = now_s() - t0;
  double total = 0;
  for (size_t d : done) total += static_cast<double>(d);
  return total / elapsed;
}

double share(size_t part, size_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

}  // namespace

void measure_serve_capacity(const Args& args) {
  const std::vector<PoolItem> pool = make_pool(args.seed);
  for (size_t window : {2, 4, 8, 16})
    std::printf("closed loop, %zu clients x %zu in flight: %.0f requests/s\n",
                kClients, window,
                closed_loop_rate(pool, args.seed, args.seconds, window));
}

RunResult measure_serve_mix(const Args& args) {
  RunResult result;
  const double setup_s = measure_setup_s([] {
    serve::PlanService service;
    serve::AdmissionController controller(service, {});
  });
  const std::vector<PoolItem> pool = make_pool(args.seed);
  const double rss_pool = rss_now_mb();
  std::printf("serve-mix pool: %zu inputs, offered rate %.0f/s, warm-up %.1fs\n",
              pool.size(), kOfferedRate, kWarmupS);
  Metrics& m = result.metrics;

  if (!args.trace) {
    const PhaseStats st = run_phase(pool, args.seed, args.seconds, result);
    std::printf("samples: %zu measured requests\n", st.latency_ms.size());
    m.set("run_s", median(st.latency_ms) / 1e3, "s");
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss_peak_mb(), "MB");
    m.set("plan_p50_ms", percentile(st.latency_ms, 50), "ms");
    return result;
  }

  const PhaseStats plain = run_phase(pool, args.seed, args.seconds / 2, result);
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const PhaseStats st = run_phase(pool, args.seed, args.seconds / 2, result);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  auto span_ms = [&](const std::string& name) {
    const auto it = snap.histograms.find("span." + name);
    return it == snap.histograms.end() || it->second.count == 0
               ? 0.0
               : it->second.sum / 1e6 / static_cast<double>(it->second.count);
  };
  const double sample = span_ms("estimate.sample");
  const double identify = span_ms("estimate.identify");
  const double extrapolate = span_ms("estimate.extrapolate");
  const double plan = mean(st.plan_ms);

  m.set("plan_p99_ms", percentile(st.latency_ms, 99), "ms");
  m.set("plan.samples", static_cast<double>(st.latency_ms.size()), "count");
  m.set("virtual_gap_pct", mean(st.gap_pct), "%");
  m.set("virtual_overhead_pct",
        100.0 * st.estimate_ns / (st.estimate_ns + st.makespan_ns), "%");
  m.set("load.ms", 0.0, "ms");
  m.set("load.input_mb_per_s", 0.0, "MB/s");
  m.set("construct.ms", mean(st.construct_ms), "ms");
  m.set("fingerprint.ms", mean(st.fingerprint_ms), "ms");
  m.set("cache.exact_share", share(st.exact, st.measured), "ratio");
  m.set("cache.near_share", share(st.near, st.measured), "ratio");
  m.set("cache.miss_share", share(st.miss, st.measured), "ratio");
  m.set("cache.evals_saved",
        st.measured ? st.evals_saved / static_cast<double>(st.measured) : 0.0,
        "count");
  m.set("admission.queue_wait_p50_ms", percentile(st.queue_wait_ms, 50), "ms");
  m.set("admission.queue_wait_p99_ms", percentile(st.queue_wait_ms, 99), "ms");
  m.set("admission.degraded_share", share(st.degraded, st.sent), "ratio");
  m.set("admission.shed_share", share(st.shed, st.sent), "ratio");
  m.set("generator.late_p99_ms", percentile(st.late_ms, 99), "ms");
  m.set("sample.ms", sample, "ms");
  m.set("sample.rows", mean(st.sample_rows), "count");
  m.set("identify.ms", identify, "ms");
  m.set("identify.evals", mean(st.identify_evals), "count");
  m.set("identify.cache_hits", mean(st.identify_cache_hits), "count");
  m.set("extrapolate.ms", extrapolate, "ms");
  m.set("plan.ms", plan, "ms");
  m.set("plan.unattributed_ms", plan - sample - identify - extrapolate, "ms");
  for (const char* name :
       {"execute.ms", "execute.partition_ms", "execute.kernel_ms",
        "execute.glue_ms", "execute.unattributed_ms",
        "kernel.spgemm.plan_build_ms", "kernel.spgemm.numeric_ms",
        "kernel.cc_ms"})
    m.set(name, 0.0, "ms");
  m.set("execute.over_bare_kernel", 0.0, "ratio");
  m.set("kernel.flops", 0.0, "count");
  m.set("kernel.c_nnz", 0.0, "count");
  m.set("kernel.bytes_computed_mb", 0.0, "MB");
  m.set("kernel.gflops", 0.0, "GFLOP/s");
  m.set("kernel.rows_hash_share", 0.0, "ratio");
  m.set("pool.utilization", 0.0, "ratio");
  m.set("request.unattributed_ms", mean(st.request_rest_ms), "ms");
  m.set("rss.after_load_mb", rss_pool, "MB");
  m.set("rss.after_plan_mb", rss_now_mb(), "MB");
  m.set("rss.after_execute_mb", 0.0, "MB");
  m.set("trace.overhead_pct",
        100.0 * (percentile(st.latency_ms, 50) /
                     percentile(plain.latency_ms, 50) -
                 1.0),
        "%");
  return result;
}

}  // namespace perfbench
