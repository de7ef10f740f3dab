#include "hetalg/hetero_spmm_hh.hpp"

#include <algorithm>
#include <cmath>

#include "hetalg/gpu_guard.hpp"
#include "hetsim/work_profile.hpp"
#include "obs/span.hpp"
#include "sparse/sampling.hpp"
#include "sparse/spgemm.hpp"
#include "util/error.hpp"

namespace nbwp::hetalg {

using sparse::CsrMatrix;
using sparse::Index;

namespace {
// Phase IV combine: each partial-product entry is read and merged once.
constexpr double kCombineStreamPerCByte = 2.0;
constexpr double kGpuLaunchesPerProduct = 4.0;
}  // namespace

HeteroSpmmHh::HeteroSpmmHh(CsrMatrix a, const hetsim::Platform& platform)
    : a_(std::move(a)), platform_(&platform) {
  NBWP_REQUIRE(a_.rows() == a_.cols(), "HH-CPU multiplies A by itself");
  degree_.resize(a_.rows());
  for (Index r = 0; r < a_.rows(); ++r) {
    degree_[r] = a_.row_nnz(r);
    max_degree_ = std::max(max_degree_, degree_[r]);
  }
  max_degree_ = std::max<uint64_t>(max_degree_, 1);

  // Per-row work L_i = sum of referenced row degrees, aggregated by the
  // row's own degree; used by the work-share extrapolator.
  std::vector<std::pair<uint64_t, double>> by_degree(a_.rows());
  double total = 0;
  for (Index r = 0; r < a_.rows(); ++r) {
    double load = 0;
    for (Index k : a_.row_cols(r)) load += static_cast<double>(degree_[k]);
    by_degree[r] = {degree_[r], load};
    total += load;
  }
  std::sort(by_degree.begin(), by_degree.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  double cum = 0;
  for (size_t i = 0; i < by_degree.size(); ++i) {
    cum += by_degree[i].second;
    const bool last_of_degree =
        i + 1 == by_degree.size() ||
        by_degree[i + 1].first != by_degree[i].first;
    if (last_of_degree) {
      degree_share_.emplace_back(by_degree[i].first,
                                 total > 0 ? cum / total : 0.0);
    }
  }
}

double HeteroSpmmHh::work_share_above(double t_cutoff) const {
  // degree_share_ holds (degree d, share of work in rows with degree >= d),
  // degrees descending.  Share above t = share at the smallest degree > t.
  double share = 0.0;
  for (const auto& [deg, cum] : degree_share_) {
    if (static_cast<double>(deg) > t_cutoff) {
      share = cum;
    } else {
      break;
    }
  }
  return share;
}

double HeteroSpmmHh::threshold_for_work_share(double share) const {
  double best_t = threshold_hi();
  double best_err = std::abs(0.0 - share);  // t = max degree => share 0
  for (const auto& [deg, cum] : degree_share_) {
    // Cutoff just below `deg` puts every row of degree >= deg in H.
    const double t = static_cast<double>(deg) - 0.5;
    const double err = std::abs(cum - share);
    if (t >= threshold_lo() && err < best_err) {
      best_err = err;
      best_t = t;
    }
  }
  return std::clamp(best_t, threshold_lo(), threshold_hi());
}

std::vector<double> HeteroSpmmHh::candidate_thresholds(size_t count) const {
  std::vector<double> out;
  out.reserve(count);
  const double lo = 1.0, hi = static_cast<double>(max_degree_);
  if (hi <= lo + 1) return {lo, hi};
  for (size_t i = 0; i < count; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(count - 1);
    out.push_back(lo * std::pow(hi / lo, f));
  }
  // Deduplicate cutoffs that classify identically at integer degrees.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](double x, double y) {
                          return std::floor(x) == std::floor(y);
                        }),
            out.end());
  return out;
}

HhStructure HeteroSpmmHh::structure_at(double t_cutoff) const {
  const Index n = a_.rows();
  HhStructure s;
  auto heavy = [&](Index k) {
    return static_cast<double>(degree_[k]) > t_cutoff;
  };
  // Per-L-row work for the two GPU products (for warp imbalance).
  std::vector<uint64_t> w_ll, w_lh;
  w_ll.reserve(n);
  w_lh.reserve(n);
  for (Index i = 0; i < n; ++i) {
    uint64_t whh = 0, whl = 0, wll = 0, wlh = 0;
    const bool hi = heavy(i);
    for (Index k : a_.row_cols(i)) {
      const uint64_t w = degree_[k];
      if (hi) {
        (heavy(k) ? whh : whl) += w;
      } else {
        (heavy(k) ? wlh : wll) += w;
      }
    }
    if (hi) {
      ++s.rows_h;
      s.cpu2.multiplies += whh;
      s.cpu3.multiplies += whl;
      s.cpu2.a_nnz += degree_[i];  // A_H scanned in both phases; split evenly
    } else {
      ++s.rows_l;
      s.gpu2.multiplies += wll;
      s.gpu3.multiplies += wlh;
      s.gpu2.a_nnz += degree_[i];
      w_ll.push_back(wll);
      w_lh.push_back(wlh);
    }
  }
  s.cpu2.rows = s.cpu3.rows = s.rows_h;
  s.gpu2.rows = s.gpu3.rows = s.rows_l;
  s.cpu3.a_nnz = s.cpu2.a_nnz;
  s.gpu3.a_nnz = s.gpu2.a_nnz;
  const int warp = platform_->gpu().spec().warp_size;
  s.gpu2.inflation = hetsim::simd_inflation(std::span<const uint64_t>(w_ll),
                                            warp);
  s.gpu3.inflation = hetsim::simd_inflation(std::span<const uint64_t>(w_lh),
                                            warp);
  s.a_l_bytes = static_cast<double>(s.gpu2.a_nnz) * 12.0 +
                static_cast<double>(s.rows_l) * 8.0;
  s.b_bytes = a_.bytes();
  return s;
}

namespace {
HhTimes hh_times(const hetsim::Platform& platform, const HhStructure& s) {
  using hetsim::WorkProfile;
  HhTimes t;

  // Phase I: stream the degree array, classify, build row id lists.
  {
    WorkProfile p;
    p.bytes_stream = 24.0 * static_cast<double>(s.rows_h + s.rows_l);
    p.ops = 4.0 * static_cast<double>(s.rows_h + s.rows_l);
    p.parallel_items = platform.cpu_threads();
    p.steps = 1;
    t.phase1_ns = platform.cpu().time_ns(p);
  }

  t.cpu2_ns = spgemm_cpu_work_ns(platform, s.cpu2);
  t.cpu3_ns = spgemm_cpu_work_ns(platform, s.cpu3);
  t.gpu2_work_ns = spgemm_gpu_work_ns(platform, s.gpu2);
  t.gpu3_work_ns = spgemm_gpu_work_ns(platform, s.gpu3);

  if (s.rows_l > 0) {
    WorkProfile launches;
    launches.steps = kGpuLaunchesPerProduct;
    const double launch_ns = platform.gpu().time_ns(launches);
    const double bw = platform.link().spec().bandwidth_bps;
    const double latency = platform.link().spec().latency_ns;
    // Split-dependent traffic (A_L up, partial C down) is charged to the
    // GPU *work* side so the balance objective sees the marginal cost;
    // the B shipment, launches, and latencies are constants.
    t.gpu2_work_ns +=
        (s.a_l_bytes + c_bytes_estimate(s.gpu2.multiplies)) / bw * 1e9;
    t.gpu3_work_ns += c_bytes_estimate(s.gpu3.multiplies) / bw * 1e9;
    t.gpu2_overhead_ns =
        launch_ns + platform.link().transfer_ns(s.b_bytes) + latency;
    t.gpu3_overhead_ns = launch_ns + latency;
  }

  // Phase IV: merge partial products; the CPU merges the H rows while the
  // GPU-produced L rows are merged after transfer (overlapped on the CPU
  // here, charged as one combine pass over all produced entries).
  {
    WorkProfile p;
    p.bytes_stream = kCombineStreamPerCByte *
                     (c_bytes_estimate(s.cpu2.multiplies) +
                      c_bytes_estimate(s.cpu3.multiplies) +
                      c_bytes_estimate(s.gpu2.multiplies) +
                      c_bytes_estimate(s.gpu3.multiplies));
    p.parallel_items = platform.cpu_threads();
    p.steps = 1;
    t.phase4_ns = platform.cpu().time_ns(p);
  }
  return t;
}
}  // namespace

double HeteroSpmmHh::time_ns(double t_cutoff) const {
  return hh_times(*platform_, structure_at(t_cutoff)).total_ns();
}

double HeteroSpmmHh::balance_ns(double t_cutoff) const {
  return hh_times(*platform_, structure_at(t_cutoff)).balance_ns();
}

hetsim::RunReport HeteroSpmmHh::run(double t_cutoff,
                                    CsrMatrix* c_out) const {
  const Index n = a_.rows();
  const HhStructure s = structure_at(t_cutoff);
  const HhTimes times = hh_times(*platform_, s);

  // Phase I (executed): classify rows.  B = A, so one mask classes both
  // the rows of A and the rows of B they reference.
  std::vector<uint8_t> mask(n, 0);
  {
    obs::Span span("hetalg.hh.classify");
    for (Index r = 0; r < n; ++r)
      mask[r] = static_cast<double>(degree_[r]) > t_cutoff ? 1 : 0;
  }

  // The two GPU products ("hh.ll", then "hh.lh") are gated through the
  // fault injector.  A gate only decides what its product is charged —
  // a rerouted product computes the same bits at CPU cost — so both are
  // decided up front, in Phase II / III order, and the one pass below
  // computes all four products for whichever device each landed on.
  bool ll_on_gpu = true, lh_on_gpu = true;
  {
    obs::Span span("hetalg.hh.gates");
    if (s.rows_l > 0) {
      const auto computed_in_one_pass = [] {};
      ll_on_gpu = run_gpu_or_reroute(*platform_, "hh.ll", times.gpu2_ns(),
                                     computed_in_one_pass);
      lh_on_gpu = run_gpu_or_reroute(*platform_, "hh.lh", times.gpu3_ns(),
                                     computed_in_one_pass);
    }
  }

  // Phases II-IV (executed): the four partial products A_H x B_H,
  // A_H x B_L, A_L x B_L and A_L x B_H, combined, in one work-balanced pass
  // over the input rows: each output entry sums its B_H and B_L products
  // separately and adds them at extraction, bitwise as the separate
  // products added with sp_add would.
  sparse::SpgemmClassCounters work;
  CsrMatrix c =
      sparse::spgemm_parallel_two_class(a_, ThreadPool::global(), mask, &work);
  NBWP_REQUIRE(work.by[1][1].multiplies == s.cpu2.multiplies &&
                   work.by[1][0].multiplies == s.cpu3.multiplies &&
                   work.by[0][0].multiplies == s.gpu2.multiplies &&
                   work.by[0][1].multiplies == s.gpu3.multiplies,
               "executed work disagrees with the structural sweep");

  hetsim::RunReport report;
  report.add_phase("phase1", times.phase1_ns);
  if (ll_on_gpu) {
    report.add_overlapped_phase("phase2", times.cpu2_ns, times.gpu2_ns());
  } else {
    report.add_overlapped_phase("phase2", times.cpu2_ns, 0.0);
    report.add_phase("phase2.reroute",
                     spgemm_cpu_work_ns(*platform_, s.gpu2));
  }
  if (lh_on_gpu) {
    report.add_overlapped_phase("phase3", times.cpu3_ns, times.gpu3_ns());
  } else {
    report.add_overlapped_phase("phase3", times.cpu3_ns, 0.0);
    report.add_phase("phase3.reroute",
                     spgemm_cpu_work_ns(*platform_, s.gpu3));
  }
  report.set_counter("gpu_rerouted",
                     (ll_on_gpu ? 0.0 : 1.0) + (lh_on_gpu ? 0.0 : 1.0));
  report.add_phase("phase4", times.phase4_ns);
  report.set_counter("c_nnz", static_cast<double>(c.nnz()));
  report.set_counter("rows_h", static_cast<double>(s.rows_h));
  report.set_counter("cpu_work_ns", times.cpu2_ns + times.cpu3_ns);
  report.set_counter("gpu_work_ns",
                     times.gpu2_work_ns + times.gpu3_work_ns);
  if (c_out) *c_out = std::move(c);
  return report;
}

Index HeteroSpmmHh::sample_size(double sqrt_n_factor) const {
  const auto n = static_cast<int64_t>(a_.rows());
  if (n == 0) return 0;
  const double s = sqrt_n_factor * std::sqrt(static_cast<double>(n));
  const int64_t k = s > 0 ? std::llround(s) : 0;
  return static_cast<Index>(
      std::clamp<int64_t>(k, std::min<int64_t>(2, n), n));
}

HeteroSpmmHh HeteroSpmmHh::make_sample(double sqrt_n_factor,
                                       Rng& rng) const {
  const Index s = sample_size(sqrt_n_factor);
  return HeteroSpmmHh(sparse::sample_rows_scalefree(a_, s, rng), *platform_);
}

double HeteroSpmmHh::sampling_cost_ns(double sqrt_n_factor) const {
  const double frac =
      static_cast<double>(sample_size(sqrt_n_factor)) / a_.rows();
  hetsim::WorkProfile p;
  const double scanned = frac * static_cast<double>(a_.nnz());
  p.bytes_stream = 12.0 * scanned;
  p.ops = 6.0 * scanned;
  p.parallel_items = platform_->cpu_threads();
  p.steps = 1;
  return platform_->cpu().time_ns(p);
}

}  // namespace nbwp::hetalg
