#include "hetalg/hetero_spmv.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hetsim/work_profile.hpp"
#include "sparse/load_vector.hpp"
#include "sparse/sampling.hpp"
#include "sparse/spmv.hpp"
#include "util/error.hpp"

namespace nbwp::hetalg {

using sparse::CsrMatrix;
using sparse::Index;

namespace {
// CPU CSR SpMV: entries streamed, x gathers random (cache-resident for
// banded matrices, missing for wide ones; the constant is the blend).
constexpr double kCpuStreamPerNnz = 12.0;
constexpr double kCpuRandomPerNnz = 6.0;
constexpr double kCpuOpsPerNnz = 2.0;
// GPU CSR-vector SpMV: coalesced entry streams, x gathers via texture
// cache; row-length imbalance stalls warps (mitigated by warp-per-row for
// the heavy bins).
constexpr double kGpuStreamPerNnz = 12.0;
constexpr double kGpuRandomPerNnz = 4.0;
constexpr double kGpuOpsPerNnz = 2.0;
constexpr double kGpuBinningExponent = 0.5;
constexpr double kGpuLaunchesPerRound = 1.0;
}  // namespace

HeteroSpmv::HeteroSpmv(CsrMatrix a, const hetsim::Platform& platform,
                       unsigned rounds)
    : a_(std::move(a)), platform_(&platform), rounds_(std::max(1u, rounds)) {
  row_nnz_.resize(a_.rows());
  for (Index r = 0; r < a_.rows(); ++r) row_nnz_[r] = a_.row_nnz(r);
  nnz_prefix_ = sparse::prefix_sums(row_nnz_);
}

Index HeteroSpmv::split_row(double r_cpu_pct) const {
  NBWP_REQUIRE(r_cpu_pct >= 0.0 && r_cpu_pct <= 100.0,
               "share out of range");
  return sparse::split_row_for_share(nnz_prefix_, r_cpu_pct);
}

HeteroSpmv::Times HeteroSpmv::times_at(double r_cpu_pct) const {
  const Index split = split_row(r_cpu_pct);
  const Index n = a_.rows();
  const auto cpu_nnz = static_cast<double>(nnz_prefix_[split]);
  const auto gpu_nnz =
      static_cast<double>(nnz_prefix_[n] - nnz_prefix_[split]);
  const double rounds = rounds_;
  Times t;
  if (split > 0) {
    hetsim::WorkProfile p;
    p.bytes_stream = kCpuStreamPerNnz * cpu_nnz * rounds;
    p.bytes_random = kCpuRandomPerNnz * cpu_nnz * rounds;
    p.ops = kCpuOpsPerNnz * cpu_nnz * rounds;
    p.parallel_items = platform_->cpu_threads();
    t.cpu_work_ns = platform_->cpu().time_ns(p);
    hetsim::WorkProfile barrier;
    barrier.steps = rounds;
    t.cpu_overhead_ns = platform_->cpu().time_ns(barrier);
  }
  if (split < n) {
    hetsim::WorkProfile p;
    p.bytes_stream = kGpuStreamPerNnz * gpu_nnz * rounds;
    p.bytes_random = kGpuRandomPerNnz * gpu_nnz * rounds;
    p.ops = kGpuOpsPerNnz * gpu_nnz * rounds;
    p.parallel_items = platform_->gpu().spec().full_occupancy_items;
    p.simd_inflation = std::pow(
        hetsim::simd_inflation_range(row_nnz_, split, n,
                                     platform_->gpu().spec().warp_size),
        kGpuBinningExponent);
    t.gpu_work_ns = platform_->gpu().time_ns(p);
    hetsim::WorkProfile launches;
    launches.steps = kGpuLaunchesPerRound * rounds;
    // The whole x ships every round regardless of the split (constant);
    // the y slice and the A slice scale with the GPU's share (variable).
    const double bw = platform_->link().spec().bandwidth_bps;
    const double x_bytes = 8.0 * static_cast<double>(a_.cols()) * rounds;
    t.gpu_transfer_var_ns =
        (8.0 * static_cast<double>(n - split) * rounds + 12.0 * gpu_nnz +
         8.0 * static_cast<double>(n - split)) /
        bw * 1e9;
    t.gpu_overhead_ns = platform_->gpu().time_ns(launches) +
                        x_bytes / bw * 1e9 +
                        2.0 * rounds * platform_->link().spec().latency_ns;
  }
  return t;
}

double HeteroSpmv::time_ns(double r) const { return times_at(r).total_ns(); }

double HeteroSpmv::balance_ns(double r) const {
  return times_at(r).balance_ns();
}

std::pair<double, double> HeteroSpmv::device_times_all() const {
  const Times all_cpu = times_at(100.0);
  const Times all_gpu = times_at(0.0);
  return {all_cpu.cpu_work_ns,
          all_gpu.gpu_work_ns + all_gpu.gpu_transfer_var_ns};
}

hetsim::RunReport HeteroSpmv::run(double r_cpu_pct) const {
  const Index split = split_row(r_cpu_pct);
  const Times times = times_at(r_cpu_pct);

  // Execute one numeric round (cheap) to validate the split composition.
  std::vector<double> x(a_.cols());
  for (Index i = 0; i < a_.cols(); ++i)
    x[i] = 1.0 + static_cast<double>(i % 7);
  std::vector<double> y(a_.rows(), 0.0);
  sparse::spmv_row_range(a_, x, y, 0, split);
  sparse::spmv_row_range(a_, x, y, split, a_.rows());

  hetsim::RunReport report;
  report.add_overlapped_phase(
      "spmv", times.cpu_work_ns + times.cpu_overhead_ns,
      times.gpu_work_ns + times.gpu_transfer_var_ns + times.gpu_overhead_ns);
  report.set_counter("split_row", split);
  report.set_counter("cpu_work_ns", times.cpu_work_ns);
  report.set_counter("gpu_work_ns",
                     times.gpu_work_ns + times.gpu_transfer_var_ns);
  report.set_counter("y_checksum",
                     std::accumulate(y.begin(), y.end(), 0.0));
  return report;
}

Index HeteroSpmv::sample_size(double frac) const {
  NBWP_REQUIRE(frac > 0.0 && frac <= 1.0, "sample fraction out of range");
  return std::clamp<Index>(static_cast<Index>(std::llround(frac * a_.rows())),
                           std::min<Index>(2, a_.rows()), a_.rows());
}

HeteroSpmv HeteroSpmv::make_sample(double frac, Rng& rng) const {
  const Index k_rows = sample_size(frac);
  const auto k_cols = std::clamp<Index>(
      static_cast<Index>(std::llround(frac * a_.cols())),
      std::min<Index>(2, a_.cols()), a_.cols());
  const auto rows = sample_without_replacement(a_.rows(), k_rows, rng);
  const auto cols = sample_without_replacement(a_.cols(), k_cols, rng);
  std::vector<Index> row_ids(rows.begin(), rows.end());
  std::vector<Index> col_ids(cols.begin(), cols.end());
  return HeteroSpmv(sparse::extract_submatrix(a_, row_ids, col_ids),
                    *platform_, rounds_);
}

double HeteroSpmv::sampling_cost_ns(double frac) const {
  hetsim::WorkProfile p;
  p.bytes_stream = 12.0 * frac * static_cast<double>(a_.nnz());
  p.bytes_random = 4.0 * frac * static_cast<double>(a_.nnz());
  p.parallel_items = platform_->cpu_threads();
  return platform_->cpu().time_ns(p);
}

}  // namespace nbwp::hetalg
