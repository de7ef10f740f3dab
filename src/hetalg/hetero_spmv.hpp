// Heterogeneous SpMV (after Indarapu et al. [17]): rows of A are split by
// nonzero volume at a percentage threshold, the CPU computes the prefix
// block, the GPU the suffix, and the result vector halves are
// concatenated after a transfer.
//
// Like Algorithm 2 the optimum is input-dependent (warp imbalance of the
// suffix rows), and like Algorithm 2 an n/4 submatrix sample preserves
// the structure that determines it — so the same race-then-fine
// identification applies unchanged.
#pragma once

#include <utility>
#include <vector>

#include "hetsim/platform.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/rng.hpp"

namespace nbwp::hetalg {

class HeteroSpmv {
 public:
  /// `rounds` models the usual iterative context (solvers run many SpMVs
  /// against one partition; overheads amortize across them).
  HeteroSpmv(sparse::CsrMatrix a, const hetsim::Platform& platform,
             unsigned rounds = 32);

  const sparse::CsrMatrix& a() const { return a_; }
  const hetsim::Platform& platform() const { return *platform_; }
  unsigned rounds() const { return rounds_; }

  static constexpr double threshold_lo() { return 0.0; }
  static constexpr double threshold_hi() { return 100.0; }

  /// Execute at threshold r (CPU share of the nnz volume, percent); the
  /// product is validated in the tests.
  hetsim::RunReport run(double r_cpu_pct) const;

  double time_ns(double r_cpu_pct) const;
  double balance_ns(double r_cpu_pct) const;
  std::pair<double, double> device_times_all() const;

  /// Sample step: a uniformly random submatrix of sample_size(frac) rows
  /// and round(frac * cols) columns (at least 2 of each).
  HeteroSpmv make_sample(double frac, Rng& rng) const;
  /// Rows make_sample(frac) draws: round(frac * rows), at least 2.
  sparse::Index sample_size(double frac) const;
  double sampling_cost_ns(double frac) const;
  sparse::Index split_row(double r_cpu_pct) const;

 private:
  struct Times {
    double cpu_work_ns = 0, cpu_overhead_ns = 0;
    double gpu_work_ns = 0, gpu_transfer_var_ns = 0, gpu_overhead_ns = 0;
    double total_ns() const {
      const double cpu = cpu_work_ns + cpu_overhead_ns;
      const double gpu =
          gpu_work_ns + gpu_transfer_var_ns + gpu_overhead_ns;
      return cpu > gpu ? cpu : gpu;
    }
    double balance_ns() const {
      const double d =
          cpu_work_ns - (gpu_work_ns + gpu_transfer_var_ns);
      return d < 0 ? -d : d;
    }
  };
  Times times_at(double r_cpu_pct) const;

  sparse::CsrMatrix a_;
  const hetsim::Platform* platform_;
  unsigned rounds_;
  std::vector<uint64_t> row_nnz_;
  std::vector<uint64_t> nnz_prefix_;
};

}  // namespace nbwp::hetalg
