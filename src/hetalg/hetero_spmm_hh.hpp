// Algorithm 3: HH-CPU — heterogeneous SpGEMM for scale-free matrices
// (Section V, after Ramamoorthy et al. [24]).
//
// A row is *high-dense* (H) when it has more than t nonzeros, *low-dense*
// (L) otherwise.  With B = A (the paper multiplies each matrix by itself):
//
//   Phase I   classify rows of A/B into H and L by the threshold t.
//   Phase II  A_H x B_H on the CPU  ||  A_L x B_L on the GPU.
//   Phase III A_H x B_L on the CPU  ||  A_L x B_H on the GPU.
//   Phase IV  combine the partial products on both devices.
//
// The heavy rows go to the CPU because a row-per-thread GPU kernel stalls a
// whole warp on every heavy row (warp load imbalance) — exactly what the
// simd_inflation term of the GPU cost model charges.
//
// Unlike Algorithms 1 and 2 the threshold is a *row-density cutoff* (an
// absolute nnz count), not a percentage, so the Extrapolate step is
// non-trivial: a sampled matrix has thinner rows, and t' must be mapped
// back through a relation fitted offline (Section V-A.3; the paper's
// best fit was t = t'^2).
#pragma once

#include <vector>

#include "hetalg/spmm_cost.hpp"
#include "hetsim/platform.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/rng.hpp"

namespace nbwp::hetalg {

/// Structural summary of one HH split.
struct HhStructure {
  SpgemmWork cpu2, gpu2;  ///< Phase II:  A_H x B_H (cpu), A_L x B_L (gpu)
  SpgemmWork cpu3, gpu3;  ///< Phase III: A_H x B_L (cpu), A_L x B_H (gpu)
  uint64_t rows_h = 0, rows_l = 0;
  double a_l_bytes = 0;   ///< GPU operand transfer
  double b_bytes = 0;
};

struct HhTimes {
  double phase1_ns = 0;
  double cpu2_ns = 0, gpu2_work_ns = 0, gpu2_overhead_ns = 0;
  double cpu3_ns = 0, gpu3_work_ns = 0, gpu3_overhead_ns = 0;
  double phase4_ns = 0;

  double gpu2_ns() const { return gpu2_work_ns + gpu2_overhead_ns; }
  double gpu3_ns() const { return gpu3_work_ns + gpu3_overhead_ns; }
  double total_ns() const {
    const double p2 = cpu2_ns > gpu2_ns() ? cpu2_ns : gpu2_ns();
    const double p3 = cpu3_ns > gpu3_ns() ? cpu3_ns : gpu3_ns();
    return phase1_ns + p2 + p3 + phase4_ns;
  }
  double balance_ns() const {
    const double cpu = cpu2_ns + cpu3_ns;
    const double gpu = gpu2_work_ns + gpu3_work_ns;
    const double d = cpu - gpu;
    return d < 0 ? -d : d;
  }
};

class HeteroSpmmHh {
 public:
  /// B = A throughout (scale-free self product, as in the paper).
  HeteroSpmmHh(sparse::CsrMatrix a, const hetsim::Platform& platform);

  const sparse::CsrMatrix& a() const { return a_; }
  const hetsim::Platform& platform() const { return *platform_; }

  double threshold_lo() const { return 1.0; }
  double threshold_hi() const { return static_cast<double>(max_degree_); }
  uint64_t max_degree() const { return max_degree_; }

  /// Log-spaced candidate cutoffs for exhaustive / coarse searches.
  std::vector<double> candidate_thresholds(size_t count = 48) const;

  /// Execute Algorithm 3 at cutoff t.  Counters: "c_nnz", "rows_h",
  /// "cpu_work_ns", "gpu_work_ns".
  ///
  /// The report charges the four phases of the model; the product itself
  /// is computed in one pass (sparse::spgemm_parallel_two_class), bitwise
  /// equal to running the four partial products and combining them.  The
  /// two GPU products ("hh.ll", "hh.lh") are gated through the platform's
  /// fault injector (hetalg/gpu_guard.hpp) before that pass; persistent
  /// faults reroute them to the CPU ("phase2.reroute" / "phase3.reroute"
  /// phases, "gpu_rerouted" counter) with an identical product.  `c_out`,
  /// when non-null, receives C.
  hetsim::RunReport run(double t_cutoff,
                        sparse::CsrMatrix* c_out = nullptr) const;

  /// Analytic makespan at cutoff t (equals run(t).total_ns()).
  double time_ns(double t_cutoff) const;

  /// Analytic identification objective |cpu_work - gpu_work|.
  double balance_ns(double t_cutoff) const;

  HhStructure structure_at(double t_cutoff) const;

  /// Sample step (Section V-A.1): round(factor * sqrt(n)) rows uniformly
  /// at random, entries kept with probability s/n and columns remapped to
  /// [0, s).  factor = 1 is the paper's choice; Fig. 9 sweeps [1/4, 4].
  HeteroSpmmHh make_sample(double sqrt_n_factor, Rng& rng) const;

  double sampling_cost_ns(double sqrt_n_factor) const;
  sparse::Index sample_size(double sqrt_n_factor) const;

  /// Share (0..1) of the total work volume owned by rows with more than t
  /// nonzeros.  Decreasing step function of t.
  double work_share_above(double t_cutoff) const;

  /// Inverse of work_share_above: the cutoff whose heavy-row work share is
  /// closest to `share`.  Together these implement the *work-share
  /// matching* extrapolator: the share found to balance the devices on the
  /// sample is mapped to the full input's degree quantile, which is
  /// invariant under the degree compression the sampling introduces.
  double threshold_for_work_share(double share) const;

 private:
  sparse::CsrMatrix a_;
  const hetsim::Platform* platform_;
  std::vector<uint64_t> degree_;  ///< row nnz of A (= of B)
  uint64_t max_degree_ = 0;
  /// Distinct degrees descending with cumulative work share above each.
  std::vector<std::pair<uint64_t, double>> degree_share_;
};

}  // namespace nbwp::hetalg
