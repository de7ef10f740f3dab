// Algorithm 2: heterogeneous sparse matrix-matrix multiplication
// (Section IV, after Matam et al. [22]).
//
//   Phase I   compute the load vector L_AB = A x V_B on the GPU, find the
//             split row i so rows [0, i) hold r% of the total work volume.
//   Phase II  C1 = A[0..i) x B on the CPU overlapped with
//             C2 = A[i..n) x B on the GPU.
//   Phase III transfer C2 and stitch C = [C1; C2].
//
// The split percentage r is the *CPU share of the work volume* in percent.
//
// `run` executes the kernels; `time_ns` evaluates the identical cost
// formulas from cached per-row work arrays (computed once per input), so
// exhaustive sweeps cost O(rows/32) per candidate.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_descriptor.hpp"
#include "hetalg/spmm_cost.hpp"
#include "hetsim/platform.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/rng.hpp"

namespace nbwp::hetalg {

class HeteroSpmm {
 public:
  /// B defaults to A (the paper computes A x A for compatibility).
  HeteroSpmm(sparse::CsrMatrix a, sparse::CsrMatrix b,
             const hetsim::Platform& platform);
  HeteroSpmm(sparse::CsrMatrix a, const hetsim::Platform& platform);

  const sparse::CsrMatrix& a() const { return a_; }
  const sparse::CsrMatrix& b() const { return b_; }
  const hetsim::Platform& platform() const { return *platform_; }

  static constexpr double threshold_lo() { return 0.0; }
  static constexpr double threshold_hi() { return 100.0; }

  /// Total work volume L = ||L_AB||_1 (multiply count of the product).
  uint64_t total_work() const { return work_prefix_.back(); }

  /// Split row for a CPU share of r%.
  sparse::Index split_row(double r_cpu_pct) const;

  /// Execute Algorithm 2.  Counters: "c_nnz", "cpu_work_ns",
  /// "gpu_work_ns", "split_row"; phases: "phase1", "phase2.cpu",
  /// "phase2.gpu", "stitch".  The product C itself is validated in tests.
  ///
  /// Both halves come out of one parallel two-phase SpGEMM pass over A x B
  /// (sparse::spgemm_parallel_ranges with cuts {0, split, n}): a single
  /// symbolic pass sizes C, then the CPU rows and the GPU rows each run a
  /// numeric pass balanced over the whole thread pool and write straight
  /// into C, so [C1; C2] needs no stitch copy.
  ///
  /// The GPU product ("spmm.c2") is gated through the platform's fault
  /// injector (hetalg/gpu_guard.hpp); a persistent fault reroutes it to
  /// the CPU ("phase2.reroute" phase, "gpu_rerouted" counter) with an
  /// identical product.  `c_out`, when non-null, receives C.
  hetsim::RunReport run(double r_cpu_pct,
                        sparse::CsrMatrix* c_out = nullptr) const;

  /// Analytic makespan (equals run(r).total_ns()).
  double time_ns(double r_cpu_pct) const;

  /// Analytic identification objective |cpu_work - gpu_work|.
  double balance_ns(double r_cpu_pct) const;

  /// Work-portion device times if ALL rows ran on one device — the inputs
  /// of the race-based coarse estimation (Section IV-A.b): both devices
  /// multiply the whole (sample) input in parallel; the throughput ratio
  /// at the first finish yields the coarse split.
  std::pair<double, double> device_times_all() const;  // {cpu_ns, gpu_ns}

  /// Sample step (Section IV-A.a): uniformly random submatrix with
  /// round(frac * n) rows and columns; the paper's choice is frac = 1/4.
  /// Fig. 6 sweeps frac in [1/10, 4/10].  B is sampled on the matching
  /// column set so the product stays well defined.
  HeteroSpmm make_sample(double frac, Rng& rng) const;

  /// Predetermined (non-random) contiguous sample anchored at a corner
  /// fraction `anchor` in [0,1] — the Fig. 7 ablation.
  HeteroSpmm make_sample_predetermined(double frac, double anchor) const;

  /// Virtual cost of drawing a sample of that size (CPU).
  double sampling_cost_ns(double frac) const;

  sparse::Index sample_rows(double frac) const;

  SpmmStructure structure_at(double r_cpu_pct) const;

  // --- K-way descriptor interface (core/kway.hpp) -------------------------
  // Device 0 is the CPU, 1 the primary GPU, 2.. the platform accelerators.
  // At K = 2 every function reproduces the scalar path exactly:
  // kway_time_ns(two_way(r/100)) == time_ns(r) and run_kway produces a
  // bitwise-identical C (the numeric kernel is deterministic per row and
  // the split only moves range boundaries).

  /// Row boundaries of the descriptor's contiguous ranges: K+1 values with
  /// boundaries[0] == 0 and boundaries[K] == rows; device i owns rows
  /// [boundaries[i], boundaries[i+1]).  Monotone by construction.
  std::vector<sparse::Index> kway_row_boundaries(
      const core::PartitionDescriptor& d) const;

  SpmmKwayStructure kway_structure(const core::PartitionDescriptor& d) const;

  /// Per-device marginal costs (work + share-dependent transfers) — the
  /// cost-objective inputs of the K-way identify search.
  std::vector<double> kway_marginal_work_ns(
      const core::PartitionDescriptor& d) const;

  /// Analytic K-way makespan (equals run_kway(d).total_ns()).
  double kway_time_ns(const core::PartitionDescriptor& d) const;

  /// Execute Algorithm 2 under a K-way descriptor.  Each offload range is
  /// gated through the fault injector ("spmm.kway.d<i>"); rerouted ranges
  /// are re-priced at CPU cost under "phase2.reroute".  Counters add
  /// "devices" and "gpu_rerouted" (count of rerouted offload ranges).
  hetsim::RunReport run_kway(const core::PartitionDescriptor& d,
                             sparse::CsrMatrix* c_out = nullptr) const;

  /// Device cost of processing rows [first, last) in isolation — work plus
  /// the range-dependent transfers for the GPU.  Used by the dynamic-
  /// scheduling comparators (core/dynamic_baselines.hpp), which need costs
  /// for arbitrary chunks rather than prefix splits.
  double range_cost_cpu_ns(sparse::Index first, sparse::Index last) const;
  double range_cost_gpu_ns(sparse::Index first, sparse::Index last) const;

 private:
  void build_profiles();

  /// Phase II over the row ranges [cuts[i], cuts[i+1]) (range i belongs to
  /// device i) as one parallel SpGEMM pass into the single output `c`.
  /// Each non-empty offload range i >= 1 runs behind the fault gate as
  /// gate_names[i] with modeled device time device_ns[i]; returns, per
  /// range, 1 when it was rerouted to the CPU.  Checks every range's
  /// executed multiplies against the load vector.
  std::vector<uint8_t> execute_ranges(std::span<const sparse::Index> cuts,
                                      std::span<const std::string> gate_names,
                                      std::span<const double> device_ns,
                                      sparse::CsrMatrix& c) const;

  sparse::CsrMatrix a_;
  sparse::CsrMatrix b_;
  const hetsim::Platform* platform_;
  std::vector<uint64_t> row_work_;     ///< L_AB
  std::vector<uint64_t> work_prefix_;  ///< prefix sums of row_work_
  std::vector<uint64_t> a_nnz_prefix_;
};

}  // namespace nbwp::hetalg
