// Experiment drivers for every table and figure in the paper.
//
// Each driver returns plain structs; exp/report.cpp renders them as the
// ASCII tables / CSV the bench binaries print.  The per-experiment index
// lives in DESIGN.md §5.
#pragma once

#include <string>
#include <vector>

#include "core/sampling_partitioner.hpp"
#include "core/workloads.hpp"
#include "datasets/table2.hpp"
#include "hetsim/platform.hpp"

namespace nbwp::exp {

/// Default generation scale for a Table II dataset: full size unless the
/// graph has multiple millions of vertices (road networks, delaunay_n22),
/// which are scaled to a quarter to stay laptop-tractable.
double default_scale(const datasets::DatasetSpec& spec);

/// One dataset x one workload comparison (Figs. 3, 5, 8 and Table I).
struct CaseResult {
  std::string dataset;
  uint64_t n = 0;
  uint64_t nnz = 0;  ///< edges for CC, nonzeros for spmm

  double exhaustive_threshold = 0;
  double estimated_threshold = 0;
  double sample_threshold = 0;
  double naive_static_threshold = 0;
  double naive_average_threshold = 0;

  double exhaustive_ns = 0;
  double estimated_ns = 0;
  double naive_static_ns = 0;
  double naive_average_ns = 0;
  double gpu_only_ns = 0;  ///< the "Naive" homogeneous line of Fig. 3(b)

  double estimation_cost_ns = 0;
  int evaluations = 0;

  /// |estimated - exhaustive| in percentage points (CC / spmm) or percent
  /// of the cutoff range (HH).
  double threshold_diff_pct = 0;
  /// Slowdown of the estimated threshold over the exhaustive one.
  double time_diff_pct = 0;
  /// Estimation share of the overall (estimation + run) time.
  double overhead_pct = 0;
};

struct SuiteOptions {
  double scale = 0;     ///< 0 = per-dataset default_scale()
  uint64_t seed = 1;
  uint64_t sampling_seed = 0x5EED;
  int repeats = 1;
  /// When set, `<mtx_dir>/<dataset>.mtx` is loaded (Matrix Market) instead
  /// of synthesizing the analog — run the experiments on the original
  /// University of Florida files when you have them.
  std::string mtx_dir;
};

/// Dataset loading honoring SuiteOptions::mtx_dir.
graph::CsrGraph load_graph(const datasets::DatasetSpec& spec,
                           const SuiteOptions& options);
sparse::CsrMatrix load_matrix(const datasets::DatasetSpec& spec,
                              const SuiteOptions& options);

/// Fig. 3 / Table I row 1 — Algorithm 1 over all Table II graphs.
std::vector<CaseResult> run_cc_suite(const hetsim::Platform& platform,
                                     const SuiteOptions& options = {});

/// Fig. 5 / Table I row 2 — Algorithm 2 over all Table II matrices.
std::vector<CaseResult> run_spmm_suite(const hetsim::Platform& platform,
                                       const SuiteOptions& options = {});

/// Fig. 8 / Table I row 3 — Algorithm 3 over the scale-free matrices.
std::vector<CaseResult> run_hh_suite(const hetsim::Platform& platform,
                                     const SuiteOptions& options = {});

/// Fig. 1 — dense GEMM motivating study, one entry per matrix size.
struct DenseResult {
  uint32_t n = 0;
  double exhaustive_threshold = 0;
  double estimated_threshold = 0;
  double naive_static_threshold = 0;
  double exhaustive_ns = 0;
  double estimated_ns = 0;
  double naive_static_ns = 0;
};
std::vector<DenseResult> run_dense_study(const hetsim::Platform& platform,
                                         std::vector<uint32_t> sizes,
                                         uint64_t seed = 1);

/// Figs. 4 / 6 / 9 — sample-size sensitivity: total time (estimation +
/// Phase II at the estimated threshold) per sample-size factor.
struct SensitivityPoint {
  double factor = 0;        ///< of sqrt(n) (CC, HH) or of n (spmm, spmv)
  uint64_t sample_size = 0; ///< vertices or rows actually sampled
  double estimated_threshold = 0;
  double estimation_cost_ns = 0;
  double run_ns = 0;        ///< algorithm at the estimated threshold
  double total_ns = 0;
};
using core::Workload;
std::vector<SensitivityPoint> run_sensitivity(
    const hetsim::Platform& platform, Workload workload,
    const datasets::DatasetSpec& spec, std::vector<double> factors,
    const SuiteOptions& options = {});

/// Fig. 7 — role of randomness: predetermined corner submatrices versus
/// the random sample, for Algorithm 2.
struct RandomnessPoint {
  std::string label;  ///< "random" or "corner@0.00" etc.
  double estimated_threshold = 0;
  double run_ns = 0;
  double exhaustive_threshold = 0;
  double exhaustive_ns = 0;
};
std::vector<RandomnessPoint> run_randomness_study(
    const hetsim::Platform& platform, const datasets::DatasetSpec& spec,
    const SuiteOptions& options = {});

/// Table I — aggregate a suite into the paper's three summary columns.
struct SummaryRow {
  std::string workload;
  double threshold_diff_pct = 0;
  double time_diff_pct = 0;
  double overhead_pct = 0;
};
SummaryRow summarize(const std::string& workload,
                     std::span<const CaseResult> results);

}  // namespace nbwp::exp
