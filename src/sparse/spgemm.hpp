// Row-row (Gustavson) sparse matrix-matrix multiplication kernels.
//
// C = A x B computed row-wise: row i of C is the sum over k in row i of A
// of a_ik * (row k of B), accumulated in a sparse accumulator.  This is
// the formulation of Gustavson [13] used by the heterogeneous algorithm
// of Matam et al. [22] on both the CPU and the GPU.
//
// The parallel kernels are two-phase (symbolic/numeric): phase 1 counts
// each output row's nnz, a prefix sum sizes the result CSR once, and
// phase 2 writes every row directly into its slot — no per-worker partial
// matrices, no merge copies.  Rows are assigned to workers by a flops
// prefix sum (the paper's load vector L_AB, the same machinery Algorithm 2
// uses for the CPU/GPU split), so skewed inputs no longer serialize on
// whoever drew the dense rows; a dynamic-chunk schedule is available as a
// fallback for adversarial load vectors.  The numeric phase can also be
// cut into contiguous row ranges (spgemm_parallel_ranges), each balanced
// over the whole team and run through a caller's runner — Algorithm 2's
// CPU and GPU halves — still into the one output.
//
// Accumulation is *adaptive per row*: dense output rows use the dense SPA
// (sparse/spa.hpp), sparse rows on wide matrices use an open-addressing
// hash accumulator (sparse/hash_accum.hpp) whose table fits in cache —
// no single accumulator wins across the density spectrum (Nagasaka et
// al.; Gao et al., survey).  Both accumulators share first-touch
// insert-order semantics, so output is bit-identical to the serial kernel
// under every schedule, team size, and forced accumulator choice.
//
// Counters report the structural work of the execution; the hetsim cost
// model converts them to virtual device time (see hetalg/spmm_cost.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "parallel/thread_pool.hpp"
#include "sparse/csr_matrix.hpp"

namespace nbwp::sparse {

struct SpgemmCounters {
  uint64_t multiplies = 0;  ///< intermediate products (the work volume L)
  uint64_t c_nnz = 0;       ///< entries in the produced rows
  uint64_t rows = 0;        ///< rows of A processed
  uint64_t a_nnz = 0;       ///< entries of A read
  uint64_t rows_spa = 0;    ///< rows accumulated with the dense SPA
  uint64_t rows_hash = 0;   ///< rows accumulated with the hash accumulator

  SpgemmCounters& operator+=(const SpgemmCounters& o) {
    multiplies += o.multiplies;
    c_nnz += o.c_nnz;
    rows += o.rows;
    a_nnz += o.a_nnz;
    rows_spa += o.rows_spa;
    rows_hash += o.rows_hash;
    return *this;
  }
};

/// Worker scheduling for the parallel kernels.
enum class SpgemmSchedule {
  kAuto,          ///< serial below ~4 rows/worker, else work-balanced
  kWorkBalanced,  ///< contiguous ranges split by the flops prefix sum
  kDynamic,       ///< dynamic row chunks off an atomic counter
};

/// Per-row accumulator selection for the parallel kernels.
enum class SpgemmAccumulator {
  kAuto,       ///< route per row by estimated density (see options below)
  kForceSpa,   ///< every row through the dense SPA (the PR 3 behavior)
  kForceHash,  ///< every row through the hash accumulator
};

struct SpgemmParallelOptions {
  SpgemmSchedule schedule = SpgemmSchedule::kAuto;
  int64_t dynamic_chunk = 0;  ///< rows per dynamic chunk; 0 = n/(8*team)
  SpgemmAccumulator accumulator = SpgemmAccumulator::kAuto;
  /// kAuto routing: a row goes to the hash accumulator when its
  /// distinct-column bound (symbolic: min(flops, cols); numeric: exact
  /// output nnz) is below `hash_density_threshold * cols`.  Calibrated by
  /// the kernels_microbench density sweep (docs/PERFORMANCE.md).
  double hash_density_threshold = 1.0 / 16.0;
  /// kAuto routing: below this column count the SPA arrays fit low-level
  /// cache anyway, so hashing is never worth its probe overhead.
  Index hash_min_cols = 512;
  /// kAuto numeric routing also requires the row's column *span* (max -
  /// min + 1, measured by the symbolic pass) to be at least this multiple
  /// of its nnz: rows dense inside a narrow band (banded/FEM inputs) keep
  /// the SPA, whose contiguous arrays and run-copy extraction beat
  /// hashing even at low global density.
  double hash_min_span_ratio = 2.0;
};

/// Rows [first, last) of A times B.  Result has (last - first) rows.
CsrMatrix spgemm_row_range(const CsrMatrix& a, const CsrMatrix& b,
                           Index first, Index last,
                           SpgemmCounters* counters = nullptr);

/// Full product.
CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 SpgemmCounters* counters = nullptr);

/// Multicore product: two-phase, work-balanced, single output allocation,
/// per-row adaptive accumulation.  Bitwise-identical to `spgemm`.
CsrMatrix spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                          ThreadPool& pool,
                          SpgemmCounters* counters = nullptr,
                          const SpgemmParallelOptions& options = {});

/// Runs one row range's numeric pass for spgemm_parallel_ranges: called
/// once per range, in range order, with the range index and the pass.
/// It must call `numeric()` exactly once — directly, or from behind a
/// device gate such as hetalg::run_gpu_or_reroute.
using SpgemmRangeRunner =
    std::function<void(size_t range, const std::function<void()>& numeric)>;

/// spgemm_parallel with the rows of A cut into contiguous ranges
/// [cuts[r], cuts[r+1]) (cuts[0] == 0, cuts.back() == a.rows(),
/// non-decreasing; empty ranges allowed).  One symbolic pass sizes the
/// single output; then each range's numeric pass runs through `runner`,
/// work-balanced over the whole pool, and writes its rows straight into
/// C — the ranges need no stitch.  range_counters[r] (one per range) has
/// range r's counters added.  Bitwise-identical to `spgemm`.
CsrMatrix spgemm_parallel_ranges(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool, std::span<const Index> cuts,
                                 const SpgemmRangeRunner& runner,
                                 std::span<SpgemmCounters> range_counters,
                                 const SpgemmParallelOptions& options = {});

/// Counters of a two-class product, by (row class of i, row class of k):
/// by[x][y] covers the rows i of A with class x and, of their entries
/// a_ik, those whose row k has class y.  Both by[x][0] and by[x][1] count
/// each class-x row in `rows`, `a_nnz` and its accumulator route, as the
/// two masked products of those rows did; `c_nnz` counts the entries of
/// the class's own partial row.
struct SpgemmClassCounters {
  SpgemmCounters by[2][2];

  SpgemmClassCounters& operator+=(const SpgemmClassCounters& o) {
    for (size_t x = 0; x < 2; ++x)
      for (size_t y = 0; y < 2; ++y) by[x][y] += o.by[x][y];
    return *this;
  }
};

/// C = A x A (A square) in one work-balanced pass with every output entry
/// summed per row class (class 1 where row_mask[k] != 0, else class 0).
/// The products a_ik * (row k) of each class accumulate on their own, in
/// A's row order, and meet once at extraction: a column both classes hold
/// becomes `own + other`, where `own` is the sum of the class of row i
/// itself, and a lone class's sum is kept as is.  That is bitwise what the
/// HH-CPU four-product path computed — A_x * A_x plus A_x * A_other added
/// by sp_add — with no partial product, row extraction or scatter.  One
/// unmasked symbolic pass sizes the single output.  Per-class counters are
/// added to `counters`.
CsrMatrix spgemm_parallel_two_class(const CsrMatrix& a, ThreadPool& pool,
                                    std::span<const uint8_t> row_mask,
                                    SpgemmClassCounters* counters = nullptr,
                                    const SpgemmParallelOptions& options = {});

/// Row-range product using only the rows k of B for which
/// b_row_mask[k] == keep; the HH-CPU algorithm's A_x × B_H / A_x × B_L
/// partial products (B_H and B_L are row subsets of B).
CsrMatrix spgemm_row_range_masked(const CsrMatrix& a, const CsrMatrix& b,
                                  Index first, Index last,
                                  std::span<const uint8_t> b_row_mask,
                                  uint8_t keep,
                                  SpgemmCounters* counters = nullptr);

/// Multicore masked product over all rows of A.  Bitwise-identical to
/// spgemm_row_range_masked(a, b, 0, a.rows(), ...); the mask-aware load
/// vector balances the workers on the surviving flops only.
CsrMatrix spgemm_parallel_masked(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool,
                                 std::span<const uint8_t> b_row_mask,
                                 uint8_t keep,
                                 SpgemmCounters* counters = nullptr,
                                 const SpgemmParallelOptions& options = {});

/// Sparse matrix addition C = A + B (same shape).
CsrMatrix sp_add(const CsrMatrix& a, const CsrMatrix& b);

/// Process-lifetime SpGEMM workspace pool accounting (arenas + leased
/// accumulators; see parallel/workspace_pool.hpp).
struct SpgemmWorkspaceStats {
  size_t created = 0;     ///< workspaces ever constructed
  size_t reused = 0;      ///< leases served from the idle list
  size_t idle = 0;        ///< workspaces currently idle
  size_t idle_bytes = 0;  ///< arena bytes held by idle workspaces
};
SpgemmWorkspaceStats spgemm_workspace_stats();

/// Destroy idle SpGEMM workspaces beyond the `keep_idle` largest,
/// returning their arena bytes to the OS (the pool no longer stays sized
/// for the largest matrix the process ever multiplied).  Returns the
/// bytes released.
size_t spgemm_workspace_trim(size_t keep_idle = 0);

/// Restart arena high-water tracking on every idle workspace and zero the
/// "kernel.spgemm.arena.high_water_bytes" gauge.  Call at bench/serve
/// phase boundaries so a phase's manifest reports its own peak, not the
/// largest product any earlier phase ran.
void spgemm_workspace_reset_high_water();

}  // namespace nbwp::sparse
