#include "sparse/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "sparse/spgemm_plan.hpp"

#include "obs/obs.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/workspace_pool.hpp"
#include "sparse/hash_accum.hpp"
#include "sparse/load_vector.hpp"
#include "sparse/spa.hpp"
#include "util/error.hpp"

namespace nbwp::sparse {

namespace {

/// One worker's kit: a bump-pointer arena and the accumulators laid out
/// of it.  The arena is never reset while a lease is live (the
/// accumulators' spans point into it); growth wastes the superseded
/// arrays inside the arena, which geometric block sizing bounds.
/// spgemm_workspace_trim() destroys whole idle workspaces;
/// spgemm_workspace_reset_high_water() rewinds idle arenas (detaching
/// the accumulators first) at phase boundaries.
struct SpgemmWorkspace {
  Arena arena;
  Spa spa;
  HashAccum hash;
  PatternBitmap bitmap;
  /// The two-class kernel's class 1 accumulators (class 0 uses `spa` /
  /// `hash`).
  Spa spa1;
  HashAccum hash1;

  size_t capacity_bytes() const { return arena.capacity_bytes(); }
};

/// Process-lifetime workspace pool: accumulator storage survives across
/// products, so the estimation pipeline's hundreds of sampled runs stop
/// paying an allocation + zero-fill per call.  Leases are best-fit by a
/// per-product byte hint, and spgemm_workspace_trim() shrinks the pool.
WorkspacePool<SpgemmWorkspace>& workspace_pool() {
  static WorkspacePool<SpgemmWorkspace> pool;
  return pool;
}

/// Bytes a product over `cols`-wide rows is likely to need, for best-fit
/// leasing.  SPA-routed products dominate: values + stamps + touched.
size_t workspace_hint(Index cols, SpgemmAccumulator mode) {
  if (mode == SpgemmAccumulator::kForceHash) return size_t{1} << 16;
  return static_cast<size_t>(cols) *
         (sizeof(double) + sizeof(uint64_t) + sizeof(Index));
}

void count_workspace(const WorkspacePool<SpgemmWorkspace>::Lease& lease) {
  obs::count(lease.reused() ? "kernel.spgemm.workspace.reused"
                            : "kernel.spgemm.workspace.created");
}

void emit_kernel_counters(const SpgemmCounters& c) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("kernel.spgemm.rows").add(static_cast<double>(c.rows));
  reg.counter("kernel.spgemm.multiplies")
      .add(static_cast<double>(c.multiplies));
  reg.counter("kernel.spgemm.c_nnz").add(static_cast<double>(c.c_nnz));
  reg.counter("kernel.spgemm.rows_spa").add(static_cast<double>(c.rows_spa));
  reg.counter("kernel.spgemm.rows_hash")
      .add(static_cast<double>(c.rows_hash));
}

/// Per-row accumulator routing, resolved once per product.
struct AccumRouter {
  SpgemmAccumulator mode;
  uint64_t hash_below;    ///< kAuto: hash when distinct bound < this
  double min_span_ratio;  ///< kAuto numeric: also require span >= ratio*nnz

  static AccumRouter make(const SpgemmParallelOptions& options, Index cols) {
    AccumRouter r{options.accumulator, 0, options.hash_min_span_ratio};
    if (r.mode == SpgemmAccumulator::kAuto && cols >= options.hash_min_cols) {
      r.hash_below = static_cast<uint64_t>(options.hash_density_threshold *
                                           static_cast<double>(cols));
    }
    return r;
  }

  /// True when kAuto needs the symbolic pass to record per-row column
  /// spans for the numeric routing decision.
  bool needs_span() const { return hash_below > 0; }

  bool use_hash(uint64_t distinct_bound) const {
    switch (mode) {
      case SpgemmAccumulator::kForceSpa: return false;
      case SpgemmAccumulator::kForceHash: return true;
      case SpgemmAccumulator::kAuto: break;
    }
    return distinct_bound < hash_below;
  }

  /// Numeric-phase routing: globally sparse rows hash, *unless* their
  /// columns are packed into a narrow band (span close to nnz), where the
  /// SPA's contiguous arrays and run-copy extraction win outright.
  bool use_hash_numeric(uint64_t row_nnz, uint64_t span) const {
    switch (mode) {
      case SpgemmAccumulator::kForceSpa: return false;
      case SpgemmAccumulator::kForceHash: return true;
      case SpgemmAccumulator::kAuto: break;
    }
    return row_nnz < hash_below &&
           static_cast<double>(span) >=
               min_span_ratio * static_cast<double>(row_nnz);
  }
};

/// Accumulate A's row i times B into `acc` (Spa or HashAccum: identical
/// first-touch semantics, so the result bits do not depend on the route).
template <typename Acc, typename KeepRow>
void accumulate_row(const CsrMatrix& a, const CsrMatrix& b,
                    const KeepRow& keep_row, Index i, Acc& acc,
                    SpgemmCounters& local) {
  const auto acs = a.row_cols(i);
  const auto avs = a.row_vals(i);
  for (size_t j = 0; j < acs.size(); ++j) {
    const Index k = acs[j];
    if (!keep_row(k)) continue;
    const double aik = avs[j];
    const auto bcs = b.row_cols(k);
    const auto bvs = b.row_vals(k);
    for (size_t t = 0; t < bcs.size(); ++t) acc.add(bcs[t], aik * bvs[t]);
    local.multiplies += bcs.size();
  }
  local.a_nnz += acs.size();
}

/// Run `work(worker, lo, hi, ws)` over rows [first, last) on the pool,
/// one leased workspace per block: contiguous blocks split by the flops
/// prefix `load_prefix` restricted to the range, or dynamic chunks under
/// SpgemmSchedule::kDynamic.  Folds each lease's arena high-water into
/// `arena_high_water` when non-null.
template <typename Work>
void dispatch_rows(ThreadPool& pool, Index first, Index last,
                   std::span<const uint64_t> load_prefix,
                   const SpgemmParallelOptions& options, size_t hint,
                   std::atomic<size_t>* arena_high_water, const Work& work) {
  if (first == last) return;
  const auto with_workspace = [&](unsigned w, Index lo, Index hi) {
    auto ws = workspace_pool().acquire(hint);
    count_workspace(ws);
    work(w, lo, hi, *ws);
    if (arena_high_water == nullptr) return;
    size_t seen = arena_high_water->load(std::memory_order_relaxed);
    const size_t mine = ws->arena.high_water_bytes();
    while (mine > seen && !arena_high_water->compare_exchange_weak(
                              seen, mine, std::memory_order_relaxed)) {
    }
  };
  if (options.schedule == SpgemmSchedule::kDynamic) {
    parallel_for_chunks(
        pool, first, last,
        [&](unsigned w, int64_t lo, int64_t hi) {
          with_workspace(w, static_cast<Index>(lo), static_cast<Index>(hi));
        },
        Schedule::kDynamic, options.dynamic_chunk);
  } else {
    const std::vector<Index> bounds =
        balanced_boundaries(load_prefix, first, last, pool.size());
    pool.run_team([&](unsigned w) {
      if (bounds[w] >= bounds[w + 1]) return;
      with_workspace(w, bounds[w], bounds[w + 1]);
    });
  }
}

/// Check a cut list: at least one range, non-decreasing, inside A.
void require_cuts(std::span<const Index> cuts, Index rows) {
  NBWP_REQUIRE(cuts.size() >= 2, "need at least one row range");
  NBWP_REQUIRE(std::is_sorted(cuts.begin(), cuts.end()) && cuts.back() <= rows,
               "row range out of bounds");
}

/// Runner of the single-range entry points: the pass runs in place.
void run_direct(size_t, const std::function<void()>& numeric) { numeric(); }

/// Hand range r's numeric pass to `runner` and hold it to its contract:
/// the pass runs exactly once.
void run_range(const SpgemmRangeRunner& runner, size_t r,
               const std::function<void()>& numeric) {
  int calls = 0;
  runner(r, std::function<void()>([&] {
           if (++calls == 1) numeric();
         }));
  NBWP_REQUIRE(calls == 1,
               "spgemm range runner must run the numeric pass exactly once");
}

/// Serial SPA product of rows [cuts.front(), cuts.back()) of A, range by
/// range through `runner`; the result has cuts.back() - cuts.front() rows.
template <typename KeepRow>
CsrMatrix spgemm_impl(const CsrMatrix& a, const CsrMatrix& b,
                      std::span<const Index> cuts, const KeepRow& keep_row,
                      const SpgemmRangeRunner& runner,
                      std::span<SpgemmCounters> range_counters,
                      SpgemmCounters* counters) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  require_cuts(cuts, a.rows());
  auto ws = workspace_pool().acquire(
      workspace_hint(b.cols(), SpgemmAccumulator::kForceSpa));
  count_workspace(ws);
  Spa& spa = ws->spa;
  spa.ensure(ws->arena, b.cols());
  CsrBuilder builder(cuts.back() - cuts.front(), b.cols());
  SpgemmCounters total;
  std::vector<double> vals_out;
  for (size_t r = 0; r + 1 < cuts.size(); ++r) {
    SpgemmCounters local;
    run_range(runner, r, [&] {
      for (Index i = cuts[r]; i < cuts[r + 1]; ++i) {
        spa.start_row();
        accumulate_row(a, b, keep_row, i, spa, local);
        const auto touched = spa.touched_sorted();
        vals_out.resize(touched.size());
        for (size_t t = 0; t < touched.size(); ++t)
          vals_out[t] = spa.value(touched[t]);
        builder.append_sorted_row(touched, vals_out);
        local.c_nnz += touched.size();
      }
      local.rows = cuts[r + 1] - cuts[r];
      local.rows_spa = local.rows;
    });
    if (!range_counters.empty()) range_counters[r] += local;
    total += local;
  }
  if (counters) *counters += total;
  emit_kernel_counters(total);
  return builder.finish();
}

/// Phase 1: per-row output nnz for rows [lo, hi) of A.  On entry
/// row_nnz[i] still holds the row's flops bound (the load vector), which
/// routes the row: sparse rows mark a cache-resident hash table, dense
/// rows a 1-bit-per-column bitmap — either way a far smaller working set
/// than the numeric SPA's value+stamp arrays.  When `row_span` is
/// non-null it receives each row's column span (max - min + 1), the
/// locality signal the numeric router combines with exact nnz.
template <typename KeepRow>
void symbolic_rows(const CsrMatrix& a, const CsrMatrix& b,
                   const KeepRow& keep_row, Index lo, Index hi,
                   SpgemmWorkspace& ws, const AccumRouter& router,
                   uint64_t* row_nnz, Index* row_span) {
  const Index cols = b.cols();
  for (Index i = lo; i < hi; ++i) {
    const uint64_t bound = std::min<uint64_t>(row_nnz[i], cols);
    Index cmin = cols, cmax = 0;
    if (router.use_hash(bound)) {
      ws.hash.ensure(ws.arena, bound);
      ws.hash.start_row();
      for (Index k : a.row_cols(i)) {
        if (!keep_row(k)) continue;
        const auto bcs = b.row_cols(k);
        if (!bcs.empty()) {  // rows of B are column-sorted
          cmin = std::min(cmin, bcs.front());
          cmax = std::max(cmax, bcs.back());
        }
        for (Index c : bcs) ws.hash.mark(c);
      }
      row_nnz[i] = ws.hash.touched();
    } else {
      ws.bitmap.ensure(ws.arena, cols);
      for (Index k : a.row_cols(i)) {
        if (!keep_row(k)) continue;
        const auto bcs = b.row_cols(k);
        if (!bcs.empty()) {
          cmin = std::min(cmin, bcs.front());
          cmax = std::max(cmax, bcs.back());
        }
        for (Index c : bcs) ws.bitmap.mark(c);
      }
      row_nnz[i] = ws.bitmap.count();
      ws.bitmap.reset();
    }
    if (row_span) row_span[i] = row_nnz[i] == 0 ? 0 : cmax - cmin + 1;
  }
}

/// Phase 2: accumulate rows [lo, hi) and write them into their slots.
/// Each row's exact output nnz is known from phase 1, so routing is by
/// true density and the hash table is sized exactly.
template <typename KeepRow>
void numeric_rows(const CsrMatrix& a, const CsrMatrix& b,
                  const KeepRow& keep_row, Index lo, Index hi,
                  SpgemmWorkspace& ws, const AccumRouter& router,
                  std::span<const uint64_t> row_ptr, const Index* row_span,
                  Index* col_out, double* val_out, SpgemmCounters& local) {
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = row_ptr[i];
    const uint64_t row_nnz = row_ptr[i + 1] - at;
    if (router.use_hash_numeric(row_nnz, row_span ? row_span[i] : 0)) {
      ws.hash.ensure(ws.arena, row_nnz);
      ws.hash.start_row();
      accumulate_row(a, b, keep_row, i, ws.hash, local);
      ws.hash.extract_sorted(col_out + at, val_out + at);
      ++local.rows_hash;
    } else {
      ws.spa.ensure(ws.arena, b.cols());
      ws.spa.start_row();
      accumulate_row(a, b, keep_row, i, ws.spa, local);
      ws.spa.extract_sorted(col_out + at, val_out + at);
      ++local.rows_spa;
    }
    local.c_nnz += row_nnz;
  }
  local.rows += hi - lo;
}

/// Two-phase work-balanced parallel product over all rows of A.  One
/// symbolic pass sizes the single output; the numeric pass then runs per
/// range [cuts[r], cuts[r+1]) through `runner`, each range balanced over
/// the whole team on its own flops.  `load` is the per-row flops vector
/// matching `keep_row`; cuts span [0, a.rows()).
template <typename KeepRow>
CsrMatrix spgemm_parallel_impl(const CsrMatrix& a, const CsrMatrix& b,
                               ThreadPool& pool, const KeepRow& keep_row,
                               std::vector<uint64_t> load,
                               std::span<const Index> cuts,
                               const SpgemmRangeRunner& runner,
                               std::span<SpgemmCounters> range_counters,
                               SpgemmCounters* counters,
                               const SpgemmParallelOptions& options) {
  const Index n = a.rows();
  const auto prefix = prefix_sums(load);
  std::vector<uint64_t> row_nnz(std::move(load));  // reuse as phase-1 output
  const AccumRouter router = AccumRouter::make(options, b.cols());
  // kAuto only: phase 1 records each row's column span so phase 2 can
  // keep band-local rows on the SPA (see AccumRouter::use_hash_numeric).
  std::vector<Index> row_span(router.needs_span() ? n : 0);
  Index* span_data = row_span.empty() ? nullptr : row_span.data();
  const size_t hint = workspace_hint(b.cols(), options.accumulator);
  std::atomic<size_t> arena_high_water{0};
  const auto dispatch = [&](Index first, Index last, const auto& work) {
    dispatch_rows(pool, first, last, prefix, options, hint,
                  &arena_high_water, work);
  };

  {
    obs::Span symbolic("kernel.spgemm.symbolic");
    dispatch(0, n, [&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
      symbolic_rows(a, b, keep_row, lo, hi, ws, router, row_nnz.data(),
                    span_data);
    });
  }

  // Single allocation: prefix-sum the row sizes and place every row.
  std::vector<uint64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + row_nnz[i];
  const uint64_t nnz = row_ptr.back();
  std::vector<Index> col_idx(nnz);
  std::vector<double> values(nnz);

  std::vector<SpgemmCounters> part(pool.size());
  SpgemmCounters total;
  for (size_t r = 0; r + 1 < cuts.size(); ++r) {
    std::fill(part.begin(), part.end(), SpgemmCounters{});
    run_range(runner, r, [&] {
      obs::Span numeric("kernel.spgemm.numeric");
      dispatch(cuts[r], cuts[r + 1],
               [&](unsigned w, Index lo, Index hi, SpgemmWorkspace& ws) {
                 numeric_rows(a, b, keep_row, lo, hi, ws, router, row_ptr,
                              span_data, col_idx.data(), values.data(),
                              part[w]);
               });
    });
    SpgemmCounters range;
    for (const auto& pc : part) range += pc;
    if (!range_counters.empty()) range_counters[r] += range;
    total += range;
  }

  obs::set_gauge("kernel.spgemm.arena.high_water_bytes",
                 static_cast<double>(
                     arena_high_water.load(std::memory_order_relaxed)));
  if (counters) *counters += total;
  emit_kernel_counters(total);
  return CsrMatrix::from_parts(n, b.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

// ---- Two-class product ----------------------------------------------------

/// One worker's two-class scratch: each class's sorted row, for the merge
/// of a row both classes contribute to.
struct TwoClassScratch {
  std::vector<Index> cols[2];
  std::vector<double> vals[2];
};

/// Accumulate A's row i times A, routing each a_ik * (row k) into the
/// accumulator of row k's class (each class in A's row order, so each
/// holds the bits the class's masked product would).
template <typename Acc>
void accumulate_two_class_row(const CsrMatrix& a,
                              std::span<const uint8_t> row_mask, Index i,
                              Acc* const acc[2], SpgemmCounters by_class[2]) {
  const auto acs = a.row_cols(i);
  const auto avs = a.row_vals(i);
  for (size_t j = 0; j < acs.size(); ++j) {
    const Index k = acs[j];
    const size_t y = row_mask[k] != 0;
    const double aik = avs[j];
    const auto bcs = a.row_cols(k);
    const auto bvs = a.row_vals(k);
    Acc& into = *acc[y];
    for (size_t t = 0; t < bcs.size(); ++t) into.add(bcs[t], aik * bvs[t]);
    by_class[y].multiplies += bcs.size();
  }
}

/// Write the union of two sorted rows, adding a column both hold as
/// `first + second`; returns the entries written.  This is sp_add's row
/// rule, which the two-class extraction reproduces bitwise.
size_t merge_sorted_rows(std::span<const Index> c_first,
                         std::span<const double> v_first,
                         std::span<const Index> c_second,
                         std::span<const double> v_second, Index* col_out,
                         double* val_out) {
  size_t i = 0, j = 0, o = 0;
  while (i < c_first.size() || j < c_second.size()) {
    if (j >= c_second.size() ||
        (i < c_first.size() && c_first[i] < c_second[j])) {
      col_out[o] = c_first[i];
      val_out[o++] = v_first[i++];
    } else if (i >= c_first.size() || c_second[j] < c_first[i]) {
      col_out[o] = c_second[j];
      val_out[o++] = v_second[j++];
    } else {
      col_out[o] = c_first[i];
      val_out[o++] = v_first[i++] + v_second[j++];
    }
  }
  return o;
}

/// Fill one output row from its two class accumulators, the class `x` of
/// the row itself first.  A row one class alone contributes to is extracted straight
/// into its slot; otherwise both go through `scratch` and merge.
template <typename Acc>
void extract_two_class_row(Acc* const acc[2], size_t x,
                           TwoClassScratch& scratch, Index* col_out,
                           double* val_out, SpgemmCounters by_class[2]) {
  const size_t n[2] = {acc[0]->touched(), acc[1]->touched()};
  by_class[0].c_nnz += n[0];
  by_class[1].c_nnz += n[1];
  if (n[0] == 0 || n[1] == 0) {
    acc[n[0] == 0 ? 1 : 0]->extract_sorted(col_out, val_out);
    return;
  }
  for (size_t y = 0; y < 2; ++y) {
    if (scratch.cols[y].size() < n[y]) {
      scratch.cols[y].resize(n[y]);
      scratch.vals[y].resize(n[y]);
    }
    acc[y]->extract_sorted(scratch.cols[y].data(), scratch.vals[y].data());
  }
  const size_t f = x, s = 1 - x;
  merge_sorted_rows({scratch.cols[f].data(), n[f]},
                   {scratch.vals[f].data(), n[f]},
                   {scratch.cols[s].data(), n[s]},
                   {scratch.vals[s].data(), n[s]}, col_out, val_out);
}

/// Whole-product counters of a two-class pass: each row counted once,
/// `nnz` entries produced.
SpgemmCounters product_totals(const SpgemmClassCounters& c, uint64_t nnz) {
  SpgemmCounters total;
  for (const auto& row_class : c.by) {
    total.rows += row_class[0].rows;
    total.a_nnz += row_class[0].a_nnz;
    total.rows_spa += row_class[0].rows_spa;
    total.rows_hash += row_class[0].rows_hash;
    total.multiplies += row_class[0].multiplies + row_class[1].multiplies;
  }
  total.c_nnz = nnz;
  return total;
}

/// Two-class numeric pass over rows [lo, hi), into the slots sized by the
/// unmasked symbolic pass.  Both class accumulators of a row take the
/// row's route (the union's exact nnz bounds each class).
void numeric_two_class_rows(const CsrMatrix& a,
                            std::span<const uint8_t> row_mask, Index lo,
                            Index hi, SpgemmWorkspace& ws,
                            const AccumRouter& router,
                            std::span<const uint64_t> row_ptr,
                            const Index* row_span, Index* col_out,
                            double* val_out, SpgemmClassCounters& local) {
  TwoClassScratch scratch;
  HashAccum* const hash[2] = {&ws.hash, &ws.hash1};
  Spa* const spa[2] = {&ws.spa, &ws.spa1};
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = row_ptr[i];
    const uint64_t row_nnz = row_ptr[i + 1] - at;
    const size_t x = row_mask[i] != 0;
    SpgemmCounters* by_class = local.by[x];
    const bool use_hash =
        router.use_hash_numeric(row_nnz, row_span ? row_span[i] : 0);
    if (use_hash) {
      for (HashAccum* h : hash) {
        h->ensure(ws.arena, row_nnz);
        h->start_row();
      }
      accumulate_two_class_row(a, row_mask, i, hash, by_class);
      extract_two_class_row(hash, x, scratch, col_out + at, val_out + at,
                            by_class);
    } else {
      for (Spa* sp : spa) {
        sp->ensure(ws.arena, a.cols());
        sp->start_row();
      }
      accumulate_two_class_row(a, row_mask, i, spa, by_class);
      extract_two_class_row(spa, x, scratch, col_out + at, val_out + at,
                            by_class);
    }
    for (size_t y = 0; y < 2; ++y) {
      ++by_class[y].rows;
      by_class[y].a_nnz += a.row_nnz(i);
      ++(use_hash ? by_class[y].rows_hash : by_class[y].rows_spa);
    }
  }
}

// ---- SpgemmPlan internals -------------------------------------------------

/// Pattern-extraction pass of the plan build: per row, mark the output
/// columns (no values) and write them, sorted, into their plan slot.
void pattern_rows(const CsrMatrix& a, const CsrMatrix& b, Index lo, Index hi,
                  SpgemmWorkspace& ws, const SpgemmPlan& plan,
                  Index* col_out) {
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = plan.row_ptr[i];
    const uint64_t row_nnz = plan.row_ptr[i + 1] - at;
    if (plan.row_use_hash[i]) {
      ws.hash.ensure(ws.arena, row_nnz);
      ws.hash.start_row();
      for (Index k : a.row_cols(i))
        for (Index c : b.row_cols(k)) ws.hash.mark(c);
      ws.hash.extract_sorted(col_out + at, nullptr);
    } else {
      ws.spa.ensure(ws.arena, b.cols());
      ws.spa.start_row();
      for (Index k : a.row_cols(i))
        for (Index c : b.row_cols(k)) ws.spa.mark(c);
      const auto touched = ws.spa.touched_sorted();
      // An empty product leaves col_out null; memcpy forbids that even at
      // size 0.
      if (!touched.empty())
        std::memcpy(col_out + at, touched.data(),
                    touched.size() * sizeof(Index));
    }
  }
}

/// Numeric phase over a plan for rows [lo, hi): accumulate exactly as the
/// full kernel would, validate the row's nnz against the plan, then
/// *gather* values by the plan's known sorted pattern — no per-row sort.
/// Gathering reads the same accumulated doubles extract_sorted would
/// write, so the result stays bitwise identical to the full product.
void numeric_rows_planned(const CsrMatrix& a, const CsrMatrix& b,
                          const SpgemmPlan& plan, Index lo, Index hi,
                          SpgemmWorkspace& ws, double* val_out,
                          SpgemmCounters& local) {
  const auto keep_all = [](Index) { return true; };
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = plan.row_ptr[i];
    const uint64_t row_nnz = plan.row_ptr[i + 1] - at;
    const Index* cols = plan.col_idx.data() + at;
    if (plan.row_use_hash[i]) {
      ws.hash.ensure(ws.arena, row_nnz);
      ws.hash.start_row();
      accumulate_row(a, b, keep_all, i, ws.hash, local);
      NBWP_REQUIRE(ws.hash.touched() == row_nnz,
                   "spgemm plan stale: row pattern changed");
      for (uint64_t t = 0; t < row_nnz; ++t)
        val_out[at + t] = ws.hash.value(cols[t]);
      ++local.rows_hash;
    } else {
      ws.spa.ensure(ws.arena, b.cols());
      ws.spa.start_row();
      accumulate_row(a, b, keep_all, i, ws.spa, local);
      NBWP_REQUIRE(ws.spa.touched() == row_nnz,
                   "spgemm plan stale: row pattern changed");
      NBWP_PRAGMA_SIMD
      for (uint64_t t = 0; t < row_nnz; ++t)
        val_out[at + t] = ws.spa.value(cols[t]);
      ++local.rows_spa;
    }
    local.c_nnz += row_nnz;
  }
  local.rows += hi - lo;
}

/// Cheap per-call compatibility check of the numeric-only entry points
/// (full pattern validation is SpgemmPlan::matches).
void require_plan_compatible(const SpgemmPlan& plan, const CsrMatrix& a,
                             const CsrMatrix& b) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  NBWP_REQUIRE(plan.rows == a.rows() && plan.cols == b.cols(),
               "spgemm plan shape mismatch");
  NBWP_REQUIRE(plan.a_nnz == a.nnz() && plan.b_nnz == b.nnz(),
               "spgemm plan nnz mismatch");
  NBWP_REQUIRE(
      plan.row_ptr.size() == static_cast<size_t>(plan.rows) + 1 &&
          plan.row_use_hash.size() == static_cast<size_t>(plan.rows) &&
          plan.load_prefix.size() == static_cast<size_t>(plan.rows) + 1 &&
          plan.col_idx.size() == plan.nnz(),
      "spgemm plan internally inconsistent");
}

bool use_serial(const CsrMatrix& a, ThreadPool& pool,
                const SpgemmParallelOptions& options) {
  // A forced accumulator must actually be exercised, so it never takes
  // the serial (SPA-only) shortcut.
  if (options.accumulator != SpgemmAccumulator::kAuto) return false;
  if (pool.size() == 1) return true;
  return options.schedule == SpgemmSchedule::kAuto &&
         a.rows() < pool.size() * 4;
}

}  // namespace

CsrMatrix spgemm_row_range(const CsrMatrix& a, const CsrMatrix& b,
                           Index first, Index last,
                           SpgemmCounters* counters) {
  obs::Span span("kernel.spgemm.row_range");
  const Index cuts[] = {first, last};
  return spgemm_impl(a, b, cuts, [](Index) { return true; }, run_direct, {},
                     counters);
}

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 SpgemmCounters* counters) {
  return spgemm_row_range(a, b, 0, a.rows(), counters);
}

CsrMatrix spgemm_parallel_ranges(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool, std::span<const Index> cuts,
                                 const SpgemmRangeRunner& runner,
                                 std::span<SpgemmCounters> range_counters,
                                 const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  require_cuts(cuts, a.rows());
  NBWP_REQUIRE(cuts.front() == 0 && cuts.back() == a.rows(),
               "row ranges must cover every row of A");
  NBWP_REQUIRE(range_counters.size() == cuts.size() - 1,
               "need one counter slot per row range");
  const auto keep_all = [](Index) { return true; };
  if (use_serial(a, pool, options)) {
    obs::Span span("kernel.spgemm.row_range");
    return spgemm_impl(a, b, cuts, keep_all, runner, range_counters, nullptr);
  }
  obs::Span span("kernel.spgemm.parallel");
  return spgemm_parallel_impl(a, b, pool, keep_all,
                              load_vector(a, row_nnz_vector(b)), cuts, runner,
                              range_counters, nullptr, options);
}

CsrMatrix spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                          ThreadPool& pool, SpgemmCounters* counters,
                          const SpgemmParallelOptions& options) {
  const Index cuts[] = {0, a.rows()};
  SpgemmCounters whole;
  CsrMatrix c = spgemm_parallel_ranges(a, b, pool, cuts, run_direct,
                                       {&whole, 1}, options);
  if (counters) *counters += whole;
  return c;
}

CsrMatrix spgemm_parallel_two_class(const CsrMatrix& a, ThreadPool& pool,
                                    std::span<const uint8_t> row_mask,
                                    SpgemmClassCounters* counters,
                                    const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.rows() == a.cols(), "spgemm shape mismatch");
  NBWP_REQUIRE(row_mask.size() == a.rows(), "mask size mismatch");
  obs::Span span("kernel.spgemm.two_class");
  const Index n = a.rows();
  std::vector<uint64_t> load = load_vector(a, row_nnz_vector(a));
  const auto prefix = prefix_sums(load);
  std::vector<uint64_t> row_nnz(std::move(load));  // reuse as symbolic output
  const AccumRouter router = AccumRouter::make(options, a.cols());
  std::vector<Index> row_span(router.needs_span() ? n : 0);
  Index* span_data = row_span.empty() ? nullptr : row_span.data();
  const size_t hint = workspace_hint(a.cols(), options.accumulator);
  std::atomic<size_t> arena_high_water{0};

  {
    obs::Span symbolic("kernel.spgemm.two_class.symbolic");
    const auto keep_all = [](Index) { return true; };
    dispatch_rows(pool, 0, n, prefix, options, hint, &arena_high_water,
                  [&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
                    symbolic_rows(a, a, keep_all, lo, hi, ws, router,
                                  row_nnz.data(), span_data);
                  });
  }

  std::vector<uint64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + row_nnz[i];
  std::vector<Index> col_idx(row_ptr.back());
  std::vector<double> values(row_ptr.back());

  std::vector<SpgemmClassCounters> part(pool.size());
  {
    obs::Span numeric("kernel.spgemm.two_class.numeric");
    dispatch_rows(pool, 0, n, prefix, options, hint, &arena_high_water,
                  [&](unsigned w, Index lo, Index hi, SpgemmWorkspace& ws) {
                    numeric_two_class_rows(a, row_mask, lo, hi, ws, router,
                                           row_ptr, span_data, col_idx.data(),
                                           values.data(), part[w]);
                  });
  }

  obs::set_gauge("kernel.spgemm.arena.high_water_bytes",
                 static_cast<double>(
                     arena_high_water.load(std::memory_order_relaxed)));
  SpgemmClassCounters by_class;
  for (const auto& pc : part) by_class += pc;
  if (counters) *counters += by_class;
  emit_kernel_counters(product_totals(by_class, row_ptr.back()));
  return CsrMatrix::from_parts(n, a.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

CsrMatrix spgemm_row_range_masked(const CsrMatrix& a, const CsrMatrix& b,
                                  Index first, Index last,
                                  std::span<const uint8_t> b_row_mask,
                                  uint8_t keep, SpgemmCounters* counters) {
  obs::Span span("kernel.spgemm.masked");
  NBWP_REQUIRE(b_row_mask.size() == b.rows(), "mask size mismatch");
  const Index cuts[] = {first, last};
  return spgemm_impl(
      a, b, cuts, [&](Index k) { return b_row_mask[k] == keep; }, run_direct,
      {}, counters);
}

CsrMatrix spgemm_parallel_masked(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool,
                                 std::span<const uint8_t> b_row_mask,
                                 uint8_t keep, SpgemmCounters* counters,
                                 const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  NBWP_REQUIRE(b_row_mask.size() == b.rows(), "mask size mismatch");
  if (use_serial(a, pool, options))
    return spgemm_row_range_masked(a, b, 0, a.rows(), b_row_mask, keep,
                                   counters);
  obs::Span span("kernel.spgemm.masked.parallel");
  const auto keep_row = [&](Index k) { return b_row_mask[k] == keep; };
  const Index cuts[] = {0, a.rows()};
  return spgemm_parallel_impl(
      a, b, pool, keep_row,
      load_vector_masked(a, row_nnz_vector(b), b_row_mask, keep), cuts,
      run_direct, {}, counters, options);
}

CsrMatrix sp_add(const CsrMatrix& a, const CsrMatrix& b) {
  NBWP_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
               "sp_add shape mismatch");
  CsrBuilder builder(a.rows(), a.cols());
  std::vector<Index> cols;
  std::vector<double> vals;
  for (Index r = 0; r < a.rows(); ++r) {
    const size_t most = a.row_nnz(r) + b.row_nnz(r);
    if (cols.size() < most) {
      cols.resize(most);
      vals.resize(most);
    }
    const size_t got =
        merge_sorted_rows(a.row_cols(r), a.row_vals(r), b.row_cols(r),
                          b.row_vals(r), cols.data(), vals.data());
    builder.append_sorted_row({cols.data(), got}, {vals.data(), got});
  }
  return builder.finish();
}

uint64_t csr_pattern_hash(const CsrMatrix& m) {
  uint64_t h = 0x243F6A8885A308D3ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(m.rows());
  mix(m.cols());
  for (const uint64_t p : m.row_ptr()) mix(p);
  for (const Index c : m.col_idx()) mix(c);
  return h;
}

bool SpgemmPlan::matches(const CsrMatrix& a, const CsrMatrix& b) const {
  return rows == a.rows() && cols == b.cols() && a_nnz == a.nnz() &&
         b_nnz == b.nnz() && a_pattern_hash == csr_pattern_hash(a) &&
         b_pattern_hash == csr_pattern_hash(b);
}

SpgemmPlan spgemm_plan(const CsrMatrix& a, const CsrMatrix& b,
                       ThreadPool& pool,
                       const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  obs::Span span("kernel.spgemm.plan.build");
  obs::count("kernel.spgemm.plan.built");
  const Index n = a.rows();

  SpgemmPlan plan;
  plan.rows = n;
  plan.cols = b.cols();
  plan.a_nnz = a.nnz();
  plan.b_nnz = b.nnz();
  plan.a_pattern_hash = csr_pattern_hash(a);
  plan.b_pattern_hash = csr_pattern_hash(b);

  std::vector<uint64_t> load = load_vector(a, row_nnz_vector(b));
  plan.load_prefix = prefix_sums(load);
  plan.flops = plan.load_prefix.empty() ? 0 : plan.load_prefix.back();

  const AccumRouter router = AccumRouter::make(options, b.cols());
  std::vector<uint64_t> row_nnz(std::move(load));
  // Spans are always recorded: the captured routes replay the numeric
  // router's density + locality decision on every future re-multiply.
  std::vector<Index> row_span(n);
  const size_t hint = workspace_hint(b.cols(), options.accumulator);
  const auto keep_all = [](Index) { return true; };

  dispatch_rows(pool, 0, n, plan.load_prefix, options, hint, nullptr,
                [&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
                  symbolic_rows(a, b, keep_all, lo, hi, ws, router,
                                row_nnz.data(), row_span.data());
                });

  plan.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i)
    plan.row_ptr[i + 1] = plan.row_ptr[i] + row_nnz[i];
  plan.row_use_hash.resize(n);
  for (Index i = 0; i < n; ++i)
    plan.row_use_hash[i] =
        router.use_hash_numeric(row_nnz[i], row_span[i]) ? 1 : 0;

  plan.col_idx.resize(plan.nnz());
  dispatch_rows(pool, 0, n, plan.load_prefix, options, hint, nullptr,
                [&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
                  pattern_rows(a, b, lo, hi, ws, plan, plan.col_idx.data());
                });
  return plan;
}

CsrMatrix spgemm_numeric(const CsrMatrix& a, const CsrMatrix& b,
                         const SpgemmPlan& plan, ThreadPool& pool,
                         SpgemmCounters* counters,
                         const SpgemmParallelOptions& options) {
  require_plan_compatible(plan, a, b);
  obs::Span span("kernel.spgemm.numeric_only");
  obs::count("kernel.spgemm.plan.reused");
  const Index n = plan.rows;
  std::vector<uint64_t> row_ptr(plan.row_ptr);
  std::vector<Index> col_idx(plan.col_idx);
  std::vector<double> values(plan.nnz());

  const size_t hint = workspace_hint(plan.cols, options.accumulator);
  std::atomic<size_t> arena_high_water{0};
  std::vector<SpgemmCounters> part(pool.size());
  dispatch_rows(pool, 0, n, plan.load_prefix, options, hint,
                &arena_high_water,
                [&](unsigned w, Index lo, Index hi, SpgemmWorkspace& ws) {
                  numeric_rows_planned(a, b, plan, lo, hi, ws, values.data(),
                                       part[w]);
                });
  obs::set_gauge("kernel.spgemm.arena.high_water_bytes",
                 static_cast<double>(
                     arena_high_water.load(std::memory_order_relaxed)));
  SpgemmCounters total;
  for (const auto& pc : part) total += pc;
  if (counters) *counters += total;
  emit_kernel_counters(total);
  return CsrMatrix::from_parts(n, plan.cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

CsrMatrix spgemm_numeric_row_range(const CsrMatrix& a, const CsrMatrix& b,
                                   const SpgemmPlan& plan, Index first,
                                   Index last, SpgemmCounters* counters) {
  require_plan_compatible(plan, a, b);
  NBWP_REQUIRE(first <= last && last <= a.rows(), "row range out of bounds");
  obs::Span span("kernel.spgemm.numeric_only.range");
  obs::count("kernel.spgemm.plan.reused");
  auto ws = workspace_pool().acquire(
      workspace_hint(b.cols(), SpgemmAccumulator::kForceSpa));
  count_workspace(ws);
  Spa& spa = ws->spa;
  spa.ensure(ws->arena, b.cols());

  const uint64_t base = plan.row_ptr[first];
  const uint64_t nnz = plan.row_ptr[last] - base;
  std::vector<uint64_t> row_ptr(static_cast<size_t>(last - first) + 1);
  for (Index r = 0; r <= last - first; ++r)
    row_ptr[r] = plan.row_ptr[first + r] - base;
  std::vector<Index> col_idx(plan.col_idx.begin() + base,
                             plan.col_idx.begin() + base + nnz);
  std::vector<double> values(nnz);

  SpgemmCounters local;
  const auto keep_all = [](Index) { return true; };
  for (Index i = first; i < last; ++i) {
    const uint64_t at = plan.row_ptr[i] - base;
    const uint64_t row_nnz = plan.row_ptr[i + 1] - plan.row_ptr[i];
    spa.start_row();
    accumulate_row(a, b, keep_all, i, spa, local);
    NBWP_REQUIRE(spa.touched() == row_nnz,
                 "spgemm plan stale: row pattern changed");
    const Index* cols = col_idx.data() + at;
    NBWP_PRAGMA_SIMD
    for (uint64_t t = 0; t < row_nnz; ++t)
      values[at + t] = spa.value(cols[t]);
    local.c_nnz += row_nnz;
  }
  local.rows = last - first;
  local.rows_spa = last - first;
  if (counters) *counters += local;
  emit_kernel_counters(local);
  return CsrMatrix::from_parts(last - first, b.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

SpgemmWorkspaceStats spgemm_workspace_stats() {
  auto& pool = workspace_pool();
  return {pool.created(), pool.reused(), pool.idle(), pool.idle_bytes()};
}

size_t spgemm_workspace_trim(size_t keep_idle) {
  return workspace_pool().trim(keep_idle);
}

void spgemm_workspace_reset_high_water() {
  workspace_pool().for_each_idle([](SpgemmWorkspace& ws) {
    // Detach the accumulators before rewinding the arena: their spans
    // point into the superseded layout.  The next lease re-lays them
    // through ensure() exactly like a fresh workspace, but from the
    // retained (warm) capacity — so the next phase's gauge measures that
    // phase's own layout, not the footprint history.
    ws.spa = Spa{};
    ws.hash = HashAccum{};
    ws.bitmap = PatternBitmap{};
    ws.spa1 = Spa{};
    ws.hash1 = HashAccum{};
    ws.arena.reset();
    ws.arena.reset_high_water();
  });
  obs::set_gauge("kernel.spgemm.arena.high_water_bytes", 0.0);
}

}  // namespace nbwp::sparse
