#include "sparse/spgemm.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace nbwp::sparse {
namespace {

/// Dense reference multiply for validation.
CsrMatrix dense_reference(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<Triplet> trips;
  for (Index i = 0; i < a.rows(); ++i) {
    std::vector<double> row(b.cols(), 0.0);
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    for (size_t j = 0; j < ac.size(); ++j) {
      const auto bc = b.row_cols(ac[j]);
      const auto bv = b.row_vals(ac[j]);
      for (size_t t = 0; t < bc.size(); ++t) row[bc[t]] += av[j] * bv[t];
    }
    for (Index c = 0; c < b.cols(); ++c)
      if (row[c] != 0.0) trips.push_back({i, c, row[c]});
  }
  return CsrMatrix::from_triplets(a.rows(), b.cols(), trips);
}

class SpgemmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmRandomTest, MatchesDenseReference) {
  Rng rng(GetParam());
  const CsrMatrix a = random_uniform(40, 50, 300, rng, -1.0, 1.0);
  const CsrMatrix b = random_uniform(50, 30, 250, rng, -1.0, 1.0);
  const CsrMatrix c = spgemm(a, b);
  const CsrMatrix ref = dense_reference(a, b);
  EXPECT_LT(CsrMatrix::max_abs_diff(c, ref), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpgemmRandomTest,
                         ::testing::Range(1, 9));

TEST(Spgemm, IdentityIsNeutral) {
  Rng rng(3);
  const CsrMatrix a = random_uniform(20, 20, 80, rng);
  const CsrMatrix i = CsrMatrix::identity(20);
  EXPECT_LT(CsrMatrix::max_abs_diff(spgemm(a, i), a), 1e-15);
  EXPECT_LT(CsrMatrix::max_abs_diff(spgemm(i, a), a), 1e-15);
}

TEST(Spgemm, CountersMatchLoadVolume) {
  Rng rng(4);
  const CsrMatrix a = random_uniform(30, 30, 200, rng);
  SpgemmCounters counters;
  const CsrMatrix c = spgemm(a, a, &counters);
  // multiplies = sum over entries (i,k) of nnz(row k).
  uint64_t expected = 0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index k : a.row_cols(i)) expected += a.row_nnz(k);
  EXPECT_EQ(counters.multiplies, expected);
  EXPECT_EQ(counters.c_nnz, c.nnz());
  EXPECT_EQ(counters.rows, a.rows());
  EXPECT_EQ(counters.a_nnz, a.nnz());
}

TEST(Spgemm, RowRangeStitchesToFullProduct) {
  Rng rng(5);
  const CsrMatrix a = random_uniform(60, 60, 500, rng);
  const CsrMatrix full = spgemm(a, a);
  for (Index split : {Index{0}, Index{17}, Index{60}}) {
    const CsrMatrix c1 = spgemm_row_range(a, a, 0, split);
    const CsrMatrix c2 = spgemm_row_range(a, a, split, 60);
    EXPECT_LT(CsrMatrix::max_abs_diff(CsrMatrix::vstack(c1, c2), full),
              1e-12);
  }
}

TEST(Spgemm, ParallelMatchesSequential) {
  Rng rng(6);
  const CsrMatrix a = random_uniform(200, 200, 3000, rng);
  ThreadPool pool(4);
  SpgemmCounters seq_counters, par_counters;
  const CsrMatrix seq = spgemm(a, a, &seq_counters);
  const CsrMatrix par = spgemm_parallel(a, a, pool, &par_counters);
  EXPECT_DOUBLE_EQ(CsrMatrix::max_abs_diff(seq, par), 0.0);
  EXPECT_EQ(seq_counters.multiplies, par_counters.multiplies);
}

class SpgemmScheduleTest : public ::testing::TestWithParam<SpgemmSchedule> {
 protected:
  SpgemmParallelOptions options() const {
    SpgemmParallelOptions o;
    o.schedule = GetParam();
    return o;
  }
};

TEST_P(SpgemmScheduleTest, BitIdenticalOnSkewedMatrix) {
  // Power-law row degrees: the work-volume split earns its keep here,
  // and the output must still be bit-identical to the serial kernel.
  Rng rng(9);
  const CsrMatrix a = scale_free(300, 8, 2.0, rng);
  ThreadPool pool(4);
  SpgemmCounters seq_counters, par_counters;
  const CsrMatrix seq = spgemm(a, a, &seq_counters);
  const CsrMatrix par =
      spgemm_parallel(a, a, pool, &par_counters, options());
  EXPECT_TRUE(seq == par);
  EXPECT_EQ(seq_counters.multiplies, par_counters.multiplies);
  EXPECT_EQ(seq_counters.c_nnz, par_counters.c_nnz);
  EXPECT_EQ(seq_counters.rows, par_counters.rows);
  EXPECT_EQ(seq_counters.a_nnz, par_counters.a_nnz);
}

TEST_P(SpgemmScheduleTest, HandlesEmptyRowsAndColumns) {
  // Rows 3, 7, and the tail of A are empty; several columns never occur.
  std::vector<Triplet> trips;
  Rng rng(10);
  for (Index r = 0; r < 40; ++r) {
    if (r == 3 || r == 7 || r >= 30) continue;
    for (int j = 0; j < 4; ++j)
      trips.push_back({r, static_cast<Index>(rng.uniform(40)),
                       rng.uniform_real(-1, 1)});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(40, 40, trips);
  ThreadPool pool(4);
  const CsrMatrix seq = spgemm(a, a);
  const CsrMatrix par = spgemm_parallel(a, a, pool, nullptr, options());
  EXPECT_TRUE(seq == par);
}

TEST_P(SpgemmScheduleTest, TeamLargerThanRows) {
  Rng rng(11);
  const CsrMatrix a = random_uniform(5, 5, 15, rng);
  ThreadPool pool(8);
  const CsrMatrix seq = spgemm(a, a);
  EXPECT_TRUE(seq == spgemm_parallel(a, a, pool, nullptr, options()));
}

TEST_P(SpgemmScheduleTest, SingleThreadPool) {
  Rng rng(12);
  const CsrMatrix a = random_uniform(50, 50, 400, rng);
  ThreadPool pool(1);
  const CsrMatrix seq = spgemm(a, a);
  EXPECT_TRUE(seq == spgemm_parallel(a, a, pool, nullptr, options()));
}

TEST_P(SpgemmScheduleTest, MaskedParallelMatchesSerialMasked) {
  Rng rng(13);
  const CsrMatrix a = scale_free(200, 6, 2.2, rng);
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = a.row_nnz(r) > 8;
  ThreadPool pool(4);
  for (uint8_t keep : {uint8_t{0}, uint8_t{1}}) {
    SpgemmCounters serial_counters, par_counters;
    const CsrMatrix serial = spgemm_row_range_masked(
        a, a, 0, a.rows(), mask, keep, &serial_counters);
    const CsrMatrix par = spgemm_parallel_masked(
        a, a, pool, mask, keep, &par_counters, options());
    EXPECT_TRUE(serial == par) << "keep=" << int(keep);
    EXPECT_EQ(serial_counters.multiplies, par_counters.multiplies);
    EXPECT_EQ(serial_counters.c_nnz, par_counters.c_nnz);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SpgemmScheduleTest,
    ::testing::Values(SpgemmSchedule::kAuto, SpgemmSchedule::kWorkBalanced,
                      SpgemmSchedule::kDynamic),
    [](const auto& param_info) {
      switch (param_info.param) {
        case SpgemmSchedule::kAuto: return "Auto";
        case SpgemmSchedule::kWorkBalanced: return "WorkBalanced";
        default: return "Dynamic";
      }
    });

// The range-split kernel behind spgemm_parallel and HeteroSpmm: one
// symbolic pass, then a numeric pass per row range through a runner, all
// into one output.  Parameterized by team size; team 1 takes the serial
// shortcut, so both paths see every case.
class SpgemmRangesTest : public ::testing::TestWithParam<unsigned> {
 protected:
  /// The cut lists every case runs: one range, an empty first or last
  /// range, a two-way split, and four ranges with an empty middle one.
  static std::vector<std::vector<Index>> cut_lists(Index n) {
    const Index k = n / 3, k2 = 2 * n / 3;
    return {{0, n}, {0, 0, n}, {0, n, n}, {0, k, n}, {0, k, k2, k2, n}};
  }

  /// Products of a scale-free input (skewed, wide: kAuto hash-routes its
  /// sparse rows) and a banded FEM input (dense bands: mostly SPA rows).
  static std::vector<std::pair<const char*, CsrMatrix>> inputs() {
    Rng rng(15);
    std::vector<std::pair<const char*, CsrMatrix>> out;
    out.emplace_back("scale_free", scale_free(800, 8, 2.0, rng));
    out.emplace_back("banded_fem", banded_fem(600, 24, 48, 4, rng));
    return out;
  }

  static void run_in_place(size_t, const std::function<void()>& numeric) {
    numeric();
  }
};

TEST_P(SpgemmRangesTest, BitIdenticalToSerialForEveryCutList) {
  ThreadPool pool(GetParam());
  for (const auto& [name, a] : inputs()) {
    const CsrMatrix seq = spgemm(a, a);
    for (const auto& cuts : cut_lists(a.rows())) {
      for (SpgemmSchedule schedule :
           {SpgemmSchedule::kAuto, SpgemmSchedule::kDynamic}) {
        SpgemmParallelOptions options;
        options.schedule = schedule;
        std::vector<SpgemmCounters> counters(cuts.size() - 1);
        const CsrMatrix par = spgemm_parallel_ranges(
            a, a, pool, cuts, run_in_place, counters, options);
        EXPECT_TRUE(seq == par)
            << name << " cuts=" << ::testing::PrintToString(cuts)
            << " dynamic=" << (schedule == SpgemmSchedule::kDynamic);
      }
    }
  }
}

TEST_P(SpgemmRangesTest, RoutesScaleFreeRowsToHashAndFemRowsToSpa) {
  ThreadPool pool(GetParam());
  const auto in = inputs();
  SpgemmCounters scale_free_counters, fem_counters;
  spgemm_parallel(in[0].second, in[0].second, pool, &scale_free_counters);
  spgemm_parallel(in[1].second, in[1].second, pool, &fem_counters);
  if (GetParam() == 1) {
    EXPECT_EQ(scale_free_counters.rows_hash, 0u);  // serial shortcut: SPA
  } else {
    EXPECT_GT(scale_free_counters.rows_hash, 0u);
  }
  EXPECT_GT(fem_counters.rows_spa, fem_counters.rows_hash);
}

TEST_P(SpgemmRangesTest, PerRangeCountersMatchRowRange) {
  ThreadPool pool(GetParam());
  for (const auto& [name, a] : inputs()) {
    for (const auto& cuts : cut_lists(a.rows())) {
      std::vector<SpgemmCounters> counters(cuts.size() - 1);
      spgemm_parallel_ranges(a, a, pool, cuts, run_in_place, counters);
      for (size_t r = 0; r + 1 < cuts.size(); ++r) {
        SpgemmCounters expected;
        spgemm_row_range(a, a, cuts[r], cuts[r + 1], &expected);
        EXPECT_EQ(counters[r].multiplies, expected.multiplies)
            << name << " range " << r;
        EXPECT_EQ(counters[r].c_nnz, expected.c_nnz) << name << " range " << r;
        EXPECT_EQ(counters[r].rows, expected.rows) << name << " range " << r;
        EXPECT_EQ(counters[r].rows_spa + counters[r].rows_hash,
                  counters[r].rows)
            << name << " range " << r;
      }
    }
  }
}

TEST_P(SpgemmRangesTest, RunnerCalledOncePerRangeInOrder) {
  ThreadPool pool(GetParam());
  const CsrMatrix a = inputs()[0].second;
  const std::vector<Index> cuts = cut_lists(a.rows()).back();
  std::vector<size_t> seen;
  std::vector<SpgemmCounters> counters(cuts.size() - 1);
  spgemm_parallel_ranges(
      a, a, pool, cuts,
      [&](size_t range, const std::function<void()>& numeric) {
        seen.push_back(range);
        numeric();
      },
      counters);
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST_P(SpgemmRangesTest, RunnerExceptionPropagates) {
  ThreadPool pool(GetParam());
  const CsrMatrix a = inputs()[1].second;
  const std::vector<Index> cuts = {0, a.rows() / 2, a.rows()};
  std::vector<SpgemmCounters> counters(2);
  // Thrown before and after the range's pass ran.
  for (bool after : {false, true}) {
    EXPECT_THROW(
        spgemm_parallel_ranges(
            a, a, pool, cuts,
            [&](size_t range, const std::function<void()>& numeric) {
              if (after) numeric();
              if (range == 1) throw std::runtime_error("device lost");
              if (!after) numeric();
            },
            counters),
        std::runtime_error);
  }
  // A runner that skips or repeats the pass breaks the contract loudly.
  for (int calls : {0, 2}) {
    EXPECT_THROW(spgemm_parallel_ranges(
                     a, a, pool, cuts,
                     [&](size_t, const std::function<void()>& numeric) {
                       for (int i = 0; i < calls; ++i) numeric();
                     },
                     counters),
                 Error);
  }
}

TEST_P(SpgemmRangesTest, RejectsMalformedCuts) {
  ThreadPool pool(GetParam());
  const CsrMatrix a = inputs()[1].second;
  const Index n = a.rows();
  std::vector<SpgemmCounters> one(1), two(2);
  const std::vector<Index> none = {0}, partial = {0, n - 1},
                           late = {1, n}, unsorted = {0, n, n - 1},
                           past = {0, n + 1};
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, none, run_in_place, {}),
               Error);
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, partial, run_in_place, one),
               Error);
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, late, run_in_place, one),
               Error);
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, unsorted, run_in_place, two),
               Error);
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, past, run_in_place, one),
               Error);
  // One counter slot per range.
  const std::vector<Index> split = {0, n / 2, n};
  EXPECT_THROW(spgemm_parallel_ranges(a, a, pool, split, run_in_place, one),
               Error);
}

TEST_P(SpgemmRangesTest, EmptyProductHasNoEntries) {
  // Every row of A is empty, so C has no entries and its arrays no
  // storage: no range may write through the null column pointer.
  ThreadPool pool(GetParam());
  const CsrMatrix a(64, 64);
  for (const auto& cuts : cut_lists(a.rows())) {
    std::vector<SpgemmCounters> counters(cuts.size() - 1);
    const CsrMatrix c =
        spgemm_parallel_ranges(a, a, pool, cuts, run_in_place, counters);
    EXPECT_EQ(c.rows(), 64u);
    EXPECT_EQ(c.nnz(), 0u);
  }
}

TEST_P(SpgemmRangesTest, MaskedSingleRangeBitIdentical) {
  ThreadPool pool(GetParam());
  const CsrMatrix a = inputs()[0].second;
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = a.row_nnz(r) > 8;
  for (uint8_t keep : {uint8_t{0}, uint8_t{1}}) {
    SpgemmCounters serial_counters, par_counters;
    const CsrMatrix serial = spgemm_row_range_masked(
        a, a, 0, a.rows(), mask, keep, &serial_counters);
    const CsrMatrix par =
        spgemm_parallel_masked(a, a, pool, mask, keep, &par_counters);
    EXPECT_TRUE(serial == par) << "keep=" << int(keep);
    EXPECT_EQ(serial_counters.multiplies, par_counters.multiplies);
    EXPECT_EQ(serial_counters.c_nnz, par_counters.c_nnz);
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, SpgemmRangesTest, ::testing::Values(1, 2, 3, 4),
                         [](const auto& param_info) {
                           return "Team" + std::to_string(param_info.param);
                         });

TEST(Spgemm, ParallelRectangularProduct) {
  Rng rng(14);
  const CsrMatrix a = random_uniform(120, 80, 900, rng, -1, 1);
  const CsrMatrix b = random_uniform(80, 60, 700, rng, -1, 1);
  ThreadPool pool(3);
  EXPECT_TRUE(spgemm(a, b) == spgemm_parallel(a, b, pool));
}

TEST(Spgemm, MaskedDecompositionSums) {
  // C = A x B_mask0 + A x B_mask1 for any row bipartition of B — the HH
  // algorithm's correctness hinges on this.
  Rng rng(7);
  const CsrMatrix a = random_uniform(50, 50, 600, rng);
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = r % 3 == 0;
  const CsrMatrix c0 =
      spgemm_row_range_masked(a, a, 0, a.rows(), mask, 0);
  const CsrMatrix c1 =
      spgemm_row_range_masked(a, a, 0, a.rows(), mask, 1);
  const CsrMatrix full = spgemm(a, a);
  EXPECT_LT(CsrMatrix::max_abs_diff(sp_add(c0, c1), full), 1e-12);
}

TEST(Spgemm, MaskedCountersPartitionWork) {
  Rng rng(8);
  const CsrMatrix a = random_uniform(40, 40, 400, rng);
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = r < 20;
  SpgemmCounters m0, m1, all;
  spgemm_row_range_masked(a, a, 0, a.rows(), mask, 0, &m0);
  spgemm_row_range_masked(a, a, 0, a.rows(), mask, 1, &m1);
  spgemm(a, a, &all);
  EXPECT_EQ(m0.multiplies + m1.multiplies, all.multiplies);
}

TEST(SpAdd, AddsDisjointAndOverlapping) {
  const std::vector<Triplet> ta = {{0, 0, 1}, {1, 1, 2}};
  const std::vector<Triplet> tb = {{0, 0, 3}, {1, 0, 4}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, ta);
  const CsrMatrix b = CsrMatrix::from_triplets(2, 2, tb);
  const CsrMatrix c = sp_add(a, b);
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_DOUBLE_EQ(c.row_vals(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(c.row_vals(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(c.row_vals(1)[1], 2.0);
}

TEST(Spgemm, ShapeMismatchThrows) {
  const CsrMatrix a(2, 3), b(4, 2);
  EXPECT_THROW(spgemm(a, b), Error);
}

}  // namespace
}  // namespace nbwp::sparse
