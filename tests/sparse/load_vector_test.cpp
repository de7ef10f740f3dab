#include "sparse/load_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"
#include "util/rng.hpp"

namespace nbwp::sparse {
namespace {

TEST(LoadVector, MatchesExecutedMultiplyCount) {
  // Section IV: L_AB[i] equals the work volume of row i of A in A x B.
  Rng rng(1);
  const CsrMatrix a = random_uniform(50, 60, 500, rng);
  const CsrMatrix b = random_uniform(60, 40, 400, rng);
  const auto load = load_vector(a, row_nnz_vector(b));
  for (Index i = 0; i < a.rows(); ++i) {
    SpgemmCounters counters;
    spgemm_row_range(a, b, i, i + 1, &counters);
    EXPECT_EQ(load[i], counters.multiplies) << "row " << i;
  }
}

TEST(LoadVector, SizeMismatchThrows) {
  Rng rng(2);
  const CsrMatrix a = random_uniform(5, 6, 10, rng);
  const std::vector<uint64_t> wrong(5, 1);
  EXPECT_THROW(load_vector(a, wrong), Error);
}

TEST(PrefixSums, BasicProperties) {
  const std::vector<uint64_t> loads = {3, 0, 7, 2};
  const auto prefix = prefix_sums(loads);
  ASSERT_EQ(prefix.size(), 5u);
  EXPECT_EQ(prefix[0], 0u);
  EXPECT_EQ(prefix[4], 12u);
  EXPECT_EQ(prefix[3], 10u);
}

TEST(SplitRowForLoad, PicksClosestPrefix) {
  // prefix = {0, 3, 3, 10, 12}
  const std::vector<uint64_t> loads = {3, 0, 7, 2};
  const auto prefix = prefix_sums(loads);
  EXPECT_EQ(split_row_for_load(prefix, 0), 0u);
  EXPECT_EQ(split_row_for_load(prefix, 2), 1u);   // 3 closer than 0
  EXPECT_EQ(split_row_for_load(prefix, 3), 1u);   // exact; earliest prefix
  EXPECT_EQ(split_row_for_load(prefix, 6), 2u);   // |3-6| vs |10-6|: 3 wins
  EXPECT_EQ(split_row_for_load(prefix, 7), 3u);   // tie 3 vs 10 -> under
  EXPECT_EQ(split_row_for_load(prefix, 12), 4u);
  EXPECT_EQ(split_row_for_load(prefix, 100), 4u);  // beyond total
}

TEST(SplitRowForShare, EndpointsAndMiddle) {
  const std::vector<uint64_t> loads(10, 5);  // uniform
  const auto prefix = prefix_sums(loads);
  EXPECT_EQ(split_row_for_share(prefix, 0.0), 0u);
  EXPECT_EQ(split_row_for_share(prefix, 100.0), 10u);
  EXPECT_EQ(split_row_for_share(prefix, 50.0), 5u);
  EXPECT_EQ(split_row_for_share(prefix, 30.0), 3u);
}

TEST(SplitRowForShare, SkewedLoads) {
  // First row owns 90% of the work.
  const std::vector<uint64_t> loads = {90, 5, 5};
  const auto prefix = prefix_sums(loads);
  EXPECT_EQ(split_row_for_share(prefix, 50.0), 1u);  // 90 closest to 50? no:
  // |0-50|=50 vs |90-50|=40 -> index 1 (prefix 90). Sanity:
  EXPECT_EQ(split_row_for_share(prefix, 10.0), 0u);
  EXPECT_EQ(split_row_for_share(prefix, 95.0), 2u);
}

TEST(RowNnzVector, MatchesMatrix) {
  Rng rng(3);
  const CsrMatrix b = random_uniform(30, 30, 200, rng);
  const auto v = row_nnz_vector(b);
  ASSERT_EQ(v.size(), b.rows());
  for (Index r = 0; r < b.rows(); ++r) EXPECT_EQ(v[r], b.row_nnz(r));
}

TEST(LoadVectorMasked, MatchesExecutedMaskedMultiplyCount) {
  Rng rng(4);
  const CsrMatrix a = random_uniform(40, 40, 400, rng);
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = r % 2;
  for (uint8_t keep : {uint8_t{0}, uint8_t{1}}) {
    const auto load = load_vector_masked(a, row_nnz_vector(a), mask, keep);
    for (Index i = 0; i < a.rows(); ++i) {
      SpgemmCounters counters;
      spgemm_row_range_masked(a, a, i, i + 1, mask, keep, &counters);
      EXPECT_EQ(load[i], counters.multiplies) << "row " << i;
    }
  }
}

TEST(BalancedBoundaries, NearlyEqualWorkOnSkewedLoads) {
  // A power-law-ish load vector: equal-count splits would give the first
  // part almost everything; balanced boundaries keep every part within a
  // one-row resolution of the ideal share.
  std::vector<uint64_t> loads;
  uint64_t max_load = 0;
  for (int i = 0; i < 200; ++i) {
    loads.push_back(static_cast<uint64_t>(10000.0 / ((i + 1) * (i + 1))));
    max_load = std::max(max_load, loads.back());
  }
  const auto prefix = prefix_sums(loads);
  const auto bounds = balanced_boundaries(prefix, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[4], 200u);
  const uint64_t ideal = prefix.back() / 4;
  for (int p = 0; p < 4; ++p) {
    EXPECT_LE(bounds[p], bounds[p + 1]);
    const uint64_t part = prefix[bounds[p + 1]] - prefix[bounds[p]];
    // Each part is within one max-row of the ideal share (the split can
    // never do better than row granularity).
    EXPECT_LE(part, ideal + max_load);
  }
}

TEST(BalancedBoundaries, ZeroLoadFallsBackToEqualRows) {
  const std::vector<uint64_t> loads(12, 0);
  const auto bounds = balanced_boundaries(prefix_sums(loads), 3);
  EXPECT_EQ(bounds, (std::vector<Index>{0, 4, 8, 12}));
}

TEST(BalancedBoundaries, MorePartsThanRows) {
  const std::vector<uint64_t> loads = {5, 5};
  const auto bounds = balanced_boundaries(prefix_sums(loads), 6);
  ASSERT_EQ(bounds.size(), 7u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LE(bounds[i - 1], bounds[i]);
}

TEST(BalancedBoundaries, RangeSplitsOnlyItsOwnLoad) {
  // Rows [3, 9) carry loads 1, 1, 1, 1, 8, 0 (total 12): two parts put the
  // boundary where the range's own prefix comes closest to 6 (4, before
  // row 7), whatever lies outside the range.
  const std::vector<uint64_t> loads = {50, 50, 50, 1, 1, 1, 1, 8, 0, 70};
  const auto prefix = prefix_sums(loads);
  EXPECT_EQ(balanced_boundaries(prefix, 3, 9, 2),
            (std::vector<Index>{3, 7, 9}));
  // A zero-load range falls back to equal row counts inside the range.
  const std::vector<uint64_t> zero(12, 0);
  EXPECT_EQ(balanced_boundaries(prefix_sums(zero), 4, 10, 3),
            (std::vector<Index>{4, 6, 8, 10}));
  // An empty range collapses every boundary onto it.
  EXPECT_EQ(balanced_boundaries(prefix, 5, 5, 3),
            (std::vector<Index>{5, 5, 5, 5}));
  EXPECT_THROW(balanced_boundaries(prefix, 6, 5, 2), Error);
  EXPECT_THROW(balanced_boundaries(prefix, 0, 11, 2), Error);
}

}  // namespace
}  // namespace nbwp::sparse
