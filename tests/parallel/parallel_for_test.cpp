#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace nbwp {
namespace {

class ParallelForTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](int64_t i) { ++hits[i]; }, GetParam());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForTest, EmptyAndSingleRanges) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(pool, 5, 5, [&](int64_t) { ++count; }, GetParam());
  EXPECT_EQ(count.load(), 0);
  parallel_for(pool, 5, 6, [&](int64_t) { ++count; }, GetParam());
  EXPECT_EQ(count.load(), 1);
}

TEST_P(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  parallel_for(pool, 10, 20, [&](int64_t i) { sum += i; }, GetParam());
  EXPECT_EQ(sum.load(), 145);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ParallelForTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic),
                         [](const auto& param_info) {
                           return param_info.param == Schedule::kStatic
                                      ? "Static"
                                      : "Dynamic";
                         });

TEST(ParallelForSingleThread, FallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);  // no atomics needed when serial
  parallel_for(pool, 0, 100, [&](int64_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const int64_t n = 100000;
  const int64_t sum = parallel_reduce(
      pool, 0, n, int64_t{0},
      [](int64_t i, int64_t& acc) { acc += i; },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const int v = parallel_reduce(
      pool, 3, 3, 42, [](int64_t, int&) {},
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 42);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(4);
  const int64_t best = parallel_reduce(
      pool, 0, 1000, int64_t{-1},
      [](int64_t i, int64_t& acc) { acc = std::max(acc, (i * 37) % 991); },
      [](int64_t a, int64_t b) { return std::max(a, b); });
  EXPECT_EQ(best, 990);
}

TEST(ParallelReduce, DynamicScheduleSumsCorrectly) {
  ThreadPool pool(4);
  const int64_t n = 100000;
  const int64_t sum = parallel_reduce(
      pool, 0, n, int64_t{0},
      [](int64_t i, int64_t& acc) { acc += i; },
      [](int64_t a, int64_t b) { return a + b; }, Schedule::kDynamic);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, DynamicScheduleWithTinyChunks) {
  ThreadPool pool(3);
  const int64_t sum = parallel_reduce(
      pool, 10, 500, int64_t{0},
      [](int64_t i, int64_t& acc) { acc += i; },
      [](int64_t a, int64_t b) { return a + b; }, Schedule::kDynamic, 1);
  EXPECT_EQ(sum, (499 * 500 - 9 * 10) / 2);
}

class ParallelForChunksTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelForChunksTest, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  std::vector<std::atomic<int>> worker_chunks(4);
  parallel_for_chunks(
      pool, 0, 777,
      [&](unsigned w, int64_t lo, int64_t hi) {
        EXPECT_LT(lo, hi);
        EXPECT_LT(w, 4u);
        ++worker_chunks[w];
        for (int64_t i = lo; i < hi; ++i) ++hits[i];
      },
      GetParam(), 10);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForChunksTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_chunks(
      pool, 9, 9, [&](unsigned, int64_t, int64_t) { ++calls; }, GetParam());
  EXPECT_EQ(calls.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ParallelForChunksTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic),
                         [](const auto& param_info) {
                           return param_info.param == Schedule::kStatic
                                      ? "Static"
                                      : "Dynamic";
                         });

}  // namespace
}  // namespace nbwp
