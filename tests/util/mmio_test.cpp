#include "util/mmio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace nbwp {
namespace {

TEST(Mmio, ParsesGeneralRealMatrix) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 2 1.5\n"
      "3 4 -2.0\n");
  const TripletMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows, 3u);
  EXPECT_EQ(m.cols, 4u);
  EXPECT_FALSE(m.pattern);
  EXPECT_FALSE(m.symmetric);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].r, 0u);  // 0-based
  EXPECT_EQ(m.entries[0].c, 1u);
  EXPECT_DOUBLE_EQ(m.entries[1].v, -2.0);
}

TEST(Mmio, ParsesPatternSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  TripletMatrix m = read_matrix_market(in);
  EXPECT_TRUE(m.pattern);
  EXPECT_TRUE(m.symmetric);
  m.expand_symmetry();
  EXPECT_FALSE(m.symmetric);
  // (1,0) mirrored to (0,1); diagonal (2,2) not duplicated.
  EXPECT_EQ(m.entries.size(), 3u);
}

TEST(Mmio, ExpandSymmetryIdempotent) {
  TripletMatrix m;
  m.rows = m.cols = 2;
  m.symmetric = true;
  m.entries = {{1, 0, 2.0}};
  m.expand_symmetry();
  m.expand_symmetry();
  EXPECT_EQ(m.entries.size(), 2u);
}

TEST(Mmio, RoundTrip) {
  TripletMatrix m;
  m.rows = 5;
  m.cols = 6;
  m.entries = {{0, 0, 1.0}, {4, 5, 2.5}, {2, 3, -1.0}};
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in(out.str());
  const TripletMatrix back = read_matrix_market(in);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.cols, m.cols);
  ASSERT_EQ(back.entries.size(), m.entries.size());
  for (size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].r, m.entries[i].r);
    EXPECT_EQ(back.entries[i].c, m.entries[i].c);
    EXPECT_DOUBLE_EQ(back.entries[i].v, m.entries[i].v);
  }
}

TEST(Mmio, WriteReadRoundTripIsBitExact) {
  // The writer emits the shortest spelling that reads back to the same
  // double; the default 6-digit stream precision turned 0.1234567 into
  // 0.123457.
  Rng rng(31);
  TripletMatrix m;
  m.rows = m.cols = 1000;
  m.entries.push_back({0, 0, 0.1234567});
  m.entries.push_back({1, 1, 5e-324});
  m.entries.push_back({2, 2, -1.7976931348623157e308});
  for (uint64_t i = 3; i < 1000; ++i) {
    double v = 0;
    do {
      const uint64_t raw = rng();
      std::memcpy(&v, &raw, sizeof v);
    } while (!std::isfinite(v));
    m.entries.push_back({i, (i * 7) % 1000, v});
  }
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in(out.str());
  const TripletMatrix back = read_matrix_market(in);
  ASSERT_EQ(back.entries.size(), m.entries.size());
  for (size_t i = 0; i < m.entries.size(); ++i) {
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &m.entries[i].v, sizeof want);
    std::memcpy(&got, &back.entries[i].v, sizeof got);
    EXPECT_EQ(got, want) << m.entries[i].v << " read back as "
                         << back.entries[i].v;
  }
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsOutOfBoundsEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsUnsupportedField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"), Error);
}

// --- hardened-reader fixtures ---------------------------------------------

namespace {
std::string mtx(const std::string& body) {
  return "%%MatrixMarket matrix coordinate real general\n" + body;
}

void expect_rejected(const std::string& content, const std::string& needle) {
  std::istringstream in(content);
  try {
    read_matrix_market(in);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}
}  // namespace

TEST(MmioHardened, RejectsZeroBasedIndices) {
  expect_rejected(mtx("2 2 1\n0 1 1.0\n"), "1-based");
  expect_rejected(mtx("2 2 1\n1 0 1.0\n"), "1-based");
}

TEST(MmioHardened, RejectsNonFiniteValues) {
  expect_rejected(mtx("2 2 1\n1 1 inf\n"), "1 1 inf");
  expect_rejected(mtx("2 2 1\n1 1 nan\n"), "1 1 nan");
  expect_rejected(mtx("2 2 1\n1 1 1e99999\n"), "1 1 1e99999");
}

TEST(MmioHardened, RejectsTruncatedEntryLine) {
  expect_rejected(mtx("2 2 1\n1\n"), "truncated");
}

TEST(MmioHardened, RejectsMissingEntries) {
  expect_rejected(mtx("2 2 3\n1 1 1.0\n"), "unexpected end of entries");
}

TEST(MmioHardened, RejectsTrailingGarbage) {
  expect_rejected(mtx("2 2 1\n1 1 1.0 surprise\n"), "trailing garbage");
  expect_rejected(mtx("2 2 1 extra\n1 1 1.0\n"), "trailing garbage");
}

TEST(MmioHardened, RejectsMalformedSizeLine) {
  expect_rejected(mtx("2 two 1\n1 1 1.0\n"), "size line");
}

TEST(MmioHardened, SumsDuplicateEntries) {
  std::istringstream in(mtx("3 3 4\n1 2 1.5\n3 3 1.0\n1 2 2.5\n1 2 -1.0\n"));
  const TripletMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.duplicates_coalesced, 2u);
  ASSERT_EQ(m.entries.size(), 2u);
  // First-occurrence order is preserved; values summed.
  EXPECT_EQ(m.entries[0].r, 0u);
  EXPECT_EQ(m.entries[0].c, 1u);
  EXPECT_DOUBLE_EQ(m.entries[0].v, 3.0);
  EXPECT_DOUBLE_EQ(m.entries[1].v, 1.0);
}

TEST(MmioHardened, CoalesceIsIdempotentAndHandlesCleanInput) {
  TripletMatrix m;
  m.rows = m.cols = 4;
  m.entries = {{0, 0, 1.0}, {1, 2, 2.0}, {3, 3, 3.0}};
  m.coalesce_duplicates();
  EXPECT_EQ(m.duplicates_coalesced, 0u);
  EXPECT_EQ(m.entries.size(), 3u);
  m.entries.push_back({1, 2, 5.0});
  m.coalesce_duplicates();
  EXPECT_EQ(m.duplicates_coalesced, 1u);
  m.coalesce_duplicates();
  EXPECT_EQ(m.duplicates_coalesced, 0u);
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(m.entries[1].v, 7.0);
}

}  // namespace
}  // namespace nbwp
