#include "sparse/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace nbwp::sparse {
namespace {

CsrMatrix small() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  const std::vector<Triplet> trips = {{0, 0, 1}, {0, 2, 2}, {2, 0, 3},
                                      {2, 1, 4}};
  return CsrMatrix::from_triplets(3, 3, trips);
}

TEST(CsrMatrix, FromTripletsSortsAndCounts) {
  const CsrMatrix m = small();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  const auto cols = m.row_cols(2);
  EXPECT_EQ(cols[0], 0u);
  EXPECT_EQ(cols[1], 1u);
}

TEST(CsrMatrix, DuplicateTripletsSummed) {
  const std::vector<Triplet> trips = {{0, 0, 1}, {0, 0, 2.5}};
  const CsrMatrix m = CsrMatrix::from_triplets(1, 1, trips);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 3.5);
}

TEST(CsrMatrix, OutOfBoundsTripletThrows) {
  const std::vector<Triplet> trips = {{0, 5, 1}};
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, trips), Error);
}

TEST(CsrMatrix, Identity) {
  const CsrMatrix i = CsrMatrix::identity(4);
  EXPECT_EQ(i.nnz(), 4u);
  for (Index r = 0; r < 4; ++r) {
    EXPECT_EQ(i.row_cols(r)[0], r);
    EXPECT_DOUBLE_EQ(i.row_vals(r)[0], 1.0);
  }
}

TEST(CsrMatrix, TransposeTwiceIsIdentity) {
  const CsrMatrix m = small();
  const CsrMatrix tt = m.transpose().transpose();
  EXPECT_DOUBLE_EQ(CsrMatrix::max_abs_diff(m, tt), 0.0);
}

TEST(CsrMatrix, TransposeMovesEntries) {
  const CsrMatrix t = small().transpose();
  EXPECT_EQ(t.row_nnz(0), 2u);  // col 0 had entries in rows 0 and 2
  EXPECT_EQ(t.row_nnz(2), 1u);
  EXPECT_DOUBLE_EQ(t.row_vals(1)[0], 4.0);  // (2,1) -> (1,2)
}

TEST(CsrMatrix, RowSliceAndVstackRoundTrip) {
  const CsrMatrix m = small();
  const CsrMatrix top = m.row_slice(0, 1);
  const CsrMatrix bottom = m.row_slice(1, 3);
  EXPECT_EQ(top.rows(), 1u);
  EXPECT_EQ(bottom.rows(), 2u);
  const CsrMatrix re = CsrMatrix::vstack(top, bottom);
  EXPECT_DOUBLE_EQ(CsrMatrix::max_abs_diff(m, re), 0.0);
}

TEST(CsrMatrix, VstackShapeMismatchThrows) {
  const CsrMatrix a(2, 3), b(2, 4);
  EXPECT_THROW(CsrMatrix::vstack(a, b), Error);
}

TEST(CsrMatrix, MaxAbsDiffDetectsPatternDifference) {
  const CsrMatrix a = small();
  const std::vector<Triplet> trips = {{0, 0, 1}};
  const CsrMatrix b = CsrMatrix::from_triplets(3, 3, trips);
  EXPECT_DOUBLE_EQ(CsrMatrix::max_abs_diff(a, b), 4.0);
}

TEST(CsrMatrix, MaxAbsDiffInfiniteOnShapeMismatch) {
  const CsrMatrix a(2, 2), b(3, 3);
  EXPECT_TRUE(std::isinf(CsrMatrix::max_abs_diff(a, b)));
}

TEST(CsrMatrix, MmRoundTrip) {
  const CsrMatrix m = small();
  const CsrMatrix back = CsrMatrix::from_mm(m.to_mm());
  EXPECT_DOUBLE_EQ(CsrMatrix::max_abs_diff(m, back), 0.0);
}

TEST(CsrBuilder, AppendsRowsInOrder) {
  CsrBuilder b(2, 4);
  const std::vector<Index> c0 = {3, 1};
  const std::vector<double> v0 = {3.0, 1.0};
  b.append_row(c0, v0);
  b.append_row({}, {});
  const CsrMatrix m = b.finish();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row_cols(0)[0], 1u);  // sorted by column
  EXPECT_DOUBLE_EQ(m.row_vals(0)[1], 3.0);
}

TEST(CsrBuilder, FinishRequiresAllRows) {
  CsrBuilder b(2, 2);
  b.append_row({}, {});
  EXPECT_THROW(b.finish(), Error);
}

TEST(CsrBuilder, TooManyRowsThrows) {
  CsrBuilder b(1, 2);
  b.append_row({}, {});
  EXPECT_THROW(b.append_row({}, {}), Error);
}

// --- validate(): each invariant violated individually ----------------------

namespace {
void expect_invalid(Index rows, Index cols, std::vector<uint64_t> row_ptr,
                    std::vector<Index> col_idx, std::vector<double> values,
                    const std::string& needle) {
  try {
    (void)CsrMatrix::from_parts(rows, cols, std::move(row_ptr),
                                std::move(col_idx), std::move(values));
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}
}  // namespace

TEST(CsrMatrixValidate, AcceptsWellFormedParts) {
  const CsrMatrix m =
      CsrMatrix::from_parts(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_NO_THROW(m.validate());
  EXPECT_NO_THROW(CsrMatrix(0, 0).validate());  // empty matrix is valid
}

TEST(CsrMatrixValidate, RejectsWrongRowPtrLength) {
  expect_invalid(2, 2, {0, 1}, {0}, {1.0}, "row_ptr");
}

TEST(CsrMatrixValidate, RejectsNonZeroRowPtrFront) {
  expect_invalid(1, 2, {1, 1}, {}, {}, "row_ptr");
}

TEST(CsrMatrixValidate, RejectsRowPtrBackMismatch) {
  expect_invalid(1, 2, {0, 2}, {0}, {1.0}, "row_ptr");
}

TEST(CsrMatrixValidate, RejectsColIdxValuesSizeMismatch) {
  expect_invalid(1, 2, {0, 1}, {0}, {1.0, 2.0}, "values");
}

TEST(CsrMatrixValidate, RejectsDecreasingRowPtr) {
  // back() matches nnz so only the interior monotonicity is violated.
  expect_invalid(3, 2, {0, 2, 1, 3}, {0, 1, 0}, {1.0, 2.0, 3.0}, "monotone");
}

TEST(CsrMatrixValidate, RejectsColumnOutOfRange) {
  expect_invalid(1, 2, {0, 1}, {2}, {1.0}, "range");
}

TEST(CsrMatrixValidate, RejectsUnsortedColumns) {
  expect_invalid(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}, "increasing");
}

TEST(CsrMatrixValidate, RejectsDuplicateColumns) {
  expect_invalid(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}, "increasing");
}

TEST(CsrMatrixValidate, RejectsNonFiniteValues) {
  expect_invalid(1, 2, {0, 1}, {0}, {std::nan("")}, "finite");
  expect_invalid(1, 2, {0, 1}, {0}, {HUGE_VAL}, "finite");
}

TEST(CsrMatrixValidate, RowPtrOvershootIsRejectedInBounds) {
  // row_ptr climbs past nnz and dips back; col_idx must not be read past
  // its end before this is caught.
  expect_invalid(2, 4, {0, 5, 2}, {1, 2}, {1.0, 2.0}, "monotone");
}

}  // namespace
}  // namespace nbwp::sparse
