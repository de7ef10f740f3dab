#include "sparse/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace nbwp::sparse {

CsrMatrix CsrMatrix::from_triplets(Index rows, Index cols,
                                   std::span<const Triplet> entries) {
  CsrMatrix m(rows, cols);
  std::vector<uint64_t> counts(static_cast<size_t>(rows) + 1, 0);
  for (const auto& e : entries) {
    NBWP_REQUIRE(e.r < rows && e.c < cols, "triplet out of bounds");
    ++counts[e.r + 1];
  }
  for (size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];

  std::vector<Index> cols_tmp(entries.size());
  std::vector<double> vals_tmp(entries.size());
  {
    std::vector<uint64_t> cursor(counts.begin(), counts.end() - 1);
    for (const auto& e : entries) {
      const uint64_t at = cursor[e.r]++;
      cols_tmp[at] = e.c;
      vals_tmp[at] = e.v;
    }
  }

  // Sort each row by column and sum duplicates.
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  std::vector<std::pair<Index, double>> row;
  for (Index r = 0; r < rows; ++r) {
    row.clear();
    for (uint64_t i = counts[r]; i < counts[r + 1]; ++i)
      row.emplace_back(cols_tmp[i], vals_tmp[i]);
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i].first == row[i - 1].first) {
        m.values_.back() += row[i].second;
      } else {
        m.col_idx_.push_back(row[i].first);
        m.values_.push_back(row[i].second);
      }
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::from_parts(Index rows, Index cols,
                                std::vector<uint64_t> row_ptr,
                                std::vector<Index> col_idx,
                                std::vector<double> values) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.validate();
  return m;
}

void CsrMatrix::validate() const {
  NBWP_REQUIRE(row_ptr_.size() == static_cast<size_t>(rows_) + 1,
               "csr: row_ptr must have rows+1 entries");
  NBWP_REQUIRE(row_ptr_.front() == 0,
               "csr: row_ptr must start at 0");
  NBWP_REQUIRE(row_ptr_.back() == col_idx_.size(),
               "csr: row_ptr must end at nnz");
  NBWP_REQUIRE(col_idx_.size() == values_.size(),
               "csr: col_idx/values size mismatch");
  for (Index r = 0; r < rows_; ++r) {
    // An entry past nnz is a dip further on; catch it before the row is
    // read out of bounds.
    NBWP_REQUIRE(row_ptr_[r] <= row_ptr_[r + 1] &&
                     row_ptr_[r + 1] <= col_idx_.size(),
                 "csr: row_ptr must be monotone non-decreasing");
    for (uint64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      NBWP_REQUIRE(col_idx_[i] < cols_, "csr: column index out of range");
      NBWP_REQUIRE(i == row_ptr_[r] || col_idx_[i - 1] < col_idx_[i],
                   "csr: row columns must be strictly increasing");
      NBWP_REQUIRE(std::isfinite(values_[i]),
                   "csr: non-finite value");
    }
  }
}

CsrMatrix CsrMatrix::from_mm(const TripletMatrix& mm) {
  TripletMatrix full = mm;
  full.expand_symmetry();
  std::vector<Triplet> trips;
  trips.reserve(full.entries.size());
  for (const auto& e : full.entries)
    trips.push_back({static_cast<Index>(e.r), static_cast<Index>(e.c), e.v});
  return from_triplets(static_cast<Index>(full.rows),
                       static_cast<Index>(full.cols), trips);
}

TripletMatrix CsrMatrix::to_mm() const {
  TripletMatrix mm;
  mm.rows = rows_;
  mm.cols = cols_;
  for (Index r = 0; r < rows_; ++r) {
    const auto cs = row_cols(r);
    const auto vs = row_vals(r);
    for (size_t i = 0; i < cs.size(); ++i)
      mm.entries.push_back({r, cs[i], vs[i]});
  }
  return mm;
}

CsrMatrix CsrMatrix::identity(Index n) {
  CsrMatrix m(n, n);
  m.col_idx_.resize(n);
  m.values_.assign(n, 1.0);
  for (Index i = 0; i < n; ++i) {
    m.col_idx_[i] = i;
    m.row_ptr_[i + 1] = i + 1;
  }
  return m;
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t(cols_, rows_);
  std::vector<uint64_t> counts(static_cast<size_t>(cols_) + 1, 0);
  for (Index c : col_idx_) ++counts[c + 1];
  for (size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  t.row_ptr_ = counts;
  t.col_idx_.resize(col_idx_.size());
  t.values_.resize(values_.size());
  std::vector<uint64_t> cursor(counts.begin(), counts.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    const auto cs = row_cols(r);
    const auto vs = row_vals(r);
    for (size_t i = 0; i < cs.size(); ++i) {
      const uint64_t at = cursor[cs[i]]++;
      t.col_idx_[at] = r;
      t.values_[at] = vs[i];
    }
  }
  return t;
}

CsrMatrix CsrMatrix::row_slice(Index first, Index last) const {
  NBWP_REQUIRE(first <= last && last <= rows_, "row_slice out of range");
  CsrMatrix s(last - first, cols_);
  const uint64_t lo = row_ptr_[first], hi = row_ptr_[last];
  s.col_idx_.assign(col_idx_.begin() + static_cast<ptrdiff_t>(lo),
                    col_idx_.begin() + static_cast<ptrdiff_t>(hi));
  s.values_.assign(values_.begin() + static_cast<ptrdiff_t>(lo),
                   values_.begin() + static_cast<ptrdiff_t>(hi));
  for (Index r = 0; r < s.rows_; ++r)
    s.row_ptr_[r + 1] = row_ptr_[first + r + 1] - lo;
  return s;
}

CsrMatrix CsrMatrix::vstack(const CsrMatrix& top, const CsrMatrix& bottom) {
  NBWP_REQUIRE(top.cols_ == bottom.cols_, "vstack column mismatch");
  CsrMatrix m(top.rows_ + bottom.rows_, top.cols_);
  m.col_idx_ = top.col_idx_;
  m.col_idx_.insert(m.col_idx_.end(), bottom.col_idx_.begin(),
                    bottom.col_idx_.end());
  m.values_ = top.values_;
  m.values_.insert(m.values_.end(), bottom.values_.begin(),
                   bottom.values_.end());
  for (Index r = 0; r < top.rows_; ++r) m.row_ptr_[r + 1] = top.row_ptr_[r + 1];
  const uint64_t base = top.row_ptr_.back();
  for (Index r = 0; r < bottom.rows_; ++r)
    m.row_ptr_[top.rows_ + r + 1] = base + bottom.row_ptr_[r + 1];
  return m;
}

double CsrMatrix::max_abs_diff(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_)
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (Index r = 0; r < a.rows_; ++r) {
    const auto ac = a.row_cols(r), bc = b.row_cols(r);
    const auto av = a.row_vals(r), bv = b.row_vals(r);
    size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        worst = std::max(worst, std::abs(av[i]));
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        worst = std::max(worst, std::abs(bv[j]));
        ++j;
      } else {
        worst = std::max(worst, std::abs(av[i] - bv[j]));
        ++i;
        ++j;
      }
    }
  }
  return worst;
}

CsrBuilder::CsrBuilder(Index rows, Index cols) : m_(rows, cols) {}

void CsrBuilder::append_row(std::span<const Index> cols,
                            std::span<const double> vals) {
  NBWP_REQUIRE(next_row_ < m_.rows_, "too many rows appended");
  NBWP_REQUIRE(cols.size() == vals.size(), "cols/vals size mismatch");
  scratch_.clear();
  for (size_t i = 0; i < cols.size(); ++i)
    scratch_.emplace_back(cols[i], vals[i]);
  std::sort(scratch_.begin(), scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [c, v] : scratch_) {
    NBWP_REQUIRE(c < m_.cols_, "column out of range");
    m_.col_idx_.push_back(c);
    m_.values_.push_back(v);
  }
  ++next_row_;
  m_.row_ptr_[next_row_] = m_.col_idx_.size();
}

void CsrBuilder::append_sorted_row(std::span<const Index> cols,
                                   std::span<const double> vals) {
  NBWP_REQUIRE(next_row_ < m_.rows_, "too many rows appended");
  NBWP_REQUIRE(cols.size() == vals.size(), "cols/vals size mismatch");
  for (size_t i = 0; i < cols.size(); ++i) {
    NBWP_REQUIRE(cols[i] < m_.cols_, "column out of range");
    NBWP_REQUIRE(i == 0 || cols[i - 1] < cols[i],
                 "append_sorted_row: columns must be strictly increasing");
  }
  m_.col_idx_.insert(m_.col_idx_.end(), cols.begin(), cols.end());
  m_.values_.insert(m_.values_.end(), vals.begin(), vals.end());
  ++next_row_;
  m_.row_ptr_[next_row_] = m_.col_idx_.size();
}

CsrMatrix CsrBuilder::finish() {
  NBWP_REQUIRE(next_row_ == m_.rows_, "not all rows appended");
  return std::move(m_);
}

}  // namespace nbwp::sparse
