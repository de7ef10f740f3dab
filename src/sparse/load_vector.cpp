#include "sparse/load_vector.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nbwp::sparse {

namespace {

/// floor(total * p / parts) for p <= parts, exact for any 64-bit total:
/// the product needs 128 bits.  `unsigned __int128` is a GCC/Clang
/// extension, not ISO C++; `__extension__` marks this one use as
/// deliberate, so -Wpedantic stays quiet about it and about nothing else.
uint64_t share_of(uint64_t total, unsigned p, unsigned parts) {
  __extension__ typedef unsigned __int128 Wide;
  return static_cast<uint64_t>(static_cast<Wide>(total) * p / parts);
}

}  // namespace

std::vector<uint64_t> row_nnz_vector(const CsrMatrix& b) {
  std::vector<uint64_t> v(b.rows());
  for (Index r = 0; r < b.rows(); ++r) v[r] = b.row_nnz(r);
  return v;
}

std::vector<uint64_t> load_vector(const CsrMatrix& a,
                                  std::span<const uint64_t> v_b) {
  NBWP_REQUIRE(v_b.size() == a.cols(), "V_B size must equal cols(A)");
  std::vector<uint64_t> load(a.rows(), 0);
  for (Index r = 0; r < a.rows(); ++r) {
    uint64_t w = 0;
    for (Index k : a.row_cols(r)) w += v_b[k];
    load[r] = w;
  }
  return load;
}

std::vector<uint64_t> load_vector_masked(const CsrMatrix& a,
                                         std::span<const uint64_t> v_b,
                                         std::span<const uint8_t> b_row_mask,
                                         uint8_t keep) {
  NBWP_REQUIRE(v_b.size() == a.cols(), "V_B size must equal cols(A)");
  NBWP_REQUIRE(b_row_mask.size() == v_b.size(),
               "mask size must equal cols(A)");
  std::vector<uint64_t> load(a.rows(), 0);
  for (Index r = 0; r < a.rows(); ++r) {
    uint64_t w = 0;
    for (Index k : a.row_cols(r))
      if (b_row_mask[k] == keep) w += v_b[k];
    load[r] = w;
  }
  return load;
}

std::vector<uint64_t> prefix_sums(std::span<const uint64_t> loads) {
  std::vector<uint64_t> out(loads.size() + 1, 0);
  for (size_t i = 0; i < loads.size(); ++i) out[i + 1] = out[i] + loads[i];
  return out;
}

Index split_row_for_load(std::span<const uint64_t> load_prefix,
                         uint64_t target) {
  NBWP_REQUIRE(!load_prefix.empty(), "empty load prefix");
  // First prefix >= target, then pick the closer of it and its predecessor.
  const auto it =
      std::lower_bound(load_prefix.begin(), load_prefix.end(), target);
  if (it == load_prefix.end()) {
    return static_cast<Index>(load_prefix.size() - 1);
  }
  auto idx = static_cast<size_t>(it - load_prefix.begin());
  if (idx > 0) {
    const uint64_t over = *it - target;
    const uint64_t under = target - load_prefix[idx - 1];
    if (under <= over) --idx;
  }
  return static_cast<Index>(idx);
}

Index split_row_for_share(std::span<const uint64_t> load_prefix,
                          double cpu_share_pct) {
  const uint64_t total = load_prefix.back();
  const auto target =
      static_cast<uint64_t>(cpu_share_pct / 100.0 * static_cast<double>(total));
  return split_row_for_load(load_prefix, target);
}

std::vector<Index> balanced_boundaries(std::span<const uint64_t> load_prefix,
                                       unsigned parts) {
  NBWP_REQUIRE(!load_prefix.empty(), "empty load prefix");
  return balanced_boundaries(
      load_prefix, 0, static_cast<Index>(load_prefix.size() - 1), parts);
}

std::vector<Index> balanced_boundaries(std::span<const uint64_t> load_prefix,
                                       Index first, Index last,
                                       unsigned parts) {
  NBWP_REQUIRE(first <= last && last < load_prefix.size(),
               "row range out of bounds");
  NBWP_REQUIRE(parts >= 1, "need at least one part");
  // The range's own prefix: absolute values, so targets are offset by
  // the load before `first` and indices by `first`.
  const auto range = load_prefix.subspan(first, last - first + 1);
  const uint64_t base = range.front();
  const uint64_t total = range.back() - base;
  std::vector<Index> bounds(parts + 1, first);
  bounds[parts] = last;
  for (unsigned p = 1; p < parts; ++p) {
    Index b;
    if (total == 0) {
      b = first + static_cast<Index>(static_cast<uint64_t>(last - first) *
                                     p / parts);
    } else {
      const auto target = base + share_of(total, p, parts);
      b = first + split_row_for_load(range, target);
    }
    bounds[p] = std::max(b, bounds[p - 1]);
  }
  return bounds;
}

}  // namespace nbwp::sparse
