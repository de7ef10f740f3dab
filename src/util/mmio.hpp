// Matrix Market (MM) coordinate-format I/O.
//
// The paper's datasets come from the University of Florida sparse matrix
// collection, which distributes Matrix Market files.  The offline
// reproduction synthesizes structural analogs (src/datasets), but this
// reader/writer lets users run every experiment on the original files when
// they have them: `--mtx path/to/cant.mtx` in the bench binaries.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nbwp {

/// One coordinate-format matrix: 0-based triplets.
struct TripletMatrix {
  uint64_t rows = 0;
  uint64_t cols = 0;
  bool pattern = false;    ///< true when the file had no values
  bool symmetric = false;  ///< true when only the lower triangle was stored
  struct Entry {
    uint64_t r, c;
    double v;
  };
  std::vector<Entry> entries;
  /// Entries removed by coalesce_duplicates() on the last call (the reader
  /// invokes it, so after read_matrix_market this is the file's duplicate
  /// count).  Callers with a metrics sink should surface it.
  uint64_t duplicates_coalesced = 0;

  /// Expands symmetric storage to full storage (mirrors off-diagonals) and
  /// clears the `symmetric` flag.  Idempotent.
  void expand_symmetry();

  /// Sums entries that share a coordinate (the conventional finite-element
  /// assembly semantics; the MM spec leaves the policy to the consumer).
  /// First-occurrence order is preserved.  Idempotent.
  void coalesce_duplicates();
};

/// Parse a Matrix Market stream (header `%%MatrixMarket matrix coordinate
/// {real,integer,pattern} {general,symmetric}`).  Throws nbwp::Error on
/// malformed input: bad banner, truncated size/entry lines, 1-based
/// indices outside [1, rows] x [1, cols] (including the classic 0-based
/// off-by-one), non-finite values, and trailing garbage on entry lines.
/// Numbers follow the grammar operator>> accepted: an optional leading
/// '+', and a value that underflows reads as 0 or a subnormal; see
/// docs/ROBUSTNESS.md.  Duplicate coordinates are summed (see
/// coalesce_duplicates).
TripletMatrix read_matrix_market(std::istream& in);
TripletMatrix read_matrix_market_file(const std::string& path);

/// Write in coordinate format (general; values included unless `pattern`,
/// each in the shortest form that reads back to the same double).
void write_matrix_market(std::ostream& out, const TripletMatrix& m);
void write_matrix_market_file(const std::string& path,
                              const TripletMatrix& m);

}  // namespace nbwp
