// Differential and mutation tests of the Matrix Market reader.
//
// The oracle below is a frozen copy of the original istream-based reader
// (getline + istringstream >> per entry line, index-sort coalesce).  The
// block-buffered from_chars reader must make the same accept/reject
// decision on every generated file and, on accepted files, return
// bitwise-equal entries and the same duplicate count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/mmio.hpp"
#include "util/rng.hpp"

namespace nbwp {
namespace {

// --- frozen oracle ----------------------------------------------------------

std::string legacy_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return s;
}

void legacy_coalesce(TripletMatrix& m) {
  auto& entries = m.entries;
  m.duplicates_coalesced = 0;
  if (entries.size() < 2) return;
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& x = entries[a];
    const auto& y = entries[b];
    if (x.r != y.r) return x.r < y.r;
    if (x.c != y.c) return x.c < y.c;
    return a < b;
  });
  std::vector<char> drop(entries.size(), 0);
  size_t group = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const auto& first = entries[order[group]];
    const auto& cur = entries[order[i]];
    if (cur.r == first.r && cur.c == first.c) {
      entries[order[group]].v += cur.v;
      drop[order[i]] = 1;
      ++m.duplicates_coalesced;
    } else {
      group = i;
    }
  }
  if (m.duplicates_coalesced == 0) return;
  size_t out = 0;
  for (size_t i = 0; i < entries.size(); ++i)
    if (!drop[i]) entries[out++] = entries[i];
  entries.resize(out);
}

/// Returns false where the original reader threw.
bool legacy_read(const std::string& text, TripletMatrix& m) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return false;
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || legacy_lower(object) != "matrix" ||
      legacy_lower(format) != "coordinate")
    return false;
  field = legacy_lower(field);
  symmetry = legacy_lower(symmetry);
  if (field != "real" && field != "integer" && field != "pattern")
    return false;
  if (symmetry != "general" && symmetry != "symmetric") return false;
  m = TripletMatrix{};
  m.pattern = field == "pattern";
  m.symmetric = symmetry == "symmetric";
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '%') break;
  uint64_t nnz = 0;
  {
    std::istringstream sizes(line);
    if (!(sizes >> m.rows >> m.cols >> nnz)) return false;
    std::string extra;
    if (sizes >> extra) return false;
  }
  for (uint64_t i = 0; i < nnz; ++i) {
    if (!std::getline(in, line)) return false;
    std::istringstream entry(line);
    uint64_t r = 0, c = 0;
    double v = 1.0;
    if (!(entry >> r >> c)) return false;
    if (!m.pattern && (!(entry >> v) || !std::isfinite(v))) return false;
    std::string extra;
    if (entry >> extra) return false;
    if (r < 1 || c < 1 || r > m.rows || c > m.cols) return false;
    m.entries.push_back({r - 1, c - 1, v});
  }
  legacy_coalesce(m);
  return true;
}

bool current_read(const std::string& text, TripletMatrix& m) {
  std::istringstream in(text);
  try {
    m = read_matrix_market(in);
    return true;
  } catch (const Error&) {
    return false;
  }
}

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// --- seeded corpus ----------------------------------------------------------

/// A double at 1-17 significant digits and magnitude 1e-20..1e20, in
/// scientific, fixed or shortest-%g spelling.
std::string random_double(Rng& rng) {
  const int digits = static_cast<int>(rng.uniform_range(1, 17));
  const double x = (rng.bernoulli(0.5) ? -1.0 : 1.0) *
                   std::pow(10.0, rng.uniform_real(-20.0, 20.0));
  char buf[128];
  switch (rng.uniform(3)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.*e", digits - 1, x);
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%.*g", digits, x);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%.*f", digits, x);
      break;
  }
  return buf;
}

/// Value spellings where from_chars and operator>> could disagree.
std::string edge_value(Rng& rng) {
  static const char* const kForms[] = {
      ".5",     "1.",     "+1.5",     "+.5",     "-.5",    "+0",
      "-0",     "1e-310", "-1e-310",  "1e-400",  "-1e-400", "1e400",
      "-1e400", "inf",    "-inf",     "nan",     "+inf",   "1E5",
      "1e+5",   "+1e-5",  "0001.25",  "4.9e-324", "2.4703282292062327e-324",
      "1e",     "1.5.3",  "0x10",     "+-1",     "++1",    "--1",
      ".",      "+",      "-",        "1e5x",    "abc"};
  return kForms[rng.uniform(std::size(kForms))];
}

std::string index_token(Rng& rng, uint64_t value) {
  switch (rng.uniform(12)) {
    case 0:
      return "+" + std::to_string(value);
    case 1:
      return "00" + std::to_string(value);
    case 2:
      return "-1";
    case 3:
      return "0";
    default:
      return std::to_string(value);
  }
}

std::string separator(Rng& rng) {
  switch (rng.uniform(6)) {
    case 0:
      return "\t";
    case 1:
      return "  ";
    case 2:
      return " \t ";
    default:
      return " ";
  }
}

/// One Matrix Market file.  `valid_only` keeps every token well formed (the
/// seed corpus of the mutation fuzz); otherwise a few tokens are replaced
/// by edge spellings and some lines by broken ones.
std::string random_file(Rng& rng, bool valid_only) {
  static const char* const kFields[] = {"real", "integer", "pattern", "Real"};
  static const char* const kSymmetry[] = {"general", "symmetric", "General"};
  const std::string field = kFields[rng.uniform(std::size(kFields))];
  const bool pattern = field == "pattern";
  const bool crlf = rng.bernoulli(0.25);
  const std::string eol = crlf ? "\r\n" : "\n";
  // Row indices near 2^40 exercise coordinates wider than 32 bits.
  const bool huge = rng.bernoulli(0.15);
  const uint64_t rows = huge ? (uint64_t{1} << 40) + rng.uniform(1000)
                             : 1 + rng.uniform(40);
  const uint64_t cols = 1 + rng.uniform(40);
  const uint64_t nnz = rng.uniform(60);
  // A small coordinate pool makes duplicates common.
  const uint64_t pool = 1 + rng.uniform(nnz + 1);
  std::vector<std::pair<uint64_t, uint64_t>> coords(pool);
  for (auto& [r, c] : coords) {
    r = huge ? rows - rng.uniform(50) : 1 + rng.uniform(rows);
    c = 1 + rng.uniform(cols);
  }

  std::string text = "%%MatrixMarket matrix coordinate " + field + " " +
                     kSymmetry[rng.uniform(std::size(kSymmetry))] + eol;
  if (rng.bernoulli(0.5)) text += "% generated" + eol;
  if (rng.bernoulli(0.2)) text += "\n";  // a blank line is skipped
  const bool plus_sizes = rng.bernoulli(0.1);
  text += (plus_sizes ? "+" : "") + std::to_string(rows) + separator(rng) +
          std::to_string(cols) + separator(rng) + std::to_string(nnz) + eol;
  for (uint64_t i = 0; i < nnz; ++i) {
    const auto [r, c] = coords[rng.uniform(pool)];
    std::string line;
    if (rng.bernoulli(0.1)) line += separator(rng);
    const bool edgy = !valid_only && rng.bernoulli(0.08);
    line += (edgy ? index_token(rng, r) : std::to_string(r)) + separator(rng);
    line += edgy ? index_token(rng, c) : std::to_string(c);
    if (!pattern) {
      line += separator(rng);
      if (field == "integer" && rng.bernoulli(0.7))
        line += std::to_string(static_cast<int64_t>(rng.uniform(2001)) - 1000);
      else if (!valid_only && rng.bernoulli(0.1))
        line += edge_value(rng);
      else
        line += random_double(rng);
    }
    if (rng.bernoulli(0.05)) line += separator(rng);
    if (!valid_only && rng.bernoulli(0.01)) line += " 7";
    text += line;
    if (i + 1 < nnz || rng.bernoulli(0.8)) text += eol;
  }
  return text;
}

std::vector<std::string> corpus(uint64_t seed, int count, bool valid_only) {
  Rng rng(seed);
  std::vector<std::string> files;
  for (int i = 0; i < count; ++i) files.push_back(random_file(rng, valid_only));
  return files;
}

// --- tests ------------------------------------------------------------------

TEST(MmioDifferential, MatchesIstreamReaderOnSeededCorpus) {
  int accepted = 0, rejected = 0;
  uint64_t duplicates = 0;
  for (const std::string& text : corpus(20240611, 1500, false)) {
    TripletMatrix want, got;
    const bool old_ok = legacy_read(text, want);
    const bool new_ok = current_read(text, got);
    ASSERT_EQ(old_ok, new_ok) << "input:\n" << text;
    if (!old_ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    duplicates += want.duplicates_coalesced;
    ASSERT_EQ(got.rows, want.rows);
    ASSERT_EQ(got.cols, want.cols);
    ASSERT_EQ(got.pattern, want.pattern);
    ASSERT_EQ(got.symmetric, want.symmetric);
    ASSERT_EQ(got.duplicates_coalesced, want.duplicates_coalesced)
        << "input:\n" << text;
    ASSERT_EQ(got.entries.size(), want.entries.size()) << "input:\n" << text;
    for (size_t i = 0; i < want.entries.size(); ++i) {
      ASSERT_EQ(got.entries[i].r, want.entries[i].r) << "input:\n" << text;
      ASSERT_EQ(got.entries[i].c, want.entries[i].c) << "input:\n" << text;
      ASSERT_EQ(bits(got.entries[i].v), bits(want.entries[i].v))
          << got.entries[i].v << " vs " << want.entries[i].v << " in\n"
          << text;
    }
  }
  // The corpus must exercise both outcomes and the duplicate path.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
  EXPECT_GT(duplicates, 1000u);
}

TEST(MmioDifferential, AcceptsOperatorShiftSpellings) {
  // Forms operator>> accepts and from_chars alone would not.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "+2 +2 +4\n"
      "+1 1 +1.5\n"
      "1 +2 1e-400\n"
      "2 1 -1e-400\n"
      "2 2 1e-310\n");
  const TripletMatrix m = read_matrix_market(in);
  ASSERT_EQ(m.entries.size(), 4u);
  EXPECT_EQ(m.entries[0].v, 1.5);
  EXPECT_EQ(bits(m.entries[1].v), bits(0.0));
  EXPECT_EQ(bits(m.entries[2].v), bits(-0.0));
  EXPECT_EQ(m.entries[3].v, 1e-310);
}

TEST(MmioDifferential, RejectsNegativeCountsAndIndices) {
  // operator>> wrapped "-1" modulo 2^64; the reader rejects the sign.
  for (const char* text : {
           "%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",
           "%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 1\n",
           "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 -0 1\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(read_matrix_market(in), Error) << text;
  }
}

TEST(MmioDifferential, RejectsNumbersRunTogether) {
  // operator>> split "1 2.5" into column 2 and value .5, "1 2-3" into
  // column 2 and value -3, and "1+2 3" into row 1 and column 2; the reader
  // splits at whitespace and requires each token to be consumed whole.
  for (const char* line : {"1 2.5\n", "1 2-3\n", "1+2 3\n"}) {
    const std::string text =
        std::string("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 1\n") +
        line;
    TripletMatrix legacy;
    EXPECT_TRUE(legacy_read(text, legacy)) << line;
    std::istringstream in(text);
    EXPECT_THROW(read_matrix_market(in), Error) << line;
  }
}

TEST(MmioDifferential, CoalesceMatchesIndexSortOnNearlySortedInput) {
  // Strictly increasing input returns early; one entry out of place
  // anywhere, or one repeat, must still reach the index sort.
  Rng rng(7);
  std::vector<TripletMatrix::Entry> sorted;
  for (uint64_t r = 0; r < 40; ++r)
    for (uint64_t c = 0; c < 40; ++c)
      if (rng.bernoulli(0.3))
        sorted.push_back({r, c, rng.uniform_real(-1.0, 1.0)});
  ASSERT_GT(sorted.size(), 4u);
  const size_t last = sorted.size() - 1;
  std::vector<std::vector<TripletMatrix::Entry>> cases(5, sorted);
  cases[1].push_back({sorted[last].r, sorted[last].c, 0.25});
  cases[2].insert(cases[2].begin(), {sorted[0].r, sorted[0].c, 0.5});
  std::swap(cases[3][last - 1], cases[3][last]);
  cases[4].insert(cases[4].begin() + 3, sorted[3]);
  for (size_t k = 0; k < cases.size(); ++k) {
    TripletMatrix m;
    m.rows = 40;
    m.cols = 40;
    m.entries = cases[k];
    TripletMatrix want = m;
    legacy_coalesce(want);
    m.coalesce_duplicates();
    EXPECT_EQ(m.duplicates_coalesced, want.duplicates_coalesced) << k;
    ASSERT_EQ(m.entries.size(), want.entries.size()) << k;
    for (size_t i = 0; i < m.entries.size(); ++i) {
      EXPECT_EQ(m.entries[i].r, want.entries[i].r) << k;
      EXPECT_EQ(m.entries[i].c, want.entries[i].c) << k;
      EXPECT_EQ(bits(m.entries[i].v), bits(want.entries[i].v)) << k;
    }
  }
}

TEST(MmioDifferential, LinesLongerThanOneBlockAreCarried) {
  // 3 MiB of leading blanks on one entry line spans several read blocks.
  std::string text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n";
  text += std::string(3u << 20, ' ') + "1 2 0.25\n2 1 -4";
  std::istringstream in(text);
  const TripletMatrix m = read_matrix_market(in);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].v, 0.25);
  EXPECT_EQ(m.entries[1].v, -4.0);
}

TEST(MmioFuzz, MutatedFilesReturnOrThrowTypedError) {
  // Byte flips, insertions, deletions and truncations of valid files, with
  // a fixed seed and count.  Anything but nbwp::Error escaping fails.
  static const char kAlphabet[] = "0123456789 \t\r\n+-.eE%x\0";
  Rng rng(99);
  int parsed = 0, thrown = 0;
  for (std::string text : corpus(4242, 200, true)) {
    for (int round = 0; round < 15; ++round) {
      std::string mutated = text;
      const int edits = static_cast<int>(rng.uniform_range(1, 4));
      for (int e = 0; e < edits && !mutated.empty(); ++e) {
        const size_t at = rng.uniform(mutated.size());
        const char byte = rng.bernoulli(0.7)
                              ? kAlphabet[rng.uniform(sizeof kAlphabet)]
                              : static_cast<char>(rng.uniform(256));
        switch (rng.uniform(4)) {
          case 0:
            mutated[at] = byte;
            break;
          case 1:
            mutated.insert(at, 1 + rng.uniform(3), byte);
            break;
          case 2:
            mutated.erase(at, 1 + rng.uniform(8));
            break;
          default:
            mutated.resize(at);
            break;
        }
      }
      std::istringstream in(mutated);
      try {
        (void)read_matrix_market(in);
        ++parsed;
      } catch (const Error&) {
        ++thrown;
      } catch (const std::exception& ex) {
        FAIL() << "untyped exception " << ex.what() << " on:\n" << mutated;
      } catch (...) {
        FAIL() << "non-standard exception on:\n" << mutated;
      }
    }
  }
  EXPECT_GT(parsed, 100);
  EXPECT_GT(thrown, 100);
}

}  // namespace
}  // namespace nbwp
