#include "util/mmio.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string_view>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace nbwp {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return out;
}

/// The separators operator>> skips in the "C" locale, less '\n' (lines are
/// split first).
bool is_blank(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
}

/// Splits one line into whitespace-separated tokens; an exhausted line
/// yields empty tokens.
class Tokens {
 public:
  explicit Tokens(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  std::string_view next() {
    skip_blanks();
    const char* start = p_;
    while (p_ != end_ && !is_blank(*p_)) ++p_;
    return {start, static_cast<size_t>(p_ - start)};
  }

  bool done() {
    skip_blanks();
    return p_ == end_;
  }

 private:
  void skip_blanks() {
    while (p_ != end_ && is_blank(*p_)) ++p_;
  }
  const char* p_;
  const char* end_;
};

/// A count or 1-based index: decimal digits with an optional leading '+'.
bool parse_count(std::string_view tok, uint64_t& out) {
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// A decimal floating-point value as operator>> reads it: an optional
/// leading '+' is allowed, and a value that underflows is taken as strtod
/// rounds it (0 or a subnormal) rather than rejected.  Overflow fails, and
/// "inf"/"nan" parse here and are left to the caller's finiteness check.
bool parse_value(std::string_view tok, double& out) {
  if (tok.size() > 1 && tok.front() == '+' && tok[1] != '-')
    tok.remove_prefix(1);
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, out);
  if (ptr != last) return false;
  if (ec == std::errc::result_out_of_range) {
    const std::string copy(tok);
    out = std::strtod(copy.c_str(), nullptr);
    return std::fabs(out) != HUGE_VAL;
  }
  return ec == std::errc{};
}

/// Splits a stream into lines through one bounded block buffer: a partial
/// line at the end of a block is carried to the front of the next.  The
/// buffer grows only when a single line is longer than a block, so memory
/// stays bounded by the longest line rather than the file.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kBlockBytes) {}

  /// The next line without its '\n' (the last line needs none), or false
  /// at the end of the stream.  The view lives until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const char* base = buf_.data();
      if (const void* nl = std::memchr(base + begin_, '\n', end_ - begin_)) {
        const size_t at = static_cast<size_t>(static_cast<const char*>(nl) -
                                              base);
        line = {base + begin_, at - begin_};
        begin_ = at + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = {base + begin_, end_ - begin_};
        begin_ = end_;
        return true;
      }
      refill();
    }
  }

 private:
  static constexpr size_t kBlockBytes = size_t{1} << 20;

  void refill() {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    const auto got = static_cast<size_t>(in_.gcount());
    end_ += got;
    eof_ = got == 0;
  }

  std::istream& in_;
  std::vector<char> buf_;
  size_t begin_ = 0, end_ = 0;
  bool eof_ = false;
};

/// Bytes between the stream's position and its end, or 0 when the stream
/// cannot seek.  The stream is left where it was.
uint64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(here);
  return end == std::streampos(-1) || end < here
             ? 0
             : static_cast<uint64_t>(end - here);
}

}  // namespace

void TripletMatrix::coalesce_duplicates() {
  duplicates_coalesced = 0;
  bool increasing = true;
  for (size_t i = 1; i < entries.size() && increasing; ++i) {
    const Entry& x = entries[i - 1];
    const Entry& y = entries[i];
    increasing = x.r != y.r ? x.r < y.r : x.c < y.c;
  }
  if (increasing) return;  // strictly increasing: no coordinate repeats

  // Group equal coordinates through an index permutation so surviving
  // entries keep their first-occurrence positions.
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Entry& x = entries[a];
    const Entry& y = entries[b];
    if (x.r != y.r) return x.r < y.r;
    if (x.c != y.c) return x.c < y.c;
    return a < b;
  });
  std::vector<char> drop(entries.size(), 0);
  size_t group = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const Entry& first = entries[order[group]];
    const Entry& cur = entries[order[i]];
    if (cur.r == first.r && cur.c == first.c) {
      entries[order[group]].v += cur.v;
      drop[order[i]] = 1;
      ++duplicates_coalesced;
    } else {
      group = i;
    }
  }
  if (duplicates_coalesced == 0) return;
  size_t out = 0;
  for (size_t i = 0; i < entries.size(); ++i)
    if (!drop[i]) entries[out++] = entries[i];
  entries.resize(out);
}

void TripletMatrix::expand_symmetry() {
  if (!symmetric) return;
  const size_t original = entries.size();
  for (size_t i = 0; i < original; ++i) {
    const Entry e = entries[i];
    if (e.r != e.c) entries.push_back({e.c, e.r, e.v});
  }
  symmetric = false;
}

TripletMatrix read_matrix_market(std::istream& in) {
  const uint64_t stream_bytes = bytes_left(in);
  LineReader reader(in);
  std::string_view line;
  NBWP_REQUIRE(reader.next(line), "empty Matrix Market stream");
  Tokens header(line);
  const std::string_view banner = header.next();
  const std::string object = lower(header.next());
  const std::string format = lower(header.next());
  const std::string field = lower(header.next());
  const std::string symmetry = lower(header.next());
  NBWP_REQUIRE(banner == "%%MatrixMarket", "missing %%MatrixMarket banner");
  NBWP_REQUIRE(object == "matrix", "only matrix objects supported");
  NBWP_REQUIRE(format == "coordinate", "only coordinate format supported");
  NBWP_REQUIRE(field == "real" || field == "integer" || field == "pattern",
               "unsupported field type: " + field);
  NBWP_REQUIRE(symmetry == "general" || symmetry == "symmetric",
               "unsupported symmetry: " + symmetry);

  TripletMatrix m;
  m.pattern = field == "pattern";
  m.symmetric = symmetry == "symmetric";

  // Messages name the offending line.
  const auto at = [&line](const char* what) {
    return std::string(what) + ": '" + std::string(line) + "'";
  };

  // Skip comments, read the size line.
  std::string_view size_line;
  while (reader.next(line)) {
    if (!line.empty() && line[0] != '%') {
      size_line = line;
      break;
    }
  }
  line = size_line;
  uint64_t nnz = 0;
  {
    Tokens sizes(line);
    NBWP_REQUIRE(parse_count(sizes.next(), m.rows) &&
                     parse_count(sizes.next(), m.cols) &&
                     parse_count(sizes.next(), nnz),
                 at("malformed size line"));
    NBWP_REQUIRE(sizes.done(), at("trailing garbage on size line"));
  }
  // An entry line takes at least four bytes ("r c\n"), so a size line that
  // promises more entries than the stream can hold reserves no more than
  // the stream could fill.
  m.entries.reserve(static_cast<size_t>(std::min(nnz, stream_bytes / 4 + 1)));
  for (uint64_t i = 0; i < nnz; ++i) {
    NBWP_REQUIRE(reader.next(line),
                 strfmt("unexpected end of entries: file promised %llu, "
                        "found %llu",
                        static_cast<unsigned long long>(nnz),
                        static_cast<unsigned long long>(i)));
    Tokens entry(line);
    uint64_t r = 0, c = 0;
    double v = 1.0;
    NBWP_REQUIRE(parse_count(entry.next(), r) && parse_count(entry.next(), c),
                 at("truncated or malformed entry line"));
    if (!m.pattern) {
      NBWP_REQUIRE(parse_value(entry.next(), v),
                   at("missing or malformed entry value"));
      NBWP_REQUIRE(std::isfinite(v), at("non-finite entry value"));
    }
    NBWP_REQUIRE(entry.done(), at("trailing garbage on entry line"));
    NBWP_REQUIRE(r >= 1 && c >= 1,
                 at("zero entry index (Matrix Market indices are 1-based)"));
    NBWP_REQUIRE(r <= m.rows && c <= m.cols, at("entry index out of bounds"));
    m.entries.push_back({r - 1, c - 1, v});
  }
  m.coalesce_duplicates();
  return m;
}

TripletMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  NBWP_REQUIRE(f.good(), "cannot open Matrix Market file " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const TripletMatrix& m) {
  out << "%%MatrixMarket matrix coordinate "
      << (m.pattern ? "pattern" : "real") << ' '
      << (m.symmetric ? "symmetric" : "general") << '\n';
  out << m.rows << ' ' << m.cols << ' ' << m.entries.size() << '\n';
  // Two 20-digit indices, the shortest round-trip form of a double (at
  // most 24 characters) and three separators.
  char buf[80];
  for (const auto& e : m.entries) {
    char* p = buf;
    const auto put = [&](auto x, char sep) {
      p = std::to_chars(p, buf + sizeof(buf) - 1, x).ptr;
      *p++ = sep;
    };
    put(e.r + 1, ' ');
    put(e.c + 1, m.pattern ? '\n' : ' ');
    if (!m.pattern) put(e.v, '\n');
    out.write(buf, p - buf);
  }
}

void write_matrix_market_file(const std::string& path,
                              const TripletMatrix& m) {
  std::ofstream f(path);
  NBWP_REQUIRE(f.good(), "cannot open output file " + path);
  write_matrix_market(f, m);
}

}  // namespace nbwp
