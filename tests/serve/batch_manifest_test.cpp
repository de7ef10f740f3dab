// Batch-manifest parsing: every defect kind is typed and pinned to its
// line, defective lines never abort the rest of the manifest, and the
// formatted diagnostics carry path:line so a thousand-line production
// manifest stays debuggable.
#include "serve/batch_manifest.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <set>
#include <sstream>
#include <vector>

#include "core/workloads.hpp"
#include "util/rng.hpp"

namespace nbwp::serve {
namespace {

BatchManifest parse(const std::string& text) {
  std::istringstream in(text);
  return parse_batch_manifest_stream(in);
}

TEST(BatchManifest, ParsesValidLinesWithDefaults) {
  const BatchManifest m = parse(
      "workload=cc dataset=mesh\n"
      "workload=spmm dataset=uniform scale=0.5 seed=9 repeat=3\n"
      "# a comment line\n"
      "\n"
      "workload=hh dataset=web # trailing comment\n");
  EXPECT_TRUE(m.ok());
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_EQ(m.entries[0].workload, "cc");
  EXPECT_EQ(m.entries[0].dataset, "mesh");
  EXPECT_EQ(m.entries[0].scale, 0.0);
  EXPECT_EQ(m.entries[0].seed, 1u);
  EXPECT_EQ(m.entries[0].repeat, 1);
  EXPECT_EQ(m.entries[0].line, 1);
  EXPECT_EQ(m.entries[1].scale, 0.5);
  EXPECT_EQ(m.entries[1].seed, 9u);
  EXPECT_EQ(m.entries[1].repeat, 3);
  EXPECT_EQ(m.entries[2].workload, "hh");
  EXPECT_EQ(m.entries[2].line, 5);
}

TEST(BatchManifest, MalformedTokenIsTypedAndOnlyThatLineIsDropped) {
  const BatchManifest m = parse(
      "workload=cc dataset=mesh bogus\n"
      "workload=spmv dataset=banded\n");
  EXPECT_FALSE(m.ok());
  ASSERT_EQ(m.entries.size(), 1u);
  EXPECT_EQ(m.entries[0].workload, "spmv");
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kMalformedToken);
  EXPECT_EQ(m.errors[0].line, 1);
  EXPECT_NE(m.errors[0].message.find("bogus"), std::string::npos);
}

TEST(BatchManifest, UnknownKeyDoesNotSilentlyPlanDefaults) {
  const BatchManifest m = parse("workload=cc dataset=mesh sale=0.5\n");
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.entries.empty());
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kUnknownKey);
  EXPECT_NE(m.errors[0].message.find("sale"), std::string::npos);
}

TEST(BatchManifest, BadValuesAreTypedPerLine) {
  const BatchManifest m = parse(
      "workload=gemm dataset=mesh\n"
      "workload=cc dataset=mesh scale=-1\n"
      "workload=cc dataset=mesh seed=abc\n"
      "workload=cc dataset=mesh repeat=0\n"
      "workload=cc dataset=\n");
  EXPECT_TRUE(m.entries.empty());
  ASSERT_EQ(m.errors.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(m.errors[i].kind, ManifestErrorKind::kBadValue) << i;
    EXPECT_EQ(m.errors[i].line, i + 1) << i;
  }
}

TEST(BatchManifest, MissingRequiredFieldsRejected) {
  const BatchManifest m = parse(
      "workload=cc scale=1\n"
      "dataset=mesh\n");
  EXPECT_TRUE(m.entries.empty());
  ASSERT_EQ(m.errors.size(), 2u);
  EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kMissingField);
  EXPECT_EQ(m.errors[1].kind, ManifestErrorKind::kMissingField);
}

TEST(BatchManifest, ExactDuplicatesAreFlaggedRepeatIsNot) {
  const BatchManifest m = parse(
      "workload=cc dataset=mesh scale=1 seed=4\n"
      "workload=cc dataset=mesh scale=1 seed=4\n"
      "workload=cc dataset=mesh scale=1 seed=5\n"
      "workload=cc dataset=other scale=1 seed=4 repeat=8\n");
  EXPECT_FALSE(m.ok());
  ASSERT_EQ(m.entries.size(), 3u);  // the duplicate is dropped
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kDuplicate);
  EXPECT_EQ(m.errors[0].line, 2);
  EXPECT_NE(m.errors[0].message.find("duplicates line 1"),
            std::string::npos)
      << m.errors[0].message;
  EXPECT_NE(m.errors[0].message.find("repeat="), std::string::npos);
}

TEST(BatchManifest, EmptyManifestIsItsOwnDefect) {
  for (const char* text : {"", "# only comments\n\n", "   \n"}) {
    const BatchManifest m = parse(text);
    EXPECT_TRUE(m.entries.empty()) << text;
    ASSERT_EQ(m.errors.size(), 1u) << text;
    EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kEmpty);
    EXPECT_EQ(m.errors[0].line, 0);
  }
  // A manifest whose every line is defective is not "empty": the real
  // defects are reported instead.
  const BatchManifest defective = parse("workload=cc\n");
  ASSERT_EQ(defective.errors.size(), 1u);
  EXPECT_EQ(defective.errors[0].kind, ManifestErrorKind::kMissingField);
}

TEST(BatchManifest, UnreadableFileIsAnIoError) {
  const BatchManifest m =
      parse_batch_manifest("/nonexistent/nbwp-batch.manifest");
  EXPECT_TRUE(m.entries.empty());
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].kind, ManifestErrorKind::kIo);
}

TEST(BatchManifest, FormatPinsPathAndLine) {
  ManifestError lined{3, ManifestErrorKind::kBadValue, "scale= wants..."};
  EXPECT_EQ(lined.format("m.txt"), "m.txt:3: [bad-value] scale= wants...");
  ManifestError filewide{0, ManifestErrorKind::kEmpty, "no request lines"};
  EXPECT_EQ(filewide.format("m.txt"), "m.txt: [empty] no request lines");
  EXPECT_STREQ(manifest_error_kind_name(ManifestErrorKind::kDuplicate),
               "duplicate");
  EXPECT_STREQ(manifest_error_kind_name(ManifestErrorKind::kIo), "io");
}

/// Valid manifests: a few request lines each, with optional fields,
/// comments and blank lines, from a fixed seed.
std::vector<std::string> manifest_corpus(uint64_t seed, int count) {
  static const char* kDatasets[] = {"pwtk", "cant", "web-BerkStan", "rma10"};
  Rng rng(seed);
  std::vector<std::string> corpus;
  for (int m = 0; m < count; ++m) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_range(1, 6));
    for (int l = 0; l < lines; ++l) {
      if (rng.bernoulli(0.15)) text += "# planned nightly\n";
      if (rng.bernoulli(0.1)) text += "\n";
      text += "workload=";
      text += core::workload_name(core::kWorkloads[rng.uniform(4)]);
      text += " dataset=";
      text += kDatasets[rng.uniform(4)];
      text += " seed=" + std::to_string(l + 1);
      if (rng.bernoulli(0.5)) text += " scale=0.05";
      if (rng.bernoulli(0.3)) text += " repeat=2";
      if (rng.bernoulli(0.2)) text += " # trailing";
      text += "\n";
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

/// Seeded byte edits (flip, insert, delete, truncate) and token edits
/// (replace a whitespace-delimited token with a hostile one).
std::string mutate(std::string text, Rng& rng) {
  static const char kAlphabet[] = "=# \t\r\nccspmvh.0123456789-e+x";
  static const char* kTokens[] = {
      "workload=",     "workload=spm", "workload=CC", "workload=cc=",
      "workload=gemm", "dataset=",     "scale=-1",    "scale=nan",
      "seed=1.5",      "seed=-3",      "repeat=0",    "repeat=1e99",
      "=cc",           "workload",     "#",           "bogus=1",
      "workload=hh",   "dataset=cant"};
  const int edits = static_cast<int>(rng.uniform_range(1, 4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = rng.uniform(text.size());
    const char byte = rng.bernoulli(0.7)
                          ? kAlphabet[rng.uniform(sizeof kAlphabet - 1)]
                          : static_cast<char>(rng.uniform(256));
    switch (rng.uniform(5)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1 + rng.uniform(3), byte);
        break;
      case 2:
        text.erase(at, 1 + rng.uniform(8));
        break;
      case 3:
        text.resize(at);
        break;
      default: {
        // Token swap: replace the token containing `at`.
        size_t begin = at, end = at;
        while (begin > 0 && !std::isspace(static_cast<unsigned char>(
                                text[begin - 1])))
          --begin;
        while (end < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[end])))
          ++end;
        text.replace(begin, end - begin,
                     kTokens[rng.uniform(std::size(kTokens))]);
        break;
      }
    }
  }
  return text;
}

TEST(ManifestFuzz, MutatedManifestsNeverThrow) {
  Rng rng(1515);
  int entries = 0, errors = 0;
  for (const std::string& valid : manifest_corpus(77, 150)) {
    for (int round = 0; round < 20; ++round) {
      const std::string text = mutate(valid, rng);
      BatchManifest m;
      try {
        m = parse(text);
      } catch (const std::exception& ex) {
        FAIL() << "parser threw " << ex.what() << " on:\n" << text;
      } catch (...) {
        FAIL() << "parser threw a non-standard exception on:\n" << text;
      }
      std::set<int> accounted;
      for (const BatchEntry& entry : m.entries) {
        accounted.insert(entry.line);
        EXPECT_NO_THROW(core::parse_workload(entry.workload))
            << "entry on line " << entry.line << " has workload '"
            << entry.workload << "' in:\n" << text;
      }
      for (const ManifestError& error : m.errors) accounted.insert(error.line);
      std::istringstream lines(text);
      std::string line;
      int lineno = 0;
      while (std::getline(lines, line)) {
        ++lineno;
        std::istringstream tokens(line);
        std::string first;
        if (!(tokens >> first) || first[0] == '#') continue;
        EXPECT_TRUE(accounted.count(lineno))
            << "line " << lineno << " yielded neither entry nor error:\n"
            << text;
      }
      entries += static_cast<int>(m.entries.size());
      errors += static_cast<int>(m.errors.size());
      if (HasFailure()) return;
    }
  }
  // The mutations must exercise both outcomes, not just one.
  EXPECT_GT(entries, 1000);
  EXPECT_GT(errors, 1000);
}

}  // namespace
}  // namespace nbwp::serve
