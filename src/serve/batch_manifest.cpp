#include "serve/batch_manifest.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/workloads.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace nbwp::serve {

namespace {

bool parse_real(const std::string& value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& value, uint64_t* out) {
  double v = 0;
  if (!parse_real(value, &v) || v < 0 || v != std::floor(v)) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool same_request(const BatchEntry& a, const BatchEntry& b) {
  return a.workload == b.workload && a.dataset == b.dataset &&
         a.scale == b.scale && a.seed == b.seed;
}

}  // namespace

const char* manifest_error_kind_name(ManifestErrorKind kind) {
  switch (kind) {
    case ManifestErrorKind::kIo:
      return "io";
    case ManifestErrorKind::kMalformedToken:
      return "malformed-token";
    case ManifestErrorKind::kUnknownKey:
      return "unknown-key";
    case ManifestErrorKind::kBadValue:
      return "bad-value";
    case ManifestErrorKind::kMissingField:
      return "missing-field";
    case ManifestErrorKind::kDuplicate:
      return "duplicate";
    case ManifestErrorKind::kEmpty:
      return "empty";
  }
  return "unknown";
}

std::string ManifestError::format(const std::string& path) const {
  if (line <= 0)
    return strfmt("%s: [%s] %s", path.c_str(),
                  manifest_error_kind_name(kind), message.c_str());
  return strfmt("%s:%d: [%s] %s", path.c_str(), line,
                manifest_error_kind_name(kind), message.c_str());
}

BatchManifest parse_batch_manifest_stream(std::istream& in) {
  BatchManifest manifest;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string token;
    BatchEntry entry;
    entry.line = lineno;
    bool any = false;
    bool line_ok = true;
    auto defect = [&](ManifestErrorKind kind, std::string message) {
      manifest.errors.push_back({lineno, kind, std::move(message)});
      line_ok = false;
    };
    while (tokens >> token) {
      if (token[0] == '#') break;
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        defect(ManifestErrorKind::kMalformedToken,
               "expected key=value, got '" + token + "'");
        any = true;
        continue;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "workload") {
        try {
          core::parse_workload(value);
          entry.workload = value;
        } catch (const Error& e) {
          defect(ManifestErrorKind::kBadValue, e.what());
        }
      } else if (key == "dataset") {
        if (value.empty())
          defect(ManifestErrorKind::kBadValue, "dataset= wants a name");
        else
          entry.dataset = value;
      } else if (key == "scale") {
        if (!parse_real(value, &entry.scale) || entry.scale < 0)
          defect(ManifestErrorKind::kBadValue,
                 "scale= wants a number >= 0, got '" + value + "'");
      } else if (key == "seed") {
        if (!parse_u64(value, &entry.seed))
          defect(ManifestErrorKind::kBadValue,
                 "seed= wants a non-negative integer, got '" + value + "'");
      } else if (key == "repeat") {
        uint64_t r = 0;
        if (!parse_u64(value, &r) || r < 1)
          defect(ManifestErrorKind::kBadValue,
                 "repeat= wants an integer >= 1, got '" + value + "'");
        else
          entry.repeat = static_cast<int>(r);
      } else {
        defect(ManifestErrorKind::kUnknownKey, "unknown key '" + key + "'");
      }
      any = true;
    }
    if (!any) continue;  // blank or pure-comment line
    if (!line_ok) continue;
    if (entry.workload.empty() || entry.dataset.empty()) {
      manifest.errors.push_back({lineno, ManifestErrorKind::kMissingField,
                                 "workload= and dataset= are required"});
      continue;
    }
    bool duplicate = false;
    for (const BatchEntry& earlier : manifest.entries) {
      if (same_request(earlier, entry)) {
        manifest.errors.push_back(
            {lineno, ManifestErrorKind::kDuplicate,
             strfmt("duplicates line %d (%s on %s, scale=%g seed=%llu); "
                    "use repeat= for intentional repetition",
                    earlier.line, entry.workload.c_str(),
                    entry.dataset.c_str(), entry.scale,
                    static_cast<unsigned long long>(entry.seed))});
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    manifest.entries.push_back(std::move(entry));
  }
  if (manifest.entries.empty() && manifest.errors.empty())
    manifest.errors.push_back(
        {0, ManifestErrorKind::kEmpty, "manifest has no request lines"});
  return manifest;
}

BatchManifest parse_batch_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    BatchManifest manifest;
    manifest.errors.push_back({0, ManifestErrorKind::kIo,
                               "cannot open batch manifest '" + path + "'"});
    return manifest;
  }
  return parse_batch_manifest_stream(in);
}

}  // namespace nbwp::serve
