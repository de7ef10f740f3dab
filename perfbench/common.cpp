#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace perfbench {

using nbwp::sparse::CsrMatrix;
using nbwp::sparse::Index;

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void RunResult::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_since(double start_s) { return (now_s() - start_s) * 1e3; }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median_time_s(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0)
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: never pin
  return cpus;
}

void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0)
    throw std::runtime_error("cannot pin the measuring thread to CPU " +
                             std::to_string(cpu));
}

double rss_now_mb() { return status_field_mb("VmRSS:"); }

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

namespace {

uint64_t hash_bytes(const void* data, size_t bytes, uint64_t h) {
  // FNV-1a over 8-byte words (tail bytewise); collisions between two
  // products of one input are not a practical concern.
  const auto* p = static_cast<const unsigned char*>(data);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

}  // namespace

uint64_t hash_pattern(const CsrMatrix& m) {
  uint64_t h = 0xCBF29CE484222325ULL;
  const uint64_t shape[2] = {m.rows(), m.cols()};
  h = hash_bytes(shape, sizeof shape, h);
  h = hash_bytes(m.row_ptr().data(), m.row_ptr().size_bytes(), h);
  return hash_bytes(m.col_idx().data(), m.col_idx().size_bytes(), h);
}

uint64_t hash_matrix(const CsrMatrix& m) {
  return hash_bytes(m.values().data(), m.values().size_bytes(),
                    hash_pattern(m));
}

namespace {

template <typename T>
void put(std::ofstream& out, const T* data, size_t n) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
std::vector<T> get(std::ifstream& in, size_t n) {
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("truncated input file");
  return v;
}

}  // namespace

void write_matrix(const std::string& path, const CsrMatrix& m) {
  std::ofstream out(path, std::ios::binary);
  const uint64_t head[3] = {m.rows(), m.cols(), m.nnz()};
  put(out, head, 3);
  put(out, m.row_ptr().data(), m.row_ptr().size());
  put(out, m.col_idx().data(), m.col_idx().size());
  put(out, m.values().data(), m.values().size());
  if (!out) throw std::runtime_error("cannot write " + path);
}

CsrMatrix read_matrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const auto head = get<uint64_t>(in, 3);
  auto row_ptr = get<uint64_t>(in, head[0] + 1);
  auto col_idx = get<Index>(in, head[2]);
  auto values = get<double>(in, head[2]);
  return CsrMatrix::from_parts(static_cast<Index>(head[0]),
                               static_cast<Index>(head[1]),
                               std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

void write_doubles(const std::string& path, std::span<const double> v) {
  std::ofstream out(path, std::ios::binary);
  const uint64_t n = v.size();
  put(out, &n, 1);
  put(out, v.data(), v.size());
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<double> read_doubles(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const auto n = get<uint64_t>(in, 1);
  return get<double>(in, n[0]);
}

void write_facts(const std::string& path,
                 const std::map<std::string, std::string>& facts) {
  std::ofstream out(path);
  for (const auto& [k, v] : facts) out << k << '=' << v << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, std::string> read_facts(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::string> facts;
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) facts[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return facts;
}

uint64_t input_seed(uint64_t run_seed, const std::string& workload,
                    uint64_t index) {
  uint64_t h = hash_bytes(workload.data(), workload.size(),
                          0xCBF29CE484222325ULL);
  uint64_t x = run_seed * 0x9E3779B97F4A7C15ULL ^ h ^ (index << 32);
  // splitmix64 finalizer; +1 keeps the seed away from 0.
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return (x ^ (x >> 31)) % 1000000007ULL + 1;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool check_virtual_repeat(const std::string& dir, const std::string& key,
                          const std::string& columns) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const fs::path path = fs::path(dir) / (key + ".txt");
  if (fs::exists(path)) {
    std::ifstream in(path);
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != columns) {
      std::fprintf(stderr,
                   "virtual columns of %s changed between runs:\n  was %s\n"
                   "  now %s\n",
                   key.c_str(), recorded.str().c_str(), columns.c_str());
      return false;
    }
    return true;
  }
  std::ofstream(path) << columns;
  return true;
}

nbwp::core::RobustConfig robust_config(const std::string& algorithm) {
  using nbwp::core::IdentifyMethod;
  nbwp::core::RobustConfig cfg;
  nbwp::core::SamplingConfig& s = cfg.sampling;
  if (algorithm == "spmm") {
    s.sample_factor = 0.25;
    s.method = IdentifyMethod::kRaceThenFine;
  } else if (algorithm == "hh") {
    s.method = IdentifyMethod::kGradientDescent;
    s.gradient.log_space = true;
    s.gradient.starts = 2;
    s.gradient.max_iterations = 10;
    s.gradient.initial_step_fraction = 0.2;
  } else {
    s.method = IdentifyMethod::kCoarseToFine;
  }
  return cfg;
}

namespace {

/// The two probes the quiet gate reads: every CPU streaming its own
/// 16 MiB buffer four times (memory), and one thread running a fixed
/// dependent arithmetic chain (clock speed).  Best of three each.
struct Probe {
  double memory_s = 1e9, cpu_s = 1e9;
};

Probe run_probe(std::vector<std::vector<uint64_t>>& buffers) {
  Probe p;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = now_s();
    std::vector<std::thread> threads;
    for (auto& buf : buffers) {
      threads.emplace_back([&buf] {
        for (int pass = 0; pass < 4; ++pass)
          for (uint64_t& x : buf) x = x * 3 + 1;
      });
    }
    for (auto& t : threads) t.join();
    p.memory_s = std::min(p.memory_s, now_s() - t0);
    t0 = now_s();
    volatile uint64_t sink = 0;
    uint64_t x = buffers[0][0];
    for (int i = 0; i < 4000000; ++i) x = x * 0x9E3779B97F4A7C15ULL + (x >> 29);
    sink = x;
    (void)sink;
    p.cpu_s = std::min(p.cpu_s, now_s() - t0);
  }
  return p;
}

}  // namespace

void wait_for_quiet(const std::string& state_dir) {
  constexpr double kTolerance = 1.25;  // a probe may be 25% over its median
  constexpr double kMaxWaitS = 20;     // per run
  constexpr double kMaxTotalWaitS = 240;  // per checkout: bounds the cost
  constexpr size_t kHistory = 64;
  namespace fs = std::filesystem;
  fs::create_directories(state_dir);
  const fs::path history_path = fs::path(state_dir) / "quiet_probe.txt";
  const fs::path waited_path = fs::path(state_dir) / "quiet_waited_s.txt";
  std::vector<double> memory, cpu;
  {
    std::ifstream in(history_path);
    for (double m, c; in >> m >> c;) {
      memory.push_back(m);
      cpu.push_back(c);
    }
  }
  double waited_before = 0;
  std::ifstream(waited_path) >> waited_before;
  std::vector<std::vector<uint64_t>> buffers(
      std::max(1u, std::thread::hardware_concurrency()),
      std::vector<uint64_t>(2u << 20, 1));
  const double typical_memory = median(memory), typical_cpu = median(cpu);
  auto busy = [&](const Probe& p) {
    return !memory.empty() && (p.memory_s > kTolerance * typical_memory ||
                               p.cpu_s > kTolerance * typical_cpu);
  };
  const double start = now_s();
  Probe probe = run_probe(buffers);
  while (busy(probe) && now_s() - start < kMaxWaitS &&
         waited_before + (now_s() - start) < kMaxTotalWaitS) {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    probe = run_probe(buffers);
  }
  const double waited = now_s() - start;
  std::printf("quiet: probe memory %.2f ms cpu %.2f ms, medians of %zu "
              "earlier %.2f / %.2f ms, waited %.1f s%s\n",
              probe.memory_s * 1e3, probe.cpu_s * 1e3, memory.size(),
              typical_memory * 1e3, typical_cpu * 1e3, waited,
              busy(probe) ? " (gave up: host still busy)" : "");
  memory.push_back(probe.memory_s);
  cpu.push_back(probe.cpu_s);
  const size_t drop = memory.size() > kHistory ? memory.size() - kHistory : 0;
  std::ofstream out(history_path);
  for (size_t i = drop; i < memory.size(); ++i)
    out << memory[i] << ' ' << cpu[i] << '\n';
  std::ofstream(waited_path) << waited_before + waited;
}

double measure_setup_s(const std::function<void()>& extra) {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  return median_time_s(15, [&] {
    nbwp::ThreadPool pool(threads);
    pool.run_team([](unsigned) {});
    const nbwp::hetsim::Platform platform = nbwp::hetsim::Platform::reference();
    (void)platform;
    if (extra) extra();
  });
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void print_manifest(const Args& args) {
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::printf(
      "manifest: {\"host\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"loadavg_1m\": %.2f, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      host, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      kCompiler, args.git_sha.c_str(), load[0],
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
}

void print_result(const RunResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : result.metrics.all()) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << vu.first << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
