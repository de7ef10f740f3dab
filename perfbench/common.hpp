// Shared pieces of the benchmark binary: clocks, statistics, memory
// readings, result hashing, input files and the result line.
//
// Everything here belongs to the benchmark, not to the program under
// test: the benchmark times calls into the program's public functions from
// the outside and adds no instrumentation inside src/.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/robust_estimate.hpp"
#include "graph/csr_graph.hpp"
#include "hetsim/platform.hpp"
#include "sparse/csr_matrix.hpp"

namespace perfbench {

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string mode;      ///< "prepare", "measure" or "capacity"
  std::string workload;  ///< spmm-fem | hh-scalefree | cc-mtx | serve-mix
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;     ///< per-run scratch inside the checkout
  std::string state_dir;  ///< cross-run records: virtual columns, probes
  std::string git_sha = "unknown";
};

/// Metric name -> (value, unit), printed in the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one run reports: operation accounting plus metrics.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;

  /// Record one failed operation with a reason on stderr.
  void fail(const std::string& why);
};

double now_s();
double ms_since(double start_s);

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Median of `reps` timings of `fn`, in seconds.
double median_time_s(int reps, const std::function<void()>& fn);

/// The CPUs this process may run on, and pinning of the calling thread to
/// one of them.  One-shot requests rotate the requesting thread over every
/// CPU so that each run samples them alike: on a shared host one CPU can
/// run single-threaded code up to 40% slower than another for seconds to
/// minutes, and a run whose thread stayed there read that CPU's state.
std::vector<int> allowed_cpus();
void pin_to_cpu(int cpu);

/// Resident set now, and the process high-water mark, in MB.
double rss_now_mb();
double rss_peak_mb();

/// 64-bit hashes for bitwise output checks.
uint64_t hash_pattern(const nbwp::sparse::CsrMatrix& m);  ///< shape + pattern
uint64_t hash_matrix(const nbwp::sparse::CsrMatrix& m);   ///< + value bits

/// Raw binary CSR files: how prepared inputs reach the measuring process
/// without their generation or oracles inflating its memory.
void write_matrix(const std::string& path, const nbwp::sparse::CsrMatrix& m);
nbwp::sparse::CsrMatrix read_matrix(const std::string& path);
void write_doubles(const std::string& path, std::span<const double> v);
std::vector<double> read_doubles(const std::string& path);

/// Small key=value text files for oracle facts.
void write_facts(const std::string& path,
                 const std::map<std::string, std::string>& facts);
std::map<std::string, std::string> read_facts(const std::string& path);

/// Independent generator seed for input `index` of a workload run.
uint64_t input_seed(uint64_t run_seed, const std::string& workload,
                    uint64_t index);

/// Exact text form of a double (hex float) for repeat checks.
std::string exact(double v);

/// Compare this run's virtual-clock columns for `key` against the record
/// an earlier run with the same seed left in `dir`, writing the record
/// when none exists.  Returns false on a mismatch.
bool check_virtual_repeat(const std::string& dir, const std::string& key,
                          const std::string& columns);

/// Cold-path estimation settings per algorithm ("cc", "spmm", "hh"), as
/// nbwp_cli's config_for sets them.
nbwp::core::RobustConfig robust_config(const std::string& algorithm);

/// Wait until the machine is about as fast as usual before measuring.
/// A fixed memory probe on every CPU and a single-thread clock-speed
/// probe run; while either exceeds the median of the probes recorded in
/// `state_dir` by more than a set tolerance (another tenant of the host
/// is busy), sleep and probe again.  The wait is bounded per run and per
/// checkout.  Prints what it did.
void wait_for_quiet(const std::string& state_dir);

/// Median set-up time over several repetitions: a fresh thread pool with
/// one parallel region, the reference platform and, when given, the
/// serving objects `extra` constructs and destroys.
double measure_setup_s(const std::function<void()>& extra);

/// Print the run manifest line (host, CPUs, build, compiler, commit, load
/// average, seed).
void print_manifest(const Args& args);

/// Print the result as the last line of standard output.
void print_result(const RunResult& result);

/// The workloads.  `prepare` generates inputs and oracles into
/// args.work_dir; `measure` times requests and checks outputs.
void prepare_oneshot(const Args& args);
RunResult measure_oneshot(const Args& args);
RunResult measure_serve_mix(const Args& args);
/// Print closed-loop serve-mix throughput (how kOfferedRate was chosen).
void measure_serve_capacity(const Args& args);

}  // namespace perfbench
