// nbwp_perfbench: one process per benchmark phase.
//
//   nbwp_perfbench prepare  --workload W --seed N --work DIR
//   nbwp_perfbench quiet    --workload W --seed N --state DIR
//   nbwp_perfbench measure  --workload W --seed N --seconds S --trace 0|1
//                             --work DIR --state DIR [--git-sha SHA]
//   nbwp_perfbench capacity --workload serve-mix --seed N --seconds S
//
// run.py builds this binary and chains prepare, quiet and measure; the
// last line measure prints is the JSON result.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/log.hpp"

namespace {

perfbench::Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  perfbench::Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work") a.work_dir = value;
    else if (flag == "--state") a.state_dir = value;
    else if (flag == "--git-sha") a.git_sha = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload != "spmm-fem" && a.workload != "hh-scalefree" &&
      a.workload != "cc-mtx" && a.workload != "serve-mix")
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parse(argc, argv);
    nbwp::set_log_level(nbwp::LogLevel::kWarn);
    const bool serve = args.workload == "serve-mix";
    if (args.mode == "prepare") {
      if (!serve) perfbench::prepare_oneshot(args);
      return 0;
    }
    if (args.mode == "quiet") {  // its own process: `measure`'s peak RSS
      perfbench::wait_for_quiet(args.state_dir);  // is the requests' own
      return 0;
    }
    if (args.mode == "capacity" && serve) {
      perfbench::measure_serve_capacity(args);
      return 0;
    }
    if (args.mode != "measure")
      throw std::invalid_argument("unknown mode '" + args.mode + "'");
    // glibc starts its mmap threshold at 128 KiB and raises it as large
    // blocks are freed (to at most 32 MiB, trimming above twice that), so
    // the first half-dozen requests of a process page-fault buffers the
    // later ones reuse, and each run read a different mix of the two.
    // Fix the thresholds where that rule settles: every request after the
    // first meets the same allocator.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    perfbench::print_manifest(args);
    const perfbench::RunResult result =
        serve ? perfbench::measure_serve_mix(args)
              : perfbench::measure_oneshot(args);
    perfbench::print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbwp_perfbench: %s\n", e.what());
    return 2;
  }
}
