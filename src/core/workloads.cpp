#include "core/workloads.hpp"

#include "util/error.hpp"

namespace nbwp::core {

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCc:
      return "cc";
    case Workload::kSpmm:
      return "spmm";
    case Workload::kSpmv:
      return "spmv";
    case Workload::kHh:
      return "hh";
  }
  return "unknown";
}

Workload parse_workload(const std::string& name) {
  for (Workload w : kWorkloads)
    if (name == workload_name(w)) return w;
  throw Error("unknown workload '" + name + "' (cc|spmm|hh|spmv)");
}

SamplingConfig sampling_config(Workload workload, uint64_t seed,
                               int repeats) {
  SamplingConfig cfg;
  cfg.seed = seed;
  cfg.repeats = repeats;
  switch (workload) {
    case Workload::kCc:
      cfg.sample_factor = 1.0;  // sqrt(n) vertices
      cfg.method = IdentifyMethod::kCoarseToFine;
      cfg.warm.halfwidth = 4;  // 9 probes vs ~27 for the cold 8-then-1 grid
      cfg.warm.step = 1;
      break;
    case Workload::kSpmm:
    case Workload::kSpmv:
      cfg.sample_factor = 0.25;  // n/4 x n/4 submatrix
      cfg.method = IdentifyMethod::kRaceThenFine;
      cfg.warm.halfwidth = 3;  // 3 probes vs ~7 for the cold race + grid
      cfg.warm.step = 3;
      break;
    case Workload::kHh:
      cfg.sample_factor = 1.0;  // sqrt(n) rows
      cfg.method = IdentifyMethod::kGradientDescent;
      cfg.gradient.log_space = true;
      cfg.gradient.starts = 2;
      cfg.gradient.max_iterations = 10;
      cfg.gradient.initial_step_fraction = 0.2;
      cfg.warm.log_space = true;  // 7 probes vs ~20+ for cold multi-start
      cfg.warm.log_ratio = 1.5;
      cfg.warm.log_points = 3;
      break;
  }
  return cfg;
}

}  // namespace nbwp::core
