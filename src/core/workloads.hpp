// The workload registry: the one place that names the case studies and
// holds each one's Sample -> Identify configuration.
//
// Every driver (nbwp_cli, the batch manifest, the serve bench, the
// experiment suites) resolves a workload name here and plans with the
// config returned here; the problem type, extrapolator and exhaustive
// oracle that go with each workload are bound in exp/workloads.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/sampling_partitioner.hpp"

namespace nbwp::core {

enum class Workload {
  kCc,    ///< Algorithm 1, connected components (hetalg::HeteroCc)
  kSpmm,  ///< Algorithm 2, row-split SpGEMM (hetalg::HeteroSpmm)
  kSpmv,  ///< row-split SpMV (hetalg::HeteroSpmv)
  kHh,    ///< Algorithm 3, heavy/light-row SpGEMM (hetalg::HeteroSpmmHh)
};

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::kCc, Workload::kSpmm, Workload::kSpmv, Workload::kHh};

/// "cc" | "spmm" | "spmv" | "hh".
const char* workload_name(Workload workload);

/// Inverse of workload_name; throws nbwp::Error
/// "unknown workload '<name>' (cc|spmm|hh|spmv)" for anything else.
Workload parse_workload(const std::string& name);

/// The identify configuration every estimate of `workload` runs with:
/// method, sample factor, gradient options and the warm-start bracket,
/// plus the caller's sampling seed and repeat count.
SamplingConfig sampling_config(Workload workload,
                               uint64_t seed = SamplingConfig{}.seed,
                               int repeats = 1);

}  // namespace nbwp::core
