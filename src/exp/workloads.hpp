// The workload registry's typed half: which heterogeneous algorithm,
// extrapolator and exhaustive oracle go with each core::Workload.
//
// visit_workload loads a dataset, builds the workload's problem type and
// calls back with (problem, extrapolator, oracle), so a driver writes its
// per-workload logic once as a generic lambda instead of one branch per
// name.  The identify configuration lives beside the name table in
// core/workloads.hpp.
#pragma once

#include "core/exhaustive.hpp"
#include "core/extrapolate.hpp"
#include "core/workloads.hpp"
#include "exp/experiment.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "hetalg/hetero_spmv.hpp"
#include "util/error.hpp"

namespace nbwp::exp {

/// The exhaustive oracle of percent-threshold workloads: every 1 % step.
inline constexpr auto grid_oracle = [](const auto& problem) {
  return core::exhaustive_search(problem, 1.0);
};

/// The exhaustive oracle of HH: 192 candidate cutoffs spanning the
/// row-size range (Table I harness).
inline constexpr auto cutoff_oracle = [](const hetalg::HeteroSpmmHh& problem) {
  return core::exhaustive_search_over(problem,
                                      problem.candidate_thresholds(192));
};

/// Build `workload`'s problem from `spec` (honoring options.scale, seed
/// and mtx_dir) on `platform` and return
/// `visit(problem, extrapolate, oracle)`:
///
///   problem      a mutable local (callers may move it into a request);
///   extrapolate  (full, sample, t_sample) -> t_full: the identity for
///                percent thresholds, work-share matching for HH cutoffs;
///   oracle       (problem) -> core::ExhaustiveResult: grid_oracle, or
///                cutoff_oracle for HH.
template <typename Visit>
auto visit_workload(core::Workload workload,
                    const datasets::DatasetSpec& spec,
                    const SuiteOptions& options,
                    const hetsim::Platform& platform, Visit&& visit) {
  switch (workload) {
    case core::Workload::kCc: {
      hetalg::HeteroCc p(load_graph(spec, options), platform);
      return visit(p, core::IdentityExtrapolate{}, grid_oracle);
    }
    case core::Workload::kSpmm: {
      hetalg::HeteroSpmm p(load_matrix(spec, options), platform);
      return visit(p, core::IdentityExtrapolate{}, grid_oracle);
    }
    case core::Workload::kSpmv: {
      hetalg::HeteroSpmv p(load_matrix(spec, options), platform);
      return visit(p, core::IdentityExtrapolate{}, grid_oracle);
    }
    case core::Workload::kHh: {
      hetalg::HeteroSpmmHh p(load_matrix(spec, options), platform);
      return visit(p, core::work_share_extrapolate, cutoff_oracle);
    }
  }
  throw Error("unknown workload");
}

}  // namespace nbwp::exp
