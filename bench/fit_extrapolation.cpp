// Section V-A.3 — the offline best-fit extrapolation study.
//
// The paper finds the relation between the sample threshold t_s and the
// full-input threshold t_A "using an off-line best-fit strategy ... we
// find that t_A = t_s * t_s".  This bench reruns that study on our data:
// for every scale-free dataset it identifies t_s on a sqrt(n)-row sample
// and pairs it with the exhaustive t_A, then fits all candidate function
// families (identity, scale, linear, power, square) and ranks them.  It
// also evaluates the two structure-aware extrapolators the library ships
// (fold inversion and work-share matching) on the same pairs.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.hpp"
#include "core/extrapolate.hpp"
#include "core/workloads.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/bestfit.hpp"
#include "util/strfmt.hpp"

int main(int argc, char** argv) {
  using namespace nbwp;
  Cli cli("fit_extrapolation", "offline threshold-relation fitting (Sec V)");
  bench::add_suite_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto options = bench::suite_options(cli);
  const auto& platform = hetsim::Platform::reference();

  std::vector<double> ts, ta;
  std::vector<double> fold_pred, share_pred;
  Table pairs("training pairs (sample cutoff t_s vs exhaustive cutoff t_A)");
  pairs.set_header({"dataset", "t_s", "t_A (exhaustive)", "fold-inv(t_s)",
                    "work-share(t_s)"});
  for (const auto& spec : datasets::scale_free_datasets()) {
    hetalg::HeteroSpmmHh problem(exp::load_matrix(spec, options), platform);
    const auto ex = exp::cutoff_oracle(problem);
    // The deployed HH identify config, with identity extrapolation: we
    // want the raw t_s the pipeline finds.
    const core::SamplingConfig cfg =
        core::sampling_config(core::Workload::kHh, options.sampling_seed);
    const auto est = core::estimate_partition(problem, cfg);
    Rng rng(cfg.seed);
    const auto sample = problem.make_sample(cfg.sample_factor, rng);
    const double fold = core::fold_inversion(
        est.sample_threshold,
        static_cast<double>(problem.sample_size(cfg.sample_factor)));
    const double share =
        core::work_share_extrapolate(problem, sample, est.sample_threshold);
    ts.push_back(std::max(1.0, est.sample_threshold));
    ta.push_back(std::max(1.0, ex.best_threshold));
    fold_pred.push_back(fold);
    share_pred.push_back(share);
    pairs.add_row({spec.name, Table::num(est.sample_threshold, 1),
                   Table::num(ex.best_threshold, 1), Table::num(fold, 1),
                   Table::num(share, 1)});
  }
  exp::emit(pairs);

  Table fits("fitted scalar families, best first (paper's data gave t_s^2)");
  fits.set_header({"family", "mean relative error", "params"});
  for (const auto& model : fit_threshold_models(ts, ta)) {
    std::string params;
    for (double p : model.params) params += strfmt("%.3g ", p);
    fits.add_row({model.family, Table::pct(100 * model.mean_rel_error),
                  params});
  }
  exp::emit(fits);

  auto rel_err = [&](const std::vector<double>& pred) {
    double e = 0;
    for (size_t i = 0; i < ta.size(); ++i)
      e += std::abs(pred[i] - ta[i]) / ta[i];
    return 100.0 * e / ta.size();
  };
  std::printf("structure-aware extrapolators: fold inversion %.1f%%, "
              "work-share matching %.1f%% mean relative error\n",
              rel_err(fold_pred), rel_err(share_pred));
  std::printf("(the library's default for HH is work-share matching; see "
              "DESIGN.md §9.3)\n");
  bench::finish_run(cli, "fit_extrapolation");
  return 0;
}
