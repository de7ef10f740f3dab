// Cross-dataset consistency properties: for every Table II analog family
// and every workload, the executed run and the analytic profile must
// report identical virtual time at several thresholds — the invariant the
// exhaustive oracle (and hence every figure) rests on.
#include <gtest/gtest.h>

#include "datasets/table2.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "hetalg/hetero_spmv.hpp"

namespace nbwp {
namespace {

const hetsim::Platform& plat() { return hetsim::Platform::reference(); }

// One representative per structural family, at a tiny scale.
const char* kFamilyReps[] = {"cant", "qcd5_4", "delaunay_n22",
                             "web-BerkStan", "netherlands_osm"};

class FamilyConsistencyTest : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr double kScale = 0.02;
};

TEST_P(FamilyConsistencyTest, CcRunEqualsProfile) {
  const auto& spec = datasets::spec_by_name(GetParam());
  const hetalg::HeteroCc problem(
      datasets::make_graph(spec, kScale), plat());
  for (double t : {5.0, 19.0, 60.0}) {
    EXPECT_NEAR(problem.run(t).total_ns(), problem.time_ns(t),
                problem.time_ns(t) * 1e-9)
        << GetParam() << " t=" << t;
  }
}

TEST_P(FamilyConsistencyTest, SpmmRunEqualsProfile) {
  const auto& spec = datasets::spec_by_name(GetParam());
  const hetalg::HeteroSpmm problem(
      datasets::make_matrix(spec, kScale), plat());
  for (double r : {10.0, 35.0, 80.0}) {
    EXPECT_NEAR(problem.run(r).total_ns(), problem.time_ns(r),
                problem.time_ns(r) * 1e-9)
        << GetParam() << " r=" << r;
  }
}

TEST_P(FamilyConsistencyTest, SpmvRunEqualsProfile) {
  const auto& spec = datasets::spec_by_name(GetParam());
  const hetalg::HeteroSpmv problem(
      datasets::make_matrix(spec, kScale), plat());
  for (double r : {10.0, 50.0, 90.0}) {
    EXPECT_NEAR(problem.run(r).total_ns(), problem.time_ns(r),
                problem.time_ns(r) * 1e-9)
        << GetParam() << " r=" << r;
  }
}

TEST_P(FamilyConsistencyTest, HhRunEqualsProfileOnScaleFree) {
  const auto& spec = datasets::spec_by_name(GetParam());
  if (!spec.scale_free) GTEST_SKIP() << "HH applies to scale-free inputs";
  const hetalg::HeteroSpmmHh problem(
      datasets::make_matrix(spec, kScale), plat());
  for (double t : {2.0, 10.0, 60.0}) {
    EXPECT_NEAR(problem.run(t).total_ns(), problem.time_ns(t),
                problem.time_ns(t) * 1e-9)
        << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyConsistencyTest,
                         ::testing::ValuesIn(kFamilyReps),
                         [](const auto& param_info) {
                           std::string s = param_info.param;
                           for (char& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

}  // namespace
}  // namespace nbwp
