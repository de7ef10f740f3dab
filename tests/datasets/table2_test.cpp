#include "datasets/table2.hpp"

#include <gtest/gtest.h>

#include "graph/cc.hpp"
#include "util/error.hpp"

namespace nbwp::datasets {
namespace {

TEST(Table2, FifteenRowsInPaperOrder) {
  const auto& specs = table2();
  ASSERT_EQ(specs.size(), 15u);
  EXPECT_EQ(specs.front().name, "cant");
  EXPECT_EQ(specs[3].name, "delaunay_n22");
  EXPECT_EQ(specs.back().name, "netherlands_osm");
}

TEST(Table2, ScaleFreeSubsetExcludesDelaunayAndQcd) {
  // Section V-B: rows 1-11 excluding rows 4 and 7.
  const auto specs = scale_free_datasets();
  EXPECT_EQ(specs.size(), 9u);
  for (const auto& s : specs) {
    EXPECT_NE(s.name, "delaunay_n22");
    EXPECT_NE(s.name, "qcd5_4");
    EXPECT_NE(s.family, Family::kRoad);
  }
}

TEST(Table2, SpecByNameFindsAndThrows) {
  EXPECT_EQ(spec_by_name("pwtk").paper_n, 217918u);
  EXPECT_THROW(spec_by_name("nope"), Error);
}

TEST(Table2, ScaledNClampsAndScales) {
  const auto& spec = spec_by_name("asia_osm");
  EXPECT_EQ(scaled_n(spec, 1.0), spec.paper_n);
  EXPECT_EQ(scaled_n(spec, 0.25), spec.paper_n / 4);
  EXPECT_GE(scaled_n(spec_by_name("pdb1HYS"), 0.001), 2000u);
  EXPECT_THROW(scaled_n(spec, 0.0), Error);
  EXPECT_THROW(scaled_n(spec, 2.0), Error);
}

class DatasetGenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetGenTest, GraphApproximatesPaperShape) {
  const auto& spec = spec_by_name(GetParam());
  const double scale = 2000.0 / static_cast<double>(spec.paper_n);
  const auto g = make_graph(spec, std::min(1.0, std::max(scale, 0.01)));
  const double paper_avg_deg =
      static_cast<double>(spec.paper_nnz) / spec.paper_n;
  const double gen_avg_deg =
      static_cast<double>(g.num_directed_edges()) / g.num_vertices();
  EXPECT_NEAR(gen_avg_deg, paper_avg_deg, paper_avg_deg * 0.5)
      << spec.name;
}

TEST_P(DatasetGenTest, MatrixApproximatesPaperDensity) {
  const auto& spec = spec_by_name(GetParam());
  const double scale = 2000.0 / static_cast<double>(spec.paper_n);
  const auto m = make_matrix(spec, std::min(1.0, std::max(scale, 0.01)));
  const double paper_avg =
      static_cast<double>(spec.paper_nnz) / spec.paper_n;
  const double gen_avg = static_cast<double>(m.nnz()) / m.rows();
  EXPECT_NEAR(gen_avg, paper_avg, paper_avg * 0.6) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Specs, DatasetGenTest,
                         ::testing::Values("cant", "qcd5_4", "delaunay_n22",
                                           "web-BerkStan",
                                           "netherlands_osm"),
                         [](const auto& param_info) {
                           std::string s = param_info.param;
                           for (char& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

TEST(Table2, GenerationDeterministicPerSeed) {
  const auto& spec = spec_by_name("rma10");
  const auto a = make_graph(spec, 0.05, 7);
  const auto b = make_graph(spec, 0.05, 7);
  EXPECT_EQ(a.undirected_edges(), b.undirected_edges());
  const auto c = make_graph(spec, 0.05, 8);
  EXPECT_NE(a.undirected_edges(), c.undirected_edges());
}

TEST(Table2, RoadAnalogIsRoadLike) {
  const auto g = make_graph(spec_by_name("netherlands_osm"), 0.01);
  const double avg = 2.0 * g.num_edges() / g.num_vertices();
  EXPECT_LT(avg, 2.8);
  EXPECT_LT(graph::cc_union_find(g).num_components, 50u);
}

TEST(Table2, WebAnalogHasHubs) {
  const auto m = make_matrix(spec_by_name("webbase-1M"), 0.01);
  uint64_t max_deg = 0;
  for (sparse::Index r = 0; r < m.rows(); ++r)
    max_deg = std::max<uint64_t>(max_deg, m.row_nnz(r));
  const double avg = static_cast<double>(m.nnz()) / m.rows();
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg);
}

}  // namespace
}  // namespace nbwp::datasets
