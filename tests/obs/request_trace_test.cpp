// TraceContext + FlightRecorder: stage attribution through obs::Span,
// ring-buffer bounds, breach/fault flagging, and the JSON dump format.
#include "obs/request_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace nbwp {
namespace {

struct RequestTraceFixture : ::testing::Test {
  void SetUp() override {
    obs::Registry::global().clear();
    obs::set_metrics_enabled(true);
    obs::FlightRecorder::global().configure({});
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::FlightRecorder::global().configure({});
    obs::Registry::global().clear();
  }
};

TEST_F(RequestTraceFixture, SpansBecomeStagesOfTheInstalledContext) {
  {
    obs::TraceContext context("req:1");
    ASSERT_TRUE(context.active());
    obs::TraceContext::Scope scope(context);
    EXPECT_EQ(obs::TraceContext::current(), &context);
    { obs::Span span("serve.lookup"); }
    { obs::Span span("serve.solve"); }
    context.set_class("miss");
  }  // destructor finishes -> lands in the recorder
  EXPECT_EQ(obs::TraceContext::current(), nullptr);

  const auto recent = obs::FlightRecorder::global().recent();
  ASSERT_EQ(recent.size(), 1u);
  const obs::RequestTrace& t = recent[0];
  EXPECT_EQ(t.label, "req:1");
  EXPECT_EQ(t.request_class, "miss");
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_EQ(t.stages[0].stage, "serve.lookup");
  EXPECT_EQ(t.stages[1].stage, "serve.solve");
  EXPECT_GE(t.total_ms, 0.0);
}

TEST_F(RequestTraceFixture, SpansOutsideAScopeDoNotAttach) {
  obs::TraceContext context("req:unattached");
  { obs::Span span("serve.lookup"); }  // no Scope installed
  context.finish();
  const auto recent = obs::FlightRecorder::global().recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].stages.empty());
}

TEST_F(RequestTraceFixture, InactiveWhenMetricsAndTracingOff) {
  obs::set_metrics_enabled(false);
  obs::TraceContext context("req:off");
  EXPECT_FALSE(context.active());
  context.finish();
  EXPECT_TRUE(obs::FlightRecorder::global().recent().empty());
}

TEST_F(RequestTraceFixture, ScopesNest) {
  obs::TraceContext outer("outer");
  obs::TraceContext inner("inner");
  obs::TraceContext::Scope outer_scope(outer);
  {
    obs::TraceContext::Scope inner_scope(inner);
    EXPECT_EQ(obs::TraceContext::current(), &inner);
  }
  EXPECT_EQ(obs::TraceContext::current(), &outer);
}

TEST_F(RequestTraceFixture, RingOverwritesOldestAndCountsDrops) {
  obs::FlightRecorder::global().configure(
      {.capacity = 4, .latency_threshold_ms = 0, .dump_path = {}});
  for (int i = 0; i < 10; ++i) {
    obs::TraceContext context("req:" + std::to_string(i));
    context.finish();
  }
  auto& recorder = obs::FlightRecorder::global();
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto recent = recorder.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first, and only the last four survive.
  EXPECT_EQ(recent[0].label, "req:6");
  EXPECT_EQ(recent[3].label, "req:9");
  // Request ids keep increasing across the whole run.
  EXPECT_GT(recent[3].id, recent[0].id);
}

TEST_F(RequestTraceFixture, BreachAndFaultAreFlagged) {
  obs::FlightRecorder::global().configure(
      {.capacity = 8, .latency_threshold_ms = 1e-9, .dump_path = {}});
  {
    obs::TraceContext context("req:slow");
    context.finish();  // any nonzero duration breaches a 1e-9 ms bound
  }
  {
    obs::TraceContext context("req:fault");
    context.set_fault(true);
    context.set_class("degraded");
    context.finish();
  }
  const auto recent = obs::FlightRecorder::global().recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_TRUE(recent[0].breach);
  EXPECT_FALSE(recent[0].fault);
  EXPECT_TRUE(recent[1].fault);
  EXPECT_EQ(recent[1].request_class, "degraded");
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_GE(snap.counters.at("flight.breaches"), 1.0);
  EXPECT_GE(snap.counters.at("flight.faults"), 1.0);
}

TEST_F(RequestTraceFixture, DumpJsonHasDocumentedShape) {
  {
    obs::TraceContext context("req:dump");
    obs::TraceContext::Scope scope(context);
    { obs::Span span("serve.lookup"); }
    context.set_class("exact");
  }
  std::ostringstream os;
  obs::FlightRecorder::global().write_json(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"capacity\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"recorded\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"requests\":["), std::string::npos) << out;
  EXPECT_NE(out.find("\"label\":\"req:dump\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"class\":\"exact\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"stage\":\"serve.lookup\""), std::string::npos)
      << out;
}

TEST_F(RequestTraceFixture, FaultAutoDumpsWhenPathConfigured) {
  const std::string path = ::testing::TempDir() + "/nbwp_flight_dump.json";
  std::remove(path.c_str());
  obs::FlightRecorder::global().configure(
      {.capacity = 8, .latency_threshold_ms = 0, .dump_path = path});
  {
    obs::TraceContext context("req:autodump");
    context.set_fault(true);
    context.finish();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "auto-dump did not write " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("req:autodump"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nbwp
