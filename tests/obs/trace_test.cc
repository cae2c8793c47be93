#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/request_context.h"

namespace vs::obs {
namespace {

TraceEvent MakeEvent(const std::string& name, int64_t start_us) {
  TraceEvent e;
  e.name = name;
  e.start_us = start_us;
  e.duration_us = 1;
  e.thread_id = CurrentThreadId();
  return e;
}

TEST(TraceCollector, RecordsAndSnapshotsInOrder) {
  TraceCollector collector(8);
  collector.Record(MakeEvent("a", 1));
  collector.Record(MakeEvent("b", 2));
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollector, RingOverflowDropsOldestFirst) {
  TraceCollector collector(3);
  for (int i = 0; i < 5; ++i) {
    collector.Record(MakeEvent(StrFormat("e%d", i), i));
  }
  EXPECT_EQ(collector.size(), 3u);
  EXPECT_EQ(collector.dropped(), 2u);
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // The two oldest (e0, e1) were overwritten; the rest stay ordered.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
}

TEST(TraceCollector, ClearResetsRetainedEvents) {
  TraceCollector collector(4);
  collector.Record(MakeEvent("x", 1));
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(Span, RecordsNestedParentage) {
  TraceCollector collector(16);
  {
    Span outer("outer", &collector);
    ASSERT_NE(outer.id(), 0u);
    {
      Span inner("inner", &collector);
      EXPECT_NE(inner.id(), outer.id());
    }
  }
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on destruction: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].parent_id, events[1].id);
  EXPECT_EQ(events[1].parent_id, 0u);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
}

TEST(Span, SiblingsShareTheParent) {
  TraceCollector collector(16);
  {
    Span outer("outer", &collector);
    { Span a("a", &collector); }
    { Span b("b", &collector); }
  }
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[0].parent_id, events[2].id);
  EXPECT_EQ(events[1].parent_id, events[2].id);
}

TEST(Span, DisabledCollectorRecordsNothing) {
  TraceCollector collector(16);
  collector.set_enabled(false);
  {
    Span span("ignored", &collector);
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_EQ(collector.size(), 0u);
}

TEST(Span, ThreadsGetDistinctThreadIds) {
  TraceCollector collector(16);
  { Span span("main-thread", &collector); }
  std::thread other([&collector] {
    Span span("other-thread", &collector);
  });
  other.join();
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  // A span on a new thread has no parent from the main thread.
  EXPECT_EQ(events[1].parent_id, 0u);
}

TEST(TraceCollector, DefaultStartsDisabled) {
  // A fresh process: the statement runs in a re-executed child, so no
  // other test in this binary can have touched the default ring.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::exit(TraceCollector::Default().enabled() ? 1 : 0),
              ::testing::ExitedWithCode(0), "");
}

TEST(Span, IsInertWithoutContextOrRing) {
  // Neither sink live: no crash, nothing recorded anywhere a later
  // context could see.
  TraceCollector collector(16);
  collector.set_enabled(false);
  { Span span("session_manager.label", &collector); }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  EXPECT_EQ(collector.size(), 0u);
}

TEST(Span, RecordsStageIntoCurrentContext) {
  TraceCollector collector(16);
  collector.set_enabled(false);
  RequestContext context("id", "POST", "/sessions");
  {
    ScopedRequestContext scoped(&context);
    Span span("http.dispatch", &collector);
    EXPECT_STREQ(context.current_stage(), "http.dispatch");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(context.current_stage(), nullptr);
  EXPECT_EQ(collector.size(), 0u);  // the ring was off
  const std::vector<StageRecord> stages = context.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_STREQ(stages[0].stage, "http.dispatch");
  EXPECT_GE(stages[0].start_us, 0);
  EXPECT_GT(stages[0].duration_us, 0);
}

TEST(Span, NestedStagesRestoreParentAndRecordBoth) {
  RequestContext context("id", "POST", "/sessions/s/label");
  {
    ScopedRequestContext scoped(&context);
    Span outer("session_manager.label");
    {
      Span inner("durability.wal_append");
      EXPECT_STREQ(context.current_stage(), "durability.wal_append");
    }
    // The parent stage is current again once the nested span closes.
    EXPECT_STREQ(context.current_stage(), "session_manager.label");
  }
  const std::vector<StageRecord> stages = context.stages();
  ASSERT_EQ(stages.size(), 2u);
  // Completion order: the inner span closes first.
  EXPECT_STREQ(stages[0].stage, "durability.wal_append");
  EXPECT_STREQ(stages[1].stage, "session_manager.label");
  // The outer span's duration includes the inner one.
  EXPECT_GE(stages[1].duration_us, stages[0].duration_us);
}

TEST(Span, FeedsBothSinksFromOneMeasurement) {
  TraceCollector collector(16);
  RequestContext context("id", "POST", "/sessions");
  Histogram* histogram = MetricsRegistry::Default().GetHistogram(
      "serve.stage_seconds.span_test.both", DefaultLatencyBuckets());
  const uint64_t observed = histogram->count();
  {
    ScopedRequestContext scoped(&context);
    Span span("span_test.both", &collector);
    EXPECT_NE(span.id(), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<TraceEvent> events = collector.Snapshot();
  const std::vector<StageRecord> stages = context.stages();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(events[0].name, "span_test.both");
  EXPECT_STREQ(stages[0].stage, "span_test.both");
  EXPECT_GT(stages[0].duration_us, 0);
  EXPECT_EQ(events[0].duration_us, stages[0].duration_us);
  EXPECT_EQ(histogram->count(), observed + 1);
}

TEST(Span, StagesStayOnTheirOwnThread) {
  RequestContext context("id", "GET", "/x");
  ScopedRequestContext scoped(&context);
  std::thread other([] { Span span("elsewhere"); });
  other.join();
  EXPECT_TRUE(context.stages().empty());
}

TEST(ChromeTrace, JsonContainsCompleteEvents) {
  TraceCollector collector(16);
  {
    Span outer("Build", &collector);
    { Span inner("Scan", &collector); }
  }
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"Build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"Scan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":"), std::string::npos) << json;
  // Valid JSON object braces at both ends.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ChromeTrace, ConcurrentSpansAllLand) {
  TraceCollector collector(4096);
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < kSpans; ++i) {
        Span span("work", &collector);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.size(),
            static_cast<size_t>(kThreads) * kSpans);
  EXPECT_EQ(collector.dropped(), 0u);
}

}  // namespace
}  // namespace vs::obs
