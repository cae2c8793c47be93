#include "serve/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace vs::serve {
namespace {

SloOptions Options(const FakeClock* clock, double budget_ms = 0.0,
                   double window_seconds = 60.0) {
  SloOptions options;
  options.clock = clock;
  options.budget_ms = budget_ms;
  options.window_seconds = window_seconds;
  return options;
}

const SloEndpointSnapshot* Find(
    const std::vector<SloEndpointSnapshot>& snapshots,
    const std::string& endpoint) {
  for (const SloEndpointSnapshot& s : snapshots) {
    if (s.endpoint == endpoint) return &s;
  }
  return nullptr;
}

/// The result points into the vector, so a temporary would leave it
/// dangling: callers keep the snapshot in a variable.
const SloEndpointSnapshot* Find(std::vector<SloEndpointSnapshot>&&,
                                const std::string&) = delete;

TEST(SloPercentileDefined, NeedsEnoughSamplesForTheTail) {
  EXPECT_FALSE(SloPercentileDefined(0, 0.50));
  EXPECT_TRUE(SloPercentileDefined(2, 0.50));
  EXPECT_FALSE(SloPercentileDefined(10, 0.99));
  EXPECT_TRUE(SloPercentileDefined(100, 0.99));
}

TEST(SloTracker, PercentilesOverTheWindow) {
  FakeClock clock;
  SloTracker tracker(Options(&clock));
  // 100 samples, 1..100 ms: nearest-rank p50 = 50 ms, p99 = 99 ms.
  for (int i = 1; i <= 100; ++i) {
    tracker.Record("next", i * 1e-3, /*error=*/false);
  }
  const auto snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* next = Find(snapshots, "next");
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->window_samples, 100u);
  EXPECT_EQ(next->total_requests, 100u);
  EXPECT_NEAR(next->p50_ms, 50.0, 1.0);
  EXPECT_NEAR(next->p95_ms, 95.0, 1.0);
  EXPECT_NEAR(next->p99_ms, 99.0, 1.0);
}

TEST(SloTracker, UndefinedTailIsNegativeNotMax) {
  FakeClock clock;
  SloTracker tracker(Options(&clock));
  for (int i = 0; i < 10; ++i) {
    tracker.Record("label", 0.005, /*error=*/false);
  }
  const std::vector<SloEndpointSnapshot> label_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* label = Find(label_snapshots, "label");
  ASSERT_NE(label, nullptr);
  EXPECT_GE(label->p50_ms, 0.0);
  // 10 samples cannot support a p99 — reported undefined, not as the max.
  EXPECT_LT(label->p99_ms, 0.0);
}

TEST(SloTracker, OldSamplesFallOutOfTheWindow) {
  FakeClock clock;
  SloTracker tracker(Options(&clock, /*budget_ms=*/0.0,
                             /*window_seconds=*/10.0));
  tracker.Record("next", 0.001, false);
  tracker.Record("next", 0.002, false);
  clock.AdvanceSeconds(11.0);
  tracker.Record("next", 0.003, false);
  const std::vector<SloEndpointSnapshot> next_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* next = Find(next_snapshots, "next");
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->window_samples, 1u);   // the two old samples aged out
  EXPECT_EQ(next->total_requests, 3u);   // cumulative survives the window
}

TEST(SloTracker, BudgetBreachesAreCumulativeBurn) {
  FakeClock clock;
  SloTracker tracker(Options(&clock, /*budget_ms=*/10.0));
  tracker.Record("topk", 0.005, false);  // inside budget
  tracker.Record("topk", 0.050, false);  // breach
  tracker.Record("topk", 0.200, false);  // breach
  const std::vector<SloEndpointSnapshot> topk_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* topk = Find(topk_snapshots, "topk");
  ASSERT_NE(topk, nullptr);
  EXPECT_EQ(topk->budget_breaches, 2u);
  // Breaches burned long ago still count after the window empties.
  clock.AdvanceSeconds(120.0);
  const std::vector<SloEndpointSnapshot> later_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* later = Find(later_snapshots, "topk");
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(later->window_samples, 0u);
  EXPECT_EQ(later->budget_breaches, 2u);
}

TEST(SloTracker, HealthyReflectsTailAgainstBudget) {
  FakeClock clock;
  SloTracker tracker(Options(&clock, /*budget_ms=*/10.0));
  for (int i = 0; i < 4; ++i) tracker.Record("fast", 0.001, false);
  for (int i = 0; i < 4; ++i) tracker.Record("slow", 0.100, false);
  const auto snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* fast = Find(snapshots, "fast");
  const SloEndpointSnapshot* slow = Find(snapshots, "slow");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  // Few samples: the p50 stands in for the undefined p99.
  EXPECT_TRUE(fast->healthy);
  EXPECT_FALSE(slow->healthy);
}

TEST(SloTracker, ErrorsTrackedSeparatelyFromLatency) {
  FakeClock clock;
  SloTracker tracker(Options(&clock));
  tracker.Record("label", 0.001, /*error=*/false);
  tracker.Record("label", 0.001, /*error=*/true);
  tracker.Record("label", 0.001, /*error=*/true);
  tracker.Record("label", 0.001, /*error=*/false);
  const std::vector<SloEndpointSnapshot> label_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* label = Find(label_snapshots, "label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->total_errors, 2u);
  EXPECT_NEAR(label->window_error_rate, 0.5, 1e-9);
}

TEST(SloTracker, WindowIsBoundedUnderDenseTraffic) {
  FakeClock clock;
  SloOptions options = Options(&clock);
  options.max_samples_per_endpoint = 16;
  SloTracker tracker(options);
  for (int i = 0; i < 1000; ++i) tracker.Record("next", 0.001, false);
  const std::vector<SloEndpointSnapshot> next_snapshots = tracker.Snapshot();
  const SloEndpointSnapshot* next = Find(next_snapshots, "next");
  ASSERT_NE(next, nullptr);
  EXPECT_LE(next->window_samples, 16u);
  EXPECT_EQ(next->total_requests, 1000u);
}

TEST(SloTracker, ExportMetricsPublishesCountersAndGauges) {
  FakeClock clock;
  SloTracker tracker(Options(&clock, /*budget_ms=*/10.0));
  tracker.Record("next", 0.050, /*error=*/false);  // breach
  tracker.Record("next", 0.001, /*error=*/true);
  tracker.ExportMetrics();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  EXPECT_GE(registry.GetCounter("slo.breaches.next")->value(), 1u);
  EXPECT_GE(registry.GetCounter("slo.errors.next")->value(), 1u);
  // Window gauges appear (exact values depend on interleaved suites
  // sharing the default registry, so only presence is pinned).
  const std::string text =
      obs::ToPrometheusText(registry.SnapshotAll());
  EXPECT_NE(text.find("slo_window_p50_ms_next"), std::string::npos);
  EXPECT_NE(text.find("slo_window_error_rate_next"), std::string::npos);
}

}  // namespace
}  // namespace vs::serve
