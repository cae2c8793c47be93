#include "testing/fault_injection.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/groupby.h"
#include "data/table.h"
#include "data/value.h"

namespace vs::fault {
namespace {

TEST(FaultInjectionTest, DisabledByDefault) {
  ASSERT_EQ(ActiveFaultInjector(), nullptr);
  EXPECT_FALSE(VS_FAULT("never.configured"));
  EXPECT_FALSE(InjectFault("never.configured"));
}

TEST(FaultInjectionTest, ScopedInstallAndUninstall) {
  FaultInjector injector(1);
  {
    ScopedFaultInjector scoped(&injector);
    EXPECT_EQ(ActiveFaultInjector(), &injector);
  }
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
}

TEST(FaultInjectionTest, UnconfiguredPointCountsHitsButNeverFires) {
  FaultInjector injector(1);
  ScopedFaultInjector scoped(&injector);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(VS_FAULT("some.point"));
  }
  const auto stats = injector.Stats("some.point");
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.fires, 0u);
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(FaultInjectionTest, ScheduleFiresExactlyOnListedHits) {
  FaultInjector injector(1);
  injector.SetSchedule("sched.point", {2, 5, 6});
  ScopedFaultInjector scoped(&injector);
  std::vector<int> fired;
  for (int hit = 1; hit <= 10; ++hit) {
    if (VS_FAULT("sched.point")) fired.push_back(hit);
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 5, 6}));
  EXPECT_EQ(injector.Stats("sched.point").fires, 3u);
  EXPECT_EQ(injector.total_fires(), 3u);
}

TEST(FaultInjectionTest, ProbabilityEndpointsAreExact) {
  FaultInjector injector(99);
  injector.SetProbability("always", 1.0);
  injector.SetProbability("never", 0.0);
  ScopedFaultInjector scoped(&injector);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(VS_FAULT("always"));
    EXPECT_FALSE(VS_FAULT("never"));
  }
}

TEST(FaultInjectionTest, ProbabilityRateIsRoughlyHonored) {
  FaultInjector injector(7);
  injector.SetProbability("half", 0.5);
  ScopedFaultInjector scoped(&injector);
  int fires = 0;
  const int kHits = 2000;
  for (int i = 0; i < kHits; ++i) {
    if (VS_FAULT("half")) ++fires;
  }
  EXPECT_GT(fires, kHits / 2 - 200);
  EXPECT_LT(fires, kHits / 2 + 200);
}

// The reproducibility contract: the firing pattern depends only on
// (seed, point, hit index) — a fresh injector with the same seed replays
// it exactly, and a different seed diverges.
TEST(FaultInjectionTest, SameSeedReplaysIdenticalSchedule) {
  const auto pattern = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.SetProbability("replay.point", 0.3);
    ScopedFaultInjector scoped(&injector);
    std::vector<bool> fired;
    for (int i = 0; i < 500; ++i) fired.push_back(VS_FAULT("replay.point"));
    return fired;
  };
  EXPECT_EQ(pattern(42), pattern(42));
  EXPECT_NE(pattern(42), pattern(43));
}

TEST(FaultInjectionTest, DecideMatchesFireSequence) {
  const uint64_t seed = 1234;
  FaultInjector injector(seed);
  injector.SetProbability("decide.point", 0.25);
  ScopedFaultInjector scoped(&injector);
  for (uint64_t hit = 1; hit <= 300; ++hit) {
    const bool expected =
        FaultInjector::Decide(seed, "decide.point", hit, 0.25);
    EXPECT_EQ(VS_FAULT("decide.point"), expected) << "hit " << hit;
  }
}

TEST(FaultInjectionTest, DecideIsAPureFunction) {
  EXPECT_EQ(FaultInjector::Decide(5, "p", 17, 0.4),
            FaultInjector::Decide(5, "p", 17, 0.4));
  EXPECT_FALSE(FaultInjector::Decide(5, "p", 17, 0.0));
  EXPECT_TRUE(FaultInjector::Decide(5, "p", 17, 1.0));
}

TEST(FaultInjectionTest, PointsAreIndependent) {
  FaultInjector injector(11);
  injector.SetSchedule("a", {1});
  injector.SetSchedule("b", {2});
  ScopedFaultInjector scoped(&injector);
  EXPECT_TRUE(VS_FAULT("a"));   // a hit 1
  EXPECT_FALSE(VS_FAULT("b"));  // b hit 1
  EXPECT_FALSE(VS_FAULT("a"));  // a hit 2
  EXPECT_TRUE(VS_FAULT("b"));   // b hit 2
}

TEST(FaultInjectionTest, ClearDisarmsButKeepsCounting) {
  FaultInjector injector(3);
  injector.SetProbability("clear.point", 1.0);
  ScopedFaultInjector scoped(&injector);
  EXPECT_TRUE(VS_FAULT("clear.point"));
  injector.Clear("clear.point");
  EXPECT_FALSE(VS_FAULT("clear.point"));
  EXPECT_EQ(injector.Stats("clear.point").hits, 2u);
  EXPECT_EQ(injector.Stats("clear.point").fires, 1u);
}

TEST(FaultInjectionTest, ClearAllDisarmsEveryPoint) {
  FaultInjector injector(3);
  injector.SetProbability("x", 1.0);
  injector.SetProbability("y", 1.0);
  injector.ClearAll();
  ScopedFaultInjector scoped(&injector);
  EXPECT_FALSE(VS_FAULT("x"));
  EXPECT_FALSE(VS_FAULT("y"));
}

TEST(FaultInjectionTest, AllStatsSortedByName) {
  FaultInjector injector(3);
  ScopedFaultInjector scoped(&injector);
  (void)VS_FAULT("zeta");
  (void)VS_FAULT("alpha");
  (void)VS_FAULT("alpha");
  const auto all = injector.AllStats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "alpha");
  EXPECT_EQ(all[0].second.hits, 2u);
  EXPECT_EQ(all[1].first, "zeta");
}

// Concurrent hits are counted exactly once each: with a schedule holding a
// single hit index, the whole thread swarm produces exactly one fire.
TEST(FaultInjectionTest, ConcurrentHitsFireExactlyPerSchedule) {
  FaultInjector injector(8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  injector.SetSchedule("swarm.point", {100, 500, 900});
  ScopedFaultInjector scoped(&injector);
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fires] {
      for (int i = 0; i < kPerThread; ++i) {
        if (VS_FAULT("swarm.point")) fires.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fires.load(), 3);
  EXPECT_EQ(injector.Stats("swarm.point").hits,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(injector.total_fires(), 3u);
}

// The kernel.run_fail point sits at the end of the group-by kernel's
// pass: a scheduled fire must surface as an Internal error from Execute,
// and the very next (unscheduled) call succeeds.
TEST(FaultInjectionTest, KernelRunFaultSurfacesAsInternal) {
  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  for (int r = 0; r < 200; ++r) {
    ASSERT_TRUE(b.AppendRow({data::Value("L" + std::to_string(r % 5)),
                             data::Value(static_cast<double>(r))})
                    .ok());
  }
  data::Table table = *b.Build();
  const data::GroupBySpec spec{"c", "m", data::AggregateFunction::kSum, 0};
  data::GroupByExecutor executor(&table);

  FaultInjector injector(1);
  injector.SetSchedule("kernel.run_fail", {1});
  ScopedFaultInjector scoped(&injector);

  auto failed = executor.Execute(spec, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("group-by kernel"),
            std::string::npos);
  EXPECT_EQ(injector.Stats("kernel.run_fail").fires, 1u);

  auto recovered = executor.Execute(spec, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->rows_seen, 200);
}

// The scalar oracle path never reaches the kernel, so the fault point
// must not fire there even when armed for every hit.
TEST(FaultInjectionTest, KernelFaultPointUnreachedOnScalarPath) {
  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({data::Value("a"), data::Value(1.0)}).ok());
  data::Table table = *b.Build();
  data::GroupByExecutorOptions options;
  options.use_kernel = false;
  data::GroupByExecutor executor(&table, options);

  FaultInjector injector(1);
  injector.SetProbability("kernel.run_fail", 1.0);
  ScopedFaultInjector scoped(&injector);
  EXPECT_TRUE(
      executor.Execute({"c", "m", data::AggregateFunction::kSum, 0}, nullptr)
          .ok());
  EXPECT_EQ(injector.Stats("kernel.run_fail").hits, 0u);
}

}  // namespace
}  // namespace vs::fault
