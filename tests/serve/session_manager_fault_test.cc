/// Fault-injection regression tests for SessionManager's evict/restore
/// machinery, which persists through the durability layer's snapshot +
/// journal.  These pin the eviction use-after-free and the lost-restore
/// race, and verify the contract the stress driver relies on: injected
/// persistence failures may delay eviction or fail a single lookup, but
/// never lose session state.

#include "serve/session_manager.h"

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "data/generator.h"
#include "data/io.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

const std::string& FaultTestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 300;
    options.seed = 11;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_fault_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

SessionManagerOptions FaultOptions(FakeClock* clock, const std::string& tag) {
  SessionManagerOptions options;
  options.max_sessions = 8;
  options.session_ttl_seconds = 3600;  // tests evict explicitly
  options.durability_dir = ::testing::TempDir() + "serve_fault_" + tag;
  std::filesystem::remove_all(options.durability_dir);
  options.durability_fsync = false;  // unit tests trade fsync for speed
  options.clock = clock;
  return options;
}

CreateSpec FaultSpec() {
  CreateSpec spec;
  spec.options.k = 3;
  spec.options.seed = 5;
  return spec;
}

void LabelViews(SessionManager& manager, const std::string& id, int n) {
  for (int i = 0; i < n; ++i) {
    auto batch = manager.Next(id);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_FALSE(batch->views.empty());
    auto labeled =
        manager.Label(id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0);
    ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  }
}

// A transient restore failure must leave the session's files in place.
void ExpectNothingQuarantined(SessionManager& manager,
                              const SessionManagerOptions& options) {
  EXPECT_EQ(manager.durability_stats().quarantined, 0u);
  const std::string quarantine = options.durability_dir + "/quarantine";
  EXPECT_TRUE(!std::filesystem::exists(quarantine) ||
              std::filesystem::is_empty(quarantine));
}

// A snapshot write that fails (the rename never lands, as on a full disk
// or a short write) must abort the eviction: the session stays live and
// fully usable, and a later eviction succeeds once the fault clears.
TEST(SessionManagerFaultTest, EvictionAbortsWhenSnapshotWriteFails) {
  FakeClock clock;
  SessionManager manager(FaultOptions(&clock, "snapwrite"),
                         FaultTestTablePath());
  auto info = manager.Create(FaultSpec());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  LabelViews(manager, info->id, 4);

  fault::FaultInjector injector(1);
  injector.SetSchedule("snapshot.rename_fail", {1});
  fault::ScopedFaultInjector scoped(&injector);

  clock.AdvanceSeconds(10);
  EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 0u);  // write failed: aborted
  EXPECT_EQ(manager.active_sessions(), 1u);
  auto still_there = manager.Info(info->id);
  ASSERT_TRUE(still_there.ok()) << still_there.status().ToString();
  EXPECT_EQ(still_there->num_labeled, 4u);

  // Fault exhausted (schedule hit 1 only): eviction now goes through and
  // the session restores transparently with its labels.
  clock.AdvanceSeconds(10);
  EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  EXPECT_EQ(manager.active_sessions(), 0u);
  auto restored = manager.Info(info->id);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_labeled, 4u);
}

// The lost-restore pin: a restore whose snapshot read fails must leave the
// id evicted, so the very next lookup restores it with every label.
TEST(SessionManagerFaultTest, FailedRestoreLeavesSessionRecoverable) {
  FakeClock clock;
  const SessionManagerOptions options = FaultOptions(&clock, "readf");
  SessionManager manager(options, FaultTestTablePath());
  auto info = manager.Create(FaultSpec());
  ASSERT_TRUE(info.ok());
  LabelViews(manager, info->id, 5);
  clock.AdvanceSeconds(10);
  ASSERT_EQ(manager.EvictIdleOlderThan(0.0), 1u);

  fault::FaultInjector injector(1);
  injector.SetSchedule("snapshot.read_fail", {1});
  fault::ScopedFaultInjector scoped(&injector);

  auto failed = manager.Info(info->id);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(failed.status().IsNotFound())
      << "a failed restore must not report the session as gone";
  EXPECT_EQ(manager.evicted_sessions(), 1u);

  auto recovered = manager.Info(info->id);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->num_labeled, 5u);
  ExpectNothingQuarantined(manager, options);
}

TEST(SessionManagerFaultTest, SessionIoRestoreFaultAlsoRecoverable) {
  FakeClock clock;
  const SessionManagerOptions options = FaultOptions(&clock, "iorestore");
  SessionManager manager(options, FaultTestTablePath());
  auto info = manager.Create(FaultSpec());
  ASSERT_TRUE(info.ok());
  LabelViews(manager, info->id, 2);
  clock.AdvanceSeconds(10);
  ASSERT_EQ(manager.EvictIdleOlderThan(0.0), 1u);

  fault::FaultInjector injector(1);
  injector.SetSchedule("session_io.restore", {1});
  fault::ScopedFaultInjector scoped(&injector);

  EXPECT_FALSE(manager.Info(info->id).ok());
  EXPECT_EQ(manager.evicted_sessions(), 1u);
  auto recovered = manager.Info(info->id);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->num_labeled, 2u);
  ExpectNothingQuarantined(manager, options);
}

// The eviction use-after-free pin (PR 2 review bug 1): one thread uses a
// session while another evicts it as aggressively as possible.  Under
// TSan/ASan any touch of a freed Session turns this into a hard failure.
TEST(SessionManagerFaultTest, ConcurrentUseAndEvictionIsSafe) {
  FakeClock clock;
  SessionManager manager(FaultOptions(&clock, "uafhammer"),
                         FaultTestTablePath());
  auto info = manager.Create(FaultSpec());
  ASSERT_TRUE(info.ok());
  const std::string id = info->id;

  std::atomic<bool> stop{false};
  std::thread evictor([&manager, &clock, &stop] {
    while (!stop.load()) {
      clock.AdvanceSeconds(10);
      manager.EvictIdleOlderThan(0.0);
    }
  });

  int labels = 0;
  for (int i = 0; i < 60; ++i) {
    auto batch = manager.Next(id);
    if (!batch.ok() || batch->views.empty()) continue;
    if (manager.Label(id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0).ok()) {
      ++labels;
    }
  }
  stop.store(true);
  evictor.join();

  auto final_info = manager.Info(id);
  ASSERT_TRUE(final_info.ok()) << final_info.status().ToString();
  EXPECT_EQ(final_info->num_labeled, static_cast<size_t>(labels));
}

// The full churn scenario the stress driver runs, shrunk to test size:
// several writer threads each own one session and label it while
// snapshot and session_io faults fire probabilistically and an eviction
// thread flushes everything it can.  After the faults are gone, every
// session must resolve with exactly the labels its owner got
// acknowledged.  Journal (wal.*) faults belong to the crash suites: they
// make a label's outcome indeterminate, which this exact count forbids.
TEST(SessionManagerFaultTest, ChurnUnderPersistenceFaultsLosesNothing) {
  FakeClock clock;
  SessionManager manager(FaultOptions(&clock, "churn"),
                         FaultTestTablePath());

  fault::FaultInjector injector(20260805);
  injector.SetProbability("snapshot.rename_fail", 0.4);
  injector.SetProbability("snapshot.read_fail", 0.4);
  injector.SetProbability("session_io.save", 0.1);
  injector.SetProbability("session_io.restore", 0.1);

  constexpr int kWriters = 3;
  constexpr int kIterations = 40;
  std::vector<std::string> ids(kWriters);
  std::vector<size_t> acked(kWriters, 0);
  for (int w = 0; w < kWriters; ++w) {
    auto info = manager.Create(FaultSpec());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ids[w] = info->id;
  }

  {
    fault::ScopedFaultInjector scoped(&injector);
    std::atomic<bool> stop{false};
    std::thread evictor([&manager, &clock, &stop] {
      while (!stop.load()) {
        clock.AdvanceSeconds(10);
        manager.EvictIdleOlderThan(0.0);
      }
    });
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&manager, &ids, &acked, w] {
        Rng rng(100 + static_cast<uint64_t>(w));
        for (int i = 0; i < kIterations; ++i) {
          auto batch = manager.Next(ids[static_cast<size_t>(w)]);
          if (!batch.ok() || batch->views.empty()) continue;
          const double label = rng.NextDouble() < 0.5 ? 1.0 : 0.0;
          if (manager
                  .Label(ids[static_cast<size_t>(w)], batch->views[0], label)
                  .ok()) {
            ++acked[static_cast<size_t>(w)];
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true);
    evictor.join();
  }  // faults uninstalled

  for (int w = 0; w < kWriters; ++w) {
    auto info = manager.Info(ids[static_cast<size_t>(w)]);
    ASSERT_TRUE(info.ok())
        << "session lost: " << info.status().ToString();
    EXPECT_EQ(info->num_labeled, acked[static_cast<size_t>(w)])
        << "writer " << w;
  }
}

// Faults only fire while installed: the same manager behaves normally
// before and after the scoped window (guards against leaked state in the
// global injector pointer).
TEST(SessionManagerFaultTest, FaultsStopAtScopeExit) {
  FakeClock clock;
  SessionManager manager(FaultOptions(&clock, "scope"),
                         FaultTestTablePath());
  auto info = manager.Create(FaultSpec());
  ASSERT_TRUE(info.ok());
  {
    fault::FaultInjector injector(1);
    injector.SetProbability("snapshot.rename_fail", 1.0);
    fault::ScopedFaultInjector scoped(&injector);
    clock.AdvanceSeconds(10);
    EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 0u);
  }
  clock.AdvanceSeconds(10);
  EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  EXPECT_TRUE(manager.Info(info->id).ok());
}

}  // namespace
}  // namespace vs::serve
