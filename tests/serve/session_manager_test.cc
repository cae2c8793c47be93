#include "serve/session_manager.h"

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"

namespace vs::serve {
namespace {

/// Writes a small deterministic table once per process and returns its path.
const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 11;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_mgr_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

SessionManagerOptions SmallOptions() {
  SessionManagerOptions options;
  options.max_sessions = 8;
  options.session_ttl_seconds = 3600;  // tests evict explicitly
  return options;
}

/// SmallOptions plus a fresh durability directory, which is where evicted
/// sessions go (fsync off: unit tests trade it for speed).
SessionManagerOptions DurableOptions(const std::string& tag) {
  SessionManagerOptions options = SmallOptions();
  options.durability_dir = ::testing::TempDir() + "serve_mgr_" + tag;
  std::filesystem::remove_all(options.durability_dir);
  options.durability_fsync = false;
  return options;
}

CreateSpec SmallSpec() {
  CreateSpec spec;
  spec.options.k = 3;
  spec.options.seed = 5;
  return spec;
}

/// Labels \p n batches of views alternately positive/negative.
void LabelSome(SessionManager& manager, const std::string& id, int n) {
  for (int i = 0; i < n; ++i) {
    auto batch = manager.Next(id);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_FALSE(batch->views.empty());
    auto labeled =
        manager.Label(id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0);
    ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  }
}

TEST(SessionManagerTest, LifecycleCreateNextLabelTopKDelete) {
  SessionManager manager(SmallOptions(), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->id.empty());
  EXPECT_EQ(info->k, 3);
  EXPECT_EQ(info->num_labeled, 0u);
  EXPECT_TRUE(info->cold_start);
  EXPECT_GT(info->num_views, 0u);
  EXPECT_EQ(manager.active_sessions(), 1u);

  LabelSome(manager, info->id, 6);
  auto after = manager.Info(info->id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_labeled, 6u);

  auto topk = manager.TopK(info->id);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_EQ(topk->views.size(), 3u);
  EXPECT_EQ(topk->view_ids.size(), 3u);
  EXPECT_EQ(topk->scores.size(), 3u);

  EXPECT_TRUE(manager.Delete(info->id).ok());
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_TRUE(manager.Next(info->id).status().IsNotFound());
}

TEST(SessionManagerTest, UnknownIdsAreNotFound) {
  SessionManager manager(SmallOptions(), TestTablePath());
  EXPECT_TRUE(manager.Next("nope").status().IsNotFound());
  EXPECT_TRUE(manager.Label("nope", 0, 1.0).status().IsNotFound());
  EXPECT_TRUE(manager.TopK("nope").status().IsNotFound());
  EXPECT_TRUE(manager.Info("nope").status().IsNotFound());
  EXPECT_TRUE(manager.Delete("nope").IsNotFound());
}

TEST(SessionManagerTest, InvalidSpecsRejected) {
  SessionManager manager(SmallOptions(), TestTablePath());
  CreateSpec bad_k = SmallSpec();
  bad_k.options.k = 0;
  EXPECT_TRUE(manager.Create(bad_k).status().IsInvalidArgument());

  CreateSpec huge_k = SmallSpec();
  huge_k.options.k = 100000;
  EXPECT_TRUE(manager.Create(huge_k).status().IsInvalidArgument());

  CreateSpec bad_filter = SmallSpec();
  bad_filter.filter = "no_such_column > 5";
  EXPECT_FALSE(manager.Create(bad_filter).ok());

  CreateSpec bad_table = SmallSpec();
  bad_table.table_path = "/does/not/exist.vst";
  EXPECT_FALSE(manager.Create(bad_table).ok());
}

TEST(SessionManagerTest, SessionCapIsResourceExhausted) {
  SessionManagerOptions options = SmallOptions();
  options.max_sessions = 1;
  SessionManager manager(options, TestTablePath());
  auto first = manager.Create(SmallSpec());
  ASSERT_TRUE(first.ok());
  auto second = manager.Create(SmallSpec());
  EXPECT_TRUE(second.status().IsResourceExhausted());
  // Freeing the slot lets creation succeed again.
  ASSERT_TRUE(manager.Delete(first->id).ok());
  EXPECT_TRUE(manager.Create(SmallSpec()).ok());
}

TEST(SessionManagerTest, TableCacheIsShared) {
  SessionManager manager(SmallOptions(), TestTablePath());
  ASSERT_TRUE(manager.Create(SmallSpec()).ok());
  ASSERT_TRUE(manager.Create(SmallSpec()).ok());
  ASSERT_TRUE(manager.Create(SmallSpec()).ok());
  EXPECT_EQ(manager.cached_tables(), 1u);
  EXPECT_EQ(manager.active_sessions(), 3u);
}

TEST(SessionManagerTest, PreloadFailsFastOnBadTable) {
  SessionManager manager(SmallOptions(), "/does/not/exist.vst");
  EXPECT_FALSE(manager.PreloadDefaultTable().ok());
}

TEST(SessionManagerTest, EvictAndRestoreRoundTrips) {
  SessionManager manager(DurableOptions("evict"), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  LabelSome(manager, info->id, 6);
  auto topk_before = manager.TopK(info->id);
  ASSERT_TRUE(topk_before.ok());

  EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.evicted_sessions(), 1u);

  // Any access transparently restores: same top-k, same label count.
  auto topk_after = manager.TopK(info->id);
  ASSERT_TRUE(topk_after.ok()) << topk_after.status().ToString();
  EXPECT_EQ(topk_after->views, topk_before->views);
  EXPECT_EQ(manager.active_sessions(), 1u);
  EXPECT_EQ(manager.evicted_sessions(), 0u);

  auto restored_info = manager.Info(info->id);
  ASSERT_TRUE(restored_info.ok());
  EXPECT_EQ(restored_info->num_labeled, 6u);

  // The restored session keeps accepting labels.
  LabelSome(manager, info->id, 2);
  auto final_info = manager.Info(info->id);
  ASSERT_TRUE(final_info.ok());
  EXPECT_EQ(final_info->num_labeled, 8u);
}

TEST(SessionManagerTest, ConcurrentRestoresOfOneSessionAllSucceed) {
  // Many threads race to restore the same evicted session: the winner
  // inserts it and reopens its journal; losers must be handed the live
  // session rather than an error or a second journal handle.
  SessionManager manager(DurableOptions("race"), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  LabelSome(manager, info->id, 4);

  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&manager, &failures, &info] {
        auto topk = manager.TopK(info->id);
        if (!topk.ok()) failures.fetch_add(1);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_EQ(manager.active_sessions(), 1u);
  }
}

TEST(SessionManagerTest, EvictWithoutDurabilityDirDropsForGood) {
  SessionManager manager(SmallOptions(), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  EXPECT_EQ(manager.evicted_sessions(), 0u);
  EXPECT_TRUE(manager.Next(info->id).status().IsNotFound());
}

TEST(SessionManagerTest, DeleteWorksOnEvictedSessions) {
  SessionManager manager(DurableOptions("delete"), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  LabelSome(manager, info->id, 2);
  ASSERT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  EXPECT_TRUE(manager.Delete(info->id).ok());
  EXPECT_EQ(manager.evicted_sessions(), 0u);
  EXPECT_TRUE(manager.TopK(info->id).status().IsNotFound());
}

TEST(SessionManagerTest, RecentSessionsSurviveTtlSweep) {
  SessionManager manager(SmallOptions(), TestTablePath());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  // A generous idle threshold must not evict a just-used session.
  EXPECT_EQ(manager.EvictIdleOlderThan(3600.0), 0u);
  EXPECT_EQ(manager.active_sessions(), 1u);
}

}  // namespace
}  // namespace vs::serve
