#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"
#include "serve/durability.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

namespace fs = std::filesystem;

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 11;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_dur_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "vs_mgr_dur_" + name;
  fs::remove_all(dir);
  return dir;  // the manager creates it
}

SessionManagerOptions DurableOptions(const std::string& dir) {
  SessionManagerOptions options;
  options.max_sessions = 8;
  options.session_ttl_seconds = 3600;
  options.durability_dir = dir;
  options.durability_fsync = false;  // unit tests trade fsync for speed
  options.snapshot_every_labels = 4;
  return options;
}

CreateSpec SmallSpec() {
  CreateSpec spec;
  spec.options.k = 3;
  spec.options.seed = 5;
  return spec;
}

/// Labels \p n next-views alternately positive/negative; returns the
/// labeled (view, value) pairs in submission order.
std::vector<std::pair<size_t, double>> LabelSome(SessionManager& manager,
                                                 const std::string& id,
                                                 int n) {
  std::vector<std::pair<size_t, double>> out;
  for (int i = 0; i < n; ++i) {
    auto batch = manager.Next(id);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || batch->views.empty()) break;
    const double value = i % 2 == 0 ? 1.0 : 0.0;
    auto labeled = manager.Label(id, batch->views[0], value);
    EXPECT_TRUE(labeled.ok()) << labeled.status().ToString();
    if (labeled.ok()) out.emplace_back(batch->views[0], value);
  }
  return out;
}

void ExpectSameLabels(SessionManager& manager, const std::string& id,
                      const std::vector<std::pair<size_t, double>>& want) {
  auto labels = manager.Labels(id);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->views.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(labels->views[i], want[i].first) << "label " << i;
    EXPECT_DOUBLE_EQ(labels->values[i], want[i].second) << "label " << i;
  }
}

TEST(SessionManagerDurabilityTest, CrashRecoveryRestoresAckedLabels) {
  const std::string dir = ScratchDir("crash");
  std::string id;
  std::vector<std::pair<size_t, double>> labeled;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    id = info->id;
    labeled = LabelSome(manager, id, 7);
    ASSERT_EQ(labeled.size(), 7u);
    // Destroyed without drain: in-memory state is lost, as in a crash.
    // 7 labels with snapshot_every_labels=4 leaves a journal tail.
    EXPECT_GT(manager.durability_stats().wal_appends, 0u);
  }

  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  const DurabilityStats stats = recovered.durability_stats();
  EXPECT_EQ(stats.recovered_sessions, 1u);
  EXPECT_GT(stats.replayed_labels, 0u);
  ExpectSameLabels(recovered, id, labeled);

  // The recovered session keeps working — and keeps journaling.
  auto more = LabelSome(recovered, id, 2);
  EXPECT_EQ(more.size(), 2u);
}

TEST(SessionManagerDurabilityTest, GracefulDrainThenRestart) {
  const std::string dir = ScratchDir("drain");
  std::string id;
  std::vector<std::pair<size_t, double>> labeled;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    id = info->id;
    labeled = LabelSome(manager, id, 5);
    EXPECT_EQ(manager.PersistAllSessions(), 1u);
  }
  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  ExpectSameLabels(recovered, id, labeled);
  // The drain rotated the journal: recovery replays nothing.
  EXPECT_EQ(recovered.durability_stats().replayed_labels, 0u);
}

TEST(SessionManagerDurabilityTest, DeleteRemovesFilesAndStaysGone) {
  const std::string dir = ScratchDir("delete");
  std::string id;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    id = info->id;
    LabelSome(manager, id, 3);
    ASSERT_TRUE(manager.Delete(id).ok());
    EXPECT_FALSE(fs::exists(dir + "/" + id + ".snap"));
    EXPECT_FALSE(fs::exists(dir + "/" + id + ".wal"));
  }
  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.durability_stats().recovered_sessions, 0u);
  EXPECT_TRUE(recovered.Info(id).status().IsNotFound());
}

TEST(SessionManagerDurabilityTest, TornJournalTailIsClippedNotFatal) {
  const std::string dir = ScratchDir("torn");
  std::string id;
  std::vector<std::pair<size_t, double>> labeled;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    id = info->id;
    labeled = LabelSome(manager, id, 5);
  }
  // Simulate a crash mid-append: garbage after the durable records.
  {
    std::ofstream wal(dir + "/" + id + ".wal",
                      std::ios::binary | std::ios::app);
    // Length prefix claims 19 bytes; only a half-frame follows.
    const std::string garbage("\x13\x00\x00\x00garbage-half-frame", 22);
    wal.write(garbage.data(),
              static_cast<std::streamsize>(garbage.size()));
  }
  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.durability_stats().torn_tails, 1u);
  ExpectSameLabels(recovered, id, labeled);
  // Appending after recovery lands at the trusted offset: a second
  // restart still sees exactly the acknowledged labels.
  auto more = LabelSome(recovered, id, 1);
  ASSERT_EQ(more.size(), 1u);
  labeled.insert(labeled.end(), more.begin(), more.end());
  EXPECT_EQ(recovered.PersistAllSessions(), 1u);

  SessionManager third(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(third.RecoverFromDisk().ok());
  ExpectSameLabels(third, id, labeled);
}

TEST(SessionManagerDurabilityTest, CreateIsDurableBeforeAck) {
  const std::string dir = ScratchDir("create");
  SessionManager manager(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(manager.RecoverFromDisk().ok());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  // The acknowledged create is already on disk, before any label.
  EXPECT_TRUE(fs::exists(dir + "/" + info->id + ".snap"));
}

TEST(SessionManagerDurabilityTest, DurableEvictionRestoresTransparently) {
  const std::string dir = ScratchDir("evict");
  FakeClock clock;
  SessionManagerOptions options = DurableOptions(dir);
  options.clock = &clock;
  SessionManager manager(options, TestTablePath());
  ASSERT_TRUE(manager.RecoverFromDisk().ok());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());
  auto labeled = LabelSome(manager, info->id, 5);

  clock.AdvanceSeconds(10.0);
  EXPECT_EQ(manager.EvictIdleOlderThan(5.0), 1u);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.evicted_sessions(), 1u);
  // Only the session's snapshot and journal hold it — nothing else is
  // written on eviction.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == info->id + ".snap" || name == info->id + ".wal" ||
                name == "quarantine")
        << name;
  }
  ExpectSameLabels(manager, info->id, labeled);  // transparent restore
  EXPECT_EQ(manager.active_sessions(), 1u);
}

// A restore that can never succeed — a snapshot whose saved views are not
// in its table's matrix, or a snapshot that is gone — is permanent: the
// files go to quarantine/ and the id is released (NotFound, and free for a
// new create) instead of failing every later lookup.  Transient failures
// are the fault suite's (FailedRestoreLeavesSessionRecoverable).
TEST(SessionManagerDurabilityTest, PermanentRestoreFailureReleasesTheId) {
  data::SyntheticOptions synthetic;
  synthetic.num_rows = 200;
  synthetic.num_dimensions = 2;
  synthetic.num_measures = 2;
  const std::string other_table = ::testing::TempDir() + "serve_dur_syn.vst";
  ASSERT_TRUE(
      data::WriteTableFile(*data::GenerateSynthetic(synthetic), other_table)
          .ok());

  for (const bool remove_snapshot : {false, true}) {
    SCOPED_TRACE(remove_snapshot ? "snapshot removed" : "unknown view");
    const std::string dir = ScratchDir("permanent");
    FakeClock clock;
    SessionManagerOptions options = DurableOptions(dir);
    options.clock = &clock;
    SessionManager manager(options, TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(LabelSome(manager, info->id, 3).size(), 3u);
    clock.AdvanceSeconds(10.0);
    ASSERT_EQ(manager.EvictIdleOlderThan(5.0), 1u);

    const std::string snap = dir + "/" + info->id + ".snap";
    if (remove_snapshot) {
      ASSERT_TRUE(fs::remove(snap));
    } else {
      // Point the envelope at a table with other columns; the session
      // payload and its CRC stay intact.
      auto text = ReadFileFully(snap);
      ASSERT_TRUE(text.ok());
      const size_t begin = text->find("table: ") + 7;
      text->replace(begin, text->find('\n', begin) - begin, other_table);
      std::ofstream out(snap, std::ios::binary | std::ios::trunc);
      out << *text;
    }

    auto failed = manager.Info(info->id);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsNotFound()) << failed.status().ToString();
    EXPECT_EQ(manager.evicted_sessions(), 0u);
    EXPECT_EQ(manager.durability_stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(snap));
    EXPECT_EQ(fs::exists(dir + "/quarantine/" + info->id + ".snap"),
              !remove_snapshot);
    EXPECT_TRUE(manager.Info(info->id).status().IsNotFound());
    CreateSpec again = SmallSpec();
    again.requested_id = info->id;
    auto recreated = manager.Create(again);
    ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
    EXPECT_EQ(recreated->num_labeled, 0u);
  }
}

TEST(SessionManagerDurabilityTest, LabelFailsCleanlyWhenJournalBroken) {
  const std::string dir = ScratchDir("brokenwal");
  SessionManagerOptions options = DurableOptions(dir);
  options.durability_fsync = true;  // fsync failures need fsync enabled
  SessionManager manager(options, TestTablePath());
  ASSERT_TRUE(manager.RecoverFromDisk().ok());
  auto info = manager.Create(SmallSpec());
  ASSERT_TRUE(info.ok());

  // Fail the journal fsync AND the repair snapshot: the label must be
  // rejected (the client is told the outcome is indeterminate).
  fault::FaultInjector injector(3);
  injector.SetProbability("wal.fsync_fail", 1.0);
  injector.SetProbability("snapshot.rename_fail", 1.0);
  size_t rejected_view = 0;
  {
    fault::ScopedFaultInjector scoped(&injector);
    auto batch = manager.Next(info->id);
    ASSERT_TRUE(batch.ok());
    rejected_view = batch->views[0];
    auto labeled = manager.Label(info->id, batch->views[0], 1.0);
    EXPECT_FALSE(labeled.ok());
  }
  // Faults healed: the next rotation repairs the journal and labeling
  // works again.
  auto batch = manager.Next(info->id);
  ASSERT_TRUE(batch.ok());
  auto labeled = manager.Label(info->id, rejected_view, 1.0);
  // The failed label stayed applied in memory (indeterminate outcome), so
  // relabeling answers AlreadyExists; a fresh view succeeds.
  EXPECT_TRUE(labeled.ok() || labeled.status().IsAlreadyExists());
}

TEST(SessionManagerDurabilityTest, RecoveryQuarantinesGarbageSnapshots) {
  const std::string dir = ScratchDir("garbage");
  std::string good_id;
  std::vector<std::pair<size_t, double>> labeled;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    good_id = info->id;
    labeled = LabelSome(manager, good_id, 3);
  }
  {
    std::ofstream bad(dir + "/zzzz.snap", std::ios::binary);
    bad << "not a session envelope at all";
  }
  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  // The garbage snapshot is out of the way; the good session recovered.
  ExpectSameLabels(recovered, good_id, labeled);
  EXPECT_TRUE(recovered.Info("zzzz").status().IsNotFound());
  EXPECT_TRUE(fs::exists(dir + "/quarantine"));
  bool quarantined = false;
  for (const auto& entry : fs::directory_iterator(dir + "/quarantine")) {
    if (entry.path().filename().string().find("zzzz") != std::string::npos) {
      quarantined = true;
    }
  }
  EXPECT_TRUE(quarantined);
}

TEST(SessionManagerDurabilityTest, RecoverFromDiskIsIdempotent) {
  const std::string dir = ScratchDir("idem");
  std::string id;
  std::vector<std::pair<size_t, double>> labeled;
  {
    SessionManager manager(DurableOptions(dir), TestTablePath());
    ASSERT_TRUE(manager.RecoverFromDisk().ok());
    auto info = manager.Create(SmallSpec());
    ASSERT_TRUE(info.ok());
    id = info->id;
    labeled = LabelSome(manager, id, 5);
  }
  SessionManager recovered(DurableOptions(dir), TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.active_sessions() + recovered.evicted_sessions(), 1u);
  ExpectSameLabels(recovered, id, labeled);
}

}  // namespace
}  // namespace vs::serve
