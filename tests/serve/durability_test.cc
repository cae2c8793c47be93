#include "serve/durability.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest tmp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "vs_durability_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good());
}

/// ReadWalFile with the Result unwrapped (these tests only read files
/// that exist).
WalScan MustReadWal(const std::string& path) {
  auto scan = ReadWalFile(path);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  return scan.ok() ? *std::move(scan) : WalScan{};
}

std::vector<std::string> SamplePayloads() {
  return {"label\tSUM(m1) BY color\t1",
          "label\tAVG(m2) BY size\t0.12500000000000001",
          "",  // empty payload is a valid record
          std::string(300, 'x'),
          "label\tMAX(m1) BY color\t0"};
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WalFramingTest, EncodeDecodeRoundTrips) {
  std::string journal;
  for (const std::string& payload : SamplePayloads()) {
    journal += EncodeWalRecord(payload);
  }
  WalScan scan = DecodeWal(journal);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, journal.size());
  ASSERT_EQ(scan.records.size(), SamplePayloads().size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i], SamplePayloads()[i]);
  }
}

TEST(WalFramingTest, EmptyJournalIsClean) {
  WalScan scan = DecodeWal("");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(WalFramingTest, CorruptPayloadStopsTheScan) {
  std::string journal;
  for (const std::string& payload : SamplePayloads()) {
    journal += EncodeWalRecord(payload);
  }
  // Flip one byte inside the payload of record 2 (skip two full frames).
  const size_t frame0 = EncodeWalRecord(SamplePayloads()[0]).size();
  const size_t frame1 = EncodeWalRecord(SamplePayloads()[1]).size();
  std::string bad = journal;
  bad[frame0 + 10] ^= 0x40;
  WalScan scan = DecodeWal(bad);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, frame0);
  EXPECT_EQ(scan.records[0], SamplePayloads()[0]);
  (void)frame1;
}

TEST(WalFramingTest, InsaneLengthPrefixIsTorn) {
  std::string journal = EncodeWalRecord("good");
  // A frame claiming a 16 MiB payload (over the sanity cap) must stop the
  // scan rather than attempt a giant allocation.
  std::string huge(8, '\0');
  huge[2] = 0x01;  // little-endian 0x01000000 = 16 MiB
  huge[3] = 0x01;
  WalScan scan = DecodeWal(journal + huge + std::string(64, 'z'));
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "good");
}

// ---------------------------------------------------------------------------
// Satellite (d): truncate the journal at EVERY byte offset.  Recovery must
// always succeed, always yield a strict prefix of the original records,
// never fabricate data, and be idempotent when re-run on its own output.
// ---------------------------------------------------------------------------

TEST(WalTornTailPropertyTest, EveryTruncationOffsetRecoversAPrefix) {
  const std::vector<std::string> payloads = SamplePayloads();
  std::string journal;
  std::vector<size_t> boundaries = {0};  // byte offsets of record ends
  for (const std::string& payload : payloads) {
    journal += EncodeWalRecord(payload);
    boundaries.push_back(journal.size());
  }

  for (size_t cut = 0; cut <= journal.size(); ++cut) {
    const std::string truncated = journal.substr(0, cut);
    WalScan scan = DecodeWal(truncated);

    // The valid prefix is the largest record boundary at or below the cut.
    size_t expected_records = 0;
    size_t expected_bytes = 0;
    for (size_t b = 0; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        expected_records = b;
        expected_bytes = boundaries[b];
      }
    }
    ASSERT_EQ(scan.records.size(), expected_records) << "cut=" << cut;
    ASSERT_EQ(scan.valid_bytes, expected_bytes) << "cut=" << cut;
    ASSERT_EQ(scan.torn_tail, cut != expected_bytes) << "cut=" << cut;
    for (size_t i = 0; i < scan.records.size(); ++i) {
      ASSERT_EQ(scan.records[i], payloads[i]) << "cut=" << cut;
    }

    // Idempotence: decoding the trusted prefix again changes nothing.
    WalScan again = DecodeWal(truncated.substr(0, scan.valid_bytes));
    ASSERT_FALSE(again.torn_tail) << "cut=" << cut;
    ASSERT_EQ(again.records, scan.records) << "cut=" << cut;
    ASSERT_EQ(again.valid_bytes, scan.valid_bytes) << "cut=" << cut;
  }
}

TEST(WalTornTailPropertyTest, AppendAfterTruncationNeverResurrects) {
  // A writer reopened with trusted_bytes must clip the torn tail so the
  // next append lands at the trusted boundary, not after garbage.
  const std::string dir = ScratchDir("reopen");
  const std::string path = dir + "/s.wal";
  const std::string r1 = EncodeWalRecord("one");
  const std::string r2 = EncodeWalRecord("two");
  WriteAll(path, r1 + r2.substr(0, r2.size() / 2));  // torn second record

  WalScan scan = MustReadWal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);

  internal::DurabilityCounters counters;
  auto writer = WalWriter::Open(path, /*do_fsync=*/false, scan.valid_bytes,
                                &counters);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append("three").ok());

  WalScan after = MustReadWal(path);
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[0], "one");
  EXPECT_EQ(after.records[1], "three");  // "two" is gone for good
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

TEST(WalWriterTest, AppendsAreDurableAndCounted) {
  const std::string dir = ScratchDir("writer");
  const std::string path = dir + "/s.wal";
  internal::DurabilityCounters counters;
  auto writer = WalWriter::Open(path, /*do_fsync=*/true, 0, &counters);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->durable_bytes(), 0u);
  ASSERT_TRUE(writer->Append("a").ok());
  ASSERT_TRUE(writer->Append("bb").ok());
  EXPECT_EQ(writer->pending_records(), 2u);
  EXPECT_GT(writer->durable_bytes(), 0u);

  WalScan scan = MustReadWal(path);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, writer->durable_bytes());
}

TEST(WalWriterTest, ResetTruncatesAndHeals) {
  const std::string dir = ScratchDir("reset");
  const std::string path = dir + "/s.wal";
  internal::DurabilityCounters counters;
  auto writer = WalWriter::Open(path, false, 0, &counters);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("a").ok());
  ASSERT_TRUE(writer->Reset().ok());
  EXPECT_EQ(writer->durable_bytes(), 0u);
  EXPECT_EQ(writer->pending_records(), 0u);
  ASSERT_TRUE(writer->Append("b").ok());
  WalScan scan = MustReadWal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "b");
}

TEST(WalWriterTest, InjectedAppendFailureRollsBack) {
  const std::string dir = ScratchDir("appendfail");
  const std::string path = dir + "/s.wal";
  internal::DurabilityCounters counters;
  auto writer = WalWriter::Open(path, false, 0, &counters);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("kept").ok());
  const size_t durable = writer->durable_bytes();

  fault::FaultInjector injector(7);
  injector.SetSchedule("wal.append_fail", {1});
  fault::ScopedFaultInjector scoped(&injector);
  EXPECT_FALSE(writer->Append("lost").ok());
  // The half-written frame was truncated away; the writer is still usable.
  EXPECT_EQ(writer->durable_bytes(), durable);
  EXPECT_FALSE(writer->broken());
  ASSERT_TRUE(writer->Append("next").ok());

  WalScan scan = MustReadWal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], "kept");
  EXPECT_EQ(scan.records[1], "next");
}

TEST(WalWriterTest, InjectedFsyncFailurePoisonsUntilReset) {
  const std::string dir = ScratchDir("fsyncfail");
  const std::string path = dir + "/s.wal";
  internal::DurabilityCounters counters;
  auto writer = WalWriter::Open(path, /*do_fsync=*/true, 0, &counters);
  ASSERT_TRUE(writer.ok());

  fault::FaultInjector injector(7);
  injector.SetSchedule("wal.fsync_fail", {1});
  {
    fault::ScopedFaultInjector scoped(&injector);
    EXPECT_FALSE(writer->Append("unsynced").ok());
  }
  // After a failed fsync the kernel may have dropped dirty pages — the
  // journal cannot be trusted again until a snapshot supersedes it.
  EXPECT_TRUE(writer->broken());
  EXPECT_FALSE(writer->Append("refused").ok());
  ASSERT_TRUE(writer->Reset().ok());
  EXPECT_FALSE(writer->broken());
  ASSERT_TRUE(writer->Append("healed").ok());
  WalScan scan = MustReadWal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "healed");
}

// ---------------------------------------------------------------------------
// Atomic snapshot writes
// ---------------------------------------------------------------------------

TEST(WriteFileAtomicTest, WritesAndReplaces) {
  const std::string dir = ScratchDir("atomic");
  ASSERT_TRUE(WriteFileAtomic(dir, "f.snap", "v1", true).ok());
  auto read = ReadFileFully(dir + "/f.snap");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v1");
  ASSERT_TRUE(WriteFileAtomic(dir, "f.snap", "v2", true).ok());
  EXPECT_EQ(*ReadFileFully(dir + "/f.snap"), "v2");
  // No temp droppings.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".snap") << entry.path();
  }
}

TEST(WriteFileAtomicTest, InjectedRenameFailureLeavesOldContent) {
  const std::string dir = ScratchDir("renamefail");
  ASSERT_TRUE(WriteFileAtomic(dir, "f.snap", "old", true).ok());

  fault::FaultInjector injector(7);
  injector.SetSchedule("snapshot.rename_fail", {1});
  fault::ScopedFaultInjector scoped(&injector);
  EXPECT_FALSE(WriteFileAtomic(dir, "f.snap", "new", true).ok());
  EXPECT_EQ(*ReadFileFully(dir + "/f.snap"), "old");
  // The failed attempt's temp file was unlinked.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "f.snap");
  }
  EXPECT_EQ(entries, 1u);
}

TEST(ReadWalFileTest, InjectedCorruptionClipsTheScan) {
  const std::string dir = ScratchDir("corrupt");
  const std::string path = dir + "/s.wal";
  std::string journal;
  for (int i = 0; i < 8; ++i) {
    journal += EncodeWalRecord("record " + std::to_string(i));
  }
  WriteAll(path, journal);

  fault::FaultInjector injector(7);
  injector.SetSchedule("recover.corrupt_record", {1});
  fault::ScopedFaultInjector scoped(&injector);
  WalScan scan = MustReadWal(path);
  // The injected bit flip lands mid-file: the scan keeps the prefix and
  // reports the tail torn instead of failing recovery.
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_LT(scan.records.size(), 8u);
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i], "record " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Recovery scan + quarantine
// ---------------------------------------------------------------------------

TEST(DurabilityManagerTest, ScanRecoversSnapshotAndJournal) {
  DurabilityOptions options;
  options.dir = ScratchDir("scan");
  options.fsync = false;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  ASSERT_TRUE(manager.SaveSnapshot("s1", "snapshot-text").ok());
  auto wal = manager.OpenWal("s1", 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append("l1").ok());
  ASSERT_TRUE(wal->Append("l2").ok());

  DurabilityManager reader(options);
  ASSERT_TRUE(reader.Init().ok());
  auto recovered = reader.ScanForRecovery();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0], "s1");
  // The scan only lists ids; the files are read where a session restores.
  auto snapshot = ReadFileFully(reader.SnapshotPath("s1"));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*snapshot, "snapshot-text");
  auto journal = reader.ReadWal("s1");
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(journal->records.size(), 2u);
  EXPECT_EQ(reader.stats().quarantined, 0u);
  EXPECT_EQ(reader.stats().torn_tails, 0u);
}

TEST(DurabilityManagerTest, OrphanJournalIsQuarantined) {
  DurabilityOptions options;
  options.dir = ScratchDir("orphan");
  options.fsync = false;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  WriteAll(options.dir + "/ghost.wal", EncodeWalRecord("x"));
  ASSERT_TRUE(manager.SaveSnapshot("live", "text").ok());

  auto recovered = manager.ScanForRecovery();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0], "live");
  EXPECT_GE(manager.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(options.dir + "/ghost.wal"));
  // The bytes moved into quarantine/ rather than being destroyed.
  size_t quarantined_files = 0;
  for (const auto& entry :
       fs::directory_iterator(options.dir + "/quarantine")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);
}

TEST(DurabilityManagerTest, NonRegularSnapshotEntryIsSkipped) {
  DurabilityOptions options;
  options.dir = ScratchDir("unreadable");
  options.fsync = false;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  // A directory named like a snapshot is not a session: the scan lists
  // regular files only.
  fs::create_directories(options.dir + "/bad.snap");
  ASSERT_TRUE(manager.SaveSnapshot("good", "text").ok());

  auto recovered = manager.ScanForRecovery();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0], "good");
  EXPECT_EQ(manager.stats().quarantined, 0u);
  EXPECT_TRUE(fs::is_directory(options.dir + "/bad.snap"));
}

TEST(DurabilityManagerTest, LeftoverTempFilesAreRemoved) {
  DurabilityOptions options;
  options.dir = ScratchDir("tmpclean");
  options.fsync = false;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  WriteAll(options.dir + "/s1.snap.tmp", "half-written");
  ASSERT_TRUE(manager.SaveSnapshot("s1", "text").ok());
  auto recovered = manager.ScanForRecovery();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(fs::exists(options.dir + "/s1.snap.tmp"));
  ASSERT_EQ(recovered->size(), 1u);
}

TEST(DurabilityManagerTest, RemoveSessionDeletesBothFiles) {
  DurabilityOptions options;
  options.dir = ScratchDir("remove");
  options.fsync = false;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  ASSERT_TRUE(manager.SaveSnapshot("s1", "text").ok());
  auto wal = manager.OpenWal("s1", 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append("l").ok());
  EXPECT_TRUE(fs::exists(manager.SnapshotPath("s1")));
  EXPECT_TRUE(fs::exists(manager.WalPath("s1")));
  manager.RemoveSession("s1");
  EXPECT_FALSE(fs::exists(manager.SnapshotPath("s1")));
  EXPECT_FALSE(fs::exists(manager.WalPath("s1")));
}

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  // Chaining is equivalent to one pass.
  const uint32_t partial = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, partial), 0xcbf43926u);
}

}  // namespace
}  // namespace vs::serve
