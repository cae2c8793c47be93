#ifndef VS_SERVE_DURABILITY_H_
#define VS_SERVE_DURABILITY_H_

/// \file durability.h
/// \brief Crash-safe persistence for interactive sessions: a per-session
/// write-ahead label journal layered under atomic, checksummed snapshots.
///
/// The user's accumulated labels are a session's only ground truth — the
/// serving contract this layer implements is:
///
///   *every acknowledged label survives a crash; no unacknowledged label
///    is ever resurrected.*
///
/// Mechanics, per session id:
///
///  * `<id>.snap` — full session state (envelope + session_io v2 text,
///    which carries its own `crc32:` trailer).  Written via
///    `WriteFileAtomic`: temp file, fsync, rename, parent-dir fsync — a
///    reader sees either the old snapshot or the new one, never a torn
///    mix.
///  * `<id>.wal` — the write-ahead journal: one CRC32-framed,
///    length-prefixed record per acknowledged label since the last
///    snapshot, fsync'd before the request is acknowledged.  A crash can
///    only tear the final record; recovery stops at the first short or
///    bad-CRC frame (`torn tail` — expected, not an error) so a partially
///    written label is dropped, never half-applied.
///
/// This is the only way a session reaches disk: TTL eviction, graceful
/// drain and every N labels all rotate — write a fresh snapshot and
/// truncate the journal — and an evicted session restores from the same
/// pair of files it would recover from after a crash.  Recovery loads the
/// newest valid snapshot and replays the journal tail over it.
///
/// The startup scan (ScanForRecovery) only lists ids: it reads no
/// snapshot or journal, so one bad file never fails boot.  Every read
/// happens in the restore of an evicted or recovered id
/// (SessionManager::Restore), which quarantines (`quarantine/`) only
/// permanent failures — bytes that fail validation, a saved view the table
/// lacks, a missing snapshot — and fails the lookup without touching the
/// files on a transient one (read error, injected fault, resource limit),
/// so the next lookup retries.
///
/// Failure handling in the journal: a failed append is rolled back with
/// ftruncate to the last durable offset; a failed fsync poisons the
/// handle (`broken()`) because the kernel may have dropped dirty pages —
/// the next snapshot rotation repairs it (the snapshot captures the
/// in-memory state, then `Reset()` clears the journal).
///
/// Fault points (docs/TESTING.md): `wal.append_fail`, `wal.fsync_fail`,
/// `snapshot.rename_fail`, `snapshot.read_fail`, `recover.corrupt_record`.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"

namespace vs::serve {

struct DurabilityOptions {
  /// Root directory for `<id>.snap` / `<id>.wal` (+ `quarantine/`).
  std::string dir;
  /// fsync journal appends and snapshot writes.  Tests may disable it for
  /// speed; production keeps it on — it is the durability guarantee.
  bool fsync = true;
  /// Time source for snapshot-age accounting; nullptr = the real clock.
  const Clock* clock = nullptr;
};

/// One /healthz- and /metrics-shaped view of the layer's accounting.
struct DurabilityStats {
  uint64_t wal_bytes = 0;         ///< durable journal bytes pending snapshot
  uint64_t pending_records = 0;   ///< journal records not yet snapshotted
  uint64_t wal_appends = 0;
  uint64_t wal_append_failures = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  uint64_t recovered_sessions = 0;
  uint64_t replayed_labels = 0;
  uint64_t torn_tails = 0;
  uint64_t quarantined = 0;
  /// Seconds since the last successful snapshot; negative = never.
  double last_snapshot_age_seconds = -1.0;
};

/// \name Journal framing
/// A record is `[u32 LE payload size][u32 LE crc32(payload)][payload]`.
/// @{

/// Frames \p payload as one journal record.
std::string EncodeWalRecord(std::string_view payload);

/// Result of scanning a journal byte range.
struct WalScan {
  std::vector<std::string> records;  ///< every intact record, in order
  uint64_t valid_bytes = 0;          ///< prefix length the records cover
  bool torn_tail = false;  ///< trailing short/bad-CRC bytes were dropped
};

/// Decodes records until the bytes run out or a frame fails its check.
/// Total function: any input yields the longest valid prefix.
WalScan DecodeWal(std::string_view bytes);

/// Reads and decodes a journal file.  A missing file is an empty scan;
/// an unreadable one is an error.
vs::Result<WalScan> ReadWalFile(const std::string& path);
/// @}

/// Writes `dir/file_name` atomically: temp file + fsync + rename +
/// parent-dir fsync.  On any failure the destination is untouched.
vs::Status WriteFileAtomic(const std::string& dir,
                           const std::string& file_name,
                           std::string_view content, bool do_fsync);

/// Reads a whole file (shared by snapshot restore, recovery and tests).
/// A missing file is NotFound; any other failure is an IOError.
vs::Result<std::string> ReadFileFully(const std::string& path);

namespace internal {
/// Aggregate accounting shared by every WalWriter of one manager.
struct DurabilityCounters {
  std::atomic<uint64_t> wal_bytes{0};
  std::atomic<uint64_t> pending_records{0};
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_append_failures{0};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> snapshot_failures{0};
  std::atomic<uint64_t> recovered_sessions{0};
  std::atomic<uint64_t> replayed_labels{0};
  std::atomic<uint64_t> torn_tails{0};
  std::atomic<uint64_t> quarantined{0};
  std::atomic<int64_t> last_snapshot_us{-1};
};
}  // namespace internal

/// \brief Append-only handle on one session's journal.  Move-only; not
/// thread-safe (the owning session's mutex serializes it).
class WalWriter {
 public:
  /// Opens (creating if needed) \p path for appends.  \p trusted_bytes is
  /// the validated prefix length from a prior DecodeWal — anything past
  /// it (a torn tail) is truncated away so new records never land after
  /// garbage.  Counters may be null (standalone/unit use).
  static vs::Result<WalWriter> Open(const std::string& path, bool do_fsync,
                                    uint64_t trusted_bytes,
                                    internal::DurabilityCounters* counters);

  WalWriter() = default;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Frames, writes and fsyncs \p payload.  On success the record is
  /// durable.  On failure the file is rolled back to the last durable
  /// offset (or the handle is marked broken when rollback cannot be
  /// trusted) and the caller must not acknowledge the label.
  vs::Status Append(std::string_view payload);

  /// Truncates the journal to zero after a durable snapshot; heals a
  /// broken() handle.
  vs::Status Reset();

  /// True after a failure that makes further appends untrustworthy;
  /// Reset() (i.e. a successful snapshot rotation) repairs it.
  bool broken() const { return broken_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  uint64_t pending_records() const { return pending_records_; }
  bool valid() const { return fd_ >= 0; }

 private:
  void Close();
  /// Rolls the file back to durable_bytes_; marks broken on failure.
  void Rollback();

  int fd_ = -1;
  bool fsync_ = true;
  bool broken_ = false;
  uint64_t durable_bytes_ = 0;
  uint64_t pending_records_ = 0;
  internal::DurabilityCounters* counters_ = nullptr;
};

/// \brief Owns the durability directory: snapshot writes, journal
/// handles, the startup recovery scan, and quarantine.  Thread-safe (all
/// mutable state is atomic; file operations are per-session and the
/// caller serializes per session).
class DurabilityManager {
 public:
  explicit DurabilityManager(const DurabilityOptions& options);

  /// Creates the directory tree; call once before use.
  vs::Status Init();

  const std::string& dir() const { return options_.dir; }
  std::string SnapshotPath(const std::string& id) const;
  std::string WalPath(const std::string& id) const;

  /// Atomically replaces `<id>.snap` and stamps the snapshot clock.
  vs::Status SaveSnapshot(const std::string& id, std::string_view content);

  /// Opens `<id>.wal` for appends (see WalWriter::Open).
  vs::Result<WalWriter> OpenWal(const std::string& id,
                                uint64_t trusted_bytes);

  /// Removes the session's files (session deleted).
  void RemoveSession(const std::string& id);

  /// Reads and decodes `<id>.wal` (see ReadWalFile), counting a torn
  /// tail in `durability.torn_tails`.
  vs::Result<WalScan> ReadWal(const std::string& id);

  /// Lists the directory without reading any session file: returns the
  /// sorted ids of every regular `<id>.snap`, quarantines journals with no
  /// snapshot, and removes leftover `*.tmp` files from a crash
  /// mid-rotation.
  vs::Result<std::vector<std::string>> ScanForRecovery();

  /// Moves the session's files into `quarantine/` (they cannot be
  /// recovered); boot continues without them.
  void Quarantine(const std::string& id);

  /// Bumps the replayed-labels counters (recovery replays happen in the
  /// SessionManager, which owns the seekers).
  void CountReplayedLabels(uint64_t n);
  /// Bumps the recovered-sessions counters.
  void CountRecoveredSession();

  DurabilityStats stats() const;
  bool fsync_enabled() const { return options_.fsync; }

 private:
  const DurabilityOptions options_;
  const Clock* const clock_;
  internal::DurabilityCounters counters_;
};

}  // namespace vs::serve

#endif  // VS_SERVE_DURABILITY_H_
