#ifndef VS_SERVE_SESSION_MANAGER_H_
#define VS_SERVE_SESSION_MANAGER_H_

/// \file session_manager.h
/// \brief Concurrent registry of live ViewSeeker sessions — the stateful
/// heart of the serving subsystem.
///
/// Responsibilities:
///  * a shared TableCache so N sessions over one dataset load (and
///    enumerate views for) it exactly once;
///  * per-session locking: requests to different sessions run fully in
///    parallel, requests to one session serialize on its mutex;
///  * max-session backpressure — Create (and restore) beyond the cap fail
///    with ResourceExhausted, which the HTTP layer maps to 429;
///  * crash safety and TTL eviction through one persistence path
///    (serve/durability.h): with a durability directory configured, every
///    acknowledged label is journaled (fsync'd unless durability_fsync is
///    off) before the ack, snapshots rotate atomically, and
///    RecoverFromDisk() rebuilds the session registry after a crash.
///    Sessions idle past the TTL are rotated to a snapshot and dropped
///    from memory; any later request on the id transparently restores
///    them (rebuilding the feature matrix and replaying labels —
///    bit-identical estimators).  Without a durability directory, eviction
///    drops a session for good and its id answers NotFound.
///
/// Lock order: the registry mutex is never held while building matrices or
/// while a session mutex is held by the same thread *after* it; request
/// paths take registry -> release -> session, the reaper takes registry ->
/// try_lock(session).  No thread ever takes the registry mutex while
/// holding a session mutex.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "core/feature_matrix.h"
#include "core/seeker.h"
#include "core/utility_features.h"
#include "data/table.h"
#include "serve/durability.h"
#include "serve/feature_matrix_cache.h"

namespace vs::serve {

/// \brief SessionManager configuration.
struct SessionManagerOptions {
  /// Live-session cap; Create/restore beyond it is rejected (HTTP 429).
  size_t max_sessions = 256;
  /// Sessions idle longer than this are evicted: snapshotted to the
  /// durability directory, or dropped for good when there is none.
  double session_ttl_seconds = 300.0;
  /// Workers of the manager's one build pool, shared by every create's
  /// filter (data::SelectRows) and FeatureMatrix::Build (0 = inline).
  /// The creating thread runs tasks too, so the default, cores - 1, keeps
  /// every core busy.  On a 4-vCPU Xeon VM (RelWithDebInfo, 3 workers) it
  /// cut the median cold create of a 2M-row table from 55.4 to 26.1 ms
  /// against inline builds, for ~13% more peak RSS (the workers' malloc
  /// arenas).
  size_t feature_threads = ThreadPool::DefaultThreads();
  /// Default ViewSeeker option bounds.
  int max_k = 100;
  /// Salt for session-id generation.
  uint64_t seed = 0x5e551011;
  /// Time source for idle accounting (TTL eviction); nullptr = the real
  /// steady clock.  Tests inject a FakeClock so reaper/timeout tests
  /// advance time explicitly instead of sleeping.
  const Clock* clock = nullptr;
  /// \name Shared feature-matrix cache (see serve/feature_matrix_cache.h).
  /// Entries are keyed by build-content identity; 0 entries or bytes
  /// disables the cache (every session builds privately).
  /// @{
  size_t matrix_cache_entries = 64;
  size_t matrix_cache_bytes = 512ull * 1024 * 1024;
  double matrix_cache_ttl_seconds = 0.0;
  /// @}
  /// \name Crash-safe durability (see serve/durability.h).  Empty dir
  /// disables it: sessions live in memory only, and eviction drops them.
  /// @{
  std::string durability_dir;
  /// fsync journal appends + snapshots.  Leave on in production — it *is*
  /// the durability guarantee; tests may disable it for speed.
  bool durability_fsync = true;
  /// Rotate (snapshot + journal truncate) after this many journaled
  /// labels, bounding both journal size and recovery replay time.
  size_t snapshot_every_labels = 128;
  /// @}
};

/// \brief A table plus its enumerated views, shared across sessions.
struct LoadedTable {
  data::Table table;
  std::vector<core::ViewSpec> views;
};

/// \brief Everything a client needs to know about a session.
struct SessionInfo {
  std::string id;
  std::string table_path;
  std::string filter;
  std::string strategy;
  int k = 0;
  size_t num_views = 0;
  size_t num_labeled = 0;
  bool cold_start = true;
};

/// What Create needs; options are validated by ViewSeeker::Make.
struct CreateSpec {
  std::string table_path;  ///< empty = the manager's default table
  std::string filter;      ///< WHERE sub-grammar; empty = all rows
  /// Non-empty = use this id instead of generating one (the cluster
  /// router places sessions by hashing an id *it* chose).  Validated by
  /// ValidSessionId(); a live or evicted session under the id answers
  /// AlreadyExists.
  std::string requested_id;
  core::ViewSeekerOptions options;
};

/// Ids become durability filenames, so the alphabet is restricted:
/// 1..64 chars of [A-Za-z0-9._-], first char alphanumeric (no dotfiles,
/// no option-looking names, no path separators).
bool ValidSessionId(const std::string& id);

/// \brief Result of Next: the views the user should label now.
struct NextBatch {
  std::vector<size_t> views;
  std::vector<std::string> view_ids;
  bool cold_start = true;
};

/// \brief Result of TopK: current recommendation under the learned model.
struct TopKResult {
  std::vector<size_t> views;
  std::vector<std::string> view_ids;
  std::vector<double> scores;
};

/// \brief Result of Labels: everything the user has labeled, in order.
struct LabeledViews {
  std::vector<size_t> views;
  std::vector<std::string> view_ids;
  std::vector<double> values;
};

class SessionManager {
 public:
  SessionManager(const SessionManagerOptions& options,
                 std::string default_table_path);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Loads the default table eagerly so a misconfigured server fails at
  /// startup, not on the first request.
  vs::Status PreloadDefaultTable();

  /// \name The session lifecycle (all thread-safe).
  /// @{
  vs::Result<SessionInfo> Create(const CreateSpec& spec);
  vs::Result<NextBatch> Next(const std::string& id);
  /// Returns the new label count.
  vs::Result<size_t> Label(const std::string& id, size_t view, double label);
  /// \p lambda > 0 selects DiVE-style diversified top-k.
  vs::Result<TopKResult> TopK(const std::string& id, double lambda = 0.0);
  vs::Result<SessionInfo> Info(const std::string& id);
  /// The session's full label history (crash-harness verification and
  /// client resync after reconnect).
  vs::Result<LabeledViews> Labels(const std::string& id);
  vs::Status Delete(const std::string& id);
  /// @}

  /// \name Live migration (cluster router, see src/cluster/).
  /// @{
  /// The session's current state as a self-contained envelope (the
  /// format the durability snapshots use).  The session stays
  /// live and serving here — export does not detach it; the *router*
  /// deletes it from the source once the target has it.  With
  /// durability on, the returned envelope is also persisted as the
  /// authoritative snapshot first, so an export the caller acts on is
  /// never ahead of this shard's own disk.
  vs::Result<std::string> ExportSession(const std::string& id);
  /// Registers a session under `id` from an exported envelope.
  /// All-or-nothing: on any failure (parse, cap, durability) the id does
  /// not exist here afterwards.  With durability on, the received bytes
  /// are persisted verbatim as the snapshot — the target's on-disk state
  /// is byte-identical to the source's export.
  vs::Result<SessionInfo> ImportSession(const std::string& id,
                                        const std::string& envelope);
  /// @}

  /// \name Crash-safe durability (no-ops when durability_dir is empty).
  /// @{
  /// Scans the durability directory and re-registers every recoverable
  /// session (newest valid snapshot + journal tail; torn tails clipped,
  /// unreadable files quarantined).  Call once at startup, before serving.
  vs::Status RecoverFromDisk();
  /// Snapshots every live session (graceful drain on SIGTERM/SIGINT);
  /// returns how many were persisted.
  size_t PersistAllSessions();
  bool durability_enabled() const { return durability_ != nullptr; }
  /// Zero stats when durability is disabled.
  DurabilityStats durability_stats() const;
  /// @}

  /// Evicts sessions idle longer than \p idle_seconds right now; returns
  /// the number evicted.  The reaper calls this with the configured TTL.
  size_t EvictIdleOlderThan(double idle_seconds);

  /// Starts the background TTL reaper (idempotent).
  void StartReaper();

  /// \name Introspection (tests, /healthz).
  /// @{
  size_t active_sessions() const;
  size_t evicted_sessions() const;
  size_t cached_tables() const;
  size_t cached_matrices() const { return matrix_cache_.entries(); }
  FeatureMatrixCache& matrix_cache() { return matrix_cache_; }
  const SessionManagerOptions& options() const { return options_; }
  /// @}

 private:
  struct Session {
    std::string id;
    std::mutex mu;  ///< serializes seeker access
    std::shared_ptr<const LoadedTable> loaded;
    std::string table_path;
    std::string filter;
    /// The exact canonical matrix, shared read-only with the matrix cache
    /// and every session over the same subset; the seeker borrows it.
    std::shared_ptr<const core::FeatureMatrix> matrix;
    std::unique_ptr<core::ViewSeeker> seeker;
    /// Microseconds on the manager's monotonic clock of the last request.
    std::atomic<int64_t> last_used_us{0};
    /// Open journal handle when durability is on (guarded by mu).
    std::unique_ptr<WalWriter> wal;
    /// Set (under mu) when eviction drops this object from the live map,
    /// after snapshotting it when durability is on.  From then on the
    /// snapshot is the authoritative copy; a caller that locked a detached
    /// object must re-acquire, or any state it writes here is silently
    /// lost on the next restore.
    bool detached = false;
  };

  /// A live session together with its held lock.  `session->detached` is
  /// guaranteed false while `lock` is held.
  struct LockedSession {
    std::shared_ptr<Session> session;
    std::unique_lock<std::mutex> lock;
  };

  int64_t NowMicros() const;
  std::string NewSessionId();
  vs::Result<std::shared_ptr<const LoadedTable>> GetOrLoadTable(
      const std::string& path);
  /// Builds matrix + seeker over the shared table (no locks held).
  vs::Result<std::shared_ptr<Session>> BuildSession(
      const std::string& table_path, const std::string& filter,
      const core::ViewSeekerOptions& seeker_options,
      const std::string* restore_text);
  /// Looks up a live session, restoring an evicted one when needed.
  vs::Result<std::shared_ptr<Session>> Acquire(const std::string& id);
  /// Acquire + lock, retrying when the object was detached by a
  /// concurrent eviction between the lookup and the lock.
  vs::Result<LockedSession> AcquireLocked(const std::string& id);
  /// Rebuilds an evicted session from `<id>.snap` + `<id>.wal` (journal
  /// replayed, files kept — the disk state stays the authoritative copy).
  /// Only stored bytes that fail validation are quarantined; any other
  /// failure leaves the id evicted, so the next lookup retries.
  vs::Result<std::shared_ptr<Session>> Restore(const std::string& id);
  /// Envelope text for the session's current state (mu held).
  vs::Result<std::string> EnvelopeLocked(Session& session) const;
  /// Writes `envelope` as the session's snapshot and truncates the
  /// journal (mu held).  OK means that exact state is durable.
  vs::Status PersistEnvelopeLocked(Session& session,
                                   const std::string& envelope);
  /// EnvelopeLocked + PersistEnvelopeLocked: snapshot the current state.
  vs::Status RotateLocked(Session& session);
  SessionInfo InfoLocked(Session& session) const;
  void ReaperLoop();

  const SessionManagerOptions options_;
  const std::string default_table_path_;
  core::UtilityFeatureRegistry registry_;
  const Clock* const clock_;  ///< source of last_used_us timestamps
  /// feature_threads workers, borrowed by every create's filter and matrix
  /// build.
  ThreadPool build_pool_;
  /// Cross-session cache of built matrices.  Its entries borrow tables out
  /// of tables_ below, which only grows — a cached matrix's table is never
  /// freed while the manager lives.
  FeatureMatrixCache matrix_cache_;
  /// Null when durability is disabled.
  std::unique_ptr<DurabilityManager> durability_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  /// Ids evicted to (or recovered from) the durability directory.
  std::set<std::string> evicted_;
  std::map<std::string, std::shared_ptr<const LoadedTable>> tables_;
  uint64_t id_counter_ = 0;
  Rng id_rng_;

  std::thread reaper_;
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool stop_reaper_ = false;
};

}  // namespace vs::serve

#endif  // VS_SERVE_SESSION_MANAGER_H_
