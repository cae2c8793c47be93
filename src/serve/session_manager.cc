#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/matrix_identity.h"
#include "core/session_io.h"
#include "core/view.h"
#include "data/csv.h"
#include "data/io.h"
#include "data/predicate.h"
#include "data/query.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace vs::serve {

namespace {

/// Cached handles into the default registry (amortized registration).
struct SessionMetrics {
  obs::Gauge* active_sessions;
  obs::Counter* created;
  obs::Counter* rejected;
  obs::Counter* evicted;
  obs::Counter* restored;
  obs::Counter* tables_loaded;
  obs::Histogram* create_seconds;

  static const SessionMetrics& Get() {
    static const SessionMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return SessionMetrics{
          r.GetGauge("serve.active_sessions", "live interactive sessions"),
          r.GetCounter("serve.sessions_created", "sessions created"),
          r.GetCounter("serve.sessions_rejected",
                       "creates/restores rejected by the session cap"),
          r.GetCounter("serve.sessions_evicted",
                       "sessions evicted by TTL idle eviction"),
          r.GetCounter("serve.sessions_restored",
                       "evicted sessions restored on access"),
          r.GetCounter("serve.tables_loaded",
                       "datasets loaded into the shared table cache"),
          r.GetHistogram("serve.session_create_seconds",
                         obs::DefaultLatencyBuckets(),
                         "table load + matrix build + seeker init"),
      };
    }();
    return m;
  }
};

vs::Result<data::Table> LoadTableFile(const std::string& path) {
  if (path.empty()) {
    return vs::Status::InvalidArgument("table path is empty");
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".vst") {
    return data::ReadTableFile(path);
  }
  return data::ReadCsvFile(path, {});
}

FeatureMatrixCacheOptions MatrixCacheOptions(
    const SessionManagerOptions& options) {
  FeatureMatrixCacheOptions cache_options;
  cache_options.max_entries = options.matrix_cache_entries;
  cache_options.max_bytes = options.matrix_cache_bytes;
  cache_options.ttl_seconds = options.matrix_cache_ttl_seconds;
  cache_options.clock = options.clock;
  return cache_options;
}

/// A parsed snapshot envelope: magic line, table path, filter, then the
/// session_io payload verbatim.  The magic line keeps its historical
/// "spill" name because existing durability directories carry it.
struct SessionEnvelope {
  std::string table_path;
  std::string filter;
  std::string session_text;
};

vs::Result<SessionEnvelope> ParseEnvelope(const std::string& text,
                                          const std::string& origin) {
  size_t pos = 0;
  auto next_line = [&text, &pos]() -> std::string {
    const size_t eol = text.find('\n', pos);
    const size_t end = eol == std::string::npos ? text.size() : eol;
    std::string line = text.substr(pos, end - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    return line;
  };
  // v2 envelopes carry a session_io v2 payload (self-checksummed).
  if (next_line() != "viewseeker-spill v2") {
    return vs::Status::InvalidArgument("bad envelope header: " + origin);
  }
  const std::string table_line = next_line();
  const std::string filter_line = next_line();
  if (!StartsWith(table_line, "table: ") ||
      !StartsWith(filter_line, "filter: ")) {
    return vs::Status::InvalidArgument("bad envelope: " + origin);
  }
  SessionEnvelope envelope;
  envelope.table_path = table_line.substr(7);
  envelope.filter = filter_line.substr(8);
  envelope.session_text = text.substr(pos);
  return envelope;
}

/// True for failures that can clear without anyone touching the stored
/// files: I/O errors, injected or internal faults, resource limits.
bool IsTransient(const vs::Status& status) {
  return status.IsIOError() || status.IsInternal() || status.IsAborted() ||
         status.IsTimedOut() || status.IsResourceExhausted();
}

/// Journal record payload for one acknowledged label.
std::string WalLabelPayload(const std::string& view_id, double value) {
  return "label\t" + view_id + "\t" + StrFormat("%.17g", value);
}

/// Inverse of WalLabelPayload.
vs::Result<std::pair<std::string, double>> ParseWalLabel(
    const std::string& payload) {
  if (!StartsWith(payload, "label\t")) {
    return vs::Status::InvalidArgument("bad journal record: " + payload);
  }
  const size_t tab = payload.find('\t', 6);
  if (tab == std::string::npos) {
    return vs::Status::InvalidArgument("bad journal record: " + payload);
  }
  VS_ASSIGN_OR_RETURN(double value, ParseDouble(payload.substr(tab + 1)));
  return std::make_pair(payload.substr(6, tab - 6), value);
}

}  // namespace

bool ValidSessionId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  const char first = id[0];
  if (!((first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') ||
        (first >= '0' && first <= '9'))) {
    return false;
  }
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

SessionManager::SessionManager(const SessionManagerOptions& options,
                               std::string default_table_path)
    : options_(options),
      default_table_path_(std::move(default_table_path)),
      registry_(core::UtilityFeatureRegistry::Default()),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      build_pool_(options.feature_threads),
      matrix_cache_(MatrixCacheOptions(options)),
      id_rng_(options.seed) {
  SessionMetrics::Get();  // register eagerly
  if (!options_.durability_dir.empty()) {
    DurabilityOptions durability_options;
    durability_options.dir = options_.durability_dir;
    durability_options.fsync = options_.durability_fsync;
    durability_options.clock = options_.clock;
    durability_ = std::make_unique<DurabilityManager>(durability_options);
    durability_->Init().ok();  // re-attempted (and surfaced) by Recover
  }
}

SessionManager::~SessionManager() {
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    stop_reaper_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
}

int64_t SessionManager::NowMicros() const { return clock_->NowMicros(); }

std::string SessionManager::NewSessionId() {
  // Caller holds mu_.  A freshly recovered registry can already hold ids
  // from a previous process that ran the same counter/seed sequence, so
  // loop until the id is genuinely unused.
  while (true) {
    std::string id =
        StrFormat("s%04llx%08llx",
                  static_cast<unsigned long long>(++id_counter_),
                  static_cast<unsigned long long>(id_rng_.NextUint64() &
                                                  0xffffffffULL));
    if (sessions_.find(id) == sessions_.end() &&
        evicted_.find(id) == evicted_.end()) {
      return id;
    }
  }
}

vs::Status SessionManager::PreloadDefaultTable() {
  return GetOrLoadTable(default_table_path_).status();
}

vs::Result<std::shared_ptr<const LoadedTable>> SessionManager::GetOrLoadTable(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(path);
    if (it != tables_.end()) return it->second;
  }
  // Load outside the registry lock; a concurrent duplicate load is
  // harmless (first insertion wins, the loser's copy is dropped).
  obs::ScopedSpan span("serve.table_load");
  VS_ASSIGN_OR_RETURN(data::Table table, LoadTableFile(path));
  auto loaded = std::make_shared<LoadedTable>();
  VS_ASSIGN_OR_RETURN(
      loaded->views,
      core::EnumerateViews(table, core::ViewEnumerationOptions{}));
  loaded->table = std::move(table);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.emplace(path, std::move(loaded));
  if (inserted) SessionMetrics::Get().tables_loaded->Increment();
  return it->second;
}

vs::Result<std::shared_ptr<SessionManager::Session>>
SessionManager::BuildSession(const std::string& table_path,
                             const std::string& filter,
                             const core::ViewSeekerOptions& seeker_options,
                             const std::string* restore_text) {
  if (seeker_options.k < 1 ||
      seeker_options.k > options_.max_k) {
    return vs::Status::InvalidArgument(
        StrFormat("k must be in 1..%d", options_.max_k));
  }
  VS_ASSIGN_OR_RETURN(std::shared_ptr<const LoadedTable> loaded,
                      GetOrLoadTable(table_path));

  data::SelectionVector selection;
  if (filter.empty()) {
    selection = loaded->table.AllRows();
  } else {
    VS_ASSIGN_OR_RETURN(data::PredicatePtr predicate,
                        data::ParseFilter(filter));
    VS_ASSIGN_OR_RETURN(
        selection,
        data::SelectRows(loaded->table, predicate.get(), &build_pool_));
  }

  core::FeatureMatrixOptions build_options;
  build_options.pool = &build_pool_;
  // Canonical matrices are shared across sessions through the cache; the
  // table id folds in the row count so a reloaded-and-changed file under
  // the same path cannot alias a stale entry.
  const std::string cache_key = core::FeatureMatrixCacheKey(
      table_path + "#" + std::to_string(loaded->table.num_rows()),
      selection, loaded->views, registry_, build_options);
  VS_ASSIGN_OR_RETURN(
      std::shared_ptr<const core::FeatureMatrix> canonical,
      matrix_cache_.GetOrBuild(
          cache_key, [this, &loaded, &selection, &build_options]() {
            return core::FeatureMatrix::Build(&loaded->table, loaded->views,
                                              selection, &registry_,
                                              build_options);
          }));

  auto session = std::make_shared<Session>();
  session->loaded = std::move(loaded);
  session->table_path = table_path;
  session->filter = filter;
  session->matrix = std::move(canonical);
  if (restore_text != nullptr) {
    VS_ASSIGN_OR_RETURN(
        core::ViewSeeker seeker,
        core::RestoreSession(session->matrix.get(), *restore_text));
    session->seeker =
        std::make_unique<core::ViewSeeker>(std::move(seeker));
  } else {
    VS_ASSIGN_OR_RETURN(
        core::ViewSeeker seeker,
        core::ViewSeeker::Make(session->matrix.get(), seeker_options));
    session->seeker =
        std::make_unique<core::ViewSeeker>(std::move(seeker));
  }
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return session;
}

SessionInfo SessionManager::InfoLocked(Session& session) const {
  SessionInfo info;
  info.id = session.id;
  info.table_path = session.table_path;
  info.filter = session.filter;
  info.strategy = session.seeker->options().strategy;
  info.k = session.seeker->options().k;
  info.num_views = session.matrix->num_views();
  info.num_labeled = session.seeker->num_labeled();
  info.cold_start = session.seeker->in_cold_start();
  return info;
}

vs::Result<SessionInfo> SessionManager::Create(const CreateSpec& spec) {
  obs::ScopedSpan span("serve.session_create");
  obs::StageTimer stage("session_manager.create");
  Stopwatch watch;
  const SessionMetrics& m = SessionMetrics::Get();
  const std::string path =
      spec.table_path.empty() ? default_table_path_ : spec.table_path;
  if (!spec.requested_id.empty() && !ValidSessionId(spec.requested_id)) {
    return vs::Status::InvalidArgument(
        "invalid session id (want 1..64 of [A-Za-z0-9._-], alphanumeric "
        "first): " +
        spec.requested_id);
  }
  {
    // Fast-fail before the expensive build; re-checked at insert.
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions) {
      m.rejected->Increment();
      return vs::Status::ResourceExhausted(
          StrFormat("session limit reached (%zu live)", sessions_.size()));
    }
    if (!spec.requested_id.empty() &&
        (sessions_.count(spec.requested_id) > 0 ||
         evicted_.count(spec.requested_id) > 0)) {
      return vs::Status::AlreadyExists("session id taken: " +
                                       spec.requested_id);
    }
  }
  VS_ASSIGN_OR_RETURN(
      std::shared_ptr<Session> session,
      BuildSession(path, spec.filter, spec.options, nullptr));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions) {
      m.rejected->Increment();
      return vs::Status::ResourceExhausted(
          StrFormat("session limit reached (%zu live)", sessions_.size()));
    }
    if (spec.requested_id.empty()) {
      session->id = NewSessionId();
    } else {
      // Re-checked under mu_: a racing create with the same id may have
      // landed while the matrix built.
      if (sessions_.count(spec.requested_id) > 0 ||
          evicted_.count(spec.requested_id) > 0) {
        return vs::Status::AlreadyExists("session id taken: " +
                                         spec.requested_id);
      }
      session->id = spec.requested_id;
    }
    sessions_.emplace(session->id, session);
    m.active_sessions->Set(static_cast<double>(sessions_.size()));
  }
  if (durability_ != nullptr) {
    // The create is only acknowledged once the session exists on disk —
    // otherwise a crash right after the ack would 404 a session the
    // client was told about.
    std::unique_lock<std::mutex> session_lock(session->mu);
    const vs::Status rotated = RotateLocked(*session);
    if (!rotated.ok()) {
      session_lock.unlock();
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(session->id);
      m.active_sessions->Set(static_cast<double>(sessions_.size()));
      return rotated;
    }
  }
  m.created->Increment();
  m.create_seconds->Observe(watch.ElapsedSeconds());
  std::lock_guard<std::mutex> session_lock(session->mu);
  return InfoLocked(*session);
}

vs::Result<std::shared_ptr<SessionManager::Session>> SessionManager::Acquire(
    const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      it->second->last_used_us.store(NowMicros(), std::memory_order_relaxed);
      return it->second;
    }
    if (evicted_.count(id) == 0) {
      return vs::Status::NotFound("no such session: " + id);
    }
  }
  vs::Result<std::shared_ptr<Session>> restored = Restore(id);
  if (!restored.ok()) {
    // Raced restore: a concurrent lookup may have restored the session
    // while ours failed. Prefer the live session.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      it->second->last_used_us.store(NowMicros(), std::memory_order_relaxed);
      return it->second;
    }
  }
  return restored;
}

vs::Result<SessionManager::LockedSession> SessionManager::AcquireLocked(
    const std::string& id) {
  // Acquire returns the shared_ptr before the session lock is taken, so
  // an eviction can slip in between: it snapshots the object's state and
  // drops it from the live map while we are still about to lock it.
  // Mutating a detached object loses the write on the next restore (the
  // snapshot, which predates it, is authoritative).  Eviction marks the
  // object under its lock, so once we hold the lock the flag is stable:
  // retry the lookup, which restores the snapshot into a fresh live object.
  for (int attempt = 0; attempt < 64; ++attempt) {
    VS_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, Acquire(id));
    std::unique_lock<std::mutex> lock(session->mu);
    if (!session->detached) {
      return LockedSession{std::move(session), std::move(lock)};
    }
  }
  return vs::Status::Internal("session kept vanishing mid-acquire: " + id);
}

vs::Result<std::shared_ptr<SessionManager::Session>> SessionManager::Restore(
    const std::string& id) {
  obs::ScopedSpan span("serve.session_restore");
  obs::StageTimer stage("session_manager.restore");
  // A failure that can clear on its own — a read error, an injected
  // fault, a build that ran out of resources — fails this one lookup and
  // leaves the id evicted, so the next lookup retries.  That includes an
  // unreadable journal: dropping it would lose acknowledged labels.  Any
  // other failure is permanent (bytes that fail validation, a saved view
  // the matrix lacks, a missing snapshot): the files go to quarantine/ and
  // the id is released.
  auto quarantine_unless_transient = [this, &id](vs::Status status) {
    if (!IsTransient(status)) {
      durability_->Quarantine(id);
      std::lock_guard<std::mutex> lock(mu_);
      evicted_.erase(id);
    }
    return status;
  };

  const std::string snapshot_path = durability_->SnapshotPath(id);
  vs::Result<std::string> text = ReadFileFully(snapshot_path);
  if (!text.ok()) return quarantine_unless_transient(text.status());
  vs::Result<SessionEnvelope> envelope = ParseEnvelope(*text, snapshot_path);
  if (!envelope.ok()) return quarantine_unless_transient(envelope.status());
  vs::Result<WalScan> scan = durability_->ReadWal(id);
  if (!scan.ok()) return quarantine_unless_transient(scan.status());
  vs::Result<std::shared_ptr<Session>> built =
      BuildSession(envelope->table_path, envelope->filter,
                   core::ViewSeekerOptions{}, &envelope->session_text);
  if (!built.ok()) return quarantine_unless_transient(built.status());
  std::shared_ptr<Session> session = std::move(*built);
  session->id = id;

  // Replay the journal tail: labels acknowledged after the snapshot.
  // AlreadyExists means the record is covered by the snapshot (a rotation
  // wrote the snapshot but failed to truncate) — replay is idempotent.
  uint64_t replayed = 0;
  if (!scan->records.empty()) {
    std::unordered_map<std::string, size_t> id_to_index;
    const auto& specs = session->matrix->views();
    for (size_t i = 0; i < specs.size(); ++i) {
      id_to_index.emplace(specs[i].Id(), i);
    }
    for (const std::string& record : scan->records) {
      vs::Result<std::pair<std::string, double>> parsed =
          ParseWalLabel(record);
      if (!parsed.ok()) continue;
      auto view = id_to_index.find(parsed->first);
      if (view == id_to_index.end()) continue;
      if (session->seeker->SubmitLabel(view->second, parsed->second).ok()) {
        ++replayed;
      }
    }
  }
  durability_->CountReplayedLabels(replayed);

  const SessionMetrics& m = SessionMetrics::Get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) return it->second;  // raced restore: reuse
    if (sessions_.size() >= options_.max_sessions) {
      m.rejected->Increment();
      return vs::Status::ResourceExhausted(
          "session limit reached; cannot restore " + id);
    }
    sessions_.emplace(id, session);
    evicted_.erase(id);
    m.active_sessions->Set(static_cast<double>(sessions_.size()));
  }
  {
    // Reopen the journal only if a concurrent request did not get there
    // first — a second open would truncate records it has since appended.
    std::lock_guard<std::mutex> session_lock(session->mu);
    if (session->wal == nullptr) {
      vs::Result<WalWriter> wal = durability_->OpenWal(id, scan->valid_bytes);
      if (wal.ok()) {
        session->wal = std::make_unique<WalWriter>(std::move(*wal));
      }
      // On failure the session still serves; Label's rotation repair
      // path re-establishes durability on the next write.
    }
  }
  m.restored->Increment();
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return session;
}

vs::Result<std::string> SessionManager::EnvelopeLocked(
    Session& session) const {
  VS_ASSIGN_OR_RETURN(std::string saved, core::SaveSession(*session.seeker));
  return "viewseeker-spill v2\ntable: " + session.table_path +
         "\nfilter: " + session.filter + "\n" + saved;
}

vs::Status SessionManager::RotateLocked(Session& session) {
  VS_ASSIGN_OR_RETURN(std::string envelope, EnvelopeLocked(session));
  return PersistEnvelopeLocked(session, envelope);
}

vs::Status SessionManager::PersistEnvelopeLocked(
    Session& session, const std::string& envelope) {
  VS_RETURN_IF_ERROR(durability_->SaveSnapshot(session.id, envelope));
  // The snapshot now carries the full state, so an empty journal is the
  // correct complement.  A failed truncate only leaves records the
  // snapshot already covers — replay skips them — and a failed open
  // leaves wal null, which Label repairs by rotating per write.
  if (session.wal != nullptr && session.wal->valid()) {
    session.wal->Reset().ok();
  } else {
    vs::Result<WalWriter> wal = durability_->OpenWal(session.id, 0);
    if (wal.ok()) {
      session.wal = std::make_unique<WalWriter>(std::move(*wal));
    } else {
      session.wal.reset();
    }
  }
  return vs::Status::OK();
}

vs::Status SessionManager::RecoverFromDisk() {
  if (durability_ == nullptr) return vs::Status::OK();
  VS_RETURN_IF_ERROR(durability_->Init());
  VS_ASSIGN_OR_RETURN(std::vector<std::string> found,
                      durability_->ScanForRecovery());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& id : found) {
      if (sessions_.count(id) > 0 || !evicted_.insert(id).second) continue;
      durability_->CountRecoveredSession();
    }
  }
  // Warm up to the session cap eagerly so recovered sessions answer their
  // first request fast and unparseable ones quarantine now, not later.
  for (const std::string& id : found) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sessions_.size() >= options_.max_sessions) break;
      if (evicted_.count(id) == 0) continue;
    }
    Acquire(id).ok();  // invalid files are quarantined by Restore
  }
  return vs::Status::OK();
}

size_t SessionManager::PersistAllSessions() {
  if (durability_ == nullptr) return 0;
  std::vector<std::shared_ptr<Session>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) live.push_back(session);
  }
  size_t persisted = 0;
  for (const std::shared_ptr<Session>& session : live) {
    std::lock_guard<std::mutex> session_lock(session->mu);
    if (RotateLocked(*session).ok()) ++persisted;
  }
  return persisted;
}

DurabilityStats SessionManager::durability_stats() const {
  return durability_ == nullptr ? DurabilityStats{} : durability_->stats();
}

vs::Result<NextBatch> SessionManager::Next(const std::string& id) {
  obs::StageTimer stage("session_manager.next");
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  const std::shared_ptr<Session>& session = locked.session;
  VS_ASSIGN_OR_RETURN(std::vector<size_t> views,
                      session->seeker->NextQueries());
  NextBatch batch;
  batch.cold_start = session->seeker->in_cold_start();
  batch.views = std::move(views);
  const auto& specs = session->matrix->views();
  for (size_t v : batch.views) batch.view_ids.push_back(specs[v].Id());
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return batch;
}

vs::Result<size_t> SessionManager::Label(const std::string& id, size_t view,
                                         double label) {
  obs::StageTimer stage("session_manager.label");
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  const std::shared_ptr<Session>& session = locked.session;
  VS_RETURN_IF_ERROR(session->seeker->SubmitLabel(view, label));
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  if (durability_ != nullptr) {
    // Applied in memory; make it durable before acknowledging.  On a
    // journal failure a snapshot rotation is the repair: it captures the
    // full state (this label included) atomically and heals a poisoned
    // journal.  If that fails too, the error response tells the client
    // the outcome is indeterminate — the label is in memory but may not
    // survive a crash.
    const std::string& view_id = session->matrix->views()[view].Id();
    const vs::Status appended =
        session->wal != nullptr && session->wal->valid()
            ? session->wal->Append(WalLabelPayload(view_id, label))
            : vs::Status::FailedPrecondition("journal not open");
    if (!appended.ok()) {
      VS_RETURN_IF_ERROR(RotateLocked(*session));
    } else if (session->wal->pending_records() >=
               options_.snapshot_every_labels) {
      // Cadence rotation bounds replay time; the journal already holds
      // the label, so a rotation failure here costs nothing.
      RotateLocked(*session).ok();
    }
  }
  return session->seeker->num_labeled();
}

vs::Result<TopKResult> SessionManager::TopK(const std::string& id,
                                            double lambda) {
  obs::StageTimer stage("session_manager.topk");
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  const std::shared_ptr<Session>& session = locked.session;
  vs::Result<std::vector<size_t>> topk =
      lambda > 0.0 ? session->seeker->RecommendDiverseTopK(lambda)
                   : session->seeker->RecommendTopK();
  VS_RETURN_IF_ERROR(topk.status());
  VS_ASSIGN_OR_RETURN(std::vector<double> scores,
                      session->seeker->CurrentScores());
  TopKResult result;
  result.views = std::move(*topk);
  const auto& specs = session->matrix->views();
  for (size_t v : result.views) {
    result.view_ids.push_back(specs[v].Id());
    result.scores.push_back(scores[v]);
  }
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return result;
}

vs::Result<SessionInfo> SessionManager::Info(const std::string& id) {
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  return InfoLocked(*locked.session);
}

vs::Result<LabeledViews> SessionManager::Labels(const std::string& id) {
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  const std::shared_ptr<Session>& session = locked.session;
  LabeledViews out;
  const auto& specs = session->matrix->views();
  const size_t count = session->seeker->num_labeled();
  out.views.reserve(count);
  out.view_ids.reserve(count);
  out.values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t view = session->seeker->labeled()[i];
    out.views.push_back(view);
    out.view_ids.push_back(specs[view].Id());
    out.values.push_back(session->seeker->labels()[i]);
  }
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return out;
}

vs::Result<std::string> SessionManager::ExportSession(const std::string& id) {
  obs::StageTimer stage("session_manager.export");
  VS_ASSIGN_OR_RETURN(LockedSession locked, AcquireLocked(id));
  const std::shared_ptr<Session>& session = locked.session;
  VS_ASSIGN_OR_RETURN(std::string envelope, EnvelopeLocked(*session));
  if (durability_ != nullptr) {
    // Persist exactly the bytes we hand out.  If this shard's disk won't
    // take the snapshot (wal.append_fail / snapshot.rename_fail drills,
    // a full disk), the export fails and the migration aborts with the
    // session still healthy here — the caller must never hold a copy
    // this shard couldn't also recover.
    VS_RETURN_IF_ERROR(PersistEnvelopeLocked(*session, envelope));
  }
  session->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  return envelope;
}

vs::Result<SessionInfo> SessionManager::ImportSession(
    const std::string& id, const std::string& envelope) {
  obs::StageTimer stage("session_manager.import");
  const SessionMetrics& m = SessionMetrics::Get();
  if (!ValidSessionId(id)) {
    return vs::Status::InvalidArgument("invalid session id: " + id);
  }
  VS_ASSIGN_OR_RETURN(SessionEnvelope parsed,
                      ParseEnvelope(envelope, "import:" + id));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(id) > 0 || evicted_.count(id) > 0) {
      return vs::Status::AlreadyExists("session id taken: " + id);
    }
    if (sessions_.size() >= options_.max_sessions) {
      m.rejected->Increment();
      return vs::Status::ResourceExhausted(
          StrFormat("session limit reached (%zu live)", sessions_.size()));
    }
  }
  VS_ASSIGN_OR_RETURN(
      std::shared_ptr<Session> session,
      BuildSession(parsed.table_path, parsed.filter,
                   core::ViewSeekerOptions{}, &parsed.session_text));
  session->id = id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(id) > 0 || evicted_.count(id) > 0) {
      return vs::Status::AlreadyExists("session id taken: " + id);
    }
    if (sessions_.size() >= options_.max_sessions) {
      m.rejected->Increment();
      return vs::Status::ResourceExhausted(
          StrFormat("session limit reached (%zu live)", sessions_.size()));
    }
    sessions_.emplace(id, session);
    m.active_sessions->Set(static_cast<double>(sessions_.size()));
  }
  if (durability_ != nullptr) {
    // Same ack rule as Create: the import is only acknowledged once the
    // received bytes are on this shard's disk, and a failure unwinds the
    // registration so the id does not exist here at all.
    std::unique_lock<std::mutex> session_lock(session->mu);
    const vs::Status persisted = PersistEnvelopeLocked(*session, envelope);
    if (!persisted.ok()) {
      session_lock.unlock();
      durability_->RemoveSession(id);
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(id);
      m.active_sessions->Set(static_cast<double>(sessions_.size()));
      return persisted;
    }
  }
  m.created->Increment();
  std::lock_guard<std::mutex> session_lock(session->mu);
  return InfoLocked(*session);
}

vs::Status SessionManager::Delete(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.erase(id) > 0) {
      SessionMetrics::Get().active_sessions->Set(
          static_cast<double>(sessions_.size()));
    } else if (evicted_.erase(id) == 0) {
      return vs::Status::NotFound("no such session: " + id);
    }
  }
  // Files go before the acknowledgement: a crash after the ack must not
  // resurrect a session the client was told is gone.
  if (durability_ != nullptr) durability_->RemoveSession(id);
  return vs::Status::OK();
}

size_t SessionManager::EvictIdleOlderThan(double idle_seconds) {
  // A no-op on the reaper thread (no request context); records when a
  // request-path caller (tests, admin endpoints) drives eviction.
  obs::StageTimer stage("session_manager.evict");
  const int64_t cutoff =
      NowMicros() - static_cast<int64_t>(idle_seconds * 1e6);
  const SessionMetrics& m = SessionMetrics::Get();
  size_t count = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // Declared before session_lock: the map often holds the last reference,
    // so this copy must outlive the lock or erase() destroys a locked mutex.
    std::shared_ptr<Session> session_ref = it->second;
    Session& session = *session_ref;
    std::unique_lock<std::mutex> session_lock(session.mu,
                                              std::try_to_lock);
    // A busy session is by definition not idle; a touched one is skipped.
    if (!session_lock.owns_lock() ||
        session.last_used_us.load(std::memory_order_relaxed) > cutoff) {
      ++it;
      continue;
    }
    if (durability_ != nullptr) {
      // Eviction rotates: the fresh snapshot is the authoritative copy.
      // A failed rotation aborts the eviction — state is never dropped
      // to make room.
      if (!RotateLocked(session).ok()) {
        ++it;
        continue;
      }
      evicted_.insert(session.id);
    }
    // Marked under session.mu: anyone who looked this object up before
    // the erase but locks it after will see the flag and re-acquire
    // instead of writing to a dead copy (AcquireLocked).
    session.detached = true;
    it = sessions_.erase(it);
    m.evicted->Increment();
    ++count;
  }
  m.active_sessions->Set(static_cast<double>(sessions_.size()));
  return count;
}

void SessionManager::StartReaper() {
  if (reaper_.joinable()) return;
  reaper_ = std::thread([this] { ReaperLoop(); });
}

void SessionManager::ReaperLoop() {
  const double interval_seconds = std::clamp(
      options_.session_ttl_seconds / 4.0, 0.05, 5.0);
  const auto interval = std::chrono::microseconds(
      static_cast<int64_t>(interval_seconds * 1e6));
  std::unique_lock<std::mutex> lock(reaper_mu_);
  while (!stop_reaper_) {
    if (reaper_cv_.wait_for(lock, interval,
                            [this] { return stop_reaper_; })) {
      return;
    }
    lock.unlock();
    EvictIdleOlderThan(options_.session_ttl_seconds);
    lock.lock();
  }
}

size_t SessionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

size_t SessionManager::evicted_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_.size();
}

size_t SessionManager::cached_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

}  // namespace vs::serve
