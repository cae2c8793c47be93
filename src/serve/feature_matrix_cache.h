#ifndef VS_SERVE_FEATURE_MATRIX_CACHE_H_
#define VS_SERVE_FEATURE_MATRIX_CACHE_H_

/// \file feature_matrix_cache.h
/// \brief Cross-session cache of built feature matrices — the shared
/// offline-initialization store of the serving layer.
///
/// Algorithm 1's cost is front-loaded into offline initialization (view
/// enumeration + the view x utility-feature matrix build); without a cache
/// every new session over the same (table, query, view space, options)
/// redoes that identical group-by work.  This cache keys canonical built
/// matrices by their content identity (core/matrix_identity.h) and serves
/// them to concurrent sessions:
///
///  * **Immutability**: cached matrices are handed out as
///    `shared_ptr<const FeatureMatrix>`.  A caller that wants to refine
///    copies the handle (cheap — FeatureMatrix copies share their blocks
///    and detach a private state copy on first refinement), so refined
///    rows never leak back into the cache.
///  * **Single-flight construction**: concurrent misses on one key run the
///    builder exactly once; the others wait and share the result.  A
///    failed build is not cached — waiters retry (one of them becomes the
///    next leader), so a transient failure neither wedges nor poisons the
///    key.
///  * **LRU + byte-budget eviction**: entries carry an ApproxBytes()
///    charge; exceeding max_entries or max_bytes evicts
///    least-recently-used first.  An optional TTL expires idle entries.
///    All recency/expiry decisions read the injectable Clock, so tests
///    drive eviction with a FakeClock.
///  * **Observability**: fmcache.hits / fmcache.misses /
///    fmcache.inflight_waits / fmcache.evictions counters and
///    fmcache.bytes / fmcache.entries gauges in the default registry
///    (visible on /metrics).
///  * **Fault points**: `fmcache.build_fail` (the build path reports an
///    injected failure instead of running the builder) and
///    `fmcache.evict_defer` (the chosen eviction victim is skipped for
///    one sweep) — see docs/TESTING.md.
///
/// Lifetime: cached matrices borrow the table and registry they were
/// built over (the FeatureMatrix contract); the caller must keep those
/// alive while the cache holds entries.  SessionManager satisfies this by
/// owning both its table cache and this cache.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "core/feature_matrix.h"

namespace vs::serve {

/// \brief FeatureMatrixCache configuration.
struct FeatureMatrixCacheOptions {
  /// Maximum cached matrices; 0 disables caching entirely (every lookup
  /// builds, nothing is retained — the pre-cache serving behaviour).
  size_t max_entries = 64;
  /// Byte budget across entries (FeatureMatrix::ApproxBytes charges).
  size_t max_bytes = 512ull * 1024 * 1024;
  /// Entries idle longer than this expire on the next lookup; 0 = never.
  double ttl_seconds = 0.0;
  /// Time source for recency/expiry; nullptr = the real steady clock.
  const Clock* clock = nullptr;
};

/// \brief Point-in-time cache statistics (also exported as fmcache.*).
struct FeatureMatrixCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inflight_waits = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

class FeatureMatrixCache {
 public:
  /// Builds the canonical matrix on a miss.  Runs outside the cache lock.
  using Builder = std::function<vs::Result<core::FeatureMatrix>()>;

  explicit FeatureMatrixCache(const FeatureMatrixCacheOptions& options);

  FeatureMatrixCache(const FeatureMatrixCache&) = delete;
  FeatureMatrixCache& operator=(const FeatureMatrixCache&) = delete;

  /// Returns the cached matrix for \p key, building it via \p builder on a
  /// miss (single-flight: concurrent misses build once).  The returned
  /// matrix is immutable and shared; copy it (`FeatureMatrix` copies are
  /// cheap COW handles) to refine privately.
  vs::Result<std::shared_ptr<const core::FeatureMatrix>> GetOrBuild(
      const std::string& key, const Builder& builder);

  /// Evicts entries idle longer than \p idle_seconds; returns the count.
  size_t EvictIdleOlderThan(double idle_seconds);

  /// Drops every entry (sessions holding handles are unaffected).
  void Clear();

  /// \name Introspection (tests, /healthz).
  /// @{
  FeatureMatrixCacheStats stats() const;
  size_t entries() const;
  size_t bytes() const;
  bool enabled() const {
    return options_.max_entries > 0 && options_.max_bytes > 0;
  }
  const FeatureMatrixCacheOptions& options() const { return options_; }
  /// @}

 private:
  struct Entry {
    std::shared_ptr<const core::FeatureMatrix> matrix;
    size_t charged_bytes = 0;
    int64_t last_used_us = 0;
  };

  /// One in-progress build; waiters block on cv until done.
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    vs::Status status = vs::Status::OK();
    std::shared_ptr<const core::FeatureMatrix> matrix;
  };

  int64_t NowMicros() const { return clock_->NowMicros(); }
  /// Expire + shrink to budget.  Caller holds mu_.
  void ExpireLocked(int64_t now_us);
  void ShrinkToBudgetLocked();
  /// Uncharges + erases \p it; returns the next iterator.
  std::map<std::string, Entry>::iterator RemoveLocked(
      std::map<std::string, Entry>::iterator it);
  void UpdateGaugesLocked();

  const FeatureMatrixCacheOptions options_;
  const Clock* const clock_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t inflight_waits_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace vs::serve

#endif  // VS_SERVE_FEATURE_MATRIX_CACHE_H_
