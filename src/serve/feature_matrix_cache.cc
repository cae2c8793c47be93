#include "serve/feature_matrix_cache.h"

#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"

namespace vs::serve {

namespace {

/// Cached handles into the default registry (amortized registration).
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* inflight_waits;
  obs::Counter* evictions;
  obs::Gauge* bytes;
  obs::Gauge* entries;

  static const CacheMetrics& Get() {
    static const CacheMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return CacheMetrics{
          r.GetCounter("fmcache.hits",
                       "feature-matrix cache lookups served from cache"),
          r.GetCounter("fmcache.misses",
                       "feature-matrix cache lookups that built"),
          r.GetCounter("fmcache.inflight_waits",
                       "lookups that waited on another session's build"),
          r.GetCounter("fmcache.evictions",
                       "cached matrices evicted (LRU/byte budget/TTL)"),
          r.GetGauge("fmcache.bytes",
                     "approximate bytes held by cached matrices"),
          r.GetGauge("fmcache.entries", "cached feature matrices"),
      };
    }();
    return m;
  }
};

}  // namespace

FeatureMatrixCache::FeatureMatrixCache(
    const FeatureMatrixCacheOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()) {
  CacheMetrics::Get();  // register eagerly
}

vs::Result<std::shared_ptr<const core::FeatureMatrix>>
FeatureMatrixCache::GetOrBuild(const std::string& key,
                               const Builder& builder) {
  // The lookup stage covers the whole call (hit = lookup only); build and
  // single-flight waits open nested stages of their own below.
  obs::Span lookup_span("fmcache.lookup");
  const CacheMetrics& m = CacheMetrics::Get();
  if (!enabled()) {
    // Caching off: every lookup is a miss that builds and retains nothing
    // (the pre-cache serving behaviour; bench baselines run this way).
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
    }
    m.misses->Increment();
    if (VS_FAULT("fmcache.build_fail")) {
      return vs::Status::Internal("injected feature-matrix build failure");
    }
    VS_ASSIGN_OR_RETURN(core::FeatureMatrix matrix, builder());
    matrix.normalized();  // materialize before sharing across threads
    return std::make_shared<const core::FeatureMatrix>(std::move(matrix));
  }

  for (;;) {
    std::shared_ptr<Inflight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ExpireLocked(NowMicros());
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.last_used_us = NowMicros();
        ++hits_;
        m.hits->Increment();
        return it->second.matrix;
      }
      auto fit = inflight_.find(key);
      if (fit != inflight_.end()) {
        flight = fit->second;
        ++inflight_waits_;
        m.inflight_waits->Increment();
      } else {
        flight = std::make_shared<Inflight>();
        inflight_.emplace(key, flight);
        leader = true;
        ++misses_;
        m.misses->Increment();
      }
    }

    if (!leader) {
      obs::Span wait_span("fmcache.wait");
      std::unique_lock<std::mutex> flight_lock(flight->mu);
      flight->cv.wait(flight_lock, [&flight] { return flight->done; });
      if (flight->status.ok()) return flight->matrix;
      // The leader's build failed.  The key is not poisoned: loop back —
      // the cache may have been filled meanwhile, or this thread becomes
      // the next leader and retries the build itself.
      continue;
    }

    // Leader: build outside every lock (matrix builds are the expensive
    // offline-initialization work this cache exists to deduplicate).
    obs::Span build_span("fmcache.build");
    vs::Status status = vs::Status::OK();
    std::shared_ptr<const core::FeatureMatrix> built;
    if (VS_FAULT("fmcache.build_fail")) {
      status = vs::Status::Internal("injected feature-matrix build failure");
    } else {
      vs::Result<core::FeatureMatrix> result = builder();
      if (!result.ok()) {
        status = result.status();
      } else {
        // Materialize the lazy normalization cache: shared handles may be
        // read concurrently, and only a clean cache is read-only.
        result->normalized();
        built =
            std::make_shared<const core::FeatureMatrix>(std::move(*result));
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      if (status.ok()) {
        Entry entry;
        entry.matrix = built;
        entry.charged_bytes = built->ApproxBytes();
        entry.last_used_us = NowMicros();
        bytes_ += entry.charged_bytes;
        entries_.insert_or_assign(key, std::move(entry));
        ShrinkToBudgetLocked();
        UpdateGaugesLocked();
      }
    }
    {
      std::lock_guard<std::mutex> flight_lock(flight->mu);
      flight->done = true;
      flight->status = status;
      flight->matrix = built;
    }
    flight->cv.notify_all();
    if (!status.ok()) return status;
    return built;
  }
}

void FeatureMatrixCache::ExpireLocked(int64_t now_us) {
  if (options_.ttl_seconds <= 0.0) return;
  const int64_t cutoff =
      now_us - static_cast<int64_t>(options_.ttl_seconds * 1e6);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_used_us >= cutoff ||
        VS_FAULT("fmcache.evict_defer")) {
      ++it;
      continue;
    }
    it = RemoveLocked(it);
  }
  UpdateGaugesLocked();
}

void FeatureMatrixCache::ShrinkToBudgetLocked() {
  // Evict least-recently-used until within both budgets.  A deferred
  // victim (fault point) is skipped for this sweep only.
  std::set<const Entry*> deferred;
  while (entries_.size() > options_.max_entries ||
         bytes_ > options_.max_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (deferred.count(&it->second) > 0) continue;
      if (victim == entries_.end() ||
          it->second.last_used_us < victim->second.last_used_us) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // everything deferred this sweep
    if (VS_FAULT("fmcache.evict_defer")) {
      deferred.insert(&victim->second);
      continue;
    }
    RemoveLocked(victim);
  }
}

std::map<std::string, FeatureMatrixCache::Entry>::iterator
FeatureMatrixCache::RemoveLocked(
    std::map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.charged_bytes;
  ++evictions_;
  CacheMetrics::Get().evictions->Increment();
  return entries_.erase(it);
}

size_t FeatureMatrixCache::EvictIdleOlderThan(double idle_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t cutoff =
      NowMicros() - static_cast<int64_t>(idle_seconds * 1e6);
  size_t count = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_used_us > cutoff ||
        VS_FAULT("fmcache.evict_defer")) {
      ++it;
      continue;
    }
    it = RemoveLocked(it);
    ++count;
  }
  UpdateGaugesLocked();
  return count;
}

void FeatureMatrixCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = RemoveLocked(it);
  }
  UpdateGaugesLocked();
}

void FeatureMatrixCache::UpdateGaugesLocked() {
  const CacheMetrics& m = CacheMetrics::Get();
  m.bytes->Set(static_cast<double>(bytes_));
  m.entries->Set(static_cast<double>(entries_.size()));
}

FeatureMatrixCacheStats FeatureMatrixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FeatureMatrixCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.inflight_waits = inflight_waits_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

size_t FeatureMatrixCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t FeatureMatrixCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace vs::serve
