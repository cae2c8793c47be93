#ifndef VS_OBS_REQUEST_CONTEXT_H_
#define VS_OBS_REQUEST_CONTEXT_H_

/// \file request_context.h
/// \brief Request-scoped observability: a RequestContext carries one
/// request's id and per-stage timing breakdown from the transport down
/// through every subsystem the request touches, without threading a
/// parameter through each signature.
///
/// Propagation model: the serving layer creates a RequestContext per
/// request (generating an id or accepting the client's `X-Request-Id`),
/// installs it in a thread-local slot with ScopedRequestContext, and
/// handles the request synchronously on that worker thread.  Instrumented
/// code anywhere below (SessionManager, FeatureMatrixCache, durability)
/// opens a StageTimer("session_manager.label"); on destruction the timer
/// appends a StageRecord to the current context — or does nothing at all
/// when no context is installed.
///
/// Cost discipline (matches metrics.h / trace.h): with no context
/// installed a StageTimer costs one thread-local load at construction and
/// one branch at destruction — no clock reads, no allocation.  Stage
/// records are only taken on request-serving threads; background threads
/// (the TTL reaper, the trace ring) have no context and pay nothing.
///
/// Cross-thread reads: the in-flight table (/statusz) snapshots live
/// contexts from other threads.  RequestContext therefore guards its
/// mutable fields with a mutex and publishes the *current* stage as an
/// atomic pointer to a string literal, so a stalled request can be seen
/// mid-stage.
///
/// Stage taxonomy (docs/ARCHITECTURE.md "Request lifecycle &
/// observability"): dot-separated, subsystem-prefixed —
///   http.dispatch, session_manager.{create,label,next,topk,restore,
///   evict}, fmcache.{lookup,build,wait}, durability.{wal_append,
///   snapshot}.
/// Stage spans nest (a label span contains its wal append); records keep
/// inclusive durations and emission order.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace vs::obs {

/// \brief One completed stage within a request (inclusive duration).
struct StageRecord {
  const char* stage = nullptr;  ///< static string (StageTimer contract)
  int64_t start_us = 0;         ///< since the request began
  int64_t duration_us = 0;
};

/// \brief Everything observability knows about one in-flight request.
class RequestContext {
 public:
  RequestContext(std::string id, std::string method, std::string path);

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  const std::string& id() const { return id_; }
  const std::string& method() const { return method_; }
  const std::string& path() const { return path_; }

  /// Route name, known only after dispatch ("label", "create_session").
  void set_endpoint(const std::string& endpoint);
  std::string endpoint() const;

  /// Microseconds since construction (the request's private epoch).
  int64_t ElapsedMicros() const { return epoch_.ElapsedMicros(); }

  /// \name Request deadline — an absolute point relative to the request's
  /// private epoch, set once by the transport when the client supplied
  /// `X-Deadline-Ms`.  The serving layer reads the *remaining* budget
  /// (expired-in-queue 504s, admission's congestion signal); no deadline
  /// means infinite.
  /// @{
  void set_deadline_ms(double ms) {
    deadline_us_.store(static_cast<int64_t>(ms * 1000.0),
                       std::memory_order_relaxed);
  }
  bool has_deadline() const {
    return deadline_us_.load(std::memory_order_relaxed) > 0;
  }
  /// Seconds left before the deadline; clamped at 0, +inf with none set.
  double remaining_seconds() const;
  bool deadline_expired() const {
    const int64_t d = deadline_us_.load(std::memory_order_relaxed);
    return d > 0 && ElapsedMicros() >= d;
  }
  /// @}

  /// Appends one completed stage (called by StageTimer).
  void AddStage(const char* stage, int64_t start_us, int64_t duration_us);

  /// Stage records so far, in completion order.
  std::vector<StageRecord> stages() const;

  /// \name Current stage — written by StageTimer on the serving thread,
  /// read by /statusz from any thread.  nullptr = between stages.
  /// @{
  const char* current_stage() const {
    return current_stage_.load(std::memory_order_relaxed);
  }
  void set_current_stage(const char* stage) {
    current_stage_.store(stage, std::memory_order_relaxed);
  }
  /// @}

 private:
  const std::string id_;
  const std::string method_;
  const std::string path_;
  Stopwatch epoch_;
  std::atomic<const char*> current_stage_{nullptr};
  std::atomic<int64_t> deadline_us_{0};  ///< relative to epoch; <=0 = none

  mutable std::mutex mu_;
  std::string endpoint_;
  std::vector<StageRecord> stages_;
};

/// The context installed on this thread, or nullptr.
RequestContext* CurrentRequestContext();

/// \brief RAII install/uninstall of the thread-local context.  Restores
/// the previous context on destruction, so nested installs compose.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext* context);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* previous_;
};

/// \brief RAII stage span: on destruction, records (stage, start,
/// duration) into the current request context and observes the stage's
/// process-wide `serve.stage_seconds.<stage>` histogram.  \p stage must
/// be a string literal (stored by pointer, used as a registry key).
///
/// Inert (no clock read, no allocation) when no context is installed.
class StageTimer {
 public:
  explicit StageTimer(const char* stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  RequestContext* context_;       ///< nullptr = inert
  const char* stage_;
  const char* parent_stage_;      ///< restored on destruction
  int64_t start_us_ = 0;
};

/// \brief One row of the in-flight request table (/statusz).
struct InflightRequest {
  std::string id;
  std::string endpoint;   ///< route name, or "-" before dispatch
  std::string method;
  std::string path;
  double age_seconds = 0.0;
  const char* stage = nullptr;  ///< current stage, nullptr between stages
};

/// \brief Registry of requests currently being served, snapshottable from
/// any thread.  The serving layer registers a shared RequestContext at
/// entry and unregisters at exit; /statusz renders Snapshot().
class InflightRegistry {
 public:
  void Register(const std::shared_ptr<RequestContext>& context);
  void Unregister(const RequestContext* context);

  std::vector<InflightRequest> Snapshot() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<RequestContext>> inflight_;
};

}  // namespace vs::obs

#endif  // VS_OBS_REQUEST_CONTEXT_H_
