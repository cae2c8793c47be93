#ifndef VS_OBS_TRACE_H_
#define VS_OBS_TRACE_H_

/// \file trace.h
/// \brief obs::Span, the one RAII timer of the engine and the serving
/// layer, and the bounded ring it traces into, exportable as a Chrome
/// trace (load the JSON dump in chrome://tracing or ui.perfetto.dev).
///
/// A Span times its scope for each sink that is live at entry:
///  - an enabled TraceCollector: on exit it records (name, start,
///    duration, thread, parent), parented to the innermost live span on
///    the same thread.  A full ring overwrites (and counts) its oldest
///    events, so tracing is bounded memory.
///  - the thread's RequestContext (request_context.h): the span is the
///    request's current stage while open; on exit it appends a
///    StageRecord and observes `serve.stage_seconds.<name>`.
/// The clock is read once at entry and once at exit, and only for a live
/// sink; with neither, a span costs one relaxed load and one thread-local
/// load.  Names follow one dot-separated taxonomy (docs/ARCHITECTURE.md
/// "Request lifecycle & observability").  A scope opens at most one span,
/// and no pool task opens one: the caller runs chunks too, so the count
/// would depend on scheduling.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace vs::obs {

/// \brief One completed span.
struct TraceEvent {
  std::string name;
  int64_t start_us = 0;     ///< relative to the collector's epoch
  int64_t duration_us = 0;
  uint32_t thread_id = 0;   ///< stable small id per OS thread
  uint64_t id = 0;          ///< unique per collector, 1-based
  uint64_t parent_id = 0;   ///< 0 = no parent (top-level span)
};

/// \brief Thread-safe bounded store of completed spans.
class TraceCollector {
 public:
  /// \p capacity caps retained events; older events are dropped first.
  explicit TraceCollector(size_t capacity = 16384);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The process-wide collector the built-in spans record into.  Unlike a
  /// constructed collector it starts disabled.
  static TraceCollector& Default();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one completed event (called by Span).
  void Record(TraceEvent event);

  /// Microseconds from the collector's epoch (its construction) to \p t.
  int64_t MicrosAt(std::chrono::steady_clock::time_point t) const {
    return epoch_.MicrosAt(t);
  }

  /// Next span id (unique, 1-based).
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Events overwritten because the ring was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const;
  void Clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}, "X" complete events,
  /// microsecond timestamps).
  std::string ToChromeTraceJson() const;

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};
  Stopwatch epoch_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  size_t head_ = 0;               ///< insertion slot once wrapped
};

class RequestContext;

/// \brief RAII span: times the enclosing scope and, on exit, records it
/// into each live sink (see the file comment).
///
/// \p name must outlive the span and have a stable address (string
/// literals in practice): it is the current-stage pointer and the stage
/// histogram key.
class Span {
 public:
  explicit Span(const char* name,
                TraceCollector* collector = &TraceCollector::Default());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Trace id of this span (0 when the collector was disabled at entry).
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  TraceCollector* collector_;   ///< nullptr = not tracing
  RequestContext* context_;     ///< nullptr = no request stage
  const char* parent_stage_ = nullptr;  ///< restored on exit
  std::chrono::steady_clock::time_point start_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Stable small id of the calling thread (used for TraceEvent::thread_id).
uint32_t CurrentThreadId();

}  // namespace vs::obs

#endif  // VS_OBS_TRACE_H_
