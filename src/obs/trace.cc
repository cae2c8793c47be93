#include "obs/trace.h"

#include <map>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/request_context.h"

namespace vs::obs {

namespace {

/// Innermost live span id on this thread (per collector would be overkill:
/// nesting across two collectors in one scope chain is not a supported
/// pattern, and the worst case is a cosmetic parent link).
thread_local uint64_t tl_current_span = 0;

std::atomic<uint32_t> g_next_thread_id{0};

/// Stage-name → histogram handle, keyed by the literal's address (the
/// Span contract).  Amortized: each distinct stage registers once; later
/// lookups are one small map probe under a short-lived lock.
Histogram* StageHistogram(const char* stage) {
  static std::mutex mu;
  static std::map<const void*, Histogram*>* handles =
      new std::map<const void*, Histogram*>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = handles->find(stage);
    if (it != handles->end()) return it->second;
  }
  Histogram* histogram = MetricsRegistry::Default().GetHistogram(
      std::string("serve.stage_seconds.") + stage, DefaultLatencyBuckets(),
      "per-request stage latency (inclusive)");
  std::lock_guard<std::mutex> lock(mu);
  return handles->emplace(stage, histogram).first->second;
}

}  // namespace

uint32_t CurrentThreadId() {
  thread_local uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

TraceCollector::TraceCollector(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceCollector& TraceCollector::Default() {
  static TraceCollector* collector = [] {
    auto* c = new TraceCollector();
    c->set_enabled(false);
    return c;
  }();
  return *collector;
}

void TraceCollector::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: [head_, end) then [0, head_) once wrapped.
  for (size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceCollector::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
        "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu}}",
        JsonEscape(e.name).c_str(), static_cast<long long>(e.start_us),
        static_cast<long long>(e.duration_us), e.thread_id,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.parent_id));
  }
  out += "]}";
  return out;
}

Span::Span(const char* name, TraceCollector* collector)
    : name_(name),
      collector_(collector != nullptr && collector->enabled() ? collector
                                                              : nullptr),
      context_(CurrentRequestContext()) {
  if (collector_ == nullptr && context_ == nullptr) return;
  if (collector_ != nullptr) {
    id_ = collector_->NextSpanId();
    parent_ = tl_current_span;
    tl_current_span = id_;
  }
  if (context_ != nullptr) {
    parent_stage_ = context_->current_stage();
    context_->set_current_stage(name_);
  }
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (collector_ == nullptr && context_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const int64_t duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count();
  if (context_ != nullptr) {
    context_->set_current_stage(parent_stage_);
    context_->AddStage(name_, context_->MicrosAt(start_), duration_us);
    StageHistogram(name_)->Observe(static_cast<double>(duration_us) * 1e-6);
  }
  if (collector_ != nullptr) {
    tl_current_span = parent_;
    collector_->Record(TraceEvent{name_, collector_->MicrosAt(start_),
                                  duration_us, CurrentThreadId(), id_,
                                  parent_});
  }
}

}  // namespace vs::obs
