#include "serve/admission.h"

#include <algorithm>

#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace vs::serve {

namespace {

obs::Counter* AdmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "admission.admitted", "requests admitted past the adaptive limiter");
  return c;
}

obs::Counter* ShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "admission.shed", "requests shed by the adaptive limiter");
  return c;
}

void PublishLimit(const std::string& endpoint, double limit) {
  obs::MetricsRegistry::Default()
      .GetGauge("admission.limit." + endpoint,
                "current AIMD concurrency limit")
      ->Set(limit);
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()) {}

AdmissionController::Endpoint& AdmissionController::GetLocked(
    const std::string& endpoint) {
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    Endpoint fresh;
    fresh.limit = options_.initial_limit;
    it = endpoints_.emplace(endpoint, fresh).first;
  }
  return it->second;
}

AdmissionDecision AdmissionController::Acquire(
    const std::string& endpoint, AdmissionClass admission_class) {
  std::lock_guard<std::mutex> lock(mu_);
  Endpoint& ep = GetLocked(endpoint);
  AdmissionDecision decision;
  if (admission_class == AdmissionClass::kCritical) {
    ++ep.critical_inflight;
    ++ep.admitted;
    decision.admitted = true;
    AdmittedCounter()->Increment();
    return decision;
  }
  const int limit = std::max(1, static_cast<int>(ep.limit));
  const bool forced = VS_FAULT("admission.force_shed");
  if (forced || ep.inflight >= limit) {
    ++ep.shed;
    ShedCounter()->Increment();
    return decision;  // not admitted
  }
  ++ep.inflight;
  ++ep.admitted;
  decision.admitted = true;
  // Filling the last slot is the evidence of demand additive increase
  // waits for.
  if (ep.inflight >= limit) ep.constrained = true;
  AdmittedCounter()->Increment();
  return decision;
}

void AdmissionController::Release(const std::string& endpoint,
                                  AdmissionClass admission_class,
                                  bool congested) {
  std::lock_guard<std::mutex> lock(mu_);
  Endpoint& ep = GetLocked(endpoint);
  if (admission_class == AdmissionClass::kCritical) {
    ep.critical_inflight = std::max(0, ep.critical_inflight - 1);
    return;  // critical traffic never moves the limit
  }
  ep.inflight = std::max(0, ep.inflight - 1);
  if (congested) {
    const int64_t now_us = clock_->NowMicros();
    const int64_t cooldown_us =
        static_cast<int64_t>(options_.backoff_cooldown_seconds * 1e6);
    if (ep.last_backoff_us == 0 ||
        now_us - ep.last_backoff_us >= cooldown_us) {
      ep.limit =
          std::max(options_.min_limit, ep.limit * options_.backoff_ratio);
      ep.last_backoff_us = now_us;
      ep.constrained = false;
      PublishLimit(endpoint, ep.limit);
    }
    return;
  }
  // Only probe upward when the endpoint actually ran at its limit since
  // the last decrease — an idle endpoint has no evidence of headroom.
  if (ep.constrained && ep.limit < options_.max_limit) {
    ep.limit = std::min(options_.max_limit,
                        ep.limit + 1.0 / std::max(1.0, ep.limit));
    PublishLimit(endpoint, ep.limit);
  }
}

double AdmissionController::LimitFor(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? options_.initial_limit : it->second.limit;
}

std::vector<AdmissionSnapshot> AdmissionController::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AdmissionSnapshot> out;
  out.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) {
    AdmissionSnapshot row;
    row.endpoint = name;
    row.limit = ep.limit;
    row.inflight = ep.inflight + ep.critical_inflight;
    row.admitted = ep.admitted;
    row.shed = ep.shed;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace vs::serve
