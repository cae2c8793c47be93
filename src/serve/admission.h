#ifndef VS_SERVE_ADMISSION_H_
#define VS_SERVE_ADMISSION_H_

/// \file admission.h
/// \brief Adaptive (AIMD) per-endpoint admission control.
///
/// The HTTP server's bounded accept queue protects the process from
/// connection floods, but it is endpoint-blind: one pile-up of expensive
/// `create` requests can queue cheap `label` acks and `/healthz` probes
/// behind it until everything times out together.  This limiter sits in
/// front of each *handler* (ServeApp's route wrapper) and bounds the
/// number of concurrently executing requests per endpoint with a limit
/// that adapts to observed congestion:
///
///   - additive increase: every uncongested completion that ran while the
///     endpoint was near its limit earns +1/limit (≈ +1 per "round trip"
///     of `limit` requests), probing for spare capacity;
///   - multiplicative decrease: a congested completion (handler error,
///     deadline blown, latency above the configured threshold) cuts the
///     limit by `backoff_ratio`, at most once per `backoff_cooldown`
///     window so a burst of simultaneous failures counts as one signal.
///
/// Priority classes: kCritical requests (introspection endpoints and
/// `label` acks — cheap, and load-shedding them destroys observability or
/// user state) bypass the limit entirely; they are counted but never
/// shed.  kNormal requests are shed with `kResourceExhausted` (→ 429 +
/// Retry-After) when the endpoint is at its limit.
///
/// Thread-safety: fully thread-safe; one mutex per controller (the
/// critical sections are a handful of arithmetic ops).

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace vs::serve {

/// \brief Priority class of one request.
enum class AdmissionClass {
  kCritical,  ///< never shed: introspection, label acks
  kNormal,    ///< subject to the adaptive limit
};

/// \brief Tuning knobs for the AIMD limiter (defaults are sane for the
/// serving workloads in workloads/*.json).
struct AdmissionOptions {
  double initial_limit = 8.0;   ///< starting per-endpoint limit
  double min_limit = 1.0;       ///< floor after repeated backoff
  double max_limit = 128.0;     ///< exploration ceiling
  double backoff_ratio = 0.7;   ///< multiplicative decrease factor
  /// Congestion signals within one cooldown window collapse into a
  /// single multiplicative decrease.
  double backoff_cooldown_seconds = 0.1;
  /// nullptr = Clock::Real(); tests inject FakeClock.
  const Clock* clock = nullptr;
};

/// \brief Outcome of one admission attempt.
struct AdmissionDecision {
  bool admitted = false;
};

/// \brief One endpoint's state for /statusz.
struct AdmissionSnapshot {
  std::string endpoint;
  double limit = 0.0;
  int inflight = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
};

/// \brief Per-endpoint AIMD concurrency limiter with priority classes.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options = {});

  /// Attempts to admit one request.  Critical requests are always
  /// admitted.  Every admitted request must be paired with exactly one
  /// Release() for the same endpoint and class.
  AdmissionDecision Acquire(const std::string& endpoint,
                            AdmissionClass admission_class);

  /// Completes one admitted request.  \p congested feeds the AIMD loop:
  /// handler failure, blown deadline, or latency above the caller's
  /// threshold.  Critical completions never move the limit.
  void Release(const std::string& endpoint, AdmissionClass admission_class,
               bool congested);

  /// Current limit for \p endpoint (its initial limit if never seen).
  double LimitFor(const std::string& endpoint) const;

  /// Per-endpoint state, sorted by endpoint name.
  std::vector<AdmissionSnapshot> Snapshot() const;

 private:
  struct Endpoint {
    double limit = 0.0;
    int inflight = 0;        ///< normal-class only
    int critical_inflight = 0;
    bool constrained = false;  ///< hit the limit since the last decrease
    int64_t last_backoff_us = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
  };

  Endpoint& GetLocked(const std::string& endpoint);

  const AdmissionOptions options_;
  const Clock* clock_;
  mutable std::mutex mu_;
  std::map<std::string, Endpoint> endpoints_;
};

}  // namespace vs::serve

#endif  // VS_SERVE_ADMISSION_H_
