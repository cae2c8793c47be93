#ifndef VS_SERVE_APP_H_
#define VS_SERVE_APP_H_

/// \file app.h
/// \brief The JSON-over-HTTP protocol: routes the session lifecycle onto a
/// SessionManager and renders typed responses.
///
/// | method + path              | body → result                           |
/// |----------------------------|-----------------------------------------|
/// | POST   /sessions           | {table?,filter?,strategy?,k?,...} → 201 |
/// | GET    /sessions/{id}      | → session info                          |
/// | GET    /sessions/{id}/next | → views to label next                   |
/// | POST   /sessions/{id}/label| {view,label} → new label count          |
/// | GET    /sessions/{id}/topk | [?lambda=f] → current top-k + scores    |
/// | GET    /sessions/{id}/labels| → full label history                   |
/// | DELETE /sessions/{id}      | → {"deleted":true}                      |
/// | GET  /admin/sessions/{id}/export | → {"id","envelope"} (migration)   |
/// | POST /admin/sessions/{id}/import | {envelope} → 201 session info     |
/// | GET    /healthz            | → liveness + session gauge + durability |
/// | GET    /metrics            | → Prometheus text exposition            |
/// | GET    /statusz            | → introspection snapshot (JSON)         |
///
/// Errors are JSON {"error":{"code","message"}} with the HTTP status
/// derived from the vs::Status code (NotFound→404, InvalidArgument→400,
/// ResourceExhausted→429, FailedPrecondition→409, ...).
///
/// Request-scoped observability: every dispatched request gets a request
/// id — the client's `X-Request-Id` when present (sanitized), otherwise a
/// generated `req-<n>` — installed as the thread-local RequestContext for
/// the duration of handling.  Instrumented stages below (session manager,
/// feature-matrix cache, durability) record into it; the response echoes
/// the id (`X-Request-Id`) and the stage breakdown (`X-Request-Stages`,
/// `stage=micros;...`), the SLO tracker records the latency under the
/// endpoint name, and a structured wide event is emitted to the
/// configured sink for sampled and over-budget ("slow") requests.
/// `GET /statusz` renders build info, config, the in-flight request
/// table, SLO window state and subsystem summaries.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/request_context.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/router.h"
#include "serve/session_manager.h"
#include "serve/slo.h"

namespace vs::serve {

/// HTTP status for a failed vs::Status.
int HttpStatusFor(const vs::Status& status);

/// Renders \p status as the standard JSON error response.
HttpResponse ErrorResponseFor(const vs::Status& status);

/// Sanitized request id: \p candidate when it is 1..64 chars drawn from
/// [A-Za-z0-9._:-], empty string otherwise (caller generates one).
std::string SanitizeRequestId(std::string_view candidate);

struct ServeAppOptions {
  /// Requests slower than this always emit a wide event (when a sink is
  /// configured); <= 0 disables the slow-request trigger.
  double slow_request_ms = 500.0;
  /// Emit a wide event for every Nth request (1 = all, 0 = none beyond
  /// slow requests).
  uint64_t wide_event_sample = 0;
  /// Destination for wide events; nullptr disables emission entirely.
  /// Borrowed — must outlive the app.
  obs::EventSink* wide_event_sink = nullptr;
  /// SLO window + per-endpoint latency budget (0 = no budget).
  double slo_window_seconds = 60.0;
  double slo_budget_ms = 0.0;
  /// Serving configuration as a JSON object, rendered verbatim in
  /// /statusz ("{}" when empty).  The tool layer fills this from flags.
  std::string config_json;
  /// Cluster shard identity.  Non-empty = every response carries an
  /// `X-Shard: <name>` header, wide events gain a `shard` field and
  /// /healthz reports the name — the debuggability contract the cluster
  /// router's clients rely on.  Empty = single-process serving, no
  /// cluster headers.
  std::string shard_name;
  /// Artificial per-request service time for session endpoints (admin
  /// and introspection routes excluded), in milliseconds.  Models a
  /// deployment whose workers are latency-bound (I/O, model inference)
  /// rather than CPU-bound, which is what makes shard-scaling benchmarks
  /// honest on small machines — see bench/bench_cluster.cc.  <= 0 off.
  double simulate_service_ms = 0.0;
  /// With simulate_service_ms: at most this many requests are inside the
  /// simulated service at once (a worker with N cores); excess requests
  /// queue at the gate.  The transport is thread-per-connection, so
  /// capping its thread count would starve keep-alive connections — this
  /// caps service capacity instead.  <= 0 = unbounded.
  int simulate_cores = 0;
  /// Time source for the SLO window; nullptr = real clock.
  const Clock* clock = nullptr;
  /// Adaptive admission control (docs/ARCHITECTURE.md "Overload &
  /// degradation").  When enabled, every non-critical request passes the
  /// per-endpoint AIMD limiter before its handler runs; shed requests get
  /// 429 + `Retry-After`.  Critical traffic (introspection, label acks)
  /// is never shed.  Off by default so embedded uses keep the static
  /// bounded-queue policy; the serve tool enables it.
  bool admission_enabled = false;
  AdmissionOptions admission;
};

/// \brief Stateless protocol adapter over a borrowed SessionManager.
class ServeApp {
 public:
  explicit ServeApp(SessionManager* manager, ServeAppOptions options = {});

  /// Entry point the transport calls for every parsed request; records
  /// serve-layer metrics and a per-request trace span around dispatch.
  HttpResponse Handle(const HttpRequest& request);

  /// Observability state, exposed for /statusz and tests.
  const SloTracker& slo() const { return slo_; }
  const obs::InflightRegistry& inflight() const { return inflight_; }
  const AdmissionController& admission() const { return admission_; }

 private:
  /// Registers method+pattern under a stable endpoint \p name; the
  /// wrapper stamps the name into the current RequestContext *before*
  /// the handler runs, so a stalled request is attributable in /statusz.
  void AddRoute(const char* method, const char* pattern, const char* name,
                RouteHandler handler);

  HttpResponse CreateSession(const HttpRequest& request);
  HttpResponse GetInfo(const std::vector<std::string>& params);
  HttpResponse GetNext(const std::vector<std::string>& params);
  HttpResponse PostLabel(const HttpRequest& request,
                         const std::vector<std::string>& params);
  HttpResponse GetTopK(const HttpRequest& request,
                       const std::vector<std::string>& params);
  HttpResponse GetLabels(const std::vector<std::string>& params);
  HttpResponse DeleteSession(const std::vector<std::string>& params);
  HttpResponse ExportSession(const std::vector<std::string>& params);
  HttpResponse ImportSession(const HttpRequest& request,
                             const std::vector<std::string>& params);
  HttpResponse Healthz();
  HttpResponse Metrics();
  HttpResponse Statusz();

  void EmitWideEvent(const obs::RequestContext& context,
                     const std::string& endpoint, int status,
                     double duration_ms, bool slow, bool sampled);

  SessionManager* manager_;
  ServeAppOptions options_;
  Router router_;
  Stopwatch uptime_;
  SloTracker slo_;
  AdmissionController admission_;
  obs::InflightRegistry inflight_;
  std::atomic<uint64_t> request_sequence_{0};
  /// Simulated-core gate for simulate_service_ms (see ServeAppOptions).
  std::mutex sim_mu_;
  std::condition_variable sim_cv_;
  int sim_in_service_ = 0;
};

}  // namespace vs::serve

#endif  // VS_SERVE_APP_H_
