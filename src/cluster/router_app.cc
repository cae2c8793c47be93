#include "cluster/router_app.h"

#include <algorithm>
#include <chrono>

#include "cluster/prom_merge.h"
#include "common/string_util.h"
#include "serve/app.h"
#include "serve/json.h"

namespace vs::cluster {

namespace {

using serve::HttpRequest;
using serve::HttpResponse;

/// Cached handles into the default registry (amortized registration).
struct RouterMetrics {
  obs::Counter* forwarded;
  obs::Counter* forward_errors;
  obs::Counter* forward_retries;
  obs::Counter* retries_503;
  obs::Counter* rejected_unavailable;
  obs::Counter* ejections;
  obs::Counter* readmissions;
  obs::Counter* migrations;
  obs::Counter* migration_failures;
  obs::Counter* breaker_opens;
  obs::Counter* breaker_rejects;
  obs::Counter* retries_suppressed;
  obs::Counter* deadline_rejects;
  obs::Gauge* retry_budget_tokens;

  static const RouterMetrics& Get() {
    static const RouterMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return RouterMetrics{
          r.GetCounter("cluster.requests_forwarded",
                       "requests forwarded to workers"),
          r.GetCounter("cluster.forward_errors",
                       "forwards that failed at the transport (502)"),
          r.GetCounter("cluster.forward_retries",
                       "backoff retries taken against workers"),
          r.GetCounter("cluster.retries_503",
                       "creates re-placed after a worker shed them"),
          r.GetCounter("cluster.rejected_unavailable",
                       "requests refused because the owning shard is "
                       "ejected"),
          r.GetCounter("cluster.shard_ejections",
                       "workers ejected by the failure detector"),
          r.GetCounter("cluster.shard_readmissions",
                       "ejected workers re-admitted by a probe"),
          r.GetCounter("cluster.migrations", "sessions migrated"),
          r.GetCounter("cluster.migration_failures",
                       "migrations aborted with the session left on its "
                       "source shard"),
          r.GetCounter("cluster.breaker_opens",
                       "circuit-breaker trip transitions"),
          r.GetCounter("cluster.breaker_rejects",
                       "requests refused because the owning shard's "
                       "breaker is open"),
          r.GetCounter("cluster.retries_suppressed",
                       "retries refused by the global retry budget"),
          r.GetCounter("cluster.deadline_rejects",
                       "requests answered 504 because their deadline was "
                       "already spent"),
          r.GetGauge("cluster.retry_budget_tokens",
                     "tokens left in the global retry budget"),
      };
    }();
    return m;
  }
};

/// Shard names appear inside metric names, so the ring alphabet is the
/// session-id alphabet (serve::ValidSessionId) — the metrics exporter
/// folds '.' and '-' to '_'.
bool ValidShardName(const std::string& name) {
  return serve::ValidSessionId(name);
}

std::string ForwardTarget(const HttpRequest& request) {
  if (request.query.empty()) return request.path;
  return request.path + "?" + request.query;
}

/// Renders a worker's reply for the client: status, body, content type
/// and the worker headers a client behind the router still needs.
HttpResponse RelayShardResponse(serve::ClientResponse upstream,
                                const std::string& shard_name) {
  HttpResponse response;
  response.status = upstream.status;
  response.body = std::move(upstream.body);
  if (const std::string* type = upstream.FindHeader("content-type")) {
    response.content_type = *type;
  }
  if (const std::string* stages = upstream.FindHeader("x-request-stages")) {
    response.extra_headers.emplace_back("X-Request-Stages", *stages);
  }
  if (const std::string* echoed =
          upstream.FindHeader("x-deadline-budget-ms")) {
    // The worker echoes the deadline it received; copying it through
    // makes the router's hop decrement observable at the client.
    response.extra_headers.emplace_back("X-Deadline-Budget-Ms", *echoed);
  }
  // Stamped by the router, not copied: the worker only knows its name
  // when launched with --shard-name, and the router's view of who served
  // the request is the one debugging needs.
  response.extra_headers.emplace_back("X-Shard", shard_name);
  return response;
}

HttpResponse JsonOk(std::string body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

}  // namespace

double DecrementedDeadlineMs(double deadline_ms, double elapsed_ms) {
  if (deadline_ms <= 0.0) return 0.0;
  const double left = deadline_ms - std::max(0.0, elapsed_ms);
  return left > 0.0 ? left : 0.0;
}

ClusterRouter::ClusterRouter(ClusterRouterOptions options)
    : options_(std::move(options)),
      ring_(HashRingOptions{std::max(1, options_.virtual_nodes)}),
      id_rng_(options_.seed),
      retry_budget_(options_.retry_budget) {
  RouterMetrics::Get().retry_budget_tokens->Set(retry_budget_.tokens());
}

ClusterRouter::~ClusterRouter() { Stop(); }

vs::Status ClusterRouter::Start() {
  if (started_) return vs::Status::FailedPrecondition("router already started");
  if (options_.shards.empty()) {
    return vs::Status::InvalidArgument("router needs at least one shard");
  }
  auto& registry = obs::MetricsRegistry::Default();
  for (const ShardAddress& address : options_.shards) {
    if (!ValidShardName(address.name)) {
      return vs::Status::InvalidArgument("invalid shard name: " +
                                         address.name);
    }
    if (address.port <= 0 || address.port > 65535) {
      return vs::Status::InvalidArgument(
          StrFormat("shard %s: bad port %d", address.name.c_str(),
                    address.port));
    }
    VS_RETURN_IF_ERROR(ring_.AddShard(address.name));
    auto shard = std::make_unique<Shard>(
        address, FailureDetectorOptions{std::max(1, options_.eject_after)},
        options_.breaker);
    shard->requests = registry.GetCounter(
        "cluster.shard_requests." + address.name,
        "requests forwarded to one shard");
    shard->forward_seconds = registry.GetHistogram(
        "cluster.forward_seconds." + address.name,
        obs::DefaultLatencyBuckets(), "forward latency to one shard");
    shard->up = registry.GetGauge("cluster.shard_up." + address.name,
                                  "1 = shard serving, 0 = ejected");
    shard->up->Set(1.0);
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  // One synchronous sweep so a worker that is already down is ejectable
  // before the first real request (with eject_after > 1 it still takes
  // that many sweeps — by design, one flaky probe must not eject).
  ProbeNow();
  if (options_.probe_interval_seconds > 0.0) {
    prober_ = std::thread([this] { ProbeLoop(); });
  }
  return vs::Status::OK();
}

void ClusterRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(prober_mu_);
    stop_prober_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

ClusterRouter::Shard* ClusterRouter::FindShard(const std::string& name) {
  for (const auto& shard : shards_) {
    if (shard->address.name == name) return shard.get();
  }
  return nullptr;
}

const ClusterRouter::Shard* ClusterRouter::FindShard(
    const std::string& name) const {
  for (const auto& shard : shards_) {
    if (shard->address.name == name) return shard.get();
  }
  return nullptr;
}

std::string ClusterRouter::NewSessionId() {
  std::lock_guard<std::mutex> lock(id_mu_);
  return StrFormat("c%04llx%08llx",
                   static_cast<unsigned long long>(++id_counter_),
                   static_cast<unsigned long long>(id_rng_.NextUint64() &
                                                   0xffffffffULL));
}

std::string ClusterRouter::RequestId(const HttpRequest& request) {
  // Same contract as the workers (serve/app.cc): the client's id when it
  // is well-formed, a generated one otherwise — and the same id is then
  // forwarded, so one id names the request end-to-end.
  if (const std::string* header = request.FindHeader("x-request-id")) {
    std::string id = serve::SanitizeRequestId(*header);
    if (!id.empty()) return id;
  }
  const uint64_t seq =
      request_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  return StrFormat("rt-%llu", static_cast<unsigned long long>(seq));
}

vs::Result<std::string> ClusterRouter::ShardForSession(
    const std::string& id) const {
  {
    std::lock_guard<std::mutex> lock(override_mu_);
    auto it = overrides_.find(id);
    if (it != overrides_.end()) return it->second;
  }
  return ring_.ShardFor(id);
}

bool ClusterRouter::ShardEjected(const std::string& name) const {
  const Shard* shard = FindShard(name);
  return shard == nullptr ? true : shard->detector.ejected();
}

BreakerState ClusterRouter::ShardBreakerState(const std::string& name) const {
  const Shard* shard = FindShard(name);
  return shard == nullptr ? BreakerState::kOpen : shard->breaker.state();
}

ClusterRouter::ForwardOutcome ClusterRouter::Exchange(
    Shard& shard, std::string_view method, std::string_view target,
    std::string_view body, const std::string& request_id, bool retry_503,
    const RequestBudget* budget, bool data_path) {
  std::unique_ptr<serve::HttpClient> client;
  {
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    if (!shard.pool.empty()) {
      client = std::move(shard.pool.back());
      shard.pool.pop_back();
    }
  }
  if (client == nullptr) {
    client = std::make_unique<serve::HttpClient>(
        shard.address.host, shard.address.port,
        options_.forward_timeout_seconds);
  }
  const RouterMetrics& m = RouterMetrics::Get();
  serve::RetryOptions retry;
  retry.max_attempts = retry_503 ? std::max(1, options_.forward_attempts) : 1;
  retry.initial_backoff_seconds = options_.retry_backoff_seconds;
  retry.max_backoff_seconds =
      std::max(options_.retry_backoff_seconds, 1.0);
  retry.deadline_seconds = options_.forward_timeout_seconds;
  retry.retry_503 = retry_503;
  if (retry.max_attempts > 1) {
    // Every backoff retry spends a token from the router-global budget;
    // a dry bucket degrades this exchange to a single attempt.
    retry.retry_gate = [this, &m] {
      if (retry_budget_.TryWithdraw()) return true;
      m.retries_suppressed->Increment();
      return false;
    };
  }
  std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Request-Id", request_id}};
  if (budget != nullptr && budget->has_deadline()) {
    // The worker receives what is *left* of the client's budget after
    // this hop — the decrement that makes multi-hop deadlines honest.
    const double remaining_ms = budget->remaining_ms();
    headers.emplace_back("X-Deadline-Ms",
                         StrFormat("%.3f", remaining_ms));
    retry.deadline_seconds =
        std::min(retry.deadline_seconds, remaining_ms * 1e-3);
  }
  client->set_retry_options(retry);
  const uint64_t retries_before = client->backoff_retries();

  Stopwatch watch;
  ForwardOutcome out;
  out.response = client->Request(method, target, body, headers);
  out.seconds = watch.ElapsedSeconds();

  m.forwarded->Increment();
  shard.requests->Increment();
  shard.forward_seconds->Observe(out.seconds);
  m.forward_retries->Increment(client->backoff_retries() - retries_before);

  // Any HTTP response — including an error status — proves the worker is
  // alive; only a transport failure feeds the miss streak.
  if (out.response.ok()) {
    if (shard.detector.RecordSuccess()) m.readmissions->Increment();
    shard.up->Set(1.0);
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    shard.pool.push_back(std::move(client));  // keep-alive for reuse
  } else {
    if (shard.detector.RecordFailure()) m.ejections->Increment();
    shard.up->Set(shard.detector.ejected() ? 0.0 : 1.0);
    // The connection is suspect; drop it and dial fresh next time.
  }

  // Only client traffic feeds the breaker and the retry budget: a worker
  // whose /healthz still answers 200 must not mask a failing data path,
  // and probe successes must not mint retry tokens.
  if (data_path) {
    const bool server_error =
        !out.response.ok() || out.response->status >= 500;
    if (server_error) {
      if (shard.breaker.RecordFailure()) m.breaker_opens->Increment();
    } else {
      shard.breaker.RecordSuccess();
      retry_budget_.RecordSuccess();
    }
    m.retry_budget_tokens->Set(retry_budget_.tokens());
  }
  return out;
}

HttpResponse ClusterRouter::ForwardToShard(Shard& shard,
                                           const HttpRequest& request,
                                           const std::string& request_id,
                                           bool retry_503,
                                           const RequestBudget* budget) {
  ForwardOutcome out = Exchange(shard, request.method,
                                ForwardTarget(request), request.body,
                                request_id, retry_503, budget,
                                /*data_path=*/true);
  if (!out.response.ok()) {
    RouterMetrics::Get().forward_errors->Increment();
    return serve::JsonErrorResponse(
        502, "BadGateway",
        StrFormat("shard %s unreachable: %s", shard.address.name.c_str(),
                  out.response.status().message().c_str()));
  }
  return RelayShardResponse(std::move(*out.response), shard.address.name);
}

vs::Status ClusterRouter::EnterSession(const std::string& id) {
  std::unique_lock<std::mutex> lock(gate_mu_);
  auto it = gates_.find(id);
  if (it != gates_.end() && it->second.migrating) {
    // Hold instead of failing: the handoff takes milliseconds, the
    // client never sees it (acceptance: no 5xx during migration).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                std::max(0.0, options_.migrate_hold_seconds)));
    const bool drained = gate_cv_.wait_until(lock, deadline, [&] {
      auto g = gates_.find(id);
      return g == gates_.end() || !g->second.migrating;
    });
    if (!drained) {
      return vs::Status::Aborted("session handoff in progress: " + id);
    }
  }
  ++gates_[id].inflight;
  return vs::Status::OK();
}

void ClusterRouter::ExitSession(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    auto it = gates_.find(id);
    if (it != gates_.end()) {
      if (--it->second.inflight <= 0 && !it->second.migrating) {
        gates_.erase(it);
      }
    }
  }
  gate_cv_.notify_all();
}

vs::Status ClusterRouter::BeginMigrate(const std::string& id) {
  std::unique_lock<std::mutex> lock(gate_mu_);
  SessionGate& gate = gates_[id];  // std::map: reference stays valid
  if (gate.migrating) {
    return vs::Status::AlreadyExists("migration already in progress: " + id);
  }
  gate.migrating = true;  // newcomers now hold in EnterSession
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(0.0, options_.migrate_hold_seconds)));
  const bool drained = gate_cv_.wait_until(
      lock, deadline, [&gate] { return gate.inflight == 0; });
  if (!drained) {
    gate.migrating = false;
    if (gate.inflight <= 0) gates_.erase(id);
    lock.unlock();
    gate_cv_.notify_all();
    return vs::Status::TimedOut("in-flight requests did not drain: " + id);
  }
  return vs::Status::OK();
}

void ClusterRouter::EndMigrate(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    auto it = gates_.find(id);
    if (it != gates_.end()) {
      it->second.migrating = false;
      if (it->second.inflight <= 0) gates_.erase(it);
    }
  }
  gate_cv_.notify_all();
}

HttpResponse ClusterRouter::HandleCreate(const HttpRequest& request,
                                         const std::string& request_id,
                                         const RequestBudget& budget) {
  const RouterMetrics& m = RouterMetrics::Get();
  const int attempts = std::max(1, options_.forward_attempts);
  HttpResponse last = serve::JsonErrorResponse(
      503, "Unavailable", "no shard accepted the session");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (budget.expired()) {
      deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
      m.deadline_rejects->Increment();
      return serve::JsonErrorResponse(
          504, "TimedOut", "deadline spent before a shard accepted");
    }
    // Re-rolls spend from the global retry budget: the first attempt is
    // always free, but a saturated cluster must not be hammered with
    // fresh placements for the same create.
    if (attempt > 0 && !retry_budget_.TryWithdraw()) {
      m.retries_suppressed->Increment();
      break;
    }
    // The router owns placement: it mints the id, the ring names the
    // owner, and the worker is told the id via ?id=.  A failed attempt
    // re-rolls a *fresh* id — new placement, very likely a different
    // shard — which is safe because a failed create acknowledged
    // nothing a client could reference.
    const std::string session_id = NewSessionId();
    vs::Result<std::string> owner = ring_.ShardFor(session_id);
    if (!owner.ok()) return serve::ErrorResponseFor(owner.status());
    Shard* shard = FindShard(*owner);
    if (shard->detector.ejected()) {
      m.rejected_unavailable->Increment();
      last = serve::JsonErrorResponse(
          503, "Unavailable",
          StrFormat("shard %s is ejected", owner->c_str()));
      continue;
    }
    if (!shard->breaker.Allow()) {
      m.breaker_rejects->Increment();
      last = serve::JsonErrorResponse(
          503, "Unavailable",
          StrFormat("shard %s breaker open", owner->c_str()));
      last.extra_headers.emplace_back(
          "Retry-After", StrFormat("%.3f", options_.breaker.open_seconds));
      continue;
    }
    std::string target = "/sessions?";
    if (!request.query.empty()) target += request.query + "&";
    target += "id=" + session_id;
    ForwardOutcome out = Exchange(*shard, "POST", target, request.body,
                                  request_id, /*retry_503=*/false, &budget,
                                  /*data_path=*/true);
    if (!out.response.ok()) {
      m.forward_errors->Increment();
      last = serve::JsonErrorResponse(
          502, "BadGateway",
          StrFormat("shard %s unreachable: %s", owner->c_str(),
                    out.response.status().message().c_str()));
      continue;
    }
    if (out.response->status == 503 && attempt + 1 < attempts) {
      m.retries_503->Increment();
      continue;
    }
    return RelayShardResponse(std::move(*out.response), shard->address.name);
  }
  return last;
}

HttpResponse ClusterRouter::HandleSession(const HttpRequest& request,
                                          const std::string& session_id,
                                          const std::string& request_id,
                                          const RequestBudget& budget) {
  if (budget.expired()) {
    // The budget may have been spent holding at a migration gate — check
    // before entering so an expired request never dials a worker.
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
    RouterMetrics::Get().deadline_rejects->Increment();
    return serve::JsonErrorResponse(
        504, "TimedOut", "deadline spent before forwarding");
  }
  const vs::Status entered = EnterSession(session_id);
  if (!entered.ok()) return serve::ErrorResponseFor(entered);
  HttpResponse response;
  vs::Result<std::string> owner = ShardForSession(session_id);
  if (!owner.ok()) {
    response = serve::ErrorResponseFor(owner.status());
  } else {
    Shard* shard = FindShard(*owner);
    if (shard->detector.ejected()) {
      RouterMetrics::Get().rejected_unavailable->Increment();
      response = serve::JsonErrorResponse(
          503, "Unavailable",
          StrFormat("shard %s is ejected", owner->c_str()));
    } else if (budget.expired()) {
      deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
      RouterMetrics::Get().deadline_rejects->Increment();
      response = serve::JsonErrorResponse(
          504, "TimedOut", "deadline spent before forwarding");
    } else if (!shard->breaker.Allow()) {
      RouterMetrics::Get().breaker_rejects->Increment();
      response = serve::JsonErrorResponse(
          503, "Unavailable",
          StrFormat("shard %s breaker open", owner->c_str()));
      response.extra_headers.emplace_back(
          "Retry-After", StrFormat("%.3f", options_.breaker.open_seconds));
    } else {
      const bool idempotent =
          request.method == "GET" || request.method == "DELETE";
      response =
          ForwardToShard(*shard, request, request_id, idempotent, &budget);
      if (request.method == "DELETE" && response.status == 200) {
        std::lock_guard<std::mutex> lock(override_mu_);
        overrides_.erase(session_id);
      }
    }
  }
  ExitSession(session_id);
  return response;
}

HttpResponse ClusterRouter::HandleMigrate(const HttpRequest& request,
                                          const std::string& request_id) {
  vs::Result<serve::JsonValue> body = serve::JsonValue::Parse(
      Trim(request.body).empty() ? "{}" : request.body);
  if (!body.ok() || !body->is_object()) {
    return serve::JsonErrorResponse(400, "InvalidArgument",
                                    "body must be a JSON object");
  }
  vs::Result<std::string> session = body->RequiredString("session");
  if (!session.ok()) return serve::ErrorResponseFor(session.status());
  vs::Result<std::string> to = body->RequiredString("to");
  if (!to.ok()) return serve::ErrorResponseFor(to.status());
  if (!serve::ValidSessionId(*session)) {
    return serve::JsonErrorResponse(400, "InvalidArgument",
                                    "invalid session id: " + *session);
  }
  Shard* target = FindShard(*to);
  if (target == nullptr) {
    return serve::JsonErrorResponse(404, "NotFound", "unknown shard: " + *to);
  }
  vs::Result<std::string> from = ShardForSession(*session);
  if (!from.ok()) return serve::ErrorResponseFor(from.status());
  if (*from == *to) {
    return JsonOk(StrFormat(
        "{\"session\":%s,\"from\":%s,\"to\":%s,\"migrated\":false,"
        "\"reason\":\"already placed on target\"}\n",
        serve::JsonQuote(*session).c_str(), serve::JsonQuote(*from).c_str(),
        serve::JsonQuote(*to).c_str()));
  }
  Shard* source = FindShard(*from);
  if (target->detector.ejected()) {
    return serve::JsonErrorResponse(409, "FailedPrecondition",
                                    "target shard is ejected: " + *to);
  }

  // Drain: in-flight requests for this session finish, new ones hold at
  // the gate until EndMigrate — the client sees latency, never an error.
  const vs::Status drained = BeginMigrate(*session);
  if (!drained.ok()) return serve::ErrorResponseFor(drained);
  const RouterMetrics& m = RouterMetrics::Get();
  auto fail = [&](const vs::Status& status) {
    EndMigrate(*session);
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
    m.migration_failures->Increment();
    return serve::ErrorResponseFor(status);
  };

  // 1. Export on the source.  The worker persists the exact envelope it
  //    hands back before answering, so a snapshot-path fault
  //    (snapshot.rename_fail) aborts here with the session untouched.
  ForwardOutcome exported =
      Exchange(*source, "GET", "/admin/sessions/" + *session + "/export",
               "", request_id, /*retry_503=*/true);
  if (!exported.response.ok()) {
    return fail(vs::Status::IOError(
        StrFormat("export from %s failed: %s", from->c_str(),
                  exported.response.status().message().c_str())));
  }
  if (exported.response->status != 200) {
    if (exported.response->status == 404) {
      return fail(vs::Status::NotFound("no such session: " + *session));
    }
    return fail(vs::Status::Internal(
        StrFormat("export from %s answered HTTP %d", from->c_str(),
                  exported.response->status)));
  }
  vs::Result<serve::JsonValue> export_body =
      serve::JsonValue::Parse(exported.response->body);
  if (!export_body.ok()) return fail(export_body.status());
  vs::Result<std::string> envelope = export_body->RequiredString("envelope");
  if (!envelope.ok()) return fail(envelope.status());

  // 2. Import the bytes verbatim on the target (all-or-nothing there).
  ForwardOutcome imported = Exchange(
      *target, "POST", "/admin/sessions/" + *session + "/import",
      "{\"envelope\":" + serve::JsonQuote(*envelope) + "}", request_id,
      /*retry_503=*/false);
  if (!imported.response.ok()) {
    return fail(vs::Status::IOError(
        StrFormat("import to %s failed: %s", to->c_str(),
                  imported.response.status().message().c_str())));
  }
  if (imported.response->status != 201) {
    return fail(vs::Status::Internal(
        StrFormat("import to %s answered HTTP %d: %s", to->c_str(),
                  imported.response->status,
                  imported.response->body.c_str())));
  }

  // 3. Flip routing.  From here the target copy is authoritative.
  {
    std::lock_guard<std::mutex> lock(override_mu_);
    vs::Result<std::string> natural = ring_.ShardFor(*session);
    if (natural.ok() && *natural == *to) {
      overrides_.erase(*session);  // migrated back to its ring home
    } else {
      overrides_[*session] = *to;
    }
  }

  // 4. Delete the source copy.  A failure here is not a failed
  //    migration — routing already moved — it leaves an unreferenced
  //    copy on the source that a later DELETE or operator sweep clears.
  ForwardOutcome deleted =
      Exchange(*source, "DELETE", "/sessions/" + *session, "", request_id,
               /*retry_503=*/true);
  const bool source_deleted =
      deleted.response.ok() && deleted.response->status == 200;

  EndMigrate(*session);
  migrations_.fetch_add(1, std::memory_order_relaxed);
  m.migrations->Increment();
  return JsonOk(StrFormat(
      "{\"session\":%s,\"from\":%s,\"to\":%s,\"migrated\":true,"
      "\"source_deleted\":%s}\n",
      serve::JsonQuote(*session).c_str(), serve::JsonQuote(*from).c_str(),
      serve::JsonQuote(*to).c_str(), source_deleted ? "true" : "false"));
}

HttpResponse ClusterRouter::AggregateHealthz() {
  std::string shards_json = "[";
  bool all_healthy = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (i > 0) shards_json += ",";
    bool healthy = false;
    std::string body = "null";
    if (!shard.detector.ejected()) {
      ForwardOutcome out = Exchange(shard, "GET", "/healthz", "",
                                    "router-healthz", /*retry_503=*/false);
      if (out.response.ok() && out.response->status == 200) {
        healthy = true;
        body = Trim(out.response->body);  // a JSON object, embed verbatim
      }
    }
    all_healthy = all_healthy && healthy;
    shards_json += StrFormat(
        "{\"name\":%s,\"healthy\":%s,\"ejected\":%s,\"healthz\":%s}",
        serve::JsonQuote(shard.address.name).c_str(),
        healthy ? "true" : "false",
        shard.detector.ejected() ? "true" : "false", body.c_str());
  }
  shards_json += "]";
  return JsonOk(StrFormat(
      "{\"status\":%s,\"role\":\"router\",\"num_shards\":%zu,"
      "\"shards\":%s,\"uptime_seconds\":%.3f}\n",
      all_healthy ? "\"ok\"" : "\"degraded\"", shards_.size(),
      shards_json.c_str(), uptime_.ElapsedSeconds()));
}

HttpResponse ClusterRouter::AggregateMetrics() {
  std::vector<std::string> expositions;
  // The router's own series first, so its HELP/TYPE text wins for the
  // cluster.* families (workers never emit those).
  expositions.push_back(
      obs::ToPrometheusText(obs::MetricsRegistry::Default().SnapshotAll()));
  for (const auto& shard : shards_) {
    if (shard->detector.ejected()) continue;
    ForwardOutcome out = Exchange(*shard, "GET", "/metrics", "",
                                  "router-metrics", /*retry_503=*/false);
    if (out.response.ok() && out.response->status == 200) {
      expositions.push_back(std::move(out.response->body));
    }
  }
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = MergePrometheusExpositions(expositions);
  return response;
}

HttpResponse ClusterRouter::AggregateStatusz() {
  std::string out = "{\"role\":\"router\"";
  out += StrFormat(",\"uptime_seconds\":%.3f", uptime_.ElapsedSeconds());
  out += ",\"config\":" + (options_.config_json.empty()
                               ? std::string("{}")
                               : options_.config_json);
  out += StrFormat(",\"ring_points\":%zu", ring_.num_points());
  out += StrFormat(",\"migrations\":%llu,\"migration_failures\":%llu",
                   static_cast<unsigned long long>(migrations()),
                   static_cast<unsigned long long>(migration_failures()));
  out += StrFormat(",\"deadline_rejects\":%llu",
                   static_cast<unsigned long long>(deadline_rejects()));
  out += StrFormat(
      ",\"retry_budget\":{\"tokens\":%.2f,\"withdrawals\":%llu,"
      "\"suppressed\":%llu}",
      retry_budget_.tokens(),
      static_cast<unsigned long long>(retry_budget_.withdrawals()),
      static_cast<unsigned long long>(retry_budget_.suppressed()));

  out += ",\"shards\":[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (i > 0) out += ",";
    std::string statusz = "null";
    if (!shard.detector.ejected()) {
      ForwardOutcome fetched = Exchange(shard, "GET", "/statusz", "",
                                        "router-statusz",
                                        /*retry_503=*/false);
      if (fetched.response.ok() && fetched.response->status == 200) {
        statusz = Trim(fetched.response->body);
      }
    }
    out += StrFormat(
        "{\"name\":%s,\"host\":%s,\"port\":%d,\"ejected\":%s,"
        "\"consecutive_failures\":%d,\"ejections\":%llu,"
        "\"readmissions\":%llu,\"breaker\":%s,\"breaker_opens\":%llu,"
        "\"breaker_probes\":%llu,\"statusz\":%s}",
        serve::JsonQuote(shard.address.name).c_str(),
        serve::JsonQuote(shard.address.host).c_str(), shard.address.port,
        shard.detector.ejected() ? "true" : "false",
        shard.detector.consecutive_failures(),
        static_cast<unsigned long long>(shard.detector.ejections()),
        static_cast<unsigned long long>(shard.detector.readmissions()),
        serve::JsonQuote(BreakerStateName(shard.breaker.state())).c_str(),
        static_cast<unsigned long long>(shard.breaker.opens()),
        static_cast<unsigned long long>(shard.breaker.probes()),
        statusz.c_str());
  }
  out += "]";

  out += ",\"overrides\":{";
  {
    std::lock_guard<std::mutex> lock(override_mu_);
    bool first = true;
    for (const auto& [session, shard] : overrides_) {
      if (!first) out += ",";
      first = false;
      out += serve::JsonQuote(session) + ":" + serve::JsonQuote(shard);
    }
  }
  out += "}}\n";
  return JsonOk(std::move(out));
}

HttpResponse ClusterRouter::Handle(const HttpRequest& request) {
  const std::string request_id = RequestId(request);
  RequestBudget budget;
  if (const std::string* header = request.FindHeader("x-deadline-ms")) {
    vs::Result<double> parsed = ParseDouble(Trim(*header));
    if (parsed.ok() && *parsed > 0.0) budget.deadline_ms = *parsed;
  }
  HttpResponse response;
  if (request.path == "/healthz" && request.method == "GET") {
    response = AggregateHealthz();
  } else if (request.path == "/metrics" && request.method == "GET") {
    response = AggregateMetrics();
  } else if (request.path == "/statusz" && request.method == "GET") {
    response = AggregateStatusz();
  } else if (request.path == "/admin/migrate" && request.method == "POST") {
    response = HandleMigrate(request, request_id);
  } else if (request.path == "/sessions" && request.method == "POST") {
    response = HandleCreate(request, request_id, budget);
  } else if (StartsWith(request.path, "/sessions/")) {
    const size_t start = std::string_view("/sessions/").size();
    const size_t slash = request.path.find('/', start);
    const std::string session_id =
        slash == std::string::npos
            ? request.path.substr(start)
            : request.path.substr(start, slash - start);
    if (session_id.empty()) {
      response = serve::JsonErrorResponse(404, "NotFound",
                                          "no route: " + request.path);
    } else {
      response = HandleSession(request, session_id, request_id, budget);
    }
  } else {
    response = serve::JsonErrorResponse(404, "NotFound",
                                        "no route: " + request.path);
  }
  // One id end-to-end: the router stamps the same id it forwarded.
  response.extra_headers.emplace_back("X-Request-Id", request_id);
  return response;
}

void ClusterRouter::ProbeShard(Shard& shard) {
  // Exchange feeds the detector; a 200 healthz (or any HTTP answer)
  // clears the streak and re-admits an ejected worker.
  Exchange(shard, "GET", "/healthz", "", "router-probe",
           /*retry_503=*/false);
}

void ClusterRouter::ProbeNow() {
  for (const auto& shard : shards_) ProbeShard(*shard);
}

void ClusterRouter::ProbeLoop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      std::max(0.05, options_.probe_interval_seconds)));
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!stop_prober_) {
    if (prober_cv_.wait_for(lock, interval,
                            [this] { return stop_prober_; })) {
      return;
    }
    lock.unlock();
    ProbeNow();
    lock.lock();
  }
}

}  // namespace vs::cluster
