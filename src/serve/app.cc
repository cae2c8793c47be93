#include "serve/app.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "common/build_info.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "testing/fault_injection.h"

namespace vs::serve {

namespace {

/// Cached handles into the default registry (amortized registration).
struct AppMetrics {
  obs::Counter* requests_total;
  obs::Counter* errors_total;
  obs::Histogram* request_seconds;

  static const AppMetrics& Get() {
    static const AppMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return AppMetrics{
          r.GetCounter("serve.requests", "HTTP requests dispatched"),
          r.GetCounter("serve.request_errors",
                       "HTTP responses with status >= 400"),
          r.GetHistogram("serve.request_seconds",
                         obs::DefaultLatencyBuckets(),
                         "request dispatch latency (excludes socket I/O)"),
      };
    }();
    return m;
  }
};

/// Per-endpoint latency histogram, registered on first use.
obs::Histogram* EndpointHistogram(const std::string& endpoint) {
  return obs::MetricsRegistry::Default().GetHistogram(
      "serve.endpoint_seconds." + endpoint, obs::DefaultLatencyBuckets(),
      "dispatch latency of one endpoint");
}

obs::Counter* DeadlineExpiredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "serve.deadline_expired",
      "requests failed fast (504) because the propagated deadline expired "
      "before the handler ran");
  return c;
}

/// Escapes a Prometheus label value: backslash, double-quote, newline.
std::string PromLabelEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Parses the request body as a JSON object (empty body = empty object).
vs::Result<JsonValue> ParseBodyObject(const HttpRequest& request) {
  if (Trim(request.body).empty()) return JsonValue();
  VS_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(request.body));
  if (!value.is_object()) {
    return vs::Status::InvalidArgument("request body must be a JSON object");
  }
  return value;
}

/// Value of ?name=... in a query string, or fallback.
std::string QueryParam(const std::string& query, std::string_view name,
                       std::string fallback) {
  for (const std::string& pair : Split(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (std::string_view(pair).substr(0, eq) == name) {
      return pair.substr(eq + 1);
    }
  }
  return fallback;
}

std::string ViewArrayJson(const std::vector<size_t>& views,
                          const std::vector<std::string>& ids,
                          const std::vector<double>* scores) {
  std::string out = "[";
  for (size_t i = 0; i < views.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("{\"view\":%zu,\"id\":%s", views[i],
                     JsonQuote(ids[i]).c_str());
    if (scores != nullptr) {
      out += StrFormat(",\"score\":%.17g", (*scores)[i]);
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string InfoJson(const SessionInfo& info) {
  return StrFormat(
      "{\"id\":%s,\"table\":%s,\"filter\":%s,\"strategy\":%s,"
      "\"k\":%d,\"num_views\":%zu,\"num_labeled\":%zu,"
      "\"cold_start\":%s}\n",
      JsonQuote(info.id).c_str(), JsonQuote(info.table_path).c_str(),
      JsonQuote(info.filter).c_str(), JsonQuote(info.strategy).c_str(),
      info.k, info.num_views, info.num_labeled,
      info.cold_start ? "true" : "false");
}

HttpResponse JsonOk(std::string body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

/// Aggregates stage records by name (first-seen order preserved):
/// repeated spans of one stage (several WAL appends) sum their durations.
std::vector<std::pair<const char*, int64_t>> AggregateStages(
    const std::vector<obs::StageRecord>& stages) {
  std::vector<std::pair<const char*, int64_t>> totals;
  for (const obs::StageRecord& record : stages) {
    bool merged = false;
    for (auto& [stage, total_us] : totals) {
      if (std::string_view(stage) == record.stage) {
        total_us += record.duration_us;
        merged = true;
        break;
      }
    }
    if (!merged) totals.emplace_back(record.stage, record.duration_us);
  }
  return totals;
}

/// `stage=micros;stage=micros` rendering for the X-Request-Stages header.
std::string StagesHeaderValue(
    const std::vector<obs::StageRecord>& stages) {
  std::string out;
  for (const auto& [stage, total_us] : AggregateStages(stages)) {
    if (!out.empty()) out += ";";
    out += StrFormat("%s=%lld", stage, static_cast<long long>(total_us));
  }
  return out;
}

}  // namespace

int HttpStatusFor(const vs::Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kTimedOut: return 504;
    case StatusCode::kNotSupported: return 501;
    case StatusCode::kAborted: return 503;
    case StatusCode::kIOError: return 500;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

HttpResponse ErrorResponseFor(const vs::Status& status) {
  return JsonErrorResponse(HttpStatusFor(status),
                           std::string(StatusCodeName(status.code())),
                           status.message());
}

std::string SanitizeRequestId(std::string_view candidate) {
  if (candidate.empty() || candidate.size() > 64) return "";
  for (char c : candidate) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '-';
    if (!ok) return "";
  }
  return std::string(candidate);
}

void ServeApp::AddRoute(const char* method, const char* pattern,
                        const char* name, RouteHandler handler) {
  router_.Add(
      method, pattern,
      [this, name, handler = std::move(handler)](
          const HttpRequest& request,
          const std::vector<std::string>& params) {
        // Stamp the endpoint before the handler body so a request stuck
        // inside it is already attributable in the /statusz table; the
        // fault point below lets tests freeze a request mid-dispatch
        // deterministically (armed with probability 1, released by
        // FaultInjector::Clear()).  Introspection routes never stall —
        // observing a stall through /statusz is the point.
        obs::RequestContext* context = obs::CurrentRequestContext();
        if (context != nullptr) context->set_endpoint(name);
        const bool introspection = std::strcmp(name, "healthz") == 0 ||
                                   std::strcmp(name, "metrics") == 0 ||
                                   std::strcmp(name, "statusz") == 0;
        const bool admin = std::strncmp(name, "admin_", 6) == 0;
        // Priority classes: introspection must never go dark under load
        // (the router's failure detector and /statusz depend on it),
        // admin hops carry migrations, and label acks are cheap but carry
        // user state — none of them may be shed behind expensive creates.
        const bool critical =
            introspection || admin || std::strcmp(name, "label") == 0;
        const AdmissionClass admission_class = critical
                                                   ? AdmissionClass::kCritical
                                                   : AdmissionClass::kNormal;
        if (options_.admission_enabled) {
          // Charged to the "queue" stage: this is where an overloaded
          // request dies, and the stage shows up in /statusz, wide
          // events and X-Request-Stages.
          obs::StageTimer queue_stage("queue");
          if (!admission_.Acquire(name, admission_class).admitted) {
            HttpResponse shed = ErrorResponseFor(
                vs::Status::ResourceExhausted(
                    std::string("admission limit reached for ") + name));
            shed.extra_headers.emplace_back("Retry-After", "0.1");
            return shed;
          }
        }
        // Expired-in-queue requests fail fast with 504 before touching
        // the engine: the client already gave up, so any work done now
        // is wasted capacity.
        if (context != nullptr && context->deadline_expired()) {
          if (options_.admission_enabled) {
            admission_.Release(name, admission_class, /*congested=*/true);
          }
          DeadlineExpiredCounter()->Increment();
          return ErrorResponseFor(vs::Status::TimedOut(
              "deadline expired before the handler started"));
        }
        if (!introspection) {
          while (VS_FAULT("serve.handler_stall")) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
        // Session traffic only: health probes must stay instant for the
        // router's failure detector and migration must not pay a fake
        // service delay per admin hop.
        if (!introspection && !admin && options_.simulate_service_ms > 0.0) {
          if (options_.simulate_cores > 0) {
            std::unique_lock<std::mutex> lock(sim_mu_);
            {
              // The simulated-core gate is the process's one real queue;
              // charge the wait to the same "queue" stage.
              obs::StageTimer queue_stage("queue");
              sim_cv_.wait(lock, [this] {
                return sim_in_service_ < options_.simulate_cores;
              });
            }
            ++sim_in_service_;
            lock.unlock();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    options_.simulate_service_ms));
            lock.lock();
            --sim_in_service_;
            sim_cv_.notify_one();
          } else {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    options_.simulate_service_ms));
          }
        }
        Stopwatch handler_watch;
        HttpResponse response = handler(request, params);
        if (options_.admission_enabled) {
          // AIMD congestion signal: handler failure, a deadline blown
          // while we held the slot, or latency beyond the SLO budget.
          const bool congested =
              response.status >= 500 ||
              (context != nullptr && context->deadline_expired()) ||
              (options_.slo_budget_ms > 0.0 &&
               handler_watch.ElapsedSeconds() * 1e3 >
                   options_.slo_budget_ms);
          admission_.Release(name, admission_class, congested);
        }
        return response;
      },
      name);
}

ServeApp::ServeApp(SessionManager* manager, ServeAppOptions options)
    : manager_(manager),
      options_(std::move(options)),
      slo_([&] {
        SloOptions slo;
        slo.window_seconds = options_.slo_window_seconds;
        slo.budget_ms = options_.slo_budget_ms;
        slo.clock = options_.clock;
        return slo;
      }()),
      admission_([&] {
        AdmissionOptions admission = options_.admission;
        if (admission.clock == nullptr) admission.clock = options_.clock;
        return admission;
      }()) {
  AddRoute("POST", "/sessions", "create_session",
           [this](const HttpRequest& request,
                  const std::vector<std::string>&) {
             return CreateSession(request);
           });
  AddRoute("GET", "/sessions/{id}", "get_info",
           [this](const HttpRequest&,
                  const std::vector<std::string>& params) {
             return GetInfo(params);
           });
  AddRoute("GET", "/sessions/{id}/next", "next",
           [this](const HttpRequest&,
                  const std::vector<std::string>& params) {
             return GetNext(params);
           });
  AddRoute("POST", "/sessions/{id}/label", "label",
           [this](const HttpRequest& request,
                  const std::vector<std::string>& params) {
             return PostLabel(request, params);
           });
  AddRoute("GET", "/sessions/{id}/topk", "topk",
           [this](const HttpRequest& request,
                  const std::vector<std::string>& params) {
             return GetTopK(request, params);
           });
  AddRoute("GET", "/sessions/{id}/labels", "labels",
           [this](const HttpRequest&,
                  const std::vector<std::string>& params) {
             return GetLabels(params);
           });
  AddRoute("DELETE", "/sessions/{id}", "delete",
           [this](const HttpRequest&,
                  const std::vector<std::string>& params) {
             return DeleteSession(params);
           });
  AddRoute("GET", "/admin/sessions/{id}/export", "admin_export",
           [this](const HttpRequest&,
                  const std::vector<std::string>& params) {
             return ExportSession(params);
           });
  AddRoute("POST", "/admin/sessions/{id}/import", "admin_import",
           [this](const HttpRequest& request,
                  const std::vector<std::string>& params) {
             return ImportSession(request, params);
           });
  AddRoute("GET", "/healthz", "healthz",
           [this](const HttpRequest&, const std::vector<std::string>&) {
             return Healthz();
           });
  AddRoute("GET", "/metrics", "metrics",
           [this](const HttpRequest&, const std::vector<std::string>&) {
             return Metrics();
           });
  AddRoute("GET", "/statusz", "statusz",
           [this](const HttpRequest&, const std::vector<std::string>&) {
             return Statusz();
           });
}

HttpResponse ServeApp::Handle(const HttpRequest& request) {
  obs::ScopedSpan span("serve.request");
  const uint64_t seq =
      request_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;

  std::string id;
  if (const std::string* header = request.FindHeader("x-request-id")) {
    id = SanitizeRequestId(*header);
  }
  if (id.empty()) id = StrFormat("req-%llu", (unsigned long long)seq);

  auto context = std::make_shared<obs::RequestContext>(id, request.method,
                                                       request.path);
  // Deadline propagation: the client's (or upstream router's) remaining
  // budget in milliseconds.  The dispatch wrapper fails a request whose
  // budget ran out while it queued, and admission counts a budget blown
  // inside the handler as congestion.
  double deadline_ms = 0.0;
  if (const std::string* header = request.FindHeader("x-deadline-ms")) {
    auto parsed = ParseDouble(Trim(*header));
    if (parsed.ok() && *parsed > 0.0) {
      deadline_ms = *parsed;
      context->set_deadline_ms(deadline_ms);
    }
  }
  inflight_.Register(context);
  std::string endpoint;
  HttpResponse response;
  {
    obs::ScopedRequestContext scoped(context.get());
    obs::StageTimer dispatch_stage("http.dispatch");
    response = router_.Dispatch(request, &endpoint);
  }
  if (endpoint.empty()) endpoint = "unmatched";
  context->set_endpoint(endpoint);
  inflight_.Unregister(context.get());

  const double seconds =
      static_cast<double>(context->ElapsedMicros()) * 1e-6;
  const double duration_ms = seconds * 1e3;
  const AppMetrics& m = AppMetrics::Get();
  m.requests_total->Increment();
  if (response.status >= 400) m.errors_total->Increment();
  m.request_seconds->Observe(seconds);
  EndpointHistogram(endpoint)->Observe(seconds);
  slo_.Record(endpoint, seconds, response.status >= 500);

  const bool slow =
      options_.slow_request_ms > 0.0 && duration_ms > options_.slow_request_ms;
  const bool sampled = options_.wide_event_sample > 0 &&
                       seq % options_.wide_event_sample == 0;
  if (options_.wide_event_sink != nullptr && (slow || sampled)) {
    EmitWideEvent(*context, endpoint, response.status, duration_ms, slow,
                  sampled);
  }

  // Echo the id on every response (success and error alike) and expose
  // the per-stage breakdown so clients (loadgen) can report server-side
  // time without a second round trip.
  response.extra_headers.emplace_back("X-Request-Id", id);
  if (!options_.shard_name.empty()) {
    response.extra_headers.emplace_back("X-Shard", options_.shard_name);
  }
  // Echo the deadline we honoured (routers assert their hop decrement
  // through this).
  if (deadline_ms > 0.0) {
    response.extra_headers.emplace_back("X-Deadline-Budget-Ms",
                                        StrFormat("%.3f", deadline_ms));
  }
  const std::string stages = StagesHeaderValue(context->stages());
  if (!stages.empty()) {
    response.extra_headers.emplace_back("X-Request-Stages", stages);
  }
  return response;
}

void ServeApp::EmitWideEvent(const obs::RequestContext& context,
                             const std::string& endpoint, int status,
                             double duration_ms, bool slow, bool sampled) {
  obs::Event event("request");
  event.SetStr("request_id", context.id())
      .SetStr("method", context.method())
      .SetStr("path", context.path())
      .SetStr("endpoint", endpoint)
      .SetInt("status", status)
      .SetNum("duration_ms", duration_ms)
      .SetBool("slow", slow)
      .SetBool("sampled", sampled);
  if (!options_.shard_name.empty()) {
    event.SetStr("shard", options_.shard_name);
  }
  if (context.has_deadline()) {
    event.SetNum("deadline_remaining_ms", context.remaining_seconds() * 1e3);
  }
  const std::vector<obs::StageRecord> stages = context.stages();
  event.SetInt("stage_count", static_cast<int64_t>(stages.size()));
  for (const auto& [stage, total_us] : AggregateStages(stages)) {
    event.SetInt(std::string("stage_us.") + stage, total_us);
  }
  options_.wide_event_sink->Emit(event);
}

HttpResponse ServeApp::CreateSession(const HttpRequest& request) {
  auto body = ParseBodyObject(request);
  if (!body.ok()) return ErrorResponseFor(body.status());

  CreateSpec spec;
  spec.table_path = body->GetString("table", "");
  spec.filter = body->GetString("filter", "");
  // The cluster router pre-assigns placement-hashed ids; the query param
  // exists so it can do that without rewriting the client's JSON body.
  spec.requested_id = QueryParam(request.query, "id", "");
  if (spec.requested_id.empty()) {
    spec.requested_id = body->GetString("id", "");
  }
  spec.options.k = static_cast<int>(body->GetInt("k", spec.options.k));
  spec.options.strategy = body->GetString("strategy", spec.options.strategy);
  spec.options.views_per_iteration = static_cast<int>(
      body->GetInt("views_per_iteration", spec.options.views_per_iteration));
  spec.options.positive_threshold =
      body->GetNumber("positive_threshold", spec.options.positive_threshold);
  spec.options.seed = static_cast<uint64_t>(
      body->GetInt("seed", static_cast<int64_t>(spec.options.seed)));

  auto info = manager_->Create(spec);
  if (!info.ok()) return ErrorResponseFor(info.status());
  return JsonOk(InfoJson(*info), 201);
}

HttpResponse ServeApp::GetInfo(const std::vector<std::string>& params) {
  auto info = manager_->Info(params[0]);
  if (!info.ok()) return ErrorResponseFor(info.status());
  return JsonOk(InfoJson(*info));
}

HttpResponse ServeApp::GetNext(const std::vector<std::string>& params) {
  auto batch = manager_->Next(params[0]);
  if (!batch.ok()) return ErrorResponseFor(batch.status());
  return JsonOk(StrFormat(
      "{\"views\":%s,\"cold_start\":%s}\n",
      ViewArrayJson(batch->views, batch->view_ids, nullptr).c_str(),
      batch->cold_start ? "true" : "false"));
}

HttpResponse ServeApp::PostLabel(const HttpRequest& request,
                                 const std::vector<std::string>& params) {
  auto body = ParseBodyObject(request);
  if (!body.ok()) return ErrorResponseFor(body.status());
  auto view = body->RequiredNumber("view");
  if (!view.ok()) return ErrorResponseFor(view.status());
  auto label = body->RequiredNumber("label");
  if (!label.ok()) return ErrorResponseFor(label.status());
  // Bound-check before casting: double->size_t is UB out of range, and
  // doubles are only integer-exact below 2^53 (far above any view count).
  constexpr double kMaxViewIndex = 9007199254740992.0;  // 2^53
  if (!(*view >= 0) || *view >= kMaxViewIndex ||
      std::trunc(*view) != *view) {
    return ErrorResponseFor(
        vs::Status::InvalidArgument("view must be a non-negative integer"));
  }
  auto labeled =
      manager_->Label(params[0], static_cast<size_t>(*view), *label);
  if (!labeled.ok()) return ErrorResponseFor(labeled.status());
  return JsonOk(StrFormat("{\"num_labeled\":%zu}\n", *labeled));
}

HttpResponse ServeApp::GetTopK(const HttpRequest& request,
                               const std::vector<std::string>& params) {
  double lambda = 0.0;
  const std::string lambda_text = QueryParam(request.query, "lambda", "");
  if (!lambda_text.empty()) {
    auto parsed = ParseDouble(lambda_text);
    if (!parsed.ok() || *parsed < 0.0 || *parsed > 1.0) {
      return ErrorResponseFor(
          vs::Status::InvalidArgument("lambda must be in [0, 1]"));
    }
    lambda = *parsed;
  }
  auto topk = manager_->TopK(params[0], lambda);
  if (!topk.ok()) return ErrorResponseFor(topk.status());
  return JsonOk(StrFormat(
      "{\"views\":%s}\n",
      ViewArrayJson(topk->views, topk->view_ids, &topk->scores).c_str()));
}

HttpResponse ServeApp::GetLabels(const std::vector<std::string>& params) {
  auto labels = manager_->Labels(params[0]);
  if (!labels.ok()) return ErrorResponseFor(labels.status());
  std::string items = "[";
  for (size_t i = 0; i < labels->views.size(); ++i) {
    if (i > 0) items += ",";
    items += StrFormat("{\"view\":%zu,\"id\":%s,\"label\":%.17g}",
                       labels->views[i],
                       JsonQuote(labels->view_ids[i]).c_str(),
                       labels->values[i]);
  }
  items += "]";
  return JsonOk(StrFormat("{\"num_labeled\":%zu,\"labels\":%s}\n",
                          labels->views.size(), items.c_str()));
}

HttpResponse ServeApp::DeleteSession(const std::vector<std::string>& params) {
  const vs::Status status = manager_->Delete(params[0]);
  if (!status.ok()) return ErrorResponseFor(status);
  return JsonOk("{\"deleted\":true}\n");
}

HttpResponse ServeApp::ExportSession(const std::vector<std::string>& params) {
  auto envelope = manager_->ExportSession(params[0]);
  if (!envelope.ok()) return ErrorResponseFor(envelope.status());
  return JsonOk(StrFormat("{\"id\":%s,\"envelope\":%s}\n",
                          JsonQuote(params[0]).c_str(),
                          JsonQuote(*envelope).c_str()));
}

HttpResponse ServeApp::ImportSession(const HttpRequest& request,
                                     const std::vector<std::string>& params) {
  auto body = ParseBodyObject(request);
  if (!body.ok()) return ErrorResponseFor(body.status());
  auto envelope = body->RequiredString("envelope");
  if (!envelope.ok()) return ErrorResponseFor(envelope.status());
  auto info = manager_->ImportSession(params[0], *envelope);
  if (!info.ok()) return ErrorResponseFor(info.status());
  return JsonOk(InfoJson(*info), 201);
}

HttpResponse ServeApp::Healthz() {
  const FeatureMatrixCacheStats cache = manager_->matrix_cache().stats();
  std::string durability = "{\"enabled\":false}";
  if (manager_->durability_enabled()) {
    const DurabilityStats d = manager_->durability_stats();
    durability = StrFormat(
        "{\"enabled\":true,\"wal_bytes\":%llu,\"pending_records\":%llu,"
        "\"last_snapshot_age_seconds\":%.3f,\"recovered_sessions\":%llu,"
        "\"replayed_labels\":%llu,\"torn_tails\":%llu,"
        "\"quarantined\":%llu}",
        static_cast<unsigned long long>(d.wal_bytes),
        static_cast<unsigned long long>(d.pending_records),
        d.last_snapshot_age_seconds,
        static_cast<unsigned long long>(d.recovered_sessions),
        static_cast<unsigned long long>(d.replayed_labels),
        static_cast<unsigned long long>(d.torn_tails),
        static_cast<unsigned long long>(d.quarantined));
  }
  return JsonOk(StrFormat(
      "{\"status\":\"ok\",\"shard\":%s,\"active_sessions\":%zu,"
      "\"matrix_cache\":{\"entries\":%zu,\"bytes\":%zu,\"hits\":%llu,"
      "\"misses\":%llu},"
      "\"durability\":%s,"
      "\"uptime_seconds\":%.3f}\n",
      JsonQuote(options_.shard_name).c_str(),
      manager_->active_sessions(), cache.entries, cache.bytes,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), durability.c_str(),
      uptime_.ElapsedSeconds()));
}

HttpResponse ServeApp::Metrics() {
  // Window gauges are computed at scrape time (counters update at Record
  // time); the build-info gauge is hand-rendered because the registry has
  // no label support — it is the one labelled series we export.
  slo_.ExportMetrics();
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body =
      obs::ToPrometheusText(obs::MetricsRegistry::Default().SnapshotAll());
  const BuildInfo& build = GetBuildInfo();
  response.body +=
      "# HELP viewseeker_build_info build provenance; value is always 1\n"
      "# TYPE viewseeker_build_info gauge\n" +
      StrFormat(
          "viewseeker_build_info{version=\"%s\",revision=\"%s\","
          "build_type=\"%s\",compiler=\"%s\"} 1\n",
          PromLabelEscape(build.version).c_str(),
          PromLabelEscape(build.revision).c_str(),
          PromLabelEscape(build.build_type).c_str(),
          PromLabelEscape(build.compiler).c_str());
  return response;
}

HttpResponse ServeApp::Statusz() {
  const BuildInfo& build = GetBuildInfo();
  std::string out = "{";
  out += StrFormat(
      "\"build\":{\"version\":%s,\"revision\":%s,\"build_type\":%s,"
      "\"compiler\":%s,\"flags\":%s}",
      JsonQuote(build.version).c_str(), JsonQuote(build.revision).c_str(),
      JsonQuote(build.build_type).c_str(),
      JsonQuote(build.compiler).c_str(), JsonQuote(build.flags).c_str());
  out += StrFormat(",\"uptime_seconds\":%.3f", uptime_.ElapsedSeconds());
  out += ",\"config\":" +
         (options_.config_json.empty() ? std::string("{}")
                                       : options_.config_json);

  out += ",\"inflight\":[";
  bool first = true;
  for (const obs::InflightRequest& row : inflight_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"id\":%s,\"endpoint\":%s,\"method\":%s,\"path\":%s,"
        "\"age_seconds\":%.3f,\"stage\":%s}",
        JsonQuote(row.id).c_str(), JsonQuote(row.endpoint).c_str(),
        JsonQuote(row.method).c_str(), JsonQuote(row.path).c_str(),
        row.age_seconds,
        JsonQuote(row.stage != nullptr ? row.stage : "-").c_str());
  }
  out += "]";

  out += StrFormat(
      ",\"slo\":{\"window_seconds\":%.1f,\"budget_ms\":%.1f,"
      "\"endpoints\":[",
      slo_.options().window_seconds, slo_.options().budget_ms);
  first = true;
  for (const SloEndpointSnapshot& snap : slo_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"endpoint\":%s,\"window_samples\":%zu,"
        "\"total_requests\":%llu,\"total_errors\":%llu,"
        "\"budget_breaches\":%llu,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
        "\"p99_ms\":%.3f,\"window_error_rate\":%.6f,\"healthy\":%s}",
        JsonQuote(snap.endpoint).c_str(), snap.window_samples,
        static_cast<unsigned long long>(snap.total_requests),
        static_cast<unsigned long long>(snap.total_errors),
        static_cast<unsigned long long>(snap.budget_breaches), snap.p50_ms,
        snap.p95_ms, snap.p99_ms, snap.window_error_rate,
        snap.healthy ? "true" : "false");
  }
  out += "]}";

  if (options_.admission_enabled) {
    out += ",\"admission\":[";
    first = true;
    for (const AdmissionSnapshot& row : admission_.Snapshot()) {
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"endpoint\":%s,\"limit\":%.2f,\"inflight\":%d,"
          "\"admitted\":%llu,\"shed\":%llu}",
          JsonQuote(row.endpoint).c_str(), row.limit, row.inflight,
          static_cast<unsigned long long>(row.admitted),
          static_cast<unsigned long long>(row.shed));
    }
    out += "]";
  }

  const FeatureMatrixCacheStats cache = manager_->matrix_cache().stats();
  out += StrFormat(
      ",\"matrix_cache\":{\"entries\":%zu,\"bytes\":%zu,\"hits\":%llu,"
      "\"misses\":%llu}",
      cache.entries, cache.bytes,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses));
  out += StrFormat(",\"active_sessions\":%zu", manager_->active_sessions());

  if (manager_->durability_enabled()) {
    const DurabilityStats d = manager_->durability_stats();
    out += StrFormat(
        ",\"durability\":{\"enabled\":true,\"wal_bytes\":%llu,"
        "\"pending_records\":%llu,\"last_snapshot_age_seconds\":%.3f}",
        static_cast<unsigned long long>(d.wal_bytes),
        static_cast<unsigned long long>(d.pending_records),
        d.last_snapshot_age_seconds);
  } else {
    out += ",\"durability\":{\"enabled\":false}";
  }
  out += "}\n";
  return JsonOk(std::move(out));
}

}  // namespace vs::serve
