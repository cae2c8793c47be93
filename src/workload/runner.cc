#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "serve/json.h"

namespace vs::workload {

namespace {

using vs::serve::ClientResponse;
using vs::serve::HttpClient;
using vs::serve::JsonValue;

/// Per-worker accumulation; merged under no lock after the joins.
struct WorkerStats {
  std::map<std::string, vs::LatencyRecorder> recorders;
  std::map<std::string, uint64_t> backpressure;
  std::map<std::string, uint64_t> errors;
  std::map<std::string, uint64_t> deadline_expired;
  std::map<std::string, uint64_t> shard_counts;
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  uint64_t ops_executed = 0;
  uint64_t ops_skipped = 0;
  uint64_t requests = 0;
  uint64_t retries_suppressed = 0;
  double max_start_lag_seconds = 0.0;
  /// Per-request deadline to stamp (<= 0 none); copied from the options.
  double deadline_ms = 0.0;
};

enum class Outcome { kOk, kBackpressure, kError };

struct Reply {
  Outcome outcome = Outcome::kError;
  int status = 0;
  std::string body;
  double seconds = 0.0;
};

/// One timed request.  Classification: transport failure and 5xx are
/// errors; 429/503 is backpressure (the shed is charged against the SLO
/// denominator but not the latency distribution — a fast rejection is not
/// a fast answer); a 504 is backpressure too — the deadline the runner
/// itself attached was spent, which is the system declining honestly,
/// not failing; anything else is a completed response and lands in the
/// endpoint's recorder.  Call sites still vet the status code — an
/// unexpected 4xx is a protocol error even though it was timed.
Reply TimedRequest(HttpClient& client, WorkerStats& stats,
                   const std::string& endpoint, std::string_view method,
                   const std::string& target, const std::string& body,
                   const std::string& request_id) {
  Reply reply;
  std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Request-Id", request_id}};
  if (stats.deadline_ms > 0.0) {
    headers.emplace_back("X-Deadline-Ms",
                         vs::StrFormat("%.3f", stats.deadline_ms));
  }
  vs::Stopwatch timer;
  auto result = client.Request(method, target, body, headers);
  reply.seconds = timer.ElapsedSeconds();
  ++stats.requests;
  if (!result.ok()) {
    ++stats.errors[endpoint];
    return reply;
  }
  reply.status = result->status;
  reply.body = std::move(result->body);
  if (const std::string* shard = result->FindHeader("x-shard")) {
    ++stats.shard_counts[*shard];
  }
  if (reply.status == 429 || reply.status == 503 || reply.status == 504) {
    reply.outcome = Outcome::kBackpressure;
    ++stats.backpressure[endpoint];
    if (reply.status == 504) ++stats.deadline_expired[endpoint];
    return reply;
  }
  if (reply.status >= 500) {
    ++stats.errors[endpoint];
    return reply;
  }
  reply.outcome = Outcome::kOk;
  stats.recorders[endpoint].Record(reply.seconds);
  return reply;
}

/// Runtime state of one scripted session against the server.
struct LiveSession {
  std::string id;                 ///< server id; empty = not created
  std::deque<uint64_t> pending;   ///< fetched, not-yet-labeled view numbers
  bool exhausted = false;         ///< server answered 409 on next
  double last_request_seconds = 0.0;  ///< think-time deduction
};

/// Executes one SessionPlan.  `deadline_seconds` > 0 cuts the script short
/// (closed-loop duration); open-loop sessions run their script out.
void RunSession(const WorkloadPlan& plan, const RunnerOptions& options,
                const SessionPlan& session, HttpClient& client,
                WorkerStats& stats, const vs::Stopwatch& epoch,
                double deadline_seconds) {
  const WorkloadSpec& spec = plan.spec;
  const std::string& table = options.table.empty() ? spec.table : options.table;
  LiveSession live;
  uint64_t seq = 0;

  const auto request_id = [&](const char* what) {
    return vs::StrFormat("wb%llu-%llu-%s",
                         static_cast<unsigned long long>(session.index),
                         static_cast<unsigned long long>(seq++), what);
  };
  const auto protocol_error = [&](const std::string& endpoint) {
    ++stats.errors[endpoint];
  };

  const auto create = [&](int filter_index) {
    std::string body = vs::StrFormat(
        "{\"k\":%d,\"seed\":%llu", spec.k,
        static_cast<unsigned long long>(spec.seed * 1000003ULL +
                                        session.index));
    if (!table.empty()) {
      body += ",\"table\":" + vs::serve::JsonQuote(table);
    }
    body += ",\"filter\":" +
            vs::serve::JsonQuote(
                plan.filters[static_cast<size_t>(filter_index)]) +
            "}";
    Reply reply = TimedRequest(client, stats, "create_session", "POST",
                               "/sessions", body, request_id("create"));
    live = LiveSession();
    live.last_request_seconds = reply.seconds;
    if (reply.outcome == Outcome::kBackpressure) return false;  // shed
    if (reply.outcome == Outcome::kError) return false;
    if (reply.status != 201) {
      protocol_error("create_session");
      return false;
    }
    auto parsed = JsonValue::Parse(reply.body);
    if (!parsed.ok() || !parsed->is_object()) {
      protocol_error("create_session");
      return false;
    }
    live.id = parsed->GetString("id", "");
    if (live.id.empty()) {
      protocol_error("create_session");
      return false;
    }
    return true;
  };

  const auto destroy = [&]() -> double {
    if (live.id.empty()) return 0.0;
    Reply reply = TimedRequest(client, stats, "delete", "DELETE",
                               "/sessions/" + live.id, "",
                               request_id("delete"));
    live.id.clear();
    return reply.seconds;
  };

  ++stats.sessions_started;
  if (!create(session.filter_index)) return;

  bool aborted = false;
  for (const PlannedOp& op : session.ops) {
    if (deadline_seconds > 0.0 &&
        epoch.ElapsedSeconds() >= deadline_seconds) {
      aborted = true;
      break;
    }
    // The think pause starts when the previous response arrived, so the
    // server's own service time comes out of the sleep.
    const double remaining =
        op.think_before_seconds - live.last_request_seconds;
    if (remaining > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
    live.last_request_seconds = 0.0;

    switch (op.kind) {
      case OpKind::kNext: {
        if (live.exhausted) {
          ++stats.ops_skipped;
          continue;
        }
        Reply reply =
            TimedRequest(client, stats, "next", "GET",
                         "/sessions/" + live.id + "/next", "",
                         request_id("next"));
        live.last_request_seconds = reply.seconds;
        if (reply.outcome != Outcome::kOk) break;
        if (reply.status == 409) {  // every view already labeled
          live.exhausted = true;
          break;
        }
        if (reply.status != 200) {
          protocol_error("next");
          break;
        }
        auto parsed = JsonValue::Parse(reply.body);
        if (!parsed.ok() || !parsed->is_object()) {
          protocol_error("next");
          break;
        }
        const JsonValue* views = parsed->Find("views");
        if (views == nullptr || !views->is_array()) {
          protocol_error("next");
          break;
        }
        for (const JsonValue& view : views->array()) {
          if (view.is_object() && view.Find("view") != nullptr) {
            live.pending.push_back(static_cast<uint64_t>(
                view.GetInt("view", 0)));
          }
        }
        break;
      }
      case OpKind::kLabel: {
        if (live.pending.empty()) {
          // Runtime starvation (shed next, exhausted session): the plan
          // guarantees scripts are executable against an ideal server,
          // but a lossy run can still strand a label.
          ++stats.ops_skipped;
          continue;
        }
        const uint64_t view = live.pending.front();
        live.pending.pop_front();
        const int label = static_cast<int>(
            (session.index * 2654435761ULL + view) % 10 < 3 ? 1 : 0);
        Reply reply = TimedRequest(
            client, stats, "label", "POST",
            "/sessions/" + live.id + "/label",
            vs::StrFormat("{\"view\":%llu,\"label\":%d}",
                          static_cast<unsigned long long>(view), label),
            request_id("label"));
        live.last_request_seconds = reply.seconds;
        // 409 = already labeled; happens when a transport retry landed the
        // first attempt.  The label exists, so that is a success.
        if (reply.outcome == Outcome::kOk && reply.status != 200 &&
            reply.status != 409) {
          protocol_error("label");
        }
        break;
      }
      case OpKind::kTopk: {
        Reply reply =
            TimedRequest(client, stats, "topk", "GET",
                         "/sessions/" + live.id + "/topk", "",
                         request_id("topk"));
        live.last_request_seconds = reply.seconds;
        // 409 = cold start (no labels yet); a legitimate protocol answer.
        if (reply.outcome == Outcome::kOk && reply.status != 200 &&
            reply.status != 409) {
          protocol_error("topk");
        }
        break;
      }
      case OpKind::kRequery: {
        const double delete_seconds = destroy();
        if (!create(op.filter_index)) {
          aborted = true;
          break;
        }
        live.last_request_seconds += delete_seconds;
        break;
      }
    }
    if (aborted) break;
    ++stats.ops_executed;
  }

  destroy();
  if (!aborted) ++stats.sessions_completed;
}

}  // namespace

double EndpointReport::WithinSloFraction() const {
  const uint64_t denom = summary.count + backpressure;
  if (denom == 0) return 1.0;
  return static_cast<double>(summary.within_budget) /
         static_cast<double>(denom);
}

bool RunReport::ShardsOk() const {
  return static_cast<int>(shard_counts.size()) >= require_shards;
}

bool RunReport::Pass() const {
  if (errors > 0) return false;
  if (!ShardsOk()) return false;
  for (const auto& [name, endpoint] : endpoints) {
    if (endpoint.summary.budget_ms <= 0.0) continue;  // unbudgeted
    if (endpoint.summary.count + endpoint.backpressure == 0) continue;
    if (endpoint.WithinSloFraction() < slo_target) return false;
  }
  return true;
}

std::string RunReport::FormatText() const {
  std::string out = vs::StrFormat(
      "workload %s seed %llu: %.1fs, %llu/%llu sessions completed, "
      "%llu ops (%llu skipped), %llu requests, %llu backpressure, "
      "%llu errors, max start lag %.3fs\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      elapsed_seconds, static_cast<unsigned long long>(sessions_completed),
      static_cast<unsigned long long>(sessions_started),
      static_cast<unsigned long long>(ops_executed),
      static_cast<unsigned long long>(ops_skipped),
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(backpressure),
      static_cast<unsigned long long>(errors), max_start_lag_seconds);
  if (deadline_expired > 0 || retries_suppressed > 0) {
    out += vs::StrFormat(
        "  overload: %llu deadline-expired (504), %llu retries suppressed "
        "by budget\n",
        static_cast<unsigned long long>(deadline_expired),
        static_cast<unsigned long long>(retries_suppressed));
  }
  const auto cell = [](double ms) {
    return ms < 0.0 ? std::string("    n/a") : vs::StrFormat("%7.1f", ms);
  };
  for (const auto& [name, endpoint] : endpoints) {
    const vs::LatencySummary& s = endpoint.summary;
    out += vs::StrFormat(
        "  %-16s n=%-7zu p50%s ms  p95%s ms  p99%s ms  max%7.1f ms",
        name.c_str(), s.count, cell(s.p50_ms).c_str(),
        cell(s.p95_ms).c_str(), cell(s.p99_ms).c_str(), s.max_ms);
    if (s.budget_ms > 0.0) {
      out += vs::StrFormat(
          "  within-slo %6.2f%% (budget %.0f ms, target %.2f%%) %s",
          endpoint.WithinSloFraction() * 100.0, s.budget_ms,
          slo_target * 100.0,
          endpoint.WithinSloFraction() >= slo_target ? "OK" : "VIOLATION");
    }
    if (endpoint.backpressure > 0 || endpoint.errors > 0) {
      out += vs::StrFormat(
          "  shed=%llu err=%llu",
          static_cast<unsigned long long>(endpoint.backpressure),
          static_cast<unsigned long long>(endpoint.errors));
    }
    out += "\n";
  }
  if (!shard_counts.empty()) {
    out += "  shards:";
    for (const auto& [shard, count] : shard_counts) {
      out += vs::StrFormat(" %s=%llu", shard.c_str(),
                           static_cast<unsigned long long>(count));
    }
    if (require_shards > 0) {
      out += vs::StrFormat("  (require %d: %s)", require_shards,
                           ShardsOk() ? "OK" : "VIOLATION");
    }
    out += "\n";
  }
  out += vs::StrFormat("verdict: %s\n", Pass() ? "PASS" : "FAIL");
  return out;
}

std::string RunReport::ToJson() const {
  std::string out = vs::StrFormat(
      "{\n"
      "  \"workload\": %s,\n"
      "  \"seed\": %llu,\n"
      "  \"elapsed_seconds\": %.3f,\n"
      "  \"sessions_started\": %llu,\n"
      "  \"sessions_completed\": %llu,\n"
      "  \"ops_executed\": %llu,\n"
      "  \"ops_skipped\": %llu,\n"
      "  \"requests\": %llu,\n"
      "  \"errors\": %llu,\n"
      "  \"backpressure\": %llu,\n"
      "  \"deadline_expired\": %llu,\n"
      "  \"retries_suppressed\": %llu,\n"
      "  \"max_start_lag_seconds\": %.3f,\n"
      "  \"slo_target\": %.6g,\n",
      vs::serve::JsonQuote(workload).c_str(),
      static_cast<unsigned long long>(seed), elapsed_seconds,
      static_cast<unsigned long long>(sessions_started),
      static_cast<unsigned long long>(sessions_completed),
      static_cast<unsigned long long>(ops_executed),
      static_cast<unsigned long long>(ops_skipped),
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(backpressure),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(retries_suppressed),
      max_start_lag_seconds, slo_target);
  out += "  \"endpoints\": {\n";
  size_t i = 0;
  for (const auto& [name, endpoint] : endpoints) {
    const vs::LatencySummary& s = endpoint.summary;
    out += vs::StrFormat(
        "    %s: {\"count\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"max_ms\": %.3f, \"budget_ms\": %.3f, "
        "\"within_slo\": %.6f, \"backpressure\": %llu, \"errors\": %llu, "
        "\"deadline_expired\": %llu}%s\n",
        vs::serve::JsonQuote(name).c_str(), s.count, s.p50_ms, s.p95_ms,
        s.p99_ms, s.max_ms, s.budget_ms, endpoint.WithinSloFraction(),
        static_cast<unsigned long long>(endpoint.backpressure),
        static_cast<unsigned long long>(endpoint.errors),
        static_cast<unsigned long long>(endpoint.deadline_expired),
        ++i < endpoints.size() ? "," : "");
  }
  out += "  },\n  \"shards\": {";
  i = 0;
  for (const auto& [shard, count] : shard_counts) {
    out += vs::StrFormat("%s%s: %llu", i++ > 0 ? ", " : "",
                         vs::serve::JsonQuote(shard).c_str(),
                         static_cast<unsigned long long>(count));
  }
  out += vs::StrFormat("},\n  \"pass\": %s\n}\n", Pass() ? "true" : "false");
  return out;
}

vs::Result<RunReport> RunWorkload(const WorkloadPlan& plan,
                                  const RunnerOptions& options) {
  if (options.port <= 0 || options.port > 65535) {
    return vs::Status::InvalidArgument("runner: port must be in (0, 65535]");
  }
  const WorkloadSpec& spec = plan.spec;
  const bool open = spec.arrival.mode == ArrivalMode::kOpen;
  const int workers =
      open ? spec.arrival.max_concurrent : spec.arrival.users;
  const double duration = options.duration_seconds > 0.0
                              ? options.duration_seconds
                              : spec.duration_seconds;

  std::vector<WorkerStats> stats(static_cast<size_t>(workers));
  // Closed-loop lanes cycle their own session scripts; open-loop workers
  // pull from the global arrival-ordered queue.
  std::vector<std::vector<const SessionPlan*>> lanes(
      static_cast<size_t>(workers));
  if (!open) {
    for (const SessionPlan& session : plan.sessions) {
      lanes[static_cast<size_t>(session.lane)].push_back(&session);
    }
  }
  std::atomic<size_t> next_session{0};

  vs::Stopwatch epoch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerStats& local = stats[static_cast<size_t>(w)];
      local.deadline_ms = options.deadline_ms;
      // Generous socket timeout: cold session creation against a 10M-row
      // table can legitimately take tens of seconds on one core, and the
      // SLO budget — not the transport — is the judge of that.
      HttpClient client(options.host, options.port, 120.0);
      serve::RetryOptions retry;
      retry.max_attempts = 3;
      retry.jitter_seed = spec.seed * 31 + static_cast<uint64_t>(w);
      if (options.deadline_ms > 0.0) {
        // A retry past the request's own deadline cannot help; the
        // suppression shows up in the retries-suppressed stat.
        retry.deadline_seconds = options.deadline_ms * 1e-3;
      }
      client.set_retry_options(retry);
      if (open) {
        while (true) {
          const size_t index =
              next_session.fetch_add(1, std::memory_order_relaxed);
          if (index >= plan.sessions.size()) break;
          const SessionPlan& session = plan.sessions[index];
          const double now = epoch.ElapsedSeconds();
          if (now < session.arrival_seconds) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                session.arrival_seconds - now));
          } else {
            // Open loop: a late start is reported, never absorbed.
            local.max_start_lag_seconds = std::max(
                local.max_start_lag_seconds, now - session.arrival_seconds);
          }
          RunSession(plan, options, session, client, local, epoch,
                     /*deadline_seconds=*/0.0);
        }
      } else {
        const std::vector<const SessionPlan*>& lane =
            lanes[static_cast<size_t>(w)];
        size_t at = 0;
        while (!lane.empty() && epoch.ElapsedSeconds() < duration) {
          RunSession(plan, options, *lane[at], client, local, epoch,
                     duration);
          at = (at + 1) % lane.size();
        }
      }
      local.retries_suppressed = client.retries_suppressed_by_budget();
    });
  }
  for (std::thread& thread : threads) thread.join();

  RunReport report;
  report.workload = spec.name;
  report.seed = spec.seed;
  report.elapsed_seconds = epoch.ElapsedSeconds();
  report.slo_target = spec.slo.target;
  report.require_shards = options.require_shards;

  std::map<std::string, vs::LatencyRecorder> merged;
  std::map<std::string, EndpointReport> endpoints;
  for (const WorkerStats& local : stats) {
    report.sessions_started += local.sessions_started;
    report.sessions_completed += local.sessions_completed;
    report.ops_executed += local.ops_executed;
    report.ops_skipped += local.ops_skipped;
    report.requests += local.requests;
    report.max_start_lag_seconds =
        std::max(report.max_start_lag_seconds, local.max_start_lag_seconds);
    for (const auto& [name, recorder] : local.recorders) {
      merged[name].Merge(recorder);
    }
    for (const auto& [name, count] : local.backpressure) {
      endpoints[name].backpressure += count;
      report.backpressure += count;
    }
    for (const auto& [name, count] : local.errors) {
      endpoints[name].errors += count;
      report.errors += count;
    }
    for (const auto& [name, count] : local.deadline_expired) {
      endpoints[name].deadline_expired += count;
      report.deadline_expired += count;
    }
    report.retries_suppressed += local.retries_suppressed;
    for (const auto& [shard, count] : local.shard_counts) {
      report.shard_counts[shard] += count;
    }
  }
  for (const auto& [name, recorder] : merged) {
    double budget_ms = 0.0;
    const auto it = spec.slo.budget_ms.find(name);
    if (it != spec.slo.budget_ms.end()) budget_ms = it->second;
    endpoints[name].summary = recorder.Summarize(budget_ms);
  }
  // Endpoints that only ever shed still need their budget attached so the
  // verdict judges them (everything shed = 0% within SLO, not a free pass).
  for (auto& [name, endpoint] : endpoints) {
    if (endpoint.summary.count == 0) {
      const auto it = spec.slo.budget_ms.find(name);
      if (it != spec.slo.budget_ms.end()) {
        endpoint.summary.budget_ms = it->second;
      }
    }
  }
  report.endpoints = std::move(endpoints);
  return report;
}

}  // namespace vs::workload
