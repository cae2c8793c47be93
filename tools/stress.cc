/// Deterministic fault-injection soak driver for the serving stack.
///
///   stress --fault-seed=S [--users=M] [--duration=SECONDS] [--k=K]
///          [--fault-prob=P] [--max-sessions=N] [--ttl=SECONDS]
///          [--table=F] [--work-dir=D] [--no-faults] [--smoke]
///          [--plan-hits=N] [--workload=SPEC.json]
///
/// Runs M closed-loop client threads over HTTP against an in-process
/// server while a seeded FaultInjector fires faults in the persistence
/// (snapshot + journal + session_io), socket, and thread-pool layers, and
/// a chaos thread advances the session manager's injected FakeClock so
/// TTL eviction/restore churns constantly.  Sessions persist through the
/// durability layer (fsync off) in `<work-dir>_durability`.  When the
/// clock runs out the faults are uninstalled and the driver verifies
/// invariants:
///
///   I1  no session is lost: every id whose creation was acknowledged and
///       that was never deleted still resolves (restoring from its
///       snapshot if needed) — injected persistence failures may only
///       delay eviction or fail a lookup, never drop state;
///   I2  label durability: the restored label count lies in
///       [labels acknowledged, labels attempted] for every session, and
///       /topk serves k views over them once past cold start;
///   I3  accounting: live+evicted session counts and the serve.* /
///       fault.* metrics counters stay consistent with the client-side
///       tallies;
///   I4  matrix-cache accounting: every acknowledged create consulted the
///       shared feature-matrix cache (hits + misses >= creates acked) and
///       the fmcache.bytes / fmcache.entries gauges agree with the
///       cache's own books after quiescence.
///
/// Creates draw from a small shared pool of query filters, so concurrent
/// sessions collide on cache keys (single-flight builds, COW sharing) and
/// the chaos thread periodically flushes the matrix cache, racing entry
/// eviction against session restore.  fmcache.build_fail and
/// fmcache.evict_defer are armed along with the persistence/socket faults.
///
/// Exit code: 0 = all invariants hold, 1 = violation, 2 = setup error.
///
/// Reproducibility: the fault *schedule* — whether hit N of point P fires
/// — is a pure function of (--fault-seed, P, N), independent of thread
/// interleaving.  The "fault plan" block printed at startup (per-point
/// decision bits and digest) is therefore bit-for-bit identical for equal
/// seeds; rerun with the seed from a CI log to face the same faults.
///
/// --workload=SPEC.json replaces the uniform roll mix with the scripted
/// traffic shape of an IDEBench-style workload spec (src/workload/): each
/// user replays the compiled plan's session scripts — step counts, op mix,
/// lognormal think pauses — through the same fault-injected stack, so
/// chaos fires under realistic pacing instead of a tight request loop.
/// The spec's filter pool is swapped for the stress pool (the spec's
/// columns target the workload testbed, not the 300-row DIAB table) and
/// every invariant (I1-I4) is verified exactly as in roll mode.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "serve/app.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"
#include "workload/plan.h"
#include "workload/spec.h"

namespace {

using namespace vs;

/// Parsed --key=value arguments (same shape as tools/viewseeker.cc).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseInt64(it->second).ValueOr(fallback);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseDouble(it->second).ValueOr(fallback);
  }

 private:
  std::map<std::string, std::string> values_;
};

struct StressConfig {
  uint64_t fault_seed = 1;
  int users = 4;
  double duration_seconds = 10.0;
  int k = 3;
  double fault_prob = 0.05;
  size_t max_sessions = 12;
  double ttl_seconds = 30.0;  ///< fake-clock seconds
  std::string table;
  /// Base path for the run's scratch files; empty = a per-process path
  /// under /tmp, removed at exit.
  std::string work_dir;
  bool faults_enabled = true;
  int plan_hits = 64;
  /// Compiled workload plan driving scripted traffic (null = roll mix).
  const workload::WorkloadPlan* workload_plan = nullptr;
};

/// One session as the client saw it; the verification pass replays these
/// records against the manager's final state.
struct SessionRecord {
  std::string id;
  uint64_t num_views = 0;
  uint64_t labels_attempted = 0;  ///< label requests sent (distinct views)
  uint64_t labels_acked = 0;      ///< label requests answered 2xx
  uint64_t next_view = 0;
  bool delete_attempted = false;
  bool deleted = false;  ///< delete answered 2xx
};

struct UserState {
  std::vector<SessionRecord> records;
  uint64_t creates_attempted = 0;
  uint64_t creates_acked = 0;
  uint64_t deletes_attempted = 0;
  uint64_t deletes_acked = 0;
  uint64_t requests = 0;
  uint64_t transport_errors = 0;
  uint64_t backpressure = 0;   ///< 429/503
  uint64_t server_errors = 0;  ///< 5xx/4xx during the faulted phase
  uint64_t retries = 0;        ///< client stale-connection re-sends
};

/// The faulted phase tolerates every failure shape; it only tallies.
int DoRequest(serve::HttpClient& client, UserState& user,
              std::string_view method, const std::string& target,
              std::string_view body, std::string* out) {
  ++user.requests;
  auto response = client.Request(method, target, body);
  if (!response.ok()) {
    ++user.transport_errors;
    return -1;
  }
  if (response->status == 429 || response->status == 503) {
    ++user.backpressure;
    return response->status;
  }
  if (response->status >= 400) ++user.server_errors;
  *out = std::move(response->body);
  return response->status;
}

bool IsOk(int status) { return status >= 200 && status < 300; }

void UserLoop(const StressConfig& config, int index, int port,
              const std::atomic<bool>& stop, UserState& user) {
  serve::HttpClient client("127.0.0.1", port, /*timeout_seconds=*/20.0);
  Rng rng(config.fault_seed ^ (0xABCDULL + static_cast<uint64_t>(index)));
  // A small shared filter pool: most creates repeat a query some other
  // session also runs, so the matrix cache's single-flight and COW paths
  // are constantly exercised under chaos.  All three filters keep a
  // healthy share of the diabetes rows (non-empty selections).
  const std::vector<std::string> filter_pool = {
      "", "time_in_hospital >= 4", "num_medications >= 10"};
  std::string body;
  int current = -1;  ///< index into user.records, -1 = no live session

  while (!stop.load(std::memory_order_relaxed)) {
    if (current < 0) {
      const std::string& filter =
          filter_pool[rng.NextBounded(filter_pool.size())];
      std::string create_body = StrFormat(
          "{\"k\":%d,\"seed\":%d", config.k, index + 1);
      if (!filter.empty()) {
        create_body += ",\"filter\":" + serve::JsonQuote(filter);
      }
      create_body += "}";
      ++user.creates_attempted;
      const int status =
          DoRequest(client, user, "POST", "/sessions", create_body, &body);
      if (status != 201) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      auto parsed = serve::JsonValue::Parse(body);
      if (!parsed.ok()) continue;  // response body lost/garbled: leak it
      SessionRecord record;
      record.id = parsed->GetString("id", "");
      record.num_views = static_cast<uint64_t>(
          std::max<int64_t>(0, parsed->GetInt("num_views", 0)));
      if (record.id.empty()) continue;
      ++user.creates_acked;
      user.records.push_back(std::move(record));
      current = static_cast<int>(user.records.size()) - 1;
      continue;
    }

    SessionRecord& record = user.records[static_cast<size_t>(current)];
    const std::string base = "/sessions/" + record.id;
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 60 && record.next_view < record.num_views) {
      // Label the next unlabeled view (each view at most once, so the
      // final label count is bounded by attempts even when acks vanish).
      const uint64_t view = record.next_view++;
      ++record.labels_attempted;
      const std::string label_body =
          StrFormat("{\"view\":%llu,\"label\":%d}",
                    static_cast<unsigned long long>(view),
                    rng.NextDouble() < 0.4 ? 1 : 0);
      const int status = DoRequest(client, user, "POST", base + "/label",
                                   label_body, &body);
      // 409 means "view already labeled": the first send of a retried
      // request landed even though its response was lost — the label is
      // durably on record, so it counts as acknowledged.
      if (IsOk(status) || status == 409) ++record.labels_acked;
    } else if (roll < 75) {
      DoRequest(client, user, "GET", base + "/next", {}, &body);
    } else if (roll < 85) {
      DoRequest(client, user, "GET", base + "/topk", {}, &body);
    } else if (roll < 95) {
      DoRequest(client, user, "GET", base, {}, &body);
    } else {
      record.delete_attempted = true;
      ++user.deletes_attempted;
      if (IsOk(DoRequest(client, user, "DELETE", base, {}, &body))) {
        record.deleted = true;
        ++user.deletes_acked;
      }
      current = -1;
    }
  }
  user.retries = client.retries();
}

/// Replays the workload plan's session scripts through the faulted stack:
/// the traffic *shape* (steps, mix, think pauses) comes from the compiled
/// plan, while session bookkeeping stays identical to UserLoop so the
/// invariant verification pass applies unchanged.  User u cycles scripts
/// u, u+M, u+2M, ... so concurrent users never replay the same script in
/// lockstep.
void ScriptedUserLoop(const StressConfig& config, int index, int port,
                      const std::atomic<bool>& stop, UserState& user) {
  const workload::WorkloadPlan& plan = *config.workload_plan;
  serve::HttpClient client("127.0.0.1", port, /*timeout_seconds=*/20.0);
  const std::vector<std::string> filter_pool = {
      "", "time_in_hospital >= 4", "num_medications >= 10"};
  std::string body;
  size_t at = static_cast<size_t>(index) % plan.sessions.size();

  const auto create = [&](int filter_index) -> int {
    const std::string& filter = filter_pool[static_cast<size_t>(
        filter_index) % filter_pool.size()];
    std::string create_body =
        StrFormat("{\"k\":%d,\"seed\":%d", config.k, index + 1);
    if (!filter.empty()) {
      create_body += ",\"filter\":" + serve::JsonQuote(filter);
    }
    create_body += "}";
    ++user.creates_attempted;
    const int status =
        DoRequest(client, user, "POST", "/sessions", create_body, &body);
    if (status != 201) return -1;
    auto parsed = serve::JsonValue::Parse(body);
    if (!parsed.ok()) return -1;  // response body lost/garbled: leak it
    SessionRecord record;
    record.id = parsed->GetString("id", "");
    record.num_views = static_cast<uint64_t>(
        std::max<int64_t>(0, parsed->GetInt("num_views", 0)));
    if (record.id.empty()) return -1;
    ++user.creates_acked;
    user.records.push_back(std::move(record));
    return static_cast<int>(user.records.size()) - 1;
  };
  const auto destroy = [&](int current) {
    SessionRecord& record = user.records[static_cast<size_t>(current)];
    record.delete_attempted = true;
    ++user.deletes_attempted;
    if (IsOk(DoRequest(client, user, "DELETE", "/sessions/" + record.id,
                       {}, &body))) {
      record.deleted = true;
      ++user.deletes_acked;
    }
  };

  while (!stop.load(std::memory_order_relaxed)) {
    const workload::SessionPlan& script = plan.sessions[at];
    at = (at + static_cast<size_t>(config.users)) % plan.sessions.size();
    int current = create(script.filter_index);
    if (current < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    for (const workload::PlannedOp& op : script.ops) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (op.think_before_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(op.think_before_seconds));
      }
      SessionRecord& record = user.records[static_cast<size_t>(current)];
      const std::string base = "/sessions/" + record.id;
      switch (op.kind) {
        case workload::OpKind::kLabel:
          if (record.next_view < record.num_views) {
            // Same each-view-at-most-once discipline as the roll mix —
            // the label-durability window (I2) depends on it.
            const uint64_t view = record.next_view++;
            ++record.labels_attempted;
            const std::string label_body =
                StrFormat("{\"view\":%llu,\"label\":%d}",
                          static_cast<unsigned long long>(view),
                          (script.index + view) % 5 < 2 ? 1 : 0);
            const int status = DoRequest(client, user, "POST",
                                         base + "/label", label_body, &body);
            if (IsOk(status) || status == 409) ++record.labels_acked;
            break;
          }
          [[fallthrough]];  // exhausted: the user fetches instead
        case workload::OpKind::kNext:
          DoRequest(client, user, "GET", base + "/next", {}, &body);
          break;
        case workload::OpKind::kTopk:
          DoRequest(client, user, "GET", base + "/topk", {}, &body);
          break;
        case workload::OpKind::kRequery: {
          destroy(current);
          const int next = create(op.filter_index);
          if (next < 0) {
            current = -1;
          } else {
            current = next;
          }
          break;
        }
      }
      if (current < 0) break;
    }
    if (current >= 0) destroy(current);  // recycle before the next script
  }
  user.retries = client.retries();
}

/// Advances the session manager's fake clock and sweeps TTL eviction, so
/// sessions constantly churn through eviction + transparent restore.
void ChaosLoop(const StressConfig& config, FakeClock& clock,
               serve::SessionManager& manager,
               const std::atomic<bool>& stop, uint64_t* sweeps) {
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    clock.AdvanceSeconds(config.ttl_seconds / 2.0);
    // Hot sessions are touched far more often than the TTL ticks over, so
    // a plain sweep only ever catches abandoned ones.  Every 8th sweep
    // evicts *everything* — busy sessions get evicted mid-conversation and
    // the owner's next request exercises the restore path (and its fault
    // points) under concurrency.
    const bool flush_all = (*sweeps % 8) == 7;
    manager.EvictIdleOlderThan(flush_all ? 0.0 : config.ttl_seconds);
    // Every 4th sweep drops every cached feature matrix, so cache
    // eviction races live creates and restores: in-flight sessions keep
    // their shared_ptr handles while the next miss rebuilds.
    if ((*sweeps % 4) == 1) {
      manager.matrix_cache().EvictIdleOlderThan(0.0);
    }
    ++*sweeps;
  }
}

/// The points the stress run arms, with their relative intensities.
std::vector<std::pair<std::string, double>> FaultPlan(double p) {
  return {
      {"snapshot.rename_fail", p},
      {"snapshot.read_fail", p},
      {"wal.append_fail", p / 2},
      {"session_io.save", p / 2},
      {"session_io.restore", p / 2},
      {"http.recv_eagain", p},
      {"http.recv_short", p},
      {"http.recv_disconnect", p / 5},
      {"http.send_fail", p / 5},
      {"threadpool.submit_reject", p / 5},
      {"fmcache.build_fail", p / 5},
      {"fmcache.evict_defer", p},
  };
}

/// Prints the deterministic fault plan: per point, the first N firing
/// decisions and an FNV digest over decisions 1..1024.  Identical output
/// for identical seeds — the reproducibility contract, verifiable by eye.
void PrintFaultPlan(const StressConfig& config) {
  std::printf("fault plan (seed %llu):\n",
              static_cast<unsigned long long>(config.fault_seed));
  for (const auto& [point, prob] : FaultPlan(config.fault_prob)) {
    std::string bits;
    uint64_t digest = 1469598103934665603ULL;
    for (uint64_t hit = 1; hit <= 1024; ++hit) {
      const bool fire =
          fault::FaultInjector::Decide(config.fault_seed, point, hit, prob);
      if (hit <= static_cast<uint64_t>(config.plan_hits)) {
        bits += fire ? '1' : '0';
      }
      digest ^= fire ? 1u : 0u;
      digest *= 1099511628211ULL;
    }
    std::printf("  %-28s p=%.3f  %s  digest=%016llx\n", point.c_str(), prob,
                bits.c_str(), static_cast<unsigned long long>(digest));
  }
}

struct Verifier {
  uint64_t violations = 0;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++violations;
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", what.c_str());
  }
};

/// Resolves a session that may need a restore slot: on ResourceExhausted
/// the live table is evicted to disk (clock jump + sweep) and the lookup
/// retried, so verification never trips over the session cap.
vs::Result<serve::SessionInfo> InfoWithEvictRetry(
    serve::SessionManager& manager, FakeClock& clock, double ttl,
    const std::string& id) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto info = manager.Info(id);
    if (info.ok() || !info.status().IsResourceExhausted()) return info;
    clock.AdvanceSeconds(ttl * 2);
    manager.EvictIdleOlderThan(0.0);
  }
  return manager.Info(id);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  StressConfig config;
  if (args.Has("smoke")) {
    config.duration_seconds = 2.0;
    config.fault_prob = 0.10;
  }
  config.fault_seed =
      static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  config.users = static_cast<int>(args.GetInt("users", config.users));
  config.duration_seconds =
      args.GetDouble("duration", config.duration_seconds);
  config.k = static_cast<int>(args.GetInt("k", config.k));
  config.fault_prob = args.GetDouble("fault-prob", config.fault_prob);
  config.max_sessions = static_cast<size_t>(
      args.GetInt("max-sessions", static_cast<int64_t>(config.max_sessions)));
  config.ttl_seconds = args.GetDouble("ttl", config.ttl_seconds);
  config.table = args.Get("table");
  config.work_dir = args.Get("work-dir");
  config.faults_enabled = !args.Has("no-faults");
  config.plan_hits =
      static_cast<int>(args.GetInt("plan-hits", config.plan_hits));
  if (args.Has("help")) {
    std::fprintf(stderr,
                 "usage: stress --fault-seed=S [--users=M] [--duration=S]"
                 " [--k=K] [--fault-prob=P] [--max-sessions=N]"
                 " [--ttl=S] [--table=F] [--work-dir=D] [--no-faults]"
                 " [--smoke] [--plan-hits=N] [--workload=SPEC.json]\n");
    return 2;
  }

  workload::WorkloadPlan workload_plan;
  const std::string workload_path = args.Get("workload");
  if (!workload_path.empty()) {
    auto spec = workload::LoadWorkloadSpecFile(workload_path);
    if (!spec.ok()) {
      std::fprintf(stderr, "workload spec failed: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    auto plan = workload::CompilePlan(
        *spec, static_cast<int64_t>(config.fault_seed));
    if (!plan.ok()) {
      std::fprintf(stderr, "workload plan failed: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    workload_plan = std::move(*plan);
    config.workload_plan = &workload_plan;
    std::printf(
        "workload shape: %s, %zu scripts, %llu ops, ledger digest %016llx\n",
        workload_plan.spec.name.c_str(), workload_plan.sessions.size(),
        static_cast<unsigned long long>(workload_plan.total_ops),
        static_cast<unsigned long long>(workload::LedgerDigest(
            workload::FormatLedger(workload_plan))));
  }

  const std::string work_dir =
      config.work_dir.empty()
          ? "/tmp/vs_stress_" + std::to_string(::getpid())
          : config.work_dir;
  std::string table_path = config.table;
  if (table_path.empty()) {
    data::DiabetesOptions table_options;
    table_options.num_rows = 300;
    table_options.seed = 11;
    auto table = data::GenerateDiabetes(table_options);
    if (!table.ok()) {
      std::fprintf(stderr, "table generation failed: %s\n",
                   table.status().ToString().c_str());
      return 2;
    }
    table_path = work_dir + "_table.vst";
    if (const auto status = data::WriteTableFile(*table, table_path);
        !status.ok()) {
      std::fprintf(stderr, "table write failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }

  FakeClock session_clock;
  serve::SessionManagerOptions manager_options;
  manager_options.max_sessions = config.max_sessions;
  manager_options.session_ttl_seconds = config.ttl_seconds;
  manager_options.durability_dir = work_dir + "_durability";
  manager_options.durability_fsync = false;
  manager_options.clock = &session_clock;
  serve::SessionManager manager(manager_options, table_path);
  if (const auto status = manager.PreloadDefaultTable(); !status.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", status.ToString().c_str());
    return 2;
  }
  serve::ServeApp app(&manager);
  serve::HttpServerOptions server_options;
  server_options.worker_threads = 4;
  server_options.max_queued_connections = 16;
  serve::HttpServer server(server_options, [&app](
                                               const serve::HttpRequest& r) {
    return app.Handle(r);
  });
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  std::printf("stress: %d users x %.1fs, fault seed %llu, prob %.3f%s\n",
              config.users, config.duration_seconds,
              static_cast<unsigned long long>(config.fault_seed),
              config.fault_prob,
              config.faults_enabled ? "" : " (faults disabled)");

  fault::FaultInjector injector(config.fault_seed);
  if (config.faults_enabled) {
    for (const auto& [point, prob] : FaultPlan(config.fault_prob)) {
      injector.SetProbability(point, prob);
    }
    PrintFaultPlan(config);
  }

  std::atomic<bool> stop{false};
  std::vector<UserState> users(static_cast<size_t>(config.users));
  uint64_t sweeps = 0;
  Stopwatch wall;
  {
    fault::ScopedFaultInjector scoped(
        config.faults_enabled ? &injector : nullptr);
    std::vector<std::thread> threads;
    threads.reserve(users.size() + 1);
    for (int u = 0; u < config.users; ++u) {
      threads.emplace_back([&config, u, &server, &stop, &users] {
        if (config.workload_plan != nullptr) {
          ScriptedUserLoop(config, u, server.port(), stop,
                           users[static_cast<size_t>(u)]);
        } else {
          UserLoop(config, u, server.port(), stop,
                   users[static_cast<size_t>(u)]);
        }
      });
    }
    threads.emplace_back([&config, &session_clock, &manager, &stop,
                          &sweeps] {
      ChaosLoop(config, session_clock, manager, stop, &sweeps);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(
        config.duration_seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }  // faults uninstalled here: verification runs fault-free

  // ---- verification --------------------------------------------------
  // Evict every surviving session first: the per-record checks below then
  // read state back through a full restore from disk, so label durability
  // is verified against the snapshots and journals, not warm memory.
  session_clock.AdvanceSeconds(config.ttl_seconds * 2);
  manager.EvictIdleOlderThan(0.0);

  Verifier verify;
  uint64_t creates_attempted = 0, creates_acked = 0;
  uint64_t deletes_attempted = 0, deletes_acked = 0;
  uint64_t requests = 0, transport_errors = 0, backpressure = 0,
           server_errors = 0, labels_acked = 0, retries = 0;
  for (const UserState& user : users) {
    creates_attempted += user.creates_attempted;
    creates_acked += user.creates_acked;
    deletes_attempted += user.deletes_attempted;
    deletes_acked += user.deletes_acked;
    requests += user.requests;
    transport_errors += user.transport_errors;
    backpressure += user.backpressure;
    server_errors += user.server_errors;
    retries += user.retries;
    for (const SessionRecord& record : user.records) {
      labels_acked += record.labels_acked;
      if (record.deleted) {
        // I1 complement: an acknowledged delete is forever.
        verify.Check(manager.Info(record.id).status().IsNotFound(),
                     "deleted session still resolves: " + record.id);
        continue;
      }
      if (record.delete_attempted) continue;  // fate unknown: skip
      auto info = InfoWithEvictRetry(manager, session_clock,
                                     config.ttl_seconds, record.id);
      verify.Check(info.ok(), "session lost: " + record.id + " (" +
                                  info.status().ToString() + ")");
      if (!info.ok()) continue;
      // I2: label durability window.
      const uint64_t labeled = info->num_labeled;
      verify.Check(labeled >= record.labels_acked &&
                       labeled <= record.labels_attempted,
                   StrFormat("session %s: %llu labels on record, acked "
                             "%llu / attempted %llu",
                             record.id.c_str(),
                             static_cast<unsigned long long>(labeled),
                             static_cast<unsigned long long>(
                                 record.labels_acked),
                             static_cast<unsigned long long>(
                                 record.labels_attempted)));
      auto topk = manager.TopK(record.id);
      if (topk.ok()) {
        verify.Check(
            topk->views.size() ==
                std::min<size_t>(static_cast<size_t>(config.k),
                                 static_cast<size_t>(record.num_views)),
            "session " + record.id + ": top-k size mismatch");
      } else {
        // Cold start (too few labels) is the only acceptable refusal.
        verify.Check(topk.status().IsFailedPrecondition(),
                     "session " + record.id + ": topk failed: " +
                         topk.status().ToString());
      }
    }
  }

  // I3: server-side session accounting brackets the client tallies.  A
  // client retry may have executed its request twice server-side (the
  // first response was lost), so every upper bound widens by `retries`.
  const size_t live = manager.active_sessions();
  const size_t evicted = manager.evicted_sessions();
  const uint64_t lower =
      creates_acked >= deletes_attempted ? creates_acked - deletes_attempted
                                         : 0;
  const uint64_t upper = creates_attempted + retries - deletes_acked;
  verify.Check(live + evicted >= lower && live + evicted <= upper,
               StrFormat("session count %zu+%zu outside [%llu, %llu]",
                         live, evicted,
                         static_cast<unsigned long long>(lower),
                         static_cast<unsigned long long>(upper)));
  auto& registry = obs::MetricsRegistry::Default();
  const uint64_t metric_created =
      registry.GetCounter("serve.sessions_created")->value();
  verify.Check(
      metric_created >= creates_acked &&
          metric_created <= creates_attempted + retries,
      StrFormat("serve.sessions_created=%llu outside [%llu, %llu]",
                static_cast<unsigned long long>(metric_created),
                static_cast<unsigned long long>(creates_acked),
                static_cast<unsigned long long>(creates_attempted + retries)));
  const uint64_t metric_fires =
      registry.GetCounter("fault.fires")->value();
  verify.Check(metric_fires == injector.total_fires(),
               StrFormat("fault.fires=%llu but injector fired %llu",
                         static_cast<unsigned long long>(metric_fires),
                         static_cast<unsigned long long>(
                             injector.total_fires())));

  // I4: matrix-cache accounting.  Every acknowledged create consulted the
  // shared cache exactly once (hit, miss, or single-flight wait), and
  // restores during verification only add lookups, so the sum is a lower
  // bound.  After quiescence the exported gauges must agree with the
  // cache's own books -- they are updated under the same lock as every
  // insert and eviction.
  const serve::FeatureMatrixCacheStats cache = manager.matrix_cache().stats();
  verify.Check(
      cache.hits + cache.misses + cache.inflight_waits >= creates_acked,
      StrFormat("fmcache lookups %llu+%llu+%llu < creates acked %llu",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.inflight_waits),
                static_cast<unsigned long long>(creates_acked)));
  verify.Check(registry.GetGauge("fmcache.bytes")->value() ==
                   static_cast<double>(cache.bytes),
               StrFormat("fmcache.bytes gauge %.0f != cache books %llu",
                         registry.GetGauge("fmcache.bytes")->value(),
                         static_cast<unsigned long long>(cache.bytes)));
  verify.Check(registry.GetGauge("fmcache.entries")->value() ==
                   static_cast<double>(cache.entries),
               StrFormat("fmcache.entries gauge %.0f != cache books %llu",
                         registry.GetGauge("fmcache.entries")->value(),
                         static_cast<unsigned long long>(cache.entries)));

  server.Stop();
  if (config.work_dir.empty()) {
    std::filesystem::remove_all(manager_options.durability_dir);
    if (config.table.empty()) std::filesystem::remove(table_path);
  }

  // ---- report --------------------------------------------------------
  const double elapsed = wall.ElapsedSeconds();
  std::printf("requests:      %llu (%.1f/s)\n",
              static_cast<unsigned long long>(requests),
              elapsed > 0 ? static_cast<double>(requests) / elapsed : 0.0);
  std::printf("sessions:      %llu acked / %llu attempted, %llu deleted\n",
              static_cast<unsigned long long>(creates_acked),
              static_cast<unsigned long long>(creates_attempted),
              static_cast<unsigned long long>(deletes_acked));
  std::printf("labels acked:  %llu\n",
              static_cast<unsigned long long>(labels_acked));
  std::printf("backpressure:  %llu, transport errors: %llu, "
              "server errors: %llu, client retries: %llu\n",
              static_cast<unsigned long long>(backpressure),
              static_cast<unsigned long long>(transport_errors),
              static_cast<unsigned long long>(server_errors),
              static_cast<unsigned long long>(retries));
  std::printf("evict sweeps:  %llu (final live %zu, evicted %zu)\n",
              static_cast<unsigned long long>(sweeps), live, evicted);
  std::printf("matrix cache:  %llu hits / %llu misses / %llu waits, "
              "%llu evictions (%zu entries, %zu bytes held)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.inflight_waits),
              static_cast<unsigned long long>(cache.evictions),
              cache.entries, cache.bytes);
  if (config.faults_enabled) {
    std::printf("faults (hits/fires by point):\n");
    for (const auto& [point, stats] : injector.AllStats()) {
      std::printf("  %-28s %8llu / %llu\n", point.c_str(),
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.fires));
    }
  }
  if (verify.violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu invariant violation(s); rerun with "
                 "--fault-seed=%llu to reproduce the fault schedule\n",
                 static_cast<unsigned long long>(verify.violations),
                 static_cast<unsigned long long>(config.fault_seed));
    return 1;
  }
  std::printf("OK: all invariants hold\n");
  return 0;
}
