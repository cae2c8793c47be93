/// The `viewseeker` command-line tool — the operational face of the
/// library, covering the offline half of the workflow plus simulated
/// sessions.  (For a live interactive session with a human, use
/// examples/interactive_cli.)
///
///   viewseeker generate  --dataset=diab|syn|big --rows=N [--seed=S] --out=F
///                        (big = 10-100M-row workload testbed, streamed
///                         to .vst in O(chunk) memory; see data/generator.h)
///   viewseeker info      --table=F
///   viewseeker views     --table=F [--bins=3,4]
///   viewseeker sql       --table=F --query="SELECT AVG(m) FROM t GROUP BY a"
///   viewseeker recommend --table=F --filter="COND" --feature=EMD [--k=5]
///   viewseeker session   --table=F --filter="COND" --ustar=N [--k=5]
///                        [--strategy=uncertainty] [--max-labels=100]
///                        [--alpha=0.1]   (rough features + refinement)
///                        [--threads=N]   (feature-build workers)
///                        [--metrics-out=F.json]  (vs::obs snapshot)
///                        [--trace-out=F.json]    (chrome://tracing spans)
///                        [--events-out=F.jsonl]  (session event journal)
///   viewseeker serve     --table=F [--host=127.0.0.1] [--port=8080]
///                        [--max-sessions=256] [--session-ttl=300]
///                        [--workers=N] [--max-queued=64]
///                        [--threads=N]   (build-pool workers; default cores - 1)
///                        [--durability-dir=DIR] [--snapshot-every=128]
///                        [--no-fsync]
///                        [--slow-request-ms=500] [--slo-ms=0]
///                        [--slo-window=60]
///                        [--wide-events-out=F.jsonl]
///                        [--wide-event-sample=N]
///                        [--shard-name=NAME]  (cluster identity: X-Shard
///                         header + wide-event/healthz shard field)
///                        [--simulate-service-ms=0]  (artificial per-
///                         request service time for scaling benchmarks)
///                        [--simulate-cores=0]  (cap on concurrently
///                         simulated requests; 0 = unbounded)
///                        [--no-admission]  (disable the adaptive AIMD
///                         admission limiter; static queue bounds only)
///                        [--build-info]  (print build provenance, exit)
///                        (JSON-over-HTTP session server; see
///                         docs/ARCHITECTURE.md "Serving" for the protocol.
///                         --durability-dir enables the crash-safe label
///                         journal + snapshot recovery described in
///                         docs/ARCHITECTURE.md "Durability & recovery",
///                         and is where TTL-evicted sessions go (without
///                         it they are dropped; add --no-fsync where
///                         eviction, not crash safety, is the point);
///                         request tracing, SLO tracking and /statusz are
///                         described in docs/ARCHITECTURE.md "Request
///                         lifecycle & observability")
///   viewseeker route     --shards=host:port,name=host:port,...
///                        [--host=127.0.0.1] [--port=8080]
///                        [--virtual-nodes=128] [--eject-after=3]
///                        [--probe-interval=1.0] [--forward-timeout=10]
///                        [--forward-attempts=3] [--retry-backoff=0.05]
///                        [--migrate-hold=10] [--workers=N]
///                        [--max-queued=64]
///                        [--breaker-trip-after=5] [--breaker-open=1.0]
///                         (per-shard circuit breaker: consecutive 5xx
///                         to open, cool-down before half-open probing)
///                        [--retry-budget-tokens=10]
///                        [--retry-budget-deposit=0.1]
///                         (global retry budget: bucket size, tokens
///                         minted per successful forward)
///                        [--build-info]
///                        (cluster front-end: consistent-hash session
///                         routing over N `viewseeker serve` workers,
///                         aggregated /healthz /metrics /statusz, and
///                         POST /admin/migrate live session handoff; see
///                         docs/ARCHITECTURE.md "Cluster topology".
///                         Unnamed --shards entries are auto-named
///                         shard0..shardN-1 in list order)
///
/// Tables are read by extension: .vst (binary, see data/io.h) or .csv.
/// --filter takes the WHERE sub-grammar ("age >= 30 AND city = 'NYC'").
/// --ustar picks a Table 2 preset (1..11) for the simulated user.

#include <csignal>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/router_app.h"
#include "common/build_info.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/experiment.h"
#include "core/recommender.h"
#include "core/view.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/predicate.h"
#include "data/query.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/app.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"

namespace {

using namespace vs;

/// Parsed --key=value arguments.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
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

  /// Bare flags (--no-fsync) parse as "true"; --key=false opts out.
  bool GetBool(const std::string& key, bool fallback = false) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  /// Warns on stderr for every parsed flag not in \p known — catches typos
  /// like --fliter that would otherwise silently fall back to defaults.
  /// Returns the number of unrecognized flags.
  int WarnUnrecognized(std::initializer_list<const char*> known) const {
    int unrecognized = 0;
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (const char* k : known) {
        if (key == k) {
          found = true;
          break;
        }
      }
      if (!found) {
        ++unrecognized;
        std::fprintf(stderr, "warning: unrecognized flag --%s (ignored)\n",
                     key.c_str());
      }
    }
    return unrecognized;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: viewseeker "
      "<generate|info|views|sql|recommend|session|serve|route> "
      "[--key=value ...]\n"
      "see the header of tools/viewseeker.cc for the full synopsis\n");
  return 2;
}

Result<data::Table> LoadTable(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("--table=<path> is required");
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".vst") {
    return data::ReadTableFile(path);
  }
  return data::ReadCsvFile(path, {});
}

int CmdGenerate(const Args& args) {
  args.WarnUnrecognized({"dataset", "rows", "seed", "out"});
  const std::string dataset = args.Get("dataset", "diab");
  const std::string out = args.Get("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));

  // The large-scale testbed streams straight to .vst in O(chunk) memory —
  // it never goes through an in-memory Table, so 100M rows need no RAM.
  if (dataset == "big") {
    if (out.size() < 4 || out.substr(out.size() - 4) != ".vst") {
      return Fail(Status::InvalidArgument(
          "--dataset=big streams columnar output; --out must end in .vst"));
    }
    data::LargeScaleOptions options;
    options.num_rows = static_cast<uint64_t>(args.GetInt("rows", 10000000));
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 99));
    auto bytes = data::LargeScaleFileBytes(options);
    if (!bytes.ok()) return Fail(bytes.status());
    Status write = data::GenerateLargeScaleToFile(options, out);
    if (!write.ok()) return Fail(write);
    std::printf("wrote %llu rows (%llu bytes) to %s\n",
                static_cast<unsigned long long>(options.num_rows),
                static_cast<unsigned long long>(*bytes), out.c_str());
    return 0;
  }

  Result<data::Table> table = Status::InvalidArgument(
      "--dataset must be 'diab', 'syn', or 'big'");
  if (dataset == "diab") {
    data::DiabetesOptions options;
    options.num_rows = static_cast<size_t>(args.GetInt("rows", 100000));
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    table = data::GenerateDiabetes(options);
  } else if (dataset == "syn") {
    data::SyntheticOptions options;
    options.num_rows = static_cast<size_t>(args.GetInt("rows", 1000000));
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    table = data::GenerateSynthetic(options);
  }
  if (!table.ok()) return Fail(table.status());

  Status write = out.size() >= 4 && out.substr(out.size() - 4) == ".vst"
                     ? data::WriteTableFile(*table, out)
                     : data::WriteCsvFile(*table, out);
  if (!write.ok()) return Fail(write);
  std::printf("wrote %zu rows x %zu columns to %s\n", table->num_rows(),
              table->num_columns(), out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  args.WarnUnrecognized({"table"});
  auto table = LoadTable(args.Get("table"));
  if (!table.ok()) return Fail(table.status());
  std::printf("rows: %zu\n", table->num_rows());
  std::printf("columns:\n");
  for (const data::Field& f : table->schema().fields()) {
    std::printf("  %-24s %-8s %s\n", f.name.c_str(),
                data::DataTypeName(f.type).c_str(),
                data::FieldRoleName(f.role).c_str());
  }
  const auto dims =
      table->schema().FieldsWithRole(data::FieldRole::kDimension);
  const auto measures =
      table->schema().FieldsWithRole(data::FieldRole::kMeasure);
  std::printf("view space (Eq. 1): 2 x %zu x %zu x %d = %lld\n",
              dims.size(), measures.size(), data::kNumAggregateFunctions,
              static_cast<long long>(core::ViewSpaceSize(
                  static_cast<int64_t>(dims.size()),
                  static_cast<int64_t>(measures.size()),
                  data::kNumAggregateFunctions)));
  return 0;
}

Result<std::vector<core::ViewSpec>> EnumerateWithArgs(
    const data::Table& table, const Args& args) {
  core::ViewEnumerationOptions options;
  const std::string bins = args.Get("bins");
  if (!bins.empty()) {
    options.numeric_bin_configs.clear();
    for (const std::string& token : Split(bins, ',')) {
      VS_ASSIGN_OR_RETURN(int64_t b, ParseInt64(token));
      options.numeric_bin_configs.push_back(static_cast<int32_t>(b));
    }
  }
  return core::EnumerateViews(table, options);
}

int CmdViews(const Args& args) {
  args.WarnUnrecognized({"table", "bins"});
  auto table = LoadTable(args.Get("table"));
  if (!table.ok()) return Fail(table.status());
  auto views = EnumerateWithArgs(*table, args);
  if (!views.ok()) return Fail(views.status());
  for (const core::ViewSpec& v : *views) {
    std::printf("%s\n", v.Id().c_str());
  }
  std::printf("# %zu views\n", views->size());
  return 0;
}

int CmdSql(const Args& args) {
  args.WarnUnrecognized({"table", "query"});
  auto table = LoadTable(args.Get("table"));
  if (!table.ok()) return Fail(table.status());
  const std::string sql = args.Get("query");
  if (sql.empty()) return Fail(Status::InvalidArgument("--query required"));
  auto result = data::RunSql(*table, sql);
  if (!result.ok()) return Fail(result.status());
  for (size_t b = 0; b < result->num_bins(); ++b) {
    std::printf("%-24s %.6g  (n=%lld)\n", result->labels()[b].c_str(),
                result->values[b],
                static_cast<long long>(result->counts()[b]));
  }
  return 0;
}

Result<data::SelectionVector> SelectWithFilter(const data::Table& table,
                                               const Args& args) {
  const std::string filter = args.Get("filter");
  if (filter.empty()) return table.AllRows();
  VS_ASSIGN_OR_RETURN(data::PredicatePtr predicate,
                      data::ParseFilter(filter));
  return data::SelectRows(table, predicate);
}

int CmdRecommend(const Args& args) {
  args.WarnUnrecognized({"table", "filter", "bins", "feature", "k"});
  auto table = LoadTable(args.Get("table"));
  if (!table.ok()) return Fail(table.status());
  auto query = SelectWithFilter(*table, args);
  if (!query.ok()) return Fail(query.status());
  auto views = EnumerateWithArgs(*table, args);
  if (!views.ok()) return Fail(views.status());

  auto registry = core::UtilityFeatureRegistry::Default();
  auto matrix = core::FeatureMatrix::Build(&*table, *views, *query,
                                           &registry, {});
  if (!matrix.ok()) return Fail(matrix.status());

  const std::string feature = args.Get("feature", "EMD");
  const int k = static_cast<int>(args.GetInt("k", 5));
  auto rec = core::RecommendByFeatureName(*matrix, feature, k);
  if (!rec.ok()) return Fail(rec.status());
  std::printf("top-%d views by %s over %zu query rows:\n", k,
              feature.c_str(), query->size());
  for (size_t v : *rec) {
    std::printf("  %s\n", matrix->views()[v].Id().c_str());
  }
  return 0;
}

int CmdSession(const Args& args) {
  args.WarnUnrecognized({"table", "filter", "bins", "ustar", "k", "strategy",
                         "max-labels", "alpha", "threads", "seed",
                         "metrics-out", "trace-out", "events-out"});
  // vs::obs wiring: metrics are always collected and --metrics-out dumps
  // them; --trace-out turns on the trace ring, which otherwise stays in
  // its one-relaxed-load disabled state; --events-out journals the session.
  const std::string metrics_out = args.Get("metrics-out");
  const std::string trace_out = args.Get("trace-out");
  const std::string events_out = args.Get("events-out");
  if (!trace_out.empty()) obs::TraceCollector::Default().set_enabled(true);
  std::unique_ptr<obs::JsonlFileSink> journal;
  if (!events_out.empty()) {
    auto sink = obs::JsonlFileSink::Open(events_out);
    if (!sink.ok()) return Fail(sink.status());
    journal = std::move(*sink);
  }

  auto table = LoadTable(args.Get("table"));
  if (!table.ok()) return Fail(table.status());
  auto query = SelectWithFilter(*table, args);
  if (!query.ok()) return Fail(query.status());
  auto views = EnumerateWithArgs(*table, args);
  if (!views.ok()) return Fail(views.status());

  ThreadPool build_pool(static_cast<size_t>(args.GetInt(
      "threads", static_cast<int64_t>(ThreadPool::DefaultThreads()))));
  core::FeatureMatrixOptions build_options;
  build_options.pool = &build_pool;
  auto registry = core::UtilityFeatureRegistry::Default();
  auto matrix = core::FeatureMatrix::Build(&*table, *views, *query,
                                           &registry, build_options);
  if (!matrix.ok()) return Fail(matrix.status());

  // Optional §3.3 optimization: the seeker works on an α%-sample rough
  // matrix that is refined between prompts.
  const double alpha = args.GetDouble("alpha", 1.0);
  std::optional<core::FeatureMatrix> rough;
  if (alpha > 0.0 && alpha < 1.0) {
    core::FeatureMatrixOptions rough_options = build_options;
    rough_options.sample_rate = alpha;
    auto built = core::FeatureMatrix::Build(&*table, *views, *query,
                                            &registry, rough_options);
    if (!built.ok()) return Fail(built.status());
    rough.emplace(std::move(*built));
  }

  const int64_t ustar = args.GetInt("ustar", 7);
  const auto presets = core::Table2Presets();
  if (ustar < 1 || ustar > static_cast<int64_t>(presets.size())) {
    return Fail(Status::OutOfRange("--ustar must be in 1..11"));
  }
  const auto& ideal = presets[static_cast<size_t>(ustar - 1)];

  core::ExperimentConfig config;
  config.k = static_cast<int>(args.GetInt("k", 5));
  config.strategy = args.Get("strategy", "uncertainty");
  config.max_labels = static_cast<size_t>(args.GetInt("max-labels", 100));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (rough.has_value()) {
    config.refine = true;
    config.refine_views_per_iteration =
        static_cast<int>(matrix->num_views() / 24) + 1;
  }
  config.event_sink = journal.get();
  auto result = core::RunSimulatedSession(
      *matrix, rough.has_value() ? &*rough : nullptr, ideal, config);
  if (!result.ok()) return Fail(result.status());

  std::printf("simulated user: u* = %s\n", ideal.name().c_str());
  std::printf("%s after %d labels (final top-%d precision %.2f, UD %.4f)\n",
              result->reached_target ? "converged" : "stopped",
              result->labels_to_target, config.k, result->final_precision,
              result->final_ud);
  std::printf("trajectory (labels: precision):");
  for (const auto& step : result->trajectory) {
    std::printf(" %d:%.2f", step.labels, step.precision);
  }
  std::printf("\n");

  if (journal != nullptr) {
    journal->Flush();
    std::printf("event journal: %s\n", events_out.c_str());
  }
  if (!metrics_out.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Default().SnapshotAll();
    Status wrote = WriteTextFile(metrics_out, obs::ToJson(snapshot));
    if (!wrote.ok()) return Fail(wrote);
    std::printf("metrics snapshot: %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    Status wrote = WriteTextFile(
        trace_out, obs::TraceCollector::Default().ToChromeTraceJson());
    if (!wrote.ok()) return Fail(wrote);
    std::printf("trace (open via chrome://tracing): %s\n",
                trace_out.c_str());
  }
  return 0;
}

int CmdServe(const Args& args) {
  // Refused rather than ignored: a deployment still passing it would start
  // and silently drop every TTL-evicted session.
  if (!args.Get("spill-dir").empty()) {
    return Fail(Status::InvalidArgument(
        "--spill-dir was removed; evicted sessions persist only under "
        "--durability-dir. Pass --durability-dir=" +
        args.Get("spill-dir") + " --no-fsync to keep them"));
  }
  args.WarnUnrecognized({"table", "host", "port", "max-sessions",
                         "session-ttl", "workers", "max-queued", "threads",
                         "seed", "durability-dir", "snapshot-every",
                         "no-fsync", "slow-request-ms",
                         "slo-ms", "slo-window", "wide-events-out",
                         "wide-event-sample", "shard-name",
                         "simulate-service-ms", "simulate-cores",
                         "no-admission", "build-info"});

  if (args.GetBool("build-info")) {
    std::printf("%s\n", BuildInfoLine().c_str());
    return 0;
  }

  serve::SessionManagerOptions manager_options;
  manager_options.max_sessions =
      static_cast<size_t>(args.GetInt("max-sessions", 256));
  manager_options.session_ttl_seconds = args.GetDouble("session-ttl", 300.0);
  manager_options.feature_threads = static_cast<size_t>(args.GetInt(
      "threads", static_cast<int64_t>(manager_options.feature_threads)));
  manager_options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  manager_options.durability_dir = args.Get("durability-dir");
  manager_options.snapshot_every_labels =
      static_cast<size_t>(args.GetInt("snapshot-every", 128));
  manager_options.durability_fsync = !args.GetBool("no-fsync");
  serve::SessionManager manager(manager_options, args.Get("table"));
  if (!args.Get("table").empty()) {
    Status preload = manager.PreloadDefaultTable();
    if (!preload.ok()) return Fail(preload);
  }
  if (manager.durability_enabled()) {
    Status recovered = manager.RecoverFromDisk();
    if (!recovered.ok()) return Fail(recovered);
    const serve::DurabilityStats d = manager.durability_stats();
    std::printf("durability: recovered %llu sessions, replayed %llu "
                "labels, %llu torn tails, %llu quarantined\n",
                static_cast<unsigned long long>(d.recovered_sessions),
                static_cast<unsigned long long>(d.replayed_labels),
                static_cast<unsigned long long>(d.torn_tails),
                static_cast<unsigned long long>(d.quarantined));
  }
  manager.StartReaper();

  serve::ServeAppOptions app_options;
  // The serve tool defaults the adaptive limiter ON (the embedded-library
  // default is off); --no-admission restores the static policy.
  app_options.admission_enabled = !args.GetBool("no-admission");
  app_options.shard_name = args.Get("shard-name");
  app_options.simulate_service_ms = args.GetDouble("simulate-service-ms", 0.0);
  app_options.simulate_cores = static_cast<int>(args.GetInt("simulate-cores", 0));
  app_options.slow_request_ms = args.GetDouble("slow-request-ms", 500.0);
  app_options.slo_budget_ms = args.GetDouble("slo-ms", 0.0);
  app_options.slo_window_seconds = args.GetDouble("slo-window", 60.0);
  std::unique_ptr<obs::JsonlFileSink> wide_events;
  const std::string wide_events_out = args.Get("wide-events-out");
  if (!wide_events_out.empty()) {
    auto sink = obs::JsonlFileSink::Open(wide_events_out);
    if (!sink.ok()) return Fail(sink.status());
    wide_events = std::move(*sink);
    app_options.wide_event_sink = wide_events.get();
    // With a sink configured, default to sampling every request; tune
    // down with --wide-event-sample=N for high-throughput serving.
    app_options.wide_event_sample =
        static_cast<uint64_t>(args.GetInt("wide-event-sample", 1));
  }
  // The effective serving configuration, echoed verbatim by /statusz so
  // an operator reading a snapshot knows exactly what flags produced it.
  app_options.config_json = StrFormat(
      "{\"table\":%s,\"shard\":%s,\"max_sessions\":%lld,"
      "\"session_ttl_seconds\":%.1f,"
      "\"durability\":%s,\"slow_request_ms\":%.1f,\"slo_budget_ms\":%.1f,"
      "\"slo_window_seconds\":%.1f,\"wide_event_sample\":%llu,"
      "\"admission\":%s}",
      serve::JsonQuote(args.Get("table")).c_str(),
      serve::JsonQuote(app_options.shard_name).c_str(),
      static_cast<long long>(args.GetInt("max-sessions", 256)),
      args.GetDouble("session-ttl", 300.0),
      manager.durability_enabled() ? "true" : "false",
      app_options.slow_request_ms, app_options.slo_budget_ms,
      app_options.slo_window_seconds,
      static_cast<unsigned long long>(app_options.wide_event_sample),
      app_options.admission_enabled ? "true" : "false");
  serve::ServeApp app(&manager, app_options);

  serve::HttpServerOptions server_options;
  server_options.host = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.GetInt("port", 8080));
  server_options.worker_threads = static_cast<size_t>(args.GetInt(
      "workers",
      static_cast<int64_t>(std::max<size_t>(4, ThreadPool::DefaultThreads()))));
  server_options.max_queued_connections =
      static_cast<size_t>(args.GetInt("max-queued", 64));

  // Block the shutdown signals before Start() so every thread the server
  // spawns inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  serve::HttpServer server(server_options,
                           [&app](const serve::HttpRequest& request) {
                             return app.Handle(request);
                           });
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("viewseeker serve: listening on %s:%d "
              "(workers=%zu, max-sessions=%zu, ttl=%.0fs)\n",
              server_options.host.c_str(), server.port(),
              server_options.worker_threads, manager_options.max_sessions,
              manager_options.session_ttl_seconds);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("received %s, draining in-flight requests...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.Stop();
  if (manager.durability_enabled()) {
    // Graceful drain: every live session gets a final snapshot so the
    // next start recovers without journal replay.
    const size_t persisted = manager.PersistAllSessions();
    std::printf("persisted %zu sessions to %s\n", persisted,
                manager.options().durability_dir.c_str());
  }
  std::printf("drained: %llu connections served, %llu rejected, "
              "%zu sessions live at exit\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.connections_rejected()),
              manager.active_sessions());
  return 0;
}

/// Splits "a,b,c" on commas, dropping empty pieces.
std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    if (comma > start) parts.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// Parses one --shards entry: "host:port" (auto-named shard<index>),
/// "name=host:port", or ":port" / "name=:port" (host defaults to
/// 127.0.0.1).
Result<cluster::ShardAddress> ParseShardEntry(const std::string& entry,
                                              size_t index) {
  cluster::ShardAddress address;
  std::string rest = entry;
  const size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    address.name = rest.substr(0, eq);
    rest = rest.substr(eq + 1);
  } else {
    address.name = StrFormat("shard%zu", index);
  }
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("--shards entry '%s' is not host:port", entry.c_str()));
  }
  if (colon > 0) address.host = rest.substr(0, colon);
  Result<int64_t> port = ParseInt64(rest.substr(colon + 1));
  if (!port.ok() || *port <= 0 || *port > 65535) {
    return Status::InvalidArgument(
        StrFormat("--shards entry '%s' has an invalid port", entry.c_str()));
  }
  address.port = static_cast<int>(*port);
  return address;
}

int CmdRoute(const Args& args) {
  args.WarnUnrecognized({"shards", "host", "port", "workers", "max-queued",
                         "virtual-nodes", "eject-after", "probe-interval",
                         "forward-timeout", "forward-attempts",
                         "retry-backoff", "migrate-hold", "seed",
                         "breaker-trip-after", "breaker-open",
                         "retry-budget-tokens", "retry-budget-deposit",
                         "build-info"});

  if (args.GetBool("build-info")) {
    std::printf("%s\n", BuildInfoLine().c_str());
    return 0;
  }

  cluster::ClusterRouterOptions options;
  const std::vector<std::string> entries = SplitCommaList(args.Get("shards"));
  if (entries.empty()) {
    return Fail(Status::InvalidArgument(
        "--shards=host:port[,name=host:port,...] is required"));
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    Result<cluster::ShardAddress> address = ParseShardEntry(entries[i], i);
    if (!address.ok()) return Fail(address.status());
    options.shards.push_back(std::move(*address));
  }
  options.virtual_nodes = static_cast<int>(args.GetInt("virtual-nodes", 128));
  options.eject_after = static_cast<int>(args.GetInt("eject-after", 3));
  options.probe_interval_seconds = args.GetDouble("probe-interval", 1.0);
  options.forward_timeout_seconds = args.GetDouble("forward-timeout", 10.0);
  options.forward_attempts =
      static_cast<int>(args.GetInt("forward-attempts", 3));
  options.retry_backoff_seconds = args.GetDouble("retry-backoff", 0.05);
  options.migrate_hold_seconds = args.GetDouble("migrate-hold", 10.0);
  options.breaker.trip_after =
      static_cast<int>(args.GetInt("breaker-trip-after", 5));
  options.breaker.open_seconds = args.GetDouble("breaker-open", 1.0);
  options.retry_budget.max_tokens = args.GetDouble("retry-budget-tokens", 10.0);
  options.retry_budget.deposit_per_success =
      args.GetDouble("retry-budget-deposit", 0.1);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 0xc105));
  std::string shard_list;
  for (const auto& shard : options.shards) {
    if (!shard_list.empty()) shard_list += ",";
    shard_list += StrFormat("\"%s=%s:%d\"", shard.name.c_str(),
                            shard.host.c_str(), shard.port);
  }
  options.config_json = StrFormat(
      "{\"shards\":[%s],\"virtual_nodes\":%d,\"eject_after\":%d,"
      "\"probe_interval_seconds\":%.2f,\"forward_timeout_seconds\":%.1f,"
      "\"forward_attempts\":%d,\"migrate_hold_seconds\":%.1f,"
      "\"breaker_trip_after\":%d,\"breaker_open_seconds\":%.2f,"
      "\"retry_budget_tokens\":%.1f,\"retry_budget_deposit\":%.3f}",
      shard_list.c_str(), options.virtual_nodes, options.eject_after,
      options.probe_interval_seconds, options.forward_timeout_seconds,
      options.forward_attempts, options.migrate_hold_seconds,
      options.breaker.trip_after, options.breaker.open_seconds,
      options.retry_budget.max_tokens,
      options.retry_budget.deposit_per_success);

  cluster::ClusterRouter router(options);
  Status started_router = router.Start();
  if (!started_router.ok()) return Fail(started_router);

  serve::HttpServerOptions server_options;
  server_options.host = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.GetInt("port", 8080));
  server_options.worker_threads = static_cast<size_t>(args.GetInt(
      "workers",
      static_cast<int64_t>(std::max<size_t>(8, ThreadPool::DefaultThreads()))));
  server_options.max_queued_connections =
      static_cast<size_t>(args.GetInt("max-queued", 64));

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  serve::HttpServer server(server_options,
                           [&router](const serve::HttpRequest& request) {
                             return router.Handle(request);
                           });
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("viewseeker route: listening on %s:%d "
              "(shards=%zu, vnodes=%d, workers=%zu)\n",
              server_options.host.c_str(), server.port(),
              options.shards.size(), options.virtual_nodes,
              server_options.worker_threads);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("received %s, draining in-flight requests...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.Stop();
  router.Stop();
  std::printf("drained: %llu connections served, %llu rejected, "
              "%llu migrations completed\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.connections_rejected()),
              static_cast<unsigned long long>(router.migrations()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv);
  if (command == "generate") return CmdGenerate(args);
  if (command == "info") return CmdInfo(args);
  if (command == "views") return CmdViews(args);
  if (command == "sql") return CmdSql(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "session") return CmdSession(args);
  if (command == "serve") return CmdServe(args);
  if (command == "route") return CmdRoute(args);
  return Usage();
}
