/// In-process cluster: N real workers (SessionManager + ServeApp +
/// HttpServer on ephemeral ports) behind one ClusterRouter, driven
/// through ClusterRouter::Handle.  Covers placement determinism, id and
/// shard stamping, aggregation, live migration (happy path, under
/// injected durability faults, and under concurrent traffic), and the
/// failure detector's ejection/re-admission cycle.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include <gtest/gtest.h>

#include "cluster/router_app.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "data/io.h"
#include "serve/app.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::cluster {
namespace {

using serve::HttpRequest;
using serve::HttpResponse;

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 41;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "cluster_router_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

HttpRequest Req(std::string method, const std::string& target,
                std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = target;
  const size_t q = target.find('?');
  request.path = q == std::string::npos ? target : target.substr(0, q);
  request.query = q == std::string::npos ? "" : target.substr(q + 1);
  request.body = std::move(body);
  return request;
}

const std::string* Header(const HttpResponse& response,
                          const std::string& name) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// One worker: durable manager + app + real HTTP server.
struct Worker {
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<serve::ServeApp> app;
  std::unique_ptr<serve::HttpServer> server;
  std::string name;
  std::string durability_dir;

  void Start(const std::string& shard_name, int port = 0) {
    name = shard_name;
    if (manager == nullptr) {
      serve::SessionManagerOptions options;
      options.max_sessions = 16;
      options.session_ttl_seconds = 3600;
      options.durability_dir =
          ::testing::TempDir() + "vs_router_test_" + shard_name + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
      // A previous run's sessions would collide with this run's
      // deterministic router-minted ids.
      std::filesystem::remove_all(options.durability_dir);
      durability_dir = options.durability_dir;
      options.durability_fsync = false;
      manager = std::make_unique<serve::SessionManager>(options,
                                                        TestTablePath());
      ASSERT_TRUE(manager->RecoverFromDisk().ok());
      serve::ServeAppOptions app_options;
      app_options.shard_name = shard_name;
      app = std::make_unique<serve::ServeApp>(manager.get(), app_options);
    }
    serve::HttpServerOptions server_options;
    server_options.port = port;
    server_options.worker_threads = 2;
    server = std::make_unique<serve::HttpServer>(
        server_options, [this](const HttpRequest& request) {
          return app->Handle(request);
        });
    ASSERT_TRUE(server->Start().ok());
  }

  /// Simulates a crash + restart: drops every piece of in-memory state
  /// and rebuilds strictly from the durability dir, on the same port.
  void Recover() {
    const int port = server->port();
    server->Stop();
    server.reset();
    app.reset();
    manager.reset();
    serve::SessionManagerOptions options;
    options.max_sessions = 16;
    options.session_ttl_seconds = 3600;
    options.durability_dir = durability_dir;
    options.durability_fsync = false;
    manager =
        std::make_unique<serve::SessionManager>(options, TestTablePath());
    ASSERT_TRUE(manager->RecoverFromDisk().ok());
    serve::ServeAppOptions app_options;
    app_options.shard_name = name;
    app = std::make_unique<serve::ServeApp>(manager.get(), app_options);
    serve::HttpServerOptions server_options;
    server_options.port = port;
    server_options.worker_threads = 2;
    server = std::make_unique<serve::HttpServer>(
        server_options, [this](const HttpRequest& request) {
          return app->Handle(request);
        });
    ASSERT_TRUE(server->Start().ok());
  }
};

class RouterTest : public ::testing::Test {
 protected:
  void StartCluster(size_t num_workers) {
    workers_.resize(num_workers);
    ClusterRouterOptions options;
    for (size_t i = 0; i < num_workers; ++i) {
      const std::string name = StrFormat("shard%zu", i);
      workers_[i] = std::make_unique<Worker>();
      workers_[i]->Start(name);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      options.shards.push_back(
          {name, "127.0.0.1", workers_[i]->server->port()});
    }
    options.probe_interval_seconds = 0.0;  // tests drive ProbeNow()
    options.eject_after = 2;
    options.forward_attempts = 8;  // create re-placement under ejection
    options.retry_backoff_seconds = 0.01;
    options.forward_timeout_seconds = 5.0;
    options.migrate_hold_seconds = 5.0;
    router_ = std::make_unique<ClusterRouter>(options);
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& worker : workers_) {
      if (worker != nullptr && worker->server != nullptr) {
        worker->server->Stop();
      }
    }
  }

  Worker& WorkerNamed(const std::string& name) {
    for (auto& worker : workers_) {
      if (worker->name == name) return *worker;
    }
    ADD_FAILURE() << "no worker " << name;
    return *workers_[0];
  }

  /// Creates a session through the router; returns its id.
  std::string CreateSession() {
    HttpResponse created =
        router_->Handle(Req("POST", "/sessions", "{\"k\":3,\"seed\":5}"));
    EXPECT_EQ(created.status, 201) << created.body;
    auto parsed = serve::JsonValue::Parse(created.body);
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? parsed->GetString("id", "") : "";
  }

  /// Labels `n` next-views through the router; expects every ack.
  void LabelSome(const std::string& id, int n) {
    for (int i = 0; i < n; ++i) {
      HttpResponse next =
          router_->Handle(Req("GET", "/sessions/" + id + "/next"));
      ASSERT_EQ(next.status, 200) << next.body;
      auto parsed = serve::JsonValue::Parse(next.body);
      ASSERT_TRUE(parsed.ok());
      const serve::JsonValue* views = parsed->Find("views");
      ASSERT_NE(views, nullptr);
      ASSERT_FALSE(views->array().empty());
      const double view = views->array()[0].GetNumber("view", -1);
      ASSERT_GE(view, 0);
      HttpResponse labeled = router_->Handle(
          Req("POST", "/sessions/" + id + "/label",
              StrFormat("{\"view\":%.0f,\"label\":%d}", view, i % 2)));
      ASSERT_EQ(labeled.status, 200) << labeled.body;
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ClusterRouter> router_;
};

TEST(RouterStartTest, ValidatesShardList) {
  {
    ClusterRouter router(ClusterRouterOptions{});
    EXPECT_TRUE(router.Start().IsInvalidArgument());
  }
  {
    ClusterRouterOptions options;
    options.shards = {{"a", "127.0.0.1", 1}, {"a", "127.0.0.1", 2}};
    options.probe_interval_seconds = 0.0;
    ClusterRouter router(options);
    EXPECT_FALSE(router.Start().ok());
  }
  {
    ClusterRouterOptions options;
    options.shards = {{"bad name!", "127.0.0.1", 1}};
    options.probe_interval_seconds = 0.0;
    ClusterRouter router(options);
    EXPECT_TRUE(router.Start().IsInvalidArgument());
  }
  {
    ClusterRouterOptions options;
    options.shards = {{"a", "127.0.0.1", 0}};
    options.probe_interval_seconds = 0.0;
    ClusterRouter router(options);
    EXPECT_TRUE(router.Start().IsInvalidArgument());
  }
}

TEST_F(RouterTest, CreatePlacesByRingAndStampsHeaders) {
  StartCluster(2);
  HttpResponse created = router_->Handle(
      Req("POST", "/sessions", "{\"k\":3,\"seed\":5}"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id =
      serve::JsonValue::Parse(created.body)->GetString("id", "");
  ASSERT_FALSE(id.empty());

  const std::string* shard = Header(created, "X-Shard");
  ASSERT_NE(shard, nullptr);
  auto owner = router_->ShardForSession(id);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*shard, *owner);
  // The session exists on exactly the worker the ring names.
  for (auto& worker : workers_) {
    EXPECT_EQ(worker->manager->Info(id).ok(), worker->name == *owner);
  }
  // The worker's stage breakdown reaches the client through a routed
  // create, as it does through every other forwarded request.
  const std::string* stages = Header(created, "X-Request-Stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("session_manager.create"), std::string::npos)
      << *stages;
  // Router-generated ids get a rt- request id; client ids pass through.
  EXPECT_NE(Header(created, "X-Request-Id"), nullptr);
  HttpRequest with_id = Req("GET", "/sessions/" + id + "/topk");
  with_id.headers.emplace_back("x-request-id", "client-7");
  HttpResponse topk = router_->Handle(with_id);
  const std::string* echoed = Header(topk, "X-Request-Id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "client-7");
}

TEST_F(RouterTest, FullProtocolFlowsThroughOneShard) {
  StartCluster(3);
  const std::string id = CreateSession();
  ASSERT_FALSE(id.empty());
  const std::string owner = *router_->ShardForSession(id);

  LabelSome(id, 3);
  for (const char* endpoint : {"/next", "/topk", "/labels", ""}) {
    HttpResponse response = router_->Handle(
        Req("GET", "/sessions/" + id + std::string(endpoint)));
    EXPECT_EQ(response.status, 200) << endpoint << ": " << response.body;
    const std::string* shard = Header(response, "X-Shard");
    ASSERT_NE(shard, nullptr) << endpoint;
    EXPECT_EQ(*shard, owner) << endpoint;
  }
  HttpResponse deleted = router_->Handle(Req("DELETE", "/sessions/" + id));
  EXPECT_EQ(deleted.status, 200) << deleted.body;
  HttpResponse gone =
      router_->Handle(Req("GET", "/sessions/" + id + "/topk"));
  EXPECT_EQ(gone.status, 404);
}

TEST_F(RouterTest, UnknownRoutesAnswer404WithRequestId) {
  StartCluster(1);
  HttpResponse response = router_->Handle(Req("GET", "/no/such/route"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(Header(response, "X-Request-Id"), nullptr);
}

TEST_F(RouterTest, AggregatesHealthzMetricsStatusz) {
  StartCluster(2);
  CreateSession();

  HttpResponse healthz = router_->Handle(Req("GET", "/healthz"));
  ASSERT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos)
      << healthz.body;
  EXPECT_NE(healthz.body.find("\"name\":\"shard0\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"name\":\"shard1\""), std::string::npos);

  HttpResponse metrics = router_->Handle(Req("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("cluster_requests_forwarded"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_requests"), std::string::npos);
  // The merge must leave exactly one TYPE header per family even though
  // several expositions contributed it (duplicates fail promcheck).
  const std::string type_line = "# TYPE cluster_requests_forwarded counter";
  size_t first = metrics.body.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(metrics.body.find(type_line, first + 1), std::string::npos);

  HttpResponse statusz = router_->Handle(Req("GET", "/statusz"));
  ASSERT_EQ(statusz.status, 200);
  for (const char* field :
       {"\"role\":\"router\"", "\"ring_points\"", "\"migrations\"",
        "\"shards\"", "\"overrides\"", "\"ejected\":false"}) {
    EXPECT_NE(statusz.body.find(field), std::string::npos)
        << "statusz missing " << field << ": " << statusz.body;
  }
}

TEST_F(RouterTest, MigrationMovesSessionByteIdentically) {
  StartCluster(2);
  const std::string id = CreateSession();
  ASSERT_FALSE(id.empty());
  LabelSome(id, 4);
  const std::string from = *router_->ShardForSession(id);
  const std::string to = from == "shard0" ? "shard1" : "shard0";

  HttpResponse topk_before =
      router_->Handle(Req("GET", "/sessions/" + id + "/topk"));
  HttpResponse labels_before =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));
  ASSERT_EQ(topk_before.status, 200);

  HttpResponse migrated = router_->Handle(Req(
      "POST", "/admin/migrate",
      StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                to.c_str())));
  ASSERT_EQ(migrated.status, 200) << migrated.body;
  EXPECT_NE(migrated.body.find("\"migrated\":true"), std::string::npos);
  EXPECT_EQ(router_->migrations(), 1u);

  // Routing flipped; the data is byte-for-byte the same session.
  EXPECT_EQ(*router_->ShardForSession(id), to);
  HttpResponse topk_after =
      router_->Handle(Req("GET", "/sessions/" + id + "/topk"));
  HttpResponse labels_after =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));
  EXPECT_EQ(topk_after.status, 200);
  EXPECT_EQ(topk_after.body, topk_before.body);
  EXPECT_EQ(labels_after.body, labels_before.body);
  const std::string* shard = Header(topk_after, "X-Shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(*shard, to);

  // Exactly one copy: gone from the source worker, live on the target.
  EXPECT_FALSE(WorkerNamed(from).manager->Info(id).ok());
  EXPECT_TRUE(WorkerNamed(to).manager->Info(id).ok());

  // The migrated session keeps serving the full protocol.
  LabelSome(id, 1);

  // Migrating back to the ring-natural home clears the override.
  HttpResponse back = router_->Handle(Req(
      "POST", "/admin/migrate",
      StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                from.c_str())));
  ASSERT_EQ(back.status, 200) << back.body;
  EXPECT_EQ(*router_->ShardForSession(id), from);
  HttpResponse statusz = router_->Handle(Req("GET", "/statusz"));
  EXPECT_NE(statusz.body.find("\"overrides\":{}"), std::string::npos)
      << statusz.body;
}

TEST_F(RouterTest, MigrateValidatesInput) {
  StartCluster(2);
  const std::string id = CreateSession();
  const std::string owner = *router_->ShardForSession(id);

  HttpResponse no_body = router_->Handle(Req("POST", "/admin/migrate"));
  EXPECT_EQ(no_body.status, 400);
  HttpResponse bad_shard = router_->Handle(
      Req("POST", "/admin/migrate",
          StrFormat("{\"session\":\"%s\",\"to\":\"nope\"}", id.c_str())));
  EXPECT_EQ(bad_shard.status, 404);
  // A session no shard has: the export 404s and the migration aborts.
  const std::string ghost_home = *router_->ShardForSession("ghost");
  HttpResponse missing = router_->Handle(
      Req("POST", "/admin/migrate",
          StrFormat("{\"session\":\"ghost\",\"to\":\"%s\"}",
                    ghost_home == "shard0" ? "shard1" : "shard0")));
  EXPECT_EQ(missing.status, 404) << missing.body;
  HttpResponse same_place = router_->Handle(
      Req("POST", "/admin/migrate",
          StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                    owner.c_str())));
  EXPECT_EQ(same_place.status, 200);
  EXPECT_NE(same_place.body.find("\"migrated\":false"), std::string::npos);
  EXPECT_EQ(router_->migrations(), 0u);
  EXPECT_EQ(router_->migration_failures(), 1u);  // the ghost attempt
}

/// Export-side fault: the source worker cannot persist the envelope it
/// is about to hand out, so the migration aborts with the session fully
/// intact and still served from its original shard.
TEST_F(RouterTest, ExportFaultAbortsMigrationSessionStays) {
  StartCluster(2);
  const std::string id = CreateSession();
  LabelSome(id, 3);
  const std::string from = *router_->ShardForSession(id);
  const std::string to = from == "shard0" ? "shard1" : "shard0";
  HttpResponse labels_before =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));

  {
    fault::FaultInjector injector(11);
    fault::ScopedFaultInjector installed(&injector);
    injector.SetSchedule("snapshot.rename_fail", {1});  // export persist
    HttpResponse migrated = router_->Handle(Req(
        "POST", "/admin/migrate",
        StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                  to.c_str())));
    EXPECT_GE(migrated.status, 500) << migrated.body;
  }
  EXPECT_EQ(router_->migrations(), 0u);
  EXPECT_EQ(router_->migration_failures(), 1u);

  // Exactly one copy, on the source; every acked label recovered.
  EXPECT_TRUE(WorkerNamed(from).manager->Info(id).ok());
  EXPECT_FALSE(WorkerNamed(to).manager->Info(id).ok());
  EXPECT_EQ(*router_->ShardForSession(id), from);
  HttpResponse labels_after =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));
  EXPECT_EQ(labels_after.status, 200);
  EXPECT_EQ(labels_after.body, labels_before.body);
  // And the gate is released: the session keeps taking new labels.
  LabelSome(id, 1);
}

/// Import-side fault: the target cannot persist, unwinds completely, and
/// the router leaves routing pointed at the source — available on
/// exactly one shard throughout.
TEST_F(RouterTest, ImportFaultUnwindsTargetSessionStays) {
  StartCluster(2);
  const std::string id = CreateSession();
  LabelSome(id, 3);
  const std::string from = *router_->ShardForSession(id);
  const std::string to = from == "shard0" ? "shard1" : "shard0";
  HttpResponse labels_before =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));

  {
    fault::FaultInjector injector(11);
    fault::ScopedFaultInjector installed(&injector);
    // Hit 1 is the export-side persist (allowed); hit 2 is the target's
    // import persist — that one fails.
    injector.SetSchedule("snapshot.rename_fail", {2});
    HttpResponse migrated = router_->Handle(Req(
        "POST", "/admin/migrate",
        StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                  to.c_str())));
    EXPECT_GE(migrated.status, 500) << migrated.body;
  }
  EXPECT_EQ(router_->migrations(), 0u);
  EXPECT_EQ(router_->migration_failures(), 1u);
  EXPECT_TRUE(WorkerNamed(from).manager->Info(id).ok());
  EXPECT_FALSE(WorkerNamed(to).manager->Info(id).ok());
  EXPECT_EQ(*router_->ShardForSession(id), from);
  HttpResponse labels_after =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));
  EXPECT_EQ(labels_after.body, labels_before.body);
}

///// Durability faults on the label path: a failed WAL append falls back
/// to a full snapshot rotation, so killing only the journal still acks.
/// With both paths armed no durable route remains — the write must fail
/// loudly and previously acked labels stay: acked ⊆ recovered, under
/// the router.
TEST_F(RouterTest, WalFaultFailsNewLabelsKeepsAckedOnes) {
  StartCluster(2);
  const std::string id = CreateSession();
  LabelSome(id, 2);
  HttpResponse labels_before =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));

  {
    fault::FaultInjector injector(13);
    fault::ScopedFaultInjector installed(&injector);
    injector.SetProbability("wal.append_fail", 1.0);
    injector.SetProbability("snapshot.rename_fail", 1.0);
    HttpResponse labeled = router_->Handle(
        Req("POST", "/sessions/" + id + "/label",
            "{\"view\":99,\"label\":1}"));
    EXPECT_GE(labeled.status, 500) << labeled.body;
  }
  // The failed write is indeterminate in memory by design; durability is
  // the contract that matters.  Crash-restart the owner (in-memory state
  // dropped, recovery strictly from disk) and confirm exactly the acked
  // labels came back.
  Worker& owner = WorkerNamed(*router_->ShardForSession(id));
  owner.Recover();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  HttpResponse recovered =
      router_->Handle(Req("GET", "/sessions/" + id + "/labels"));
  EXPECT_EQ(recovered.status, 200);
  EXPECT_EQ(recovered.body, labels_before.body);
}

/// Concurrent reads during a migration never see a 5xx — they hold at
/// the router's session gate and complete after the flip.
TEST_F(RouterTest, NoServerErrorsDuringMigration) {
  StartCluster(2);
  const std::string id = CreateSession();
  LabelSome(id, 2);
  const std::string from = *router_->ShardForSession(id);
  const std::string to = from == "shard0" ? "shard1" : "shard0";

  std::atomic<bool> stop{false};
  std::atomic<int> bad_status{0};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      HttpResponse response =
          router_->Handle(Req("GET", "/sessions/" + id + "/topk"));
      ++reads;
      if (response.status != 200) {
        bad_status.store(response.status);
        return;
      }
    }
  });
  // Migrate only once the reader is running: a reader thread scheduled
  // after the whole migration would read nothing at all.
  while (reads.load() == 0 && bad_status.load() == 0) {
    std::this_thread::yield();
  }
  HttpResponse migrated = router_->Handle(Req(
      "POST", "/admin/migrate",
      StrFormat("{\"session\":\"%s\",\"to\":\"%s\"}", id.c_str(),
                to.c_str())));
  stop.store(true);
  reader.join();
  ASSERT_EQ(migrated.status, 200) << migrated.body;
  EXPECT_EQ(bad_status.load(), 0)
      << "reader saw HTTP " << bad_status.load() << " during migration";
  EXPECT_GT(reads.load(), 0u);
}

TEST_F(RouterTest, EjectionAndReadmissionCycle) {
  StartCluster(2);
  // Find (or mint) a session owned by shard1 so its loss is observable.
  std::string victim;
  for (int i = 0; i < 64 && victim.empty(); ++i) {
    const std::string id = CreateSession();
    if (*router_->ShardForSession(id) == "shard1") victim = id;
  }
  ASSERT_FALSE(victim.empty()) << "ring never placed a session on shard1";

  Worker& worker = WorkerNamed("shard1");
  const int port = worker.server->port();
  worker.server->Stop();
  // eject_after=2: the first miss is not an ejection, the second is.
  router_->ProbeNow();
  EXPECT_FALSE(router_->ShardEjected("shard1"));
  router_->ProbeNow();
  EXPECT_TRUE(router_->ShardEjected("shard1"));

  // Requests owned by the ejected shard answer 503 without a dial;
  // the healthy shard keeps serving; healthz degrades.
  HttpResponse rejected =
      router_->Handle(Req("GET", "/sessions/" + victim));
  EXPECT_EQ(rejected.status, 503) << rejected.body;
  HttpResponse healthz = router_->Handle(Req("GET", "/healthz"));
  EXPECT_NE(healthz.body.find("\"status\":\"degraded\""),
            std::string::npos)
      << healthz.body;
  HttpResponse statusz = router_->Handle(Req("GET", "/statusz"));
  EXPECT_NE(statusz.body.find("\"ejected\":true"), std::string::npos);

  // Restart the worker on the same port (sessions intact in memory —
  // same manager) and probe: first success re-admits.
  worker.Start("shard1", port);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  router_->ProbeNow();
  EXPECT_FALSE(router_->ShardEjected("shard1"));
  HttpResponse recovered =
      router_->Handle(Req("GET", "/sessions/" + victim));
  EXPECT_EQ(recovered.status, 200) << recovered.body;
}

}  // namespace
}  // namespace vs::cluster
