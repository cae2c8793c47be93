/// Deadline-propagation tests: the hop-decrement arithmetic, the serve
/// layer's expired-in-queue fast 504 and budget echo, the router's
/// decrement-and-forward (observable through the worker's
/// X-Deadline-Budget-Ms echo), and refinement batches stopping inside a
/// work-unit or wall-clock budget.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/core_test_util.h"
#include "cluster/router_app.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/refinement.h"
#include "data/generator.h"
#include "data/io.h"
#include "serve/app.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"

namespace vs::serve {
namespace {

TEST(DecrementedDeadlineTest, HopDecrementArithmetic) {
  using cluster::DecrementedDeadlineMs;
  EXPECT_DOUBLE_EQ(DecrementedDeadlineMs(100.0, 30.0), 70.0);
  // A spent budget clamps to zero, never negative.
  EXPECT_DOUBLE_EQ(DecrementedDeadlineMs(100.0, 250.0), 0.0);
  EXPECT_DOUBLE_EQ(DecrementedDeadlineMs(100.0, 100.0), 0.0);
  // "No deadline" (0) stays no-deadline regardless of elapsed time.
  EXPECT_DOUBLE_EQ(DecrementedDeadlineMs(0.0, 50.0), 0.0);
  // Clock skew cannot mint budget.
  EXPECT_DOUBLE_EQ(DecrementedDeadlineMs(100.0, -5.0), 100.0);
}

TEST(DeadlineTest, RefinementStopsInsideUnitBudget) {
  // A work-unit budget binds deterministically: three rows' worth of
  // units refines exactly three rows.
  auto world = core::testutil::MakeMiniWorld(0.3);
  core::IncrementalRefiner refiner(world.matrix.get());
  const int64_t cost = world.matrix->RefineCostPerRow();
  Deadline deadline = Deadline::AfterUnits(3 * cost);
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 3);
  EXPECT_FALSE(refiner.AllExact());
}

TEST(DeadlineTest, ExpiredWallBudgetRefinesNothing) {
  auto world = core::testutil::MakeMiniWorld(0.3);
  core::IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::AfterSeconds(-1.0);
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 0);
}

// ---------------------------------------------------------------------------
// Serve layer: X-Deadline-Ms in, fast 504 or budget echo out.

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 300;
    options.seed = 19;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_deadline_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

HttpRequest Req(std::string method, const std::string& target,
                std::string body = "", std::string deadline_ms = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = target;
  const size_t q = target.find('?');
  request.path = q == std::string::npos ? target : target.substr(0, q);
  request.query = q == std::string::npos ? "" : target.substr(q + 1);
  request.body = std::move(body);
  if (!deadline_ms.empty()) {
    request.headers.emplace_back("x-deadline-ms", std::move(deadline_ms));
  }
  return request;
}

const std::string* Header(const HttpResponse& response,
                          const std::string& name) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

class DeadlineServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SessionManagerOptions manager_options;
    manager_options.max_sessions = 16;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    app_ = std::make_unique<ServeApp>(manager_.get());
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
};

TEST_F(DeadlineServeTest, GenerousDeadlineEchoesRemainingBudget) {
  HttpResponse created =
      app_->Handle(Req("POST", "/sessions", "{\"k\":3}", "60000"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string* echoed = Header(created, "X-Deadline-Budget-Ms");
  ASSERT_NE(echoed, nullptr);
  const double budget = ParseDouble(*echoed).ValueOr(-1.0);
  EXPECT_GT(budget, 0.0);
  EXPECT_LE(budget, 60000.0);
}

TEST_F(DeadlineServeTest, ExpiredInQueueFailsFastWith504) {
  // 1 microsecond of budget (the smallest representable deadline):
  // expired before the handler runs, so the request dies in the dispatch
  // wrapper without touching the engine.
  HttpResponse response =
      app_->Handle(Req("POST", "/sessions", "{\"k\":3}", "0.001"));
  ASSERT_EQ(response.status, 504) << response.body;
  auto parsed = JsonValue::Parse(response.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "TimedOut");
  EXPECT_EQ(manager_->active_sessions(), 0u);
}

TEST_F(DeadlineServeTest, UndeadlinedRequestsCarryNoBudgetHeader) {
  HttpResponse created = app_->Handle(Req("POST", "/sessions", "{\"k\":3}"));
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_EQ(Header(created, "X-Deadline-Budget-Ms"), nullptr);
}

// ---------------------------------------------------------------------------
// Router: decrements the budget across the hop and fast-fails expired
// requests without dialing a worker.

class DeadlineRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SessionManagerOptions manager_options;
    manager_options.max_sessions = 16;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    ServeAppOptions app_options;
    app_options.shard_name = "shard0";
    app_ = std::make_unique<ServeApp>(manager_.get(), app_options);
    HttpServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request) { return app_->Handle(request); });
    ASSERT_TRUE(server_->Start().ok());
    cluster::ClusterRouterOptions options;
    options.shards.push_back({"shard0", "127.0.0.1", server_->port()});
    options.probe_interval_seconds = 0.0;
    router_ = std::make_unique<cluster::ClusterRouter>(options);
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<cluster::ClusterRouter> router_;
};

TEST_F(DeadlineRouterTest, DecrementsDeadlineAcrossTheHop) {
  HttpResponse created =
      router_->Handle(Req("POST", "/sessions", "{\"k\":3}", "60000"));
  ASSERT_EQ(created.status, 201) << created.body;
  // The worker echoes the deadline it received; strictly less than what
  // the client sent proves the router charged its own elapsed time.
  const std::string* echoed = Header(created, "X-Deadline-Budget-Ms");
  ASSERT_NE(echoed, nullptr);
  const double forwarded = ParseDouble(*echoed).ValueOr(-1.0);
  EXPECT_GT(forwarded, 0.0);
  EXPECT_LT(forwarded, 60000.0);
}

TEST_F(DeadlineRouterTest, ExpiredBudgetNeverDialsAWorker) {
  HttpResponse created = router_->Handle(Req("POST", "/sessions", "{\"k\":3}"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id =
      JsonValue::Parse(created.body)->GetString("id", "");
  ASSERT_FALSE(id.empty());

  HttpResponse expired = router_->Handle(
      Req("GET", "/sessions/" + id + "/next", "", "0.001"));
  ASSERT_EQ(expired.status, 504) << expired.body;
  auto parsed = JsonValue::Parse(expired.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "TimedOut");
  EXPECT_GE(router_->deadline_rejects(), 1u);

  HttpResponse expired_create =
      router_->Handle(Req("POST", "/sessions", "{\"k\":3}", "0.001"));
  EXPECT_EQ(expired_create.status, 504) << expired_create.body;
  // Only the first, undeadlined create reached the worker.
  EXPECT_EQ(manager_->active_sessions(), 1u);
}

}  // namespace
}  // namespace vs::serve
