#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "data/generator.h"
#include "data/io.h"
#include "serve/app.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/session_manager.h"

namespace vs::serve {
namespace {

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 11;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_http_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

/// A full serving stack on an ephemeral port, torn down with the fixture.
class ServerTest : public ::testing::Test {
 protected:
  void StartStack(SessionManagerOptions manager_options =
                      SessionManagerOptions(),
                  HttpServerOptions server_options = HttpServerOptions()) {
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    app_ = std::make_unique<ServeApp>(manager_.get());
    server_options.port = 0;  // ephemeral
    server_ = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request) { return app_->Handle(request); });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  std::string CreateSession(HttpClient& client) {
    auto response = client.Request("POST", "/sessions", "{\"k\":3}");
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response->status, 201);
    auto body = JsonValue::Parse(response->body);
    EXPECT_TRUE(body.ok());
    return body->GetString("id", "");
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, HealthzAndMetricsRespond) {
  StartStack();
  HttpClient client = Client();
  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  auto parsed = JsonValue::Parse(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("status", ""), "ok");

  auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  const std::string* type = metrics->FindHeader("content-type");
  ASSERT_NE(type, nullptr);
  EXPECT_NE(type->find("text/plain"), std::string::npos);
}

TEST_F(ServerTest, FullSessionLifecycleOverHttp) {
  StartStack();
  HttpClient client = Client();
  const std::string id = CreateSession(client);
  ASSERT_FALSE(id.empty());

  for (int i = 0; i < 4; ++i) {
    auto next = client.Request("GET", "/sessions/" + id + "/next");
    ASSERT_TRUE(next.ok());
    ASSERT_EQ(next->status, 200) << next->body;
    auto body = JsonValue::Parse(next->body);
    ASSERT_TRUE(body.ok());
    const JsonValue* views = body->Find("views");
    ASSERT_NE(views, nullptr);
    ASSERT_FALSE(views->array().empty());
    const int64_t view = views->array()[0].GetInt("view", -1);
    ASSERT_GE(view, 0);
    auto labeled = client.Request(
        "POST", "/sessions/" + id + "/label",
        "{\"view\":" + std::to_string(view) +
            ",\"label\":" + (i % 2 == 0 ? "1" : "0") + "}");
    ASSERT_TRUE(labeled.ok());
    EXPECT_EQ(labeled->status, 200) << labeled->body;
  }

  auto info = client.Request("GET", "/sessions/" + id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(JsonValue::Parse(info->body)->GetInt("num_labeled", -1), 4);

  auto topk = client.Request("GET", "/sessions/" + id + "/topk?lambda=0.3");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->status, 200) << topk->body;
  auto topk_body = JsonValue::Parse(topk->body);
  ASSERT_TRUE(topk_body.ok());
  EXPECT_EQ(topk_body->Find("views")->array().size(), 3u);

  auto deleted = client.Request("DELETE", "/sessions/" + id);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status, 200);
  auto gone = client.Request("GET", "/sessions/" + id);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status, 404);
}

TEST_F(ServerTest, ProtocolErrorsAreTyped) {
  StartStack();
  HttpClient client = Client();

  auto unknown = client.Request("GET", "/nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  auto wrong_method = client.Request("PATCH", "/sessions");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto bad_json = client.Request("POST", "/sessions", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);

  auto bad_k = client.Request("POST", "/sessions", "{\"k\":-2}");
  ASSERT_TRUE(bad_k.ok());
  EXPECT_EQ(bad_k->status, 400);

  const std::string id = CreateSession(client);
  auto bad_label = client.Request("POST", "/sessions/" + id + "/label",
                                  "{\"view\":0}");
  ASSERT_TRUE(bad_label.ok());
  EXPECT_EQ(bad_label->status, 400);  // label field missing

  // Out-of-range and fractional view indices must be rejected, never cast.
  auto huge_view = client.Request("POST", "/sessions/" + id + "/label",
                                  "{\"view\":1e300,\"label\":1}");
  ASSERT_TRUE(huge_view.ok());
  EXPECT_EQ(huge_view->status, 400);
  auto frac_view = client.Request("POST", "/sessions/" + id + "/label",
                                  "{\"view\":1.5,\"label\":1}");
  ASSERT_TRUE(frac_view.ok());
  EXPECT_EQ(frac_view->status, 400);

  // An unconvertible k falls back to the default rather than invoking UB;
  // the create succeeds with the default k.
  auto huge_k = client.Request("POST", "/sessions", "{\"k\":1e300}");
  ASSERT_TRUE(huge_k.ok());
  EXPECT_EQ(huge_k->status, 201);

  auto bad_lambda =
      client.Request("GET", "/sessions/" + id + "/topk?lambda=7");
  ASSERT_TRUE(bad_lambda.ok());
  EXPECT_EQ(bad_lambda->status, 400);
}

TEST_F(ServerTest, MalformedRequestLineGets400AndClose) {
  StartStack();
  HttpClient client = Client();
  auto raw = client.RawExchange("THIS IS NOT HTTP\r\n\r\n");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(raw->find("Connection: close"), std::string::npos);
}

TEST_F(ServerTest, UnsupportedVersionGets505) {
  StartStack();
  HttpClient client = Client();
  auto raw = client.RawExchange("GET /healthz HTTP/2.0\r\n\r\n");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("HTTP/1.1 505"), std::string::npos);
}

TEST_F(ServerTest, OversizedBodyGets413) {
  HttpServerOptions server_options;
  server_options.limits.max_body_bytes = 64;
  StartStack(SessionManagerOptions(), server_options);
  HttpClient client = Client();
  const std::string big(256, 'x');
  auto response = client.Request("POST", "/sessions", big);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartStack();
  HttpClient client = Client();
  for (int i = 0; i < 20; ++i) {
    auto response = client.Request("GET", "/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  // All 20 rode one TCP connection.
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(ServerTest, ConcurrentLabelSubmissionsAllLand) {
  StartStack();
  HttpClient setup = Client();
  const std::string id = CreateSession(setup);
  ASSERT_FALSE(id.empty());

  // 8 clients label 5 distinct views each; per-session locking must
  // serialize them without losing or double-counting any.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &id, t, &ok_count] {
      HttpClient client = Client();
      for (int i = 0; i < kPerThread; ++i) {
        const int view = t * kPerThread + i;
        auto response = client.Request(
            "POST", "/sessions/" + id + "/label",
            "{\"view\":" + std::to_string(view) + ",\"label\":1}");
        if (response.ok() && response->status == 200) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);

  auto info = setup.Request("GET", "/sessions/" + id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(JsonValue::Parse(info->body)->GetInt("num_labeled", -1),
            kThreads * kPerThread);
}

TEST_F(ServerTest, SessionCapMapsTo429) {
  SessionManagerOptions manager_options;
  manager_options.max_sessions = 1;
  StartStack(manager_options);
  HttpClient client = Client();
  ASSERT_FALSE(CreateSession(client).empty());
  auto overflow = client.Request("POST", "/sessions", "{\"k\":3}");
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(overflow->status, 429);
  auto body = JsonValue::Parse(overflow->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("error")->GetString("code", ""),
            "ResourceExhausted");
}

TEST_F(ServerTest, TtlEvictionRestoresTransparently) {
  // The injected FakeClock replaces the old wall-clock dance (a tight TTL,
  // StartReaper, and a sleep-poll loop): idle time only passes when the
  // test advances it, so the eviction is deterministic and instant.
  FakeClock clock;
  SessionManagerOptions manager_options;
  manager_options.session_ttl_seconds = 60.0;
  manager_options.durability_dir = ::testing::TempDir() + "serve_http_durable";
  std::filesystem::remove_all(manager_options.durability_dir);
  manager_options.durability_fsync = false;
  manager_options.clock = &clock;
  StartStack(manager_options);

  HttpClient client = Client();
  const std::string id = CreateSession(client);
  ASSERT_FALSE(id.empty());
  auto next = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(next.ok());
  const int64_t view =
      JsonValue::Parse(next->body)->Find("views")->array()[0].GetInt("view",
                                                                     -1);
  ASSERT_TRUE(client
                  .Request("POST", "/sessions/" + id + "/label",
                           "{\"view\":" + std::to_string(view) +
                               ",\"label\":1}")
                  .ok());

  // The session ages past its TTL and the next sweep snapshots it out of
  // memory.
  clock.AdvanceSeconds(manager_options.session_ttl_seconds + 1);
  EXPECT_EQ(manager_->EvictIdleOlderThan(
                manager_options.session_ttl_seconds),
            1u);
  EXPECT_EQ(manager_->active_sessions(), 0u);
  EXPECT_EQ(manager_->evicted_sessions(), 1u);

  // The id keeps working: the session is restored with its label intact.
  auto info = client.Request("GET", "/sessions/" + id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->status, 200) << info->body;
  EXPECT_EQ(JsonValue::Parse(info->body)->GetInt("num_labeled", -1), 1);
}

TEST_F(ServerTest, StopIsGracefulAndIdempotent) {
  StartStack();
  HttpClient client = Client();
  ASSERT_TRUE(client.Request("GET", "/healthz").ok());
  server_->Stop();
  server_->Stop();  // idempotent
  // A fresh connection must now be refused.
  HttpClient late("127.0.0.1", server_->port(), /*timeout_seconds=*/1.0);
  EXPECT_FALSE(late.Request("GET", "/healthz").ok());
}

}  // namespace
}  // namespace vs::serve
