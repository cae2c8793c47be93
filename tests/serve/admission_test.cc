/// AIMD admission-control tests: limiter unit/property behaviour under a
/// FakeClock (convergence to min under congestion, additive growth to max
/// while constrained, cooldown collapsing a burst of signals into one
/// decrease), priority classes (critical traffic is never shed), and —
/// end-to-end — starve-freedom of the introspection endpoints while every
/// normal handler is stalled on the `serve.handler_stall` fault.

#include "serve/admission.h"

#include <atomic>
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
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

constexpr auto kNormal = AdmissionClass::kNormal;
constexpr auto kCritical = AdmissionClass::kCritical;

AdmissionOptions SmallLimiter(const FakeClock* clock) {
  AdmissionOptions options;
  options.initial_limit = 4.0;
  options.min_limit = 1.0;
  options.max_limit = 16.0;
  options.backoff_ratio = 0.7;
  options.backoff_cooldown_seconds = 0.1;
  options.clock = clock;
  return options;
}

TEST(AdmissionControllerTest, AdmitsUpToLimitThenSheds) {
  // Start the clock away from 0: last_backoff_us == 0 means "never".
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(controller.Acquire("next", kNormal).admitted);
  }
  EXPECT_FALSE(controller.Acquire("next", kNormal).admitted);
  for (int i = 0; i < 4; ++i) {
    controller.Release("next", kNormal, /*congested=*/false);
  }
  EXPECT_TRUE(controller.Acquire("next", kNormal).admitted);
}

TEST(AdmissionControllerTest, CriticalBypassesFullLimiter) {
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(controller.Acquire("label", kNormal).admitted);
  }
  ASSERT_FALSE(controller.Acquire("label", kNormal).admitted);
  EXPECT_TRUE(controller.Acquire("label", kCritical).admitted);
  controller.Release("label", kCritical, /*congested=*/true);
  // Critical completions never move the limit, congested or not.
  EXPECT_DOUBLE_EQ(controller.LimitFor("label"), 4.0);
}

TEST(AdmissionControllerTest, OnlyFillingTheLastSlotEarnsGrowth) {
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  // Three of four slots busy: admitted, but no evidence of demand, so
  // the uncongested completions leave the limit where it was.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(controller.Acquire("topk", kNormal).admitted);
  }
  for (int i = 0; i < 3; ++i) {
    controller.Release("topk", kNormal, /*congested=*/false);
  }
  EXPECT_DOUBLE_EQ(controller.LimitFor("topk"), 4.0);
  // The request that fills the last slot is admitted and marks the
  // endpoint constrained: the next clean completion probes upward.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(controller.Acquire("topk", kNormal).admitted);
  }
  controller.Release("topk", kNormal, /*congested=*/false);
  EXPECT_DOUBLE_EQ(controller.LimitFor("topk"), 4.25);
}

TEST(AdmissionControllerTest, CooldownCollapsesCongestionBurst) {
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  auto congested_round = [&] {
    ASSERT_TRUE(controller.Acquire("create_session", kNormal).admitted);
    controller.Release("create_session", kNormal, /*congested=*/true);
  };
  congested_round();
  EXPECT_NEAR(controller.LimitFor("create_session"), 2.8, 1e-9);
  // A second signal inside the cooldown window is the same overload
  // event — the limit must not take a second multiplicative cut.
  congested_round();
  EXPECT_NEAR(controller.LimitFor("create_session"), 2.8, 1e-9);
  clock.AdvanceSeconds(0.2);
  congested_round();
  EXPECT_NEAR(controller.LimitFor("create_session"), 1.96, 1e-9);
}

TEST(AdmissionControllerTest, ConvergesToMinUnderPersistentCongestion) {
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(controller.Acquire("next", kNormal).admitted);
    controller.Release("next", kNormal, /*congested=*/true);
    clock.AdvanceSeconds(0.2);
  }
  EXPECT_DOUBLE_EQ(controller.LimitFor("next"), 1.0);
  // The floor still serves: one request at a time keeps being admitted.
  EXPECT_TRUE(controller.Acquire("next", kNormal).admitted);
}

TEST(AdmissionControllerTest, GrowsToMaxWhileConstrained) {
  FakeClock clock(1'000'000);
  AdmissionOptions options = SmallLimiter(&clock);
  options.initial_limit = 2.0;
  options.max_limit = 4.0;
  AdmissionController controller(options);
  // Run at the limit once so the controller has evidence of demand.
  ASSERT_TRUE(controller.Acquire("next", kNormal).admitted);
  ASSERT_TRUE(controller.Acquire("next", kNormal).admitted);
  controller.Release("next", kNormal, /*congested=*/false);
  controller.Release("next", kNormal, /*congested=*/false);
  EXPECT_GT(controller.LimitFor("next"), 2.0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(controller.Acquire("next", kNormal).admitted);
    controller.Release("next", kNormal, /*congested=*/false);
  }
  EXPECT_DOUBLE_EQ(controller.LimitFor("next"), 4.0);
}

TEST(AdmissionControllerTest, IdleEndpointDoesNotProbeUpward) {
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  ASSERT_TRUE(controller.Acquire("next", kNormal).admitted);
  controller.Release("next", kNormal, /*congested=*/false);
  // Never ran at the limit: no evidence of headroom, no growth.
  EXPECT_DOUBLE_EQ(controller.LimitFor("next"), 4.0);
}

TEST(AdmissionControllerTest, ForceShedFaultSpareCritical) {
  fault::FaultInjector injector(1);
  injector.SetProbability("admission.force_shed", 1.0);
  fault::ScopedFaultInjector scoped(&injector);
  FakeClock clock(1'000'000);
  AdmissionController controller(SmallLimiter(&clock));
  EXPECT_FALSE(controller.Acquire("next", kNormal).admitted);
  EXPECT_TRUE(controller.Acquire("label", kCritical).admitted);
  auto snapshot = controller.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[1].endpoint, "next");
  EXPECT_EQ(snapshot[1].shed, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: the limiter in front of a real serving stack.

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 300;
    options.seed = 17;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_admission_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

class AdmissionServerTest : public ::testing::Test {
 protected:
  void StartStack() {
    SessionManagerOptions manager_options;
    manager_options.max_sessions = 16;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    ServeAppOptions app_options;
    app_options.admission_enabled = true;
    app_ = std::make_unique<ServeApp>(manager_.get(), app_options);
    HttpServerOptions server_options;
    server_options.port = 0;
    // Enough transport threads that stalled handlers (plus the kept-alive
    // setup connection) cannot exhaust the pool — this suite is about the
    // admission layer, not transport capacity.
    server_options.worker_threads = 8;
    server_ = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request) { return app_->Handle(request); });
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Installs the fixture's fault injector for the rest of the test.
  /// Server threads call InjectFault until the server stops, so TearDown
  /// stops the server before it uninstalls the injector.
  fault::FaultInjector& ArmFaults() {
    scoped_ = std::make_unique<fault::ScopedFaultInjector>(&injector_);
    return injector_;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    scoped_.reset();
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
  fault::FaultInjector injector_{1};
  std::unique_ptr<fault::ScopedFaultInjector> scoped_;
};

TEST_F(AdmissionServerTest, ShedAnswers429ButLabelAcksSurvive) {
  StartStack();
  HttpClient client = Client();
  auto created = client.Request("POST", "/sessions", "{\"k\":3}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string id =
      JsonValue::Parse(created->body)->GetString("id", "");
  auto next = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->status, 200) << next->body;
  const int64_t view = JsonValue::Parse(next->body)
                           ->Find("views")
                           ->array()[0]
                           .GetInt("view", -1);
  ASSERT_GE(view, 0);

  ArmFaults().SetProbability("admission.force_shed", 1.0);

  // Normal traffic is shed with 429 + Retry-After (the client's signal
  // to pace itself, honored by HttpClient's retry loop)...
  auto shed = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429);
  auto parsed = JsonValue::Parse(shed->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("error")->GetString("code", ""),
            "ResourceExhausted");
  ASSERT_NE(shed->FindHeader("retry-after"), nullptr);

  // ...while label acks (user state) and introspection pass untouched.
  auto labeled = client.Request("POST", "/sessions/" + id + "/label",
                                "{\"view\":" + std::to_string(view) +
                                    ",\"label\":1}");
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ(labeled->status, 200) << labeled->body;
  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
}

TEST_F(AdmissionServerTest, IntrospectionNeverStarvesBehindStalledHandlers) {
  StartStack();
  HttpClient setup = Client();
  auto created = setup.Request("POST", "/sessions", "{\"k\":3}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string id =
      JsonValue::Parse(created->body)->GetString("id", "");

  fault::FaultInjector& injector = ArmFaults();
  injector.SetProbability("serve.handler_stall", 1.0);

  // Three session requests freeze inside the dispatch wrapper...
  std::atomic<int> finished{0};
  std::vector<std::thread> stuck;
  for (int i = 0; i < 3; ++i) {
    stuck.emplace_back([this, &id, &finished] {
      HttpClient client = Client();
      auto response = client.Request("GET", "/sessions/" + id + "/next");
      EXPECT_TRUE(response.ok());
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(finished.load(), 0);  // genuinely stalled

  // ...and the introspection plane still answers promptly: the stall
  // point exempts it and the limiter never sheds critical traffic.
  HttpClient probe = Client();
  auto health = probe.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  auto statusz = probe.Request("GET", "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);

  injector.Clear("serve.handler_stall");
  for (auto& thread : stuck) thread.join();
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace vs::serve
