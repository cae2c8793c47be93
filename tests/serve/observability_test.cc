/// End-to-end request-scoped observability over the real HTTP stack: a
/// request with a known X-Request-Id is traceable in the response
/// headers, in its wide event's stage breakdown, and — during a
/// fault-injected stall — in the /statusz in-flight table.

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "serve/app.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 23;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_obs_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

/// Full stack with durability on (labels journal through the WAL) and a
/// capturing wide-event sink sampling every request.
class ObservabilityTest : public ::testing::Test {
 protected:
  void StartStack(ServeAppOptions app_options = DefaultAppOptions()) {
    SessionManagerOptions manager_options;
    manager_options.durability_dir =
        ::testing::TempDir() + "serve_obs_durability_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    manager_options.durability_fsync = false;  // speed; not under test
    // Rotate on every label so a traced label request spans the full
    // durability path (WAL append + snapshot) in one wide event.
    manager_options.snapshot_every_labels = 1;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    app_ = std::make_unique<ServeApp>(manager_.get(), app_options);
    HttpServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request) { return app_->Handle(request); });
    ASSERT_TRUE(server_->Start().ok());
  }

  static ServeAppOptions DefaultAppOptions() {
    ServeAppOptions options;
    options.wide_event_sink = &Sink();
    options.wide_event_sample = 1;  // every request
    options.slo_budget_ms = 1000.0;
    return options;
  }

  static obs::VectorEventSink& Sink() {
    static obs::VectorEventSink* sink = new obs::VectorEventSink;
    return *sink;
  }

  void SetUp() override { Sink().Clear(); }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  /// The wide event emitted for \p request_id, as JSON ("" when absent).
  static std::string WideEventFor(const std::string& request_id) {
    for (const obs::Event& event : Sink().events()) {
      const std::string json = event.ToJson();
      if (json.find("\"request_id\":\"" + request_id + "\"") !=
          std::string::npos) {
        return json;
      }
    }
    return "";
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
};

TEST(SanitizeRequestIdTest, AcceptsSafeIdsRejectsTheRest) {
  EXPECT_EQ(SanitizeRequestId("abc-123_X.y:z"), "abc-123_X.y:z");
  EXPECT_EQ(SanitizeRequestId(""), "");
  EXPECT_EQ(SanitizeRequestId("has space"), "");
  EXPECT_EQ(SanitizeRequestId("quote\"inject"), "");
  EXPECT_EQ(SanitizeRequestId("newline\ninject"), "");
  EXPECT_EQ(SanitizeRequestId(std::string(64, 'a')), std::string(64, 'a'));
  EXPECT_EQ(SanitizeRequestId(std::string(65, 'a')), "");
}

TEST_F(ObservabilityTest, KnownRequestIdTraceableEndToEnd) {
  StartStack();
  HttpClient client = Client();

  // Create carries a caller-chosen id; the response must echo it.
  auto created = client.Request("POST", "/sessions", "{\"k\":3}",
                                {{"X-Request-Id", "trace-create-1"}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string* echoed = created->FindHeader("x-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "trace-create-1");
  const std::string* stages = created->FindHeader("x-request-stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("http.dispatch="), std::string::npos) << *stages;
  const std::string id = JsonValue::Parse(created->body)->GetString("id", "");
  ASSERT_FALSE(id.empty());

  // The create's wide event carries the id plus >= 4 distinct stage
  // spans: transport dispatch, session creation, and the matrix-cache
  // lookup + leader build underneath it.
  const std::string create_event = WideEventFor("trace-create-1");
  ASSERT_FALSE(create_event.empty());
  EXPECT_NE(create_event.find("\"endpoint\":\"create_session\""),
            std::string::npos)
      << create_event;
  for (const char* stage :
       {"stage_us.http.dispatch", "stage_us.session_manager.create",
        "stage_us.fmcache.lookup", "stage_us.fmcache.build"}) {
    EXPECT_NE(create_event.find(stage), std::string::npos)
        << stage << " missing in " << create_event;
  }

  // A durable label: its wide event reaches down into the WAL append.
  auto next = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->status, 200) << next->body;
  const int64_t view =
      JsonValue::Parse(next->body)->Find("views")->array()[0].GetInt("view",
                                                                     -1);
  ASSERT_GE(view, 0);
  auto labeled = client.Request(
      "POST", "/sessions/" + id + "/label",
      "{\"view\":" + std::to_string(view) + ",\"label\":1}",
      {{"X-Request-Id", "trace-label-1"}});
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->status, 200) << labeled->body;
  ASSERT_NE(labeled->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*labeled->FindHeader("x-request-id"), "trace-label-1");

  // >= 4 distinct stage spans for one label: transport, session manager,
  // WAL append, and the cadence snapshot rotation.
  const std::string label_event = WideEventFor("trace-label-1");
  ASSERT_FALSE(label_event.empty());
  for (const char* stage :
       {"stage_us.http.dispatch", "stage_us.session_manager.label",
        "stage_us.durability.wal_append", "stage_us.durability.snapshot"}) {
    EXPECT_NE(label_event.find(stage), std::string::npos)
        << stage << " missing in " << label_event;
  }
}

/// Parses `stage=us;stage=us` (X-Request-Stages) into (stage, us) pairs in
/// header order, which is first-completion order.
std::vector<std::pair<std::string, int64_t>> ParseStages(
    const std::string& header) {
  std::vector<std::pair<std::string, int64_t>> out;
  size_t pos = 0;
  while (pos < header.size()) {
    size_t end = header.find(';', pos);
    if (end == std::string::npos) end = header.size();
    const std::string item = header.substr(pos, end - pos);
    const size_t eq = item.find('=');
    if (eq != std::string::npos) {
      out.emplace_back(item.substr(0, eq), std::stoll(item.substr(eq + 1)));
    }
    pos = end + 1;
  }
  return out;
}

TEST_F(ObservabilityTest, CreateBreakdownReachesIntoTheEngine) {
  StartStack();
  HttpClient client = Client();
  auto created = client.Request("POST", "/sessions", "{\"k\":3}",
                                {{"X-Request-Id", "engine-create-1"}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string* header = created->FindHeader("x-request-stages");
  ASSERT_NE(header, nullptr);
  const auto stages = ParseStages(*header);
  std::map<std::string, size_t> position;
  std::map<std::string, int64_t> micros;
  for (size_t i = 0; i < stages.size(); ++i) {
    position.emplace(stages[i].first, i);
    micros[stages[i].first] += stages[i].second;
  }
  const std::vector<std::string> chain = {
      "core.build", "fmcache.build", "fmcache.lookup",
      "session_manager.create", "http.dispatch"};
  const std::vector<std::string> phases = {
      "core.build.gather", "core.build.groups", "core.build.features"};
  for (const std::vector<std::string>* names : {&chain, &phases}) {
    for (const std::string& name : *names) {
      ASSERT_EQ(position.count(name), 1u) << name << " missing in " << *header;
    }
  }
  // Nesting: an inner stage completes before, and lasts no longer than,
  // the one containing it.
  for (const std::string& phase : phases) {
    EXPECT_LT(position[phase], position["core.build"]) << *header;
    EXPECT_LE(micros[phase], micros["core.build"]) << *header;
  }
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_LT(position[chain[i]], position[chain[i + 1]]) << *header;
    EXPECT_LE(micros[chain[i]], micros[chain[i + 1]]) << *header;
  }

  const std::string event = WideEventFor("engine-create-1");
  ASSERT_FALSE(event.empty());
  for (const char* stage :
       {"stage_us.http.dispatch", "stage_us.session_manager.create",
        "stage_us.fmcache.lookup", "stage_us.fmcache.build",
        "stage_us.core.build", "stage_us.core.build.gather",
        "stage_us.core.build.groups", "stage_us.core.build.features"}) {
    EXPECT_NE(event.find(stage), std::string::npos)
        << stage << " missing in " << event;
  }

  auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  for (const char* family :
       {"serve_stage_seconds_core_build_count",
        "serve_stage_seconds_core_build_gather_count",
        "serve_stage_seconds_core_build_groups_count",
        "serve_stage_seconds_core_build_features_count"}) {
    EXPECT_NE(metrics->body.find(family), std::string::npos) << family;
  }
}

TEST_F(ObservabilityTest, TracedCreateRecordsEachScopeOnce) {
  StartStack();
  // Engine spans record into the process ring; turn it on for this one
  // request only.
  obs::TraceCollector& ring = obs::TraceCollector::Default();
  ring.Clear();
  ring.set_enabled(true);
  auto created = Client().Request("POST", "/sessions", "{\"k\":3}");
  ring.set_enabled(false);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  std::map<std::string, int> count;
  for (const obs::TraceEvent& event : ring.Snapshot()) ++count[event.name];
  ring.Clear();
  for (const char* name :
       {"http.dispatch", "session_manager.create", "fmcache.lookup",
        "fmcache.build", "core.build", "core.build.gather",
        "core.build.groups", "core.build.features"}) {
    EXPECT_EQ(count[name], 1) << name;
  }
  // One span per scope: no second name for the request or the create.
  for (const char* name :
       {"serve.request", "serve.session_create", "FeatureMatrix::Build"}) {
    EXPECT_EQ(count.count(name), 0u) << name;
  }
}

TEST_F(ObservabilityTest, ErrorResponsesEchoTheRequestId) {
  StartStack();
  HttpClient client = Client();

  // Routed handler error (unknown session -> 404).
  auto missing = client.Request("GET", "/sessions/nope", "",
                                {{"X-Request-Id", "trace-err-1"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  ASSERT_NE(missing->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*missing->FindHeader("x-request-id"), "trace-err-1");

  // Unmatched route -> 404 with the id still attached.
  auto unmatched = client.Request("GET", "/no/such/route", "",
                                  {{"X-Request-Id", "trace-err-2"}});
  ASSERT_TRUE(unmatched.ok());
  EXPECT_EQ(unmatched->status, 404);
  ASSERT_NE(unmatched->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*unmatched->FindHeader("x-request-id"), "trace-err-2");

  // An unusable id is replaced, not reflected verbatim.
  auto bad = client.Request("GET", "/healthz", "",
                            {{"X-Request-Id", "bad id with spaces"}});
  ASSERT_TRUE(bad.ok());
  const std::string* assigned = bad->FindHeader("x-request-id");
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->compare(0, 4, "req-"), 0) << *assigned;
}

TEST_F(ObservabilityTest, GeneratedIdsAreAssignedWithoutHeader) {
  StartStack();
  HttpClient client = Client();
  auto response = client.Request("GET", "/healthz");
  ASSERT_TRUE(response.ok());
  const std::string* id = response->FindHeader("x-request-id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->compare(0, 4, "req-"), 0) << *id;
}

TEST_F(ObservabilityTest, StatuszShowsStalledRequestInFlight) {
  StartStack();

  fault::FaultInjector injector(7);
  injector.SetProbability("serve.handler_stall", 1.0);
  fault::ScopedFaultInjector scoped(&injector);

  // The stalled request: parks in the dispatch wrapper until the fault
  // is cleared, then resolves normally (404 for the unknown session).
  std::thread stalled([this] {
    HttpClient client = Client();
    auto response = client.Request("GET", "/sessions/zzz/next", "",
                                   {{"X-Request-Id", "stall-1"}});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 404);
    ASSERT_NE(response->FindHeader("x-request-id"), nullptr);
    EXPECT_EQ(*response->FindHeader("x-request-id"), "stall-1");
  });

  // /statusz (never stalled) must list the request by id, attributed to
  // its endpoint, while it is still parked.  The request is listed from
  // the moment it enters the app, with endpoint "-" until its route is
  // resolved, so poll until the row carries the endpoint.
  HttpClient prober = Client();
  std::string statusz;
  Stopwatch deadline;
  bool seen = false;
  while (deadline.ElapsedSeconds() < 10.0) {
    auto response = prober.Request("GET", "/statusz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    statusz = response->body;
    if (statusz.find("\"id\":\"stall-1\",\"endpoint\":\"next\"") !=
        std::string::npos) {
      seen = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  injector.Clear("serve.handler_stall");
  stalled.join();

  ASSERT_TRUE(seen) << statusz;
  EXPECT_NE(statusz.find("\"endpoint\":\"next\""), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"stage\":\"http.dispatch\""), std::string::npos)
      << statusz;
  // Once released, the in-flight table drains again.
  auto after = prober.Request("GET", "/statusz");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body.find("\"id\":\"stall-1\""), std::string::npos);
}

TEST_F(ObservabilityTest, StatuszRendersIntrospectionSections) {
  StartStack();
  HttpClient client = Client();
  auto response = client.Request("GET", "/statusz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  for (const char* field :
       {"\"build\"", "\"version\"", "\"uptime_seconds\"", "\"config\"",
        "\"inflight\"", "\"slo\"", "\"window_seconds\"", "\"matrix_cache\"",
        "\"active_sessions\"", "\"durability\""}) {
    EXPECT_NE(response->body.find(field), std::string::npos)
        << field << " missing in " << response->body;
  }
}

TEST_F(ObservabilityTest, MetricsExposeSloAndBuildInfoAndResponseCodes) {
  StartStack();
  HttpClient client = Client();
  ASSERT_EQ(client.Request("GET", "/healthz")->status, 200);
  auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  for (const char* needle :
       {"viewseeker_build_info{", "slo_window_p50_ms_healthz",
        "http_responses_200", "serve_endpoint_seconds_healthz"}) {
    EXPECT_NE(metrics->body.find(needle), std::string::npos)
        << needle << " missing";
  }
}

TEST_F(ObservabilityTest, SlowTriggerEmitsWithoutSampling) {
  ServeAppOptions options = DefaultAppOptions();
  options.wide_event_sample = 0;       // sampling off
  options.slow_request_ms = 1e-6;      // everything counts as slow
  StartStack(options);
  HttpClient client = Client();
  ASSERT_EQ(client
                .Request("GET", "/healthz", "",
                         {{"X-Request-Id", "slow-1"}})
                ->status,
            200);
  const std::string event = WideEventFor("slow-1");
  ASSERT_FALSE(event.empty());
  EXPECT_NE(event.find("\"slow\":true"), std::string::npos) << event;
  EXPECT_NE(event.find("\"sampled\":false"), std::string::npos) << event;
}

}  // namespace
}  // namespace vs::serve
