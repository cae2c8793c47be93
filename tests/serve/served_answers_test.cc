/// Served answers equal in-process answers under pressure: a session driven
/// through ServeApp::Handle — once with a short `X-Deadline-Ms` on every
/// request, once behind an admission limiter pinned at its limit — must
/// prompt the same views and recommend the same top-k, with the same
/// scores, as a core::ViewSeeker built in-process over the same table,
/// filter, seed and labels.  Every response stays protocol-valid and
/// carries no quality marker: no `x-quality` header, no `quality` field.
/// On a table of several SelectRows blocks, a create's filter runs on the
/// manager's build pool; the served matrix and its cache key must equal
/// the ones an inline filter and build give, with or without workers.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/feature_matrix.h"
#include "core/ideal_utility.h"
#include "core/matrix_identity.h"
#include "core/seeker.h"
#include "core/simulated_user.h"
#include "core/utility_features.h"
#include "core/view.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/predicate.h"
#include "data/query.h"
#include "serve/app.h"
#include "serve/json.h"
#include "serve/session_manager.h"

namespace vs::serve {
namespace {

constexpr char kFilter[] = "time_in_hospital >= 6";
constexpr int kK = 3;
constexpr uint64_t kSeed = 7;
constexpr int kRounds = 12;

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 300;
    options.seed = 23;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_served_answers_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

HttpRequest Req(std::string method, const std::string& target,
                std::string body, const std::string& deadline_ms) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = target;
  const size_t q = target.find('?');
  request.path = q == std::string::npos ? target : target.substr(0, q);
  request.query = q == std::string::npos ? "" : target.substr(q + 1);
  request.body = std::move(body);
  if (!deadline_ms.empty()) {
    request.headers.emplace_back("x-deadline-ms", deadline_ms);
  }
  return request;
}

/// The engine a client would run in-process: same table file, view space,
/// filter, registry and seeker options as the served session.
struct InProcess {
  data::Table table;
  std::vector<core::ViewSpec> views;
  core::UtilityFeatureRegistry registry =
      core::UtilityFeatureRegistry::Default();
  std::unique_ptr<core::FeatureMatrix> matrix;
  std::unique_ptr<core::ViewSeeker> seeker;
};

std::unique_ptr<InProcess> MakeInProcess() {
  auto engine = std::make_unique<InProcess>();
  engine->table = *data::ReadTableFile(TestTablePath());
  engine->views = *core::EnumerateViews(engine->table,
                                        core::ViewEnumerationOptions{});
  data::PredicatePtr predicate = *data::ParseFilter(kFilter);
  data::SelectionVector selection =
      *data::SelectRows(engine->table, predicate.get());
  engine->matrix = std::make_unique<core::FeatureMatrix>(
      *core::FeatureMatrix::Build(&engine->table, engine->views, selection,
                                  &engine->registry,
                                  core::FeatureMatrixOptions{}));
  core::ViewSeekerOptions options;
  options.k = kK;
  options.seed = kSeed;
  auto seeker = core::ViewSeeker::Make(engine->matrix.get(), options);
  engine->seeker = std::make_unique<core::ViewSeeker>(std::move(*seeker));
  return engine;
}

/// Status, valid JSON object, and full quality: the protocol contract
/// every response keeps under pressure.
JsonValue ParseFullQuality(const HttpResponse& response, int status) {
  EXPECT_EQ(response.status, status) << response.body;
  for (const auto& [key, value] : response.extra_headers) {
    EXPECT_NE(ToLower(key), "x-quality") << value;
  }
  EXPECT_EQ(response.body.find("\"quality\""), std::string::npos)
      << response.body;
  auto parsed = JsonValue::Parse(response.body);
  EXPECT_TRUE(parsed.ok() && parsed->is_object()) << response.body;
  return parsed.ok() ? *parsed : JsonValue();
}

/// Asserts a served `views` array against in-process views (and scores,
/// when given).
void ExpectViews(const JsonValue& body, const std::vector<size_t>& expected,
                 const core::FeatureMatrix& matrix,
                 const std::vector<double>* scores) {
  const JsonValue* views = body.Find("views");
  ASSERT_NE(views, nullptr);
  ASSERT_TRUE(views->is_array());
  ASSERT_EQ(views->array().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& item = views->array()[i];
    EXPECT_EQ(item.GetInt("view", -1), static_cast<int64_t>(expected[i]));
    EXPECT_EQ(item.GetString("id", ""), matrix.views()[expected[i]].Id());
    if (scores != nullptr) {
      // %.17g on the wire round-trips every double exactly.
      EXPECT_EQ(item.GetNumber("score", -1.0), (*scores)[expected[i]]);
    }
  }
}

/// Drives one served session for kRounds labels next to the in-process
/// engine, comparing every answer.  \p deadline_ms is stamped on every
/// request when non-empty.
void DriveAndCompare(ServeApp& app, const std::string& deadline_ms) {
  std::unique_ptr<InProcess> engine = MakeInProcess();
  auto user = core::SimulatedUser::Make(&engine->matrix->normalized(),
                                        core::Table2Presets()[10]);
  ASSERT_TRUE(user.ok()) << user.status().ToString();

  const JsonValue created = ParseFullQuality(
      app.Handle(Req("POST", "/sessions",
                     StrFormat("{\"filter\":\"%s\",\"k\":%d,\"seed\":%llu}",
                               kFilter, kK,
                               static_cast<unsigned long long>(kSeed)),
                     deadline_ms)),
      201);
  const std::string id = created.GetString("id", "");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(created.GetInt("num_views", -1),
            static_cast<int64_t>(engine->matrix->num_views()));
  const std::string base = "/sessions/" + id;

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto expected = engine->seeker->NextQueries();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const JsonValue next = ParseFullQuality(
        app.Handle(Req("GET", base + "/next", "", deadline_ms)), 200);
    ExpectViews(next, *expected, *engine->matrix, nullptr);
    EXPECT_EQ(next.GetBool("cold_start", false),
              engine->seeker->in_cold_start());
    ASSERT_FALSE(expected->empty());

    for (size_t view : *expected) {
      auto label = user->Label(view);
      ASSERT_TRUE(label.ok());
      ASSERT_TRUE(engine->seeker->SubmitLabel(view, *label).ok());
      const JsonValue labeled = ParseFullQuality(
          app.Handle(Req("POST", base + "/label",
                         StrFormat("{\"view\":%zu,\"label\":%.17g}", view,
                                   *label),
                         deadline_ms)),
          200);
      EXPECT_EQ(labeled.GetInt("num_labeled", -1),
                static_cast<int64_t>(engine->seeker->num_labeled()));
    }

    auto scores = engine->seeker->CurrentScores();
    ASSERT_TRUE(scores.ok());
    auto topk = engine->seeker->RecommendTopK();
    ASSERT_TRUE(topk.ok());
    ExpectViews(ParseFullQuality(
                    app.Handle(Req("GET", base + "/topk", "", deadline_ms)),
                    200),
                *topk, *engine->matrix, &*scores);
    auto diverse = engine->seeker->RecommendDiverseTopK(0.3);
    ASSERT_TRUE(diverse.ok());
    ExpectViews(ParseFullQuality(app.Handle(Req("GET",
                                                base + "/topk?lambda=0.3",
                                                "", deadline_ms)),
                                 200),
                *diverse, *engine->matrix, &*scores);
  }

  const JsonValue info = ParseFullQuality(
      app.Handle(Req("GET", base, "", deadline_ms)), 200);
  EXPECT_EQ(info.GetInt("num_labeled", -1),
            static_cast<int64_t>(engine->seeker->num_labeled()));
}

SessionManagerOptions ManagerOptions() {
  SessionManagerOptions options;
  options.max_sessions = 16;
  return options;
}

TEST(ServedAnswersTest, ShortDeadlineAnswersEqualInProcess) {
  SessionManager manager(ManagerOptions(), TestTablePath());
  ServeApp app(&manager);
  // Far under a cold create's usual budget, yet long enough that no
  // request expires before its handler starts (that would be a 504).
  DriveAndCompare(app, "45");
}

TEST(ServedAnswersTest, SaturatedAdmissionAnswersEqualInProcess) {
  SessionManager manager(ManagerOptions(), TestTablePath());
  ServeAppOptions app_options;
  app_options.admission_enabled = true;
  // A limit pinned at one slot: every admitted request fills the
  // endpoint's last slot.
  app_options.admission.initial_limit = 1.0;
  app_options.admission.min_limit = 1.0;
  app_options.admission.max_limit = 1.0;
  ServeApp app(&manager, app_options);
  DriveAndCompare(app, "");

  // The limiter really was at its limit for every session request, and
  // shed none of them.
  for (const AdmissionSnapshot& row : app.admission().Snapshot()) {
    SCOPED_TRACE(row.endpoint);
    EXPECT_DOUBLE_EQ(row.limit, 1.0);
    EXPECT_EQ(row.shed, 0u);
    EXPECT_GT(row.admitted, 0u);
  }
}

const std::string& MultiBlockTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 2 * data::kSelectBlockRows + 123;
    options.seed = 29;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_multi_block_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

TEST(ServedAnswersTest, MultiBlockFilterMatchesInlineBuildOnEveryPool) {
  constexpr char kRange[] = "time_in_hospital BETWEEN 3 AND 7";
  const std::string& path = MultiBlockTablePath();
  const data::Table table = *data::ReadTableFile(path);
  ASSERT_GT(table.num_rows(), data::kSelectBlockRows);
  const std::vector<core::ViewSpec> views =
      *core::EnumerateViews(table, core::ViewEnumerationOptions{});
  const core::UtilityFeatureRegistry registry =
      core::UtilityFeatureRegistry::Default();
  const data::SelectionVector selection =
      *data::SelectRows(table, *data::ParseFilter(kRange));
  ASSERT_GT(selection.size(), 0u);
  ASSERT_LT(selection.size(), table.num_rows());
  const core::FeatureMatrix want = *core::FeatureMatrix::Build(
      &table, views, selection, &registry, core::FeatureMatrixOptions{});
  // The manager keys its table by path and row count.
  const std::string key = core::FeatureMatrixCacheKey(
      path + "#" + std::to_string(table.num_rows()), selection, views,
      registry, core::FeatureMatrixOptions{});

  for (const size_t threads : {size_t{0}, ThreadPool::DefaultThreads()}) {
    SCOPED_TRACE("feature_threads " + std::to_string(threads));
    SessionManagerOptions options = ManagerOptions();
    options.feature_threads = threads;
    SessionManager manager(options, path);
    CreateSpec spec;
    spec.filter = kRange;
    spec.options.k = kK;
    auto created = manager.Create(spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    // A hit on the inline key is the served matrix; a miss would run this
    // builder and fail.
    auto served = manager.matrix_cache().GetOrBuild(
        key, []() -> Result<core::FeatureMatrix> {
          return Status::FailedPrecondition("served key differs");
        });
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ((*served)->query_selection(), selection);
    const ml::Matrix& got = (*served)->raw();
    ASSERT_EQ(got.rows(), want.raw().rows());
    ASSERT_EQ(got.cols(), want.raw().cols());
    for (size_t i = 0; i < got.rows(); ++i) {
      for (size_t j = 0; j < got.cols(); ++j) {
        const double x = want.raw()(i, j);
        const double y = got(i, j);
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << "view " << i << " feature " << j;
      }
    }
  }
}

}  // namespace
}  // namespace vs::serve
