/// Session export/import — the primitive live migration is built on.  A
/// session drained from one manager and imported into another must be
/// byte-identical (same envelope), behaviorally identical (same labels,
/// same top-k), and the handoff must be all-or-nothing under injected
/// durability faults.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 31;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_migration_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

SessionManagerOptions ManagerOptions(const std::string& dir_suffix) {
  SessionManagerOptions options;
  options.max_sessions = 8;
  options.session_ttl_seconds = 3600;
  if (!dir_suffix.empty()) {
    options.durability_dir =
        ::testing::TempDir() + "vs_migration_" + dir_suffix + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Fixed session ids would collide with a previous run's state.
    std::filesystem::remove_all(options.durability_dir);
    options.durability_fsync = false;
  }
  return options;
}

CreateSpec SmallSpec(const std::string& requested_id = "") {
  CreateSpec spec;
  spec.options.k = 3;
  spec.options.seed = 5;
  spec.requested_id = requested_id;
  return spec;
}

/// Labels n next-views alternately 1/0.
void LabelSome(SessionManager& manager, const std::string& id, int n) {
  for (int i = 0; i < n; ++i) {
    auto batch = manager.Next(id);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_FALSE(batch->views.empty());
    auto labeled =
        manager.Label(id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0);
    ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  }
}

TEST(ValidSessionIdTest, AcceptsGeneratedAndClusterShapedIds) {
  EXPECT_TRUE(ValidSessionId("c000173cd94f2"));
  EXPECT_TRUE(ValidSessionId("abc-123_X.y"));
  EXPECT_TRUE(ValidSessionId(std::string(64, 'a')));
}

TEST(ValidSessionIdTest, RejectsUnsafeIds) {
  EXPECT_FALSE(ValidSessionId(""));
  EXPECT_FALSE(ValidSessionId(std::string(65, 'a')));
  EXPECT_FALSE(ValidSessionId("-starts-with-dash"));
  EXPECT_FALSE(ValidSessionId(".hidden"));
  EXPECT_FALSE(ValidSessionId("has space"));
  EXPECT_FALSE(ValidSessionId("path/inject"));
  EXPECT_FALSE(ValidSessionId("dot\ndot"));
  EXPECT_FALSE(ValidSessionId(std::string("nul\0byte", 8)));
}

TEST(RequestedIdTest, CreateHonorsRequestedId) {
  SessionManager manager(ManagerOptions(""), TestTablePath());
  auto info = manager.Create(SmallSpec("router-chose-this"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->id, "router-chose-this");
  EXPECT_TRUE(manager.Info("router-chose-this").ok());
}

TEST(RequestedIdTest, DuplicateRequestedIdIsAlreadyExists) {
  SessionManager manager(ManagerOptions(""), TestTablePath());
  ASSERT_TRUE(manager.Create(SmallSpec("dup")).ok());
  auto again = manager.Create(SmallSpec("dup"));
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsAlreadyExists()) << again.status().ToString();
}

TEST(RequestedIdTest, InvalidRequestedIdRejected) {
  SessionManager manager(ManagerOptions(""), TestTablePath());
  auto bad = manager.Create(SmallSpec("no/slashes"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ExportImportTest, RoundTripIsByteAndBehaviorIdentical) {
  SessionManager source(ManagerOptions("src"), TestTablePath());
  ASSERT_TRUE(source.RecoverFromDisk().ok());
  auto info = source.Create(SmallSpec("mig-1"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  LabelSome(source, "mig-1", 5);
  auto source_labels = source.Labels("mig-1");
  auto source_topk = source.TopK("mig-1");
  ASSERT_TRUE(source_labels.ok());
  ASSERT_TRUE(source_topk.ok());

  auto envelope = source.ExportSession("mig-1");
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();

  SessionManager target(ManagerOptions("dst"), TestTablePath());
  ASSERT_TRUE(target.RecoverFromDisk().ok());
  auto imported = target.ImportSession("mig-1", *envelope);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->id, "mig-1");
  EXPECT_EQ(imported->num_labeled, 5u);

  // Byte-identical: exporting the untouched import reproduces the exact
  // envelope that went in.
  auto reexported = target.ExportSession("mig-1");
  ASSERT_TRUE(reexported.ok());
  EXPECT_EQ(*reexported, *envelope);

  // Behaviorally identical: same label history, same top-k ranking.
  auto target_labels = target.Labels("mig-1");
  auto target_topk = target.TopK("mig-1");
  ASSERT_TRUE(target_labels.ok());
  ASSERT_TRUE(target_topk.ok());
  EXPECT_EQ(target_labels->views, source_labels->views);
  EXPECT_EQ(target_labels->values, source_labels->values);
  EXPECT_EQ(target_topk->views, source_topk->views);
  EXPECT_EQ(target_topk->scores, source_topk->scores);

  // The imported session keeps working.
  EXPECT_TRUE(target.Next("mig-1").ok());
}

TEST(ExportImportTest, ImportSurvivesTargetRestart) {
  SessionManager source(ManagerOptions("src"), TestTablePath());
  ASSERT_TRUE(source.RecoverFromDisk().ok());
  ASSERT_TRUE(source.Create(SmallSpec("mig-dur")).ok());
  LabelSome(source, "mig-dur", 3);
  auto envelope = source.ExportSession("mig-dur");
  ASSERT_TRUE(envelope.ok());

  const SessionManagerOptions target_options = ManagerOptions("dst");
  {
    SessionManager target(target_options, TestTablePath());
    ASSERT_TRUE(target.RecoverFromDisk().ok());
    ASSERT_TRUE(target.ImportSession("mig-dur", *envelope).ok());
    // No drain: the import's own snapshot must already be on disk.
  }
  SessionManager recovered(target_options, TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  auto labels = recovered.Labels("mig-dur");
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels->views.size(), 3u);
}

TEST(ExportImportTest, ImportRejectsConflictsAndGarbage) {
  SessionManager manager(ManagerOptions(""), TestTablePath());
  ASSERT_TRUE(manager.Create(SmallSpec("busy")).ok());
  auto envelope = manager.ExportSession("busy");
  ASSERT_TRUE(envelope.ok());

  auto conflict = manager.ImportSession("busy", *envelope);
  ASSERT_FALSE(conflict.ok());
  EXPECT_TRUE(conflict.status().IsAlreadyExists());

  auto bad_id = manager.ImportSession("bad/id", *envelope);
  ASSERT_FALSE(bad_id.ok());
  EXPECT_TRUE(bad_id.status().IsInvalidArgument());

  auto garbage = manager.ImportSession("fresh", "not an envelope");
  EXPECT_FALSE(garbage.ok());
  EXPECT_FALSE(manager.Info("fresh").ok()) << "failed import left state";

  // Only v2 envelopes parse: a v1 header is invalid input.
  std::string v1 = *envelope;
  v1.replace(0, std::string("viewseeker-spill v2").size(),
             "viewseeker-spill v1");
  auto old_version = manager.ImportSession("fresh", v1);
  ASSERT_FALSE(old_version.ok());
  EXPECT_TRUE(old_version.status().IsInvalidArgument());
  EXPECT_FALSE(manager.Info("fresh").ok());
}

TEST(ExportImportTest, ExportOfUnknownSessionIsNotFound) {
  SessionManager manager(ManagerOptions(""), TestTablePath());
  auto missing = manager.ExportSession("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

/// Export persists the envelope before handing it out; when that persist
/// fails (disk full at snapshot rename), the export fails and the source
/// session stays live and unchanged — the migration driver aborts with
/// the session still in place.
TEST(ExportImportTest, ExportFaultLeavesSourceIntact) {
  SessionManager manager(ManagerOptions("src"), TestTablePath());
  ASSERT_TRUE(manager.RecoverFromDisk().ok());
  ASSERT_TRUE(manager.Create(SmallSpec("hold")).ok());
  LabelSome(manager, "hold", 2);

  fault::FaultInjector injector(7);
  fault::ScopedFaultInjector installed(&injector);
  injector.SetProbability("snapshot.rename_fail", 1.0);
  auto envelope = manager.ExportSession("hold");
  EXPECT_FALSE(envelope.ok());
  injector.ClearAll();

  auto labels = manager.Labels("hold");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->views.size(), 2u);
  EXPECT_TRUE(manager.ExportSession("hold").ok()) << "fault did not clear";
}

/// A failed import unwinds completely: no session in memory, nothing
/// recoverable on disk.  This is the exactly-one-copy invariant's target
/// half — the source keeps its copy, the target keeps nothing.
TEST(ExportImportTest, ImportFaultUnwindsCompletely) {
  SessionManager source(ManagerOptions("src"), TestTablePath());
  ASSERT_TRUE(source.RecoverFromDisk().ok());
  ASSERT_TRUE(source.Create(SmallSpec("half")).ok());
  LabelSome(source, "half", 2);
  auto envelope = source.ExportSession("half");
  ASSERT_TRUE(envelope.ok());

  const SessionManagerOptions target_options = ManagerOptions("dst");
  {
    SessionManager target(target_options, TestTablePath());
    ASSERT_TRUE(target.RecoverFromDisk().ok());
    fault::FaultInjector injector(7);
    fault::ScopedFaultInjector installed(&injector);
    injector.SetProbability("snapshot.rename_fail", 1.0);
    auto imported = target.ImportSession("half", *envelope);
    EXPECT_FALSE(imported.ok());
    injector.ClearAll();
    EXPECT_FALSE(target.Info("half").ok()) << "failed import left session";
    // The id is reusable after the unwind.
    EXPECT_TRUE(target.ImportSession("half", *envelope).ok());
    ASSERT_TRUE(target.Delete("half").ok());
  }
  SessionManager recovered(target_options, TestTablePath());
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_FALSE(recovered.Info("half").ok())
      << "unwound import recovered from disk";
}

/// The HTTP admin surface: /admin/sessions/{id}/export returns the
/// envelope, import on a second app restores it, and both reject bad
/// input with structured errors.
TEST(AdminEndpointsTest, ExportImportOverHttp) {
  SessionManagerOptions options;
  options.max_sessions = 8;
  SessionManager source_manager(options, TestTablePath());
  SessionManager target_manager(options, TestTablePath());
  ServeAppOptions source_app_options;
  source_app_options.shard_name = "shard0";
  ServeAppOptions target_app_options;
  target_app_options.shard_name = "shard1";
  ServeApp source_app(&source_manager, source_app_options);
  ServeApp target_app(&target_manager, target_app_options);
  HttpServerOptions server_options;
  server_options.port = 0;
  HttpServer source_server(server_options,
                           [&source_app](const HttpRequest& request) {
                             return source_app.Handle(request);
                           });
  HttpServer target_server(server_options,
                           [&target_app](const HttpRequest& request) {
                             return target_app.Handle(request);
                           });
  ASSERT_TRUE(source_server.Start().ok());
  ASSERT_TRUE(target_server.Start().ok());

  HttpClient source("127.0.0.1", source_server.port());
  HttpClient target("127.0.0.1", target_server.port());

  // Create with a router-chosen id via the ?id= query parameter.
  auto created = source.Request("POST", "/sessions?id=hop-1",
                                "{\"k\":3,\"seed\":5}", {});
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  EXPECT_NE(created->body.find("\"id\":\"hop-1\""), std::string::npos);
  const std::string* shard = created->FindHeader("x-shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(*shard, "shard0");

  ASSERT_TRUE(source.Request("POST", "/sessions/hop-1/label",
                             "{\"view\":0,\"label\":1}", {})
                  .ok());

  auto exported =
      source.Request("GET", "/admin/sessions/hop-1/export", "", {});
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported->status, 200) << exported->body;
  auto export_json = JsonValue::Parse(exported->body);
  ASSERT_TRUE(export_json.ok());
  const std::string envelope = export_json->GetString("envelope", "");
  ASSERT_FALSE(envelope.empty());

  auto imported = target.Request(
      "POST", "/admin/sessions/hop-1/import",
      "{\"envelope\":" + JsonQuote(envelope) + "}", {});
  ASSERT_TRUE(imported.ok());
  ASSERT_EQ(imported->status, 201) << imported->body;

  auto labels = target.Request("GET", "/sessions/hop-1/labels", "", {});
  ASSERT_TRUE(labels.ok());
  ASSERT_EQ(labels->status, 200);
  EXPECT_NE(labels->body.find("\"num_labeled\":1"), std::string::npos)
      << labels->body;

  // Error surfaces: missing session 404s, duplicate import 409s, garbage
  // body 400s.
  auto missing =
      source.Request("GET", "/admin/sessions/ghost/export", "", {});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto duplicate = target.Request(
      "POST", "/admin/sessions/hop-1/import",
      "{\"envelope\":" + JsonQuote(envelope) + "}", {});
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->status, 409);
  auto garbage = target.Request("POST", "/admin/sessions/x/import",
                                "{\"nope\":1}", {});
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);

  source_server.Stop();
  target_server.Stop();
}

}  // namespace
}  // namespace vs::serve
