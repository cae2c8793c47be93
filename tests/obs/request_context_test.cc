#include "obs/request_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

namespace vs::obs {
namespace {

TEST(RequestContext, NoContextInstalledByDefault) {
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContext, ScopedInstallRestoresPrevious) {
  RequestContext outer("id-outer", "GET", "/a");
  RequestContext inner("id-inner", "GET", "/b");
  {
    ScopedRequestContext scoped_outer(&outer);
    EXPECT_EQ(CurrentRequestContext(), &outer);
    {
      ScopedRequestContext scoped_inner(&inner);
      EXPECT_EQ(CurrentRequestContext(), &inner);
    }
    EXPECT_EQ(CurrentRequestContext(), &outer);
  }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContext, ContextIsThreadLocal) {
  RequestContext context("id", "GET", "/x");
  ScopedRequestContext scoped(&context);
  ASSERT_EQ(CurrentRequestContext(), &context);
  std::thread other([] { EXPECT_EQ(CurrentRequestContext(), nullptr); });
  other.join();
}

TEST(RequestContext, EndpointIsSettableAndReadable) {
  RequestContext context("id", "GET", "/sessions/s/next");
  EXPECT_EQ(context.endpoint(), "");
  context.set_endpoint("next");
  EXPECT_EQ(context.endpoint(), "next");
}

TEST(InflightRegistry, RegisterSnapshotUnregister) {
  InflightRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  auto context =
      std::make_shared<RequestContext>("req-7", "GET", "/sessions/s/topk");
  registry.Register(context);
  EXPECT_EQ(registry.size(), 1u);

  std::vector<InflightRequest> rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, "req-7");
  EXPECT_EQ(rows[0].method, "GET");
  EXPECT_EQ(rows[0].path, "/sessions/s/topk");
  EXPECT_EQ(rows[0].endpoint, "-");  // not yet dispatched
  EXPECT_GE(rows[0].age_seconds, 0.0);

  context->set_endpoint("topk");
  context->set_current_stage("session_manager.topk");
  rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].endpoint, "topk");
  EXPECT_STREQ(rows[0].stage, "session_manager.topk");

  registry.Unregister(context.get());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(InflightRegistry, SnapshotFromAnotherThreadSeesLiveStage) {
  // The /statusz use case: one thread serves (and is mid-stage), another
  // thread snapshots.
  InflightRegistry registry;
  auto context = std::make_shared<RequestContext>("req-9", "POST", "/x");
  registry.Register(context);
  context->set_current_stage("fmcache.build");
  std::thread reader([&registry] {
    std::vector<InflightRequest> rows = registry.Snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_STREQ(rows[0].stage, "fmcache.build");
  });
  reader.join();
  registry.Unregister(context.get());
}

}  // namespace
}  // namespace vs::obs
