#include "core/session_io.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/string_util.h"
#include "core/ideal_utility.h"
#include "core/simulated_user.h"
#include "core_test_util.h"

namespace vs::core {
namespace {

/// Strips the v2 integrity trailer and rewrites the header, producing the
/// exact bytes a pre-CRC release would have written.
std::string DowngradeToV1(std::string text) {
  const std::string v2_header = "viewseeker-session v2";
  EXPECT_EQ(text.compare(0, v2_header.size(), v2_header), 0);
  text.replace(0, v2_header.size(), "viewseeker-session v1");
  const size_t trailer = text.rfind("\ncrc32: ");
  EXPECT_NE(trailer, std::string::npos);
  text.erase(trailer + 1);
  return text;
}

/// Recomputes the `crc32:` trailer after a test edited the body, so the
/// edit reaches the format checks instead of failing the checksum.
std::string Reseal(std::string text) {
  const size_t trailer = text.rfind("\ncrc32: ");
  EXPECT_NE(trailer, std::string::npos);
  text.erase(trailer + 1);
  return text + vs::StrFormat("crc32: %08x\n", vs::Crc32(text));
}

/// Runs a few labeling iterations and returns the seeker.
ViewSeeker LabeledSeeker(const FeatureMatrix* matrix, int labels) {
  ViewSeekerOptions options;
  options.k = 3;
  options.seed = 9;
  auto seeker = ViewSeeker::Make(matrix, options);
  auto user = SimulatedUser::Make(&matrix->normalized(),
                                  Table2Presets()[3]);
  for (int i = 0; i < labels; ++i) {
    auto q = seeker->NextQueries();
    auto st = seeker->SubmitLabel((*q)[0], *user->Label((*q)[0]));
    (void)st;
  }
  return std::move(*seeker);
}

TEST(SessionIoTest, RoundTripReproducesState) {
  auto world = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world.matrix.get(), 6);
  auto text = SaveSession(original);
  ASSERT_TRUE(text.ok());

  auto restored = RestoreSession(world.matrix.get(), *text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_labeled(), original.num_labeled());
  EXPECT_EQ(restored->labeled(), original.labeled());
  EXPECT_EQ(restored->labels(), original.labels());
  EXPECT_EQ(restored->options().k, original.options().k);
  EXPECT_EQ(restored->options().strategy, original.options().strategy);

  // Replayed estimators are bit-identical.
  EXPECT_EQ(restored->utility_estimator().model().coefficients(),
            original.utility_estimator().model().coefficients());
  EXPECT_DOUBLE_EQ(restored->utility_estimator().model().intercept(),
                   original.utility_estimator().model().intercept());
  EXPECT_EQ(*restored->RecommendTopK(), *original.RecommendTopK());
}

TEST(SessionIoTest, RestoredSessionContinuesIdentically) {
  auto world = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world.matrix.get(), 5);
  auto text = SaveSession(original);
  auto restored = RestoreSession(world.matrix.get(), *text);
  ASSERT_TRUE(restored.ok());
  // Note: the RNG position differs (restore replays labels without the
  // cold-start draws), so only deterministic (non-random) continuations
  // are guaranteed identical; with both classes present the uncertainty
  // strategy is deterministic.
  if (!original.in_cold_start()) {
    auto next_original = original.NextQueries();
    auto next_restored = restored->NextQueries();
    ASSERT_TRUE(next_original.ok() && next_restored.ok());
    EXPECT_EQ(*next_original, *next_restored);
  }
}

TEST(SessionIoTest, RestoredSessionAcceptsFurtherLabels) {
  // The serving resume path: save, rebuild the matrix from scratch,
  // restore, and keep labeling — the restored seeker must behave like a
  // live one (same top-k now, and willing to accept more labels).
  auto world_a = testutil::MakeMiniWorld();
  auto world_b = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world_a.matrix.get(), 6);
  auto text = SaveSession(original);
  ASSERT_TRUE(text.ok());
  auto restored = RestoreSession(world_b.matrix.get(), *text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored->RecommendTopK(), *original.RecommendTopK());

  auto next = restored->NextQueries();
  ASSERT_TRUE(next.ok());
  ASSERT_FALSE(next->empty());
  ASSERT_TRUE(restored->SubmitLabel((*next)[0], 1.0).ok());
  EXPECT_EQ(restored->num_labeled(), 7u);
  EXPECT_TRUE(restored->RecommendTopK().ok());
}

TEST(SessionIoTest, RestoreOntoFreshMatrixWorks) {
  // Matrix rebuilt from scratch (same table/views): ids must line up.
  auto world_a = testutil::MakeMiniWorld();
  auto world_b = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world_a.matrix.get(), 4);
  auto text = SaveSession(original);
  auto restored = RestoreSession(world_b.matrix.get(), *text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_labeled(), 4u);
}

TEST(SessionIoTest, EmptySessionRoundTrips) {
  auto world = testutil::MakeMiniWorld();
  auto seeker = ViewSeeker::Make(world.matrix.get(), {});
  auto text = SaveSession(*seeker);
  ASSERT_TRUE(text.ok());
  auto restored = RestoreSession(world.matrix.get(), *text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_labeled(), 0u);
  EXPECT_TRUE(restored->in_cold_start());
}

TEST(SessionIoTest, MalformedInputsRejected) {
  auto world = testutil::MakeMiniWorld();
  EXPECT_FALSE(RestoreSession(world.matrix.get(), "").ok());
  EXPECT_FALSE(RestoreSession(world.matrix.get(), "garbage").ok());
  EXPECT_FALSE(RestoreSession(nullptr, "viewseeker-session v2\n").ok());

  ViewSeeker original = LabeledSeeker(world.matrix.get(), 2);
  // Corrupt a view id and reseal the checksum so the semantic check, not
  // the integrity check, has to catch it.
  std::string bad = *SaveSession(original);
  const size_t pos = bad.find("BY");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 2, "ZZ");
  bad = Reseal(bad);
  auto r = RestoreSession(world.matrix.get(), bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(SessionIoTest, V2ChecksumDetectsCorruption) {
  auto world = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world.matrix.get(), 2);
  std::string text = *SaveSession(original);
  ASSERT_NE(text.find("viewseeker-session v2"), std::string::npos);
  ASSERT_NE(text.rfind("\ncrc32: "), std::string::npos);

  // Any single-byte flip in the body must be rejected by the checksum.
  std::string bad = text;
  const size_t pos = bad.find("BY");
  ASSERT_NE(pos, std::string::npos);
  bad[pos] = 'Z';
  auto r = RestoreSession(world.matrix.get(), bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("crc"), std::string::npos);

  // A corrupted trailer itself is also rejected.
  std::string bad_trailer = text;
  bad_trailer[bad_trailer.size() - 2] ^= 0x1;
  EXPECT_FALSE(RestoreSession(world.matrix.get(), bad_trailer).ok());
}

TEST(SessionIoTest, V1SessionsAreRejected) {
  // Every snapshot on disk is v2, so the trailer-less v1 format written by
  // pre-CRC releases is invalid input, not a second format to support.
  auto world = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world.matrix.get(), 4);
  auto restored =
      RestoreSession(world.matrix.get(), DowngradeToV1(*SaveSession(original)));
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument());
}

TEST(SessionIoTest, TruncatedLabelListRejected) {
  auto world = testutil::MakeMiniWorld();
  ViewSeeker original = LabeledSeeker(world.matrix.get(), 3);
  std::string text = *SaveSession(original);
  // Claim more labels than present.
  const size_t pos = text.find("labels: 3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "labels: 9");
  EXPECT_FALSE(RestoreSession(world.matrix.get(), text).ok());
}

}  // namespace
}  // namespace vs::core
