#include "core/matrix_identity.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "core_test_util.h"

namespace vs::core {
namespace {

TEST(MatrixIdentityTest, Fnv1a64KnownVectors) {
  // Published FNV-1a 64-bit test vectors (offset basis and "a").
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(MatrixIdentityTest, KeyIsDeterministicAndWellFormed) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string a = FeatureMatrixCacheKey(
      "mini#240", world.query, world.views, *world.registry, options);
  const std::string b = FeatureMatrixCacheKey(
      "mini#240", world.query, world.views, *world.registry, options);
  EXPECT_EQ(a, b);
  // Five fixed-width hex groups: 5*16 digits + 4 dashes.
  ASSERT_EQ(a.size(), 84u);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i == 16 || i == 33 || i == 50 || i == 67) {
      EXPECT_EQ(a[i], '-') << "position " << i;
    } else {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(a[i])))
          << "position " << i;
    }
  }
}

TEST(MatrixIdentityTest, KeyHashesSelectionContentNotProvenance) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string base = FeatureMatrixCacheKey(
      "t", world.query, world.views, *world.registry, options);

  // An equal-content copy of the selection (different vector object,
  // different hypothetical filter text) keys identically.
  data::SelectionVector copy = world.query;
  EXPECT_EQ(base, FeatureMatrixCacheKey("t", copy, world.views,
                                        *world.registry, options));

  // Any change to the selected rows changes the key.
  data::SelectionVector fewer = world.query;
  fewer.pop_back();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", fewer, world.views,
                                        *world.registry, options));
  data::SelectionVector all = world.table->AllRows();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", all, world.views,
                                        *world.registry, options));
}

TEST(MatrixIdentityTest, KeySensitivity) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string base = FeatureMatrixCacheKey(
      "t", world.query, world.views, *world.registry, options);

  // Table identity.
  EXPECT_NE(base, FeatureMatrixCacheKey("t2", world.query, world.views,
                                        *world.registry, options));

  // View space: dropping one view must change the key.
  std::vector<ViewSpec> fewer_views = world.views;
  fewer_views.pop_back();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, fewer_views,
                                        *world.registry, options));

  // Registry: an empty feature set keys differently.
  UtilityFeatureRegistry empty;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        empty, options));

  // Value-affecting options.
  FeatureMatrixOptions sampled = options;
  sampled.sample_rate = 0.5;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, sampled));
  FeatureMatrixOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, reseeded));
  FeatureMatrixOptions per_view = options;
  per_view.shared_scan = false;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, per_view));
}

/// Row ids 7, 10, 13, ...: \p n distinct, sorted, none a small integer
/// that a zero-filled word would also produce.
data::SelectionVector Stride(size_t n) {
  data::SelectionVector rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(7 + 3 * i);
  return rows;
}

TEST(MatrixIdentityTest, HashSelectionKnownValues) {
  // Keys live only in process, but a pinned value catches an accidental
  // change of the word order, the lane rounds or the fold.
  EXPECT_EQ(HashSelection({}), 0x26a872ebbd56c621ULL);
  // Four full stripes of 8 rows, then a tail of 5.
  EXPECT_EQ(HashSelection(Stride(37)), 0x8ea42e599c885feeULL);
}

TEST(MatrixIdentityTest, HashSelectionLengthsAreDistinct) {
  // Lengths 0-17 cover an empty selection, a tail alone, one stripe, one
  // stripe plus every tail length and two stripes plus a tail.
  std::set<uint64_t> keys;
  for (size_t n = 0; n <= 17; ++n) keys.insert(HashSelection(Stride(n)));
  EXPECT_EQ(keys.size(), 18u);
}

TEST(MatrixIdentityTest, HashSelectionSeesEveryRowAndItsPosition) {
  const data::SelectionVector base = Stride(18);
  const uint64_t key = HashSelection(base);
  for (size_t i = 0; i < base.size(); ++i) {
    SCOPED_TRACE(i);
    // Each position lies in some lane's word or in the tail.
    for (uint32_t delta : {1u, 2u, 1u << 16, 1u << 31}) {
      data::SelectionVector changed = base;
      changed[i] ^= delta;
      EXPECT_NE(HashSelection(changed), key) << "delta " << delta;
    }
    // Swapping two adjacent rows: inside one word, across two lanes,
    // across stripes, and between the last word and the tail.
    if (i + 1 < base.size()) {
      data::SelectionVector swapped = base;
      std::swap(swapped[i], swapped[i + 1]);
      EXPECT_NE(HashSelection(swapped), key);
    }
  }
}

TEST(MatrixIdentityTest, BuildPoolDoesNotAffectKey) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions sequential;
  sequential.pool = nullptr;
  ThreadPool pool(8);
  FeatureMatrixOptions parallel;
  parallel.pool = &pool;
  // Results are documented identical across pool sizes (see
  // FeatureMatrixTest.ParallelBuildMatchesSequential), so the key must
  // let those builds share one cache slot.
  EXPECT_EQ(FeatureMatrixCacheKey("t", world.query, world.views,
                                  *world.registry, sequential),
            FeatureMatrixCacheKey("t", world.query, world.views,
                                  *world.registry, parallel));
}

}  // namespace
}  // namespace vs::core
