#include "core/feature_matrix.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/feature_kernels.h"
#include "core_test_util.h"
#include "data/generator.h"
#include "data/groupby.h"
#include "data/predicate.h"
#include "data/table_memo.h"
#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace vs::core {
namespace {

TEST(FeatureMatrixTest, ExactBuildShape) {
  auto world = testutil::MakeMiniWorld();
  EXPECT_EQ(world.matrix->num_views(), 20u);
  EXPECT_EQ(world.matrix->num_features(), 8u);
  EXPECT_TRUE(world.matrix->AllExact());
  EXPECT_EQ(world.matrix->num_exact(), 20u);
}

TEST(FeatureMatrixTest, NormalizedColumnsInUnitInterval) {
  auto world = testutil::MakeMiniWorld();
  const ml::Matrix& n = world.matrix->normalized();
  for (size_t i = 0; i < n.rows(); ++i) {
    for (size_t j = 0; j < n.cols(); ++j) {
      EXPECT_GE(n(i, j), 0.0);
      EXPECT_LE(n(i, j), 1.0);
    }
  }
  // Each column attains both 0 and 1 (non-constant columns).
  for (size_t j = 0; j < n.cols(); ++j) {
    double lo = 1.0;
    double hi = 0.0;
    for (size_t i = 0; i < n.rows(); ++i) {
      lo = std::min(lo, n(i, j));
      hi = std::max(hi, n(i, j));
    }
    EXPECT_DOUBLE_EQ(lo, 0.0) << "column " << j;
    // A constant raw column normalizes to all zeros, so only check hi when
    // the column varies.
    if (hi > 0.0) {
      EXPECT_DOUBLE_EQ(hi, 1.0) << "column " << j;
    }
  }
}

TEST(FeatureMatrixTest, RawValuesAreFinite) {
  auto world = testutil::MakeMiniWorld();
  const ml::Matrix& raw = world.matrix->raw();
  for (size_t i = 0; i < raw.rows(); ++i) {
    for (size_t j = 0; j < raw.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(raw(i, j)));
    }
  }
}

TEST(FeatureMatrixTest, SampledBuildIsRoughButRefinable) {
  auto exact = testutil::MakeMiniWorld(1.0);
  auto rough = testutil::MakeMiniWorld(0.3, 77);
  EXPECT_FALSE(rough.matrix->AllExact());
  EXPECT_EQ(rough.matrix->num_exact(), 0u);

  // Refine every row: raw values must then match the exact build.
  for (size_t i = 0; i < rough.matrix->num_views(); ++i) {
    ASSERT_TRUE(rough.matrix->RefineRows({i}).ok());
    EXPECT_TRUE(rough.matrix->IsExact(i));
  }
  EXPECT_TRUE(rough.matrix->AllExact());
  for (size_t i = 0; i < rough.matrix->num_views(); ++i) {
    for (size_t j = 0; j < rough.matrix->num_features(); ++j) {
      EXPECT_NEAR(rough.matrix->raw()(i, j), exact.matrix->raw()(i, j),
                  1e-12)
          << "view " << i << " feature " << j;
    }
  }
}

TEST(FeatureMatrixTest, RoughFeaturesApproximateExact) {
  auto exact = testutil::MakeMiniWorld(1.0);
  auto rough = testutil::MakeMiniWorld(0.5, 5);
  // Rough EMD should correlate with exact EMD across views (rank check on
  // the extremes).
  const size_t emd = 1;
  double max_exact = -1.0;
  size_t argmax_exact = 0;
  for (size_t i = 0; i < exact.matrix->num_views(); ++i) {
    if (exact.matrix->raw()(i, emd) > max_exact) {
      max_exact = exact.matrix->raw()(i, emd);
      argmax_exact = i;
    }
  }
  // The exact-best view should be at least above-median under rough.
  std::vector<double> rough_col;
  for (size_t i = 0; i < rough.matrix->num_views(); ++i) {
    rough_col.push_back(rough.matrix->raw()(i, emd));
  }
  std::vector<double> sorted = rough_col;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GE(rough_col[argmax_exact], sorted[sorted.size() / 2]);
}

TEST(FeatureMatrixTest, RefineRowIsIdempotent) {
  auto rough = testutil::MakeMiniWorld(0.3);
  ASSERT_TRUE(rough.matrix->RefineRows({0}).ok());
  const double v = rough.matrix->raw()(0, 0);
  ASSERT_TRUE(rough.matrix->RefineRows({0}).ok());  // no-op
  EXPECT_DOUBLE_EQ(rough.matrix->raw()(0, 0), v);
  EXPECT_EQ(rough.matrix->num_exact(), 1u);
}

TEST(FeatureMatrixTest, RefinementInvalidatesNormalization) {
  auto rough = testutil::MakeMiniWorld(0.3);
  const ml::Matrix before = rough.matrix->normalized();
  for (size_t i = 0; i < rough.matrix->num_views(); ++i) {
    ASSERT_TRUE(rough.matrix->RefineRows({i}).ok());
  }
  const ml::Matrix& after = rough.matrix->normalized();
  // At least one normalized entry must have moved.
  bool changed = false;
  for (size_t i = 0; i < before.rows() && !changed; ++i) {
    for (size_t j = 0; j < before.cols() && !changed; ++j) {
      if (std::fabs(before(i, j) - after(i, j)) > 1e-12) changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(FeatureMatrixTest, NormalizedRowMatchesMatrix) {
  auto world = testutil::MakeMiniWorld();
  ml::Vector row = world.matrix->NormalizedRow(3);
  for (size_t j = 0; j < row.size(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], world.matrix->normalized()(3, j));
  }
}

TEST(FeatureMatrixTest, BuildValidation) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  auto registry = UtilityFeatureRegistry::Default();

  EXPECT_FALSE(FeatureMatrix::Build(nullptr, world.views, world.query,
                                    &registry, options)
                   .ok());
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), {}, world.query,
                                    &registry, options)
                   .ok());
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), world.views,
                                    world.query, nullptr, options)
                   .ok());
  options.sample_rate = 0.0;
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), world.views,
                                    world.query, &registry, options)
                   .ok());
  options.sample_rate = 1.5;
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), world.views,
                                    world.query, &registry, options)
                   .ok());
  options.sample_rate = 1.0;
  data::SelectionVector bad_query = {9999999};
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), world.views,
                                    bad_query, &registry, options)
                   .ok());

  UtilityFeatureRegistry empty;
  EXPECT_FALSE(FeatureMatrix::Build(world.table.get(), world.views,
                                    world.query, &empty, options)
                   .ok());
}

TEST(FeatureMatrixTest, RefineRowOutOfRange) {
  auto world = testutil::MakeMiniWorld(0.5);
  EXPECT_FALSE(world.matrix->RefineRows({9999}).ok());
}

TEST(FeatureMatrixTest, RefineCostReflectsTableSize) {
  auto world = testutil::MakeMiniWorld();
  EXPECT_EQ(world.matrix->RefineCostPerRow(),
            static_cast<int64_t>(world.table->num_rows() +
                                 world.query.size()));
}

/// Bitwise equality of two raw matrices (EXPECT_DOUBLE_EQ allows 4 ulps).
void ExpectBitEqualRaw(const FeatureMatrix& want, const FeatureMatrix& got) {
  ASSERT_EQ(want.raw().rows(), got.raw().rows());
  ASSERT_EQ(want.raw().cols(), got.raw().cols());
  for (size_t i = 0; i < want.raw().rows(); ++i) {
    for (size_t j = 0; j < want.raw().cols(); ++j) {
      const double x = want.raw()(i, j);
      const double y = got.raw()(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "view " << i << " feature " << j << ": " << x << " vs " << y;
    }
  }
}

TEST(FeatureMatrixTest, ParallelBuildMatchesSequential) {
  auto world = testutil::MakeMiniWorld();
  ThreadPool pool(3);
  FeatureMatrixOptions parallel_options;
  parallel_options.pool = &pool;
  auto parallel = FeatureMatrix::Build(world.table.get(), world.views,
                                       world.query, world.registry.get(),
                                       parallel_options);
  ASSERT_TRUE(parallel.ok());
  ExpectBitEqualRaw(*world.matrix, *parallel);
  EXPECT_TRUE(parallel->AllExact());
}

TEST(FeatureMatrixTest, ParallelRoughBuildMatchesSequentialRough) {
  auto sequential = testutil::MakeMiniWorld(0.4, 9);
  ThreadPool pool(2);
  FeatureMatrixOptions options;
  options.sample_rate = 0.4;
  options.seed = 9;
  options.pool = &pool;
  auto parallel = FeatureMatrix::Build(
      sequential.table.get(), sequential.views, sequential.query,
      sequential.registry.get(), options);
  ASSERT_TRUE(parallel.ok());
  ExpectBitEqualRaw(*sequential.matrix, *parallel);
  EXPECT_FALSE(parallel->AllExact());
}

TEST(FeatureMatrixTest, PerViewModeMatchesSharedScan) {
  auto world = testutil::MakeMiniWorld();  // shared scan by default
  FeatureMatrixOptions options;
  options.shared_scan = false;
  auto per_view = FeatureMatrix::Build(world.table.get(), world.views,
                                       world.query, world.registry.get(),
                                       options);
  ASSERT_TRUE(per_view.ok());
  for (size_t i = 0; i < world.matrix->num_views(); ++i) {
    for (size_t j = 0; j < world.matrix->num_features(); ++j) {
      EXPECT_DOUBLE_EQ(per_view->raw()(i, j), world.matrix->raw()(i, j));
    }
  }
}

TEST(FeatureMatrixTest, PerViewRefinementMatchesSharedScanRefinement) {
  FeatureMatrixOptions rough_options;
  rough_options.sample_rate = 0.3;
  rough_options.seed = 21;
  auto shared = testutil::MakeMiniWorld(0.3, 21);
  rough_options.shared_scan = false;
  auto per_view = FeatureMatrix::Build(shared.table.get(), shared.views,
                                       shared.query, shared.registry.get(),
                                       rough_options);
  ASSERT_TRUE(per_view.ok());
  std::vector<size_t> rows = {0, 3, 7, 8, 9};
  ASSERT_TRUE(shared.matrix->RefineRows(rows).ok());
  ASSERT_TRUE(per_view->RefineRows(rows).ok());
  for (size_t i : rows) {
    for (size_t j = 0; j < per_view->num_features(); ++j) {
      EXPECT_DOUBLE_EQ(per_view->raw()(i, j), shared.matrix->raw()(i, j));
    }
  }
  EXPECT_EQ(per_view->num_exact(), rows.size());
}

TEST(FeatureMatrixTest, CopySharesState) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrix copy = *world.matrix;
  EXPECT_TRUE(copy.SharesStateWith(*world.matrix));
  // Shared state means shared storage, not merely equal values.
  EXPECT_EQ(&copy.raw(), &world.matrix->raw());
  EXPECT_EQ(&copy.views(), &world.matrix->views());
  EXPECT_EQ(copy.ApproxBytes(), world.matrix->ApproxBytes());
  EXPECT_GT(copy.ApproxBytes(), 0u);
}

TEST(FeatureMatrixTest, RefineDetachesSharedState) {
  auto rough = testutil::MakeMiniWorld(0.3, 7);
  FeatureMatrix session_copy = *rough.matrix;
  ASSERT_TRUE(session_copy.SharesStateWith(*rough.matrix));

  ASSERT_TRUE(session_copy.RefineRows({0, 1, 2}).ok());
  EXPECT_FALSE(session_copy.SharesStateWith(*rough.matrix));
  EXPECT_EQ(session_copy.num_exact(), 3u);
  // The canonical matrix is untouched by the copy's refinement.
  EXPECT_EQ(rough.matrix->num_exact(), 0u);
  EXPECT_FALSE(rough.matrix->IsExact(0));
}

TEST(FeatureMatrixTest, CowIsolatesSiblingCopies) {
  auto rough = testutil::MakeMiniWorld(0.3, 7);
  FeatureMatrix session_a = *rough.matrix;
  FeatureMatrix session_b = *rough.matrix;

  ASSERT_TRUE(session_a.RefineRows({0, 1, 2, 3}).ok());
  // B still shares the canonical state and sees pre-refinement values.
  EXPECT_TRUE(session_b.SharesStateWith(*rough.matrix));
  for (size_t j = 0; j < session_b.num_features(); ++j) {
    EXPECT_DOUBLE_EQ(session_b.raw()(0, j), rough.matrix->raw()(0, j));
  }
  // Refining B now detaches it too; A's exact rows are unaffected.
  ASSERT_TRUE(session_b.RefineRows({5}).ok());
  EXPECT_FALSE(session_b.SharesStateWith(session_a));
  EXPECT_EQ(session_a.num_exact(), 4u);
  EXPECT_EQ(session_b.num_exact(), 1u);
  EXPECT_EQ(rough.matrix->num_exact(), 0u);
}

TEST(FeatureMatrixTest, RefineOnUniqueHandleDoesNotCopy) {
  auto rough = testutil::MakeMiniWorld(0.3, 7);
  const double* storage = rough.matrix->raw().data().data();
  ASSERT_TRUE(rough.matrix->RefineRows({0}).ok());
  // Sole owner: refinement writes in place instead of detaching.
  EXPECT_EQ(rough.matrix->raw().data().data(), storage);
}

TEST(FeatureMatrixTest, NormalizedIsPerHandleAfterDetach) {
  auto rough = testutil::MakeMiniWorld(0.3, 7);
  const ml::Matrix canonical_norm = rough.matrix->normalized();
  FeatureMatrix session_copy = *rough.matrix;
  for (size_t i = 0; i < session_copy.num_views(); ++i) {
    ASSERT_TRUE(session_copy.RefineRows({i}).ok());
  }
  // The copy renormalizes over refined values; the canonical handle's
  // normalization is untouched.
  const ml::Matrix& after = rough.matrix->normalized();
  for (size_t i = 0; i < canonical_norm.rows(); ++i) {
    for (size_t j = 0; j < canonical_norm.cols(); ++j) {
      EXPECT_DOUBLE_EQ(after(i, j), canonical_norm(i, j));
    }
  }
}

TEST(FeatureMatrixTest, DeterministicAcrossBuilds) {
  auto a = testutil::MakeMiniWorld(0.4, 9);
  auto b = testutil::MakeMiniWorld(0.4, 9);
  for (size_t i = 0; i < a.matrix->num_views(); ++i) {
    for (size_t j = 0; j < a.matrix->num_features(); ++j) {
      EXPECT_DOUBLE_EQ(a.matrix->raw()(i, j), b.matrix->raw()(i, j));
    }
  }
}

// Exact builds and refinements read their reference views from the
// table memo once a previous call filled it.  The matrices must not
// depend on whether the memo was empty or filled: bit-identical raw
// features, sequential or threaded.  70k DIAB rows put the reference
// scans above the lane-replication threshold (2^16 rows).
class FeatureMatrixMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DiabetesOptions options;
    options.num_rows = 70000;
    options.seed = 5;
    base_ = new data::Table(*data::GenerateDiabetes(options));
    views_ = new std::vector<ViewSpec>(*EnumerateViews(*base_, {}));
    query_ = new data::SelectionVector(*data::SelectRows(
        *base_, data::Compare("race", data::CompareOp::kEq,
                              data::Value("Asian"))));
  }
  static void TearDownTestSuite() {
    delete query_;
    delete views_;
    delete base_;
  }

  /// Same columns as the generated table, empty memo.
  static data::Table EmptyMemoTable() {
    std::vector<data::ColumnPtr> columns;
    for (size_t c = 0; c < base_->num_columns(); ++c) {
      columns.push_back(base_->column(c));
    }
    return *data::Table::Make(base_->schema(), std::move(columns));
  }

  static void ExpectSameRaw(const FeatureMatrix& want,
                            const FeatureMatrix& got) {
    const ml::Matrix& a = want.raw();
    const ml::Matrix& b = got.raw();
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) {
        const double x = a(i, j);
        const double y = b(i, j);
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << "row " << i << " col " << j << ": " << x << " vs " << y;
      }
    }
  }

  static data::Table* base_;
  static std::vector<ViewSpec>* views_;
  static data::SelectionVector* query_;
};

data::Table* FeatureMatrixMemoTest::base_ = nullptr;
std::vector<ViewSpec>* FeatureMatrixMemoTest::views_ = nullptr;
data::SelectionVector* FeatureMatrixMemoTest::query_ = nullptr;

TEST_F(FeatureMatrixMemoTest, ExactBuildSameWithEmptyAndFilledMemo) {
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  const data::Table empty = EmptyMemoTable();
  auto want = FeatureMatrix::Build(&empty, *views_, *query_, &registry, {});
  ASSERT_TRUE(want.ok());
  ASSERT_GT(empty.memo()->num_grids(), 0u);

  // Same table, memo now filled: served references.
  auto served = FeatureMatrix::Build(&empty, *views_, *query_, &registry, {});
  ASSERT_TRUE(served.ok());
  ExpectSameRaw(*want, *served);

  // Threaded builds racing to fill a fresh memo, then reading it.
  const data::Table raced = EmptyMemoTable();
  ThreadPool pool(4);
  FeatureMatrixOptions threaded;
  threaded.pool = &pool;
  for (int round = 0; round < 2; ++round) {
    auto got =
        FeatureMatrix::Build(&raced, *views_, *query_, &registry, threaded);
    ASSERT_TRUE(got.ok());
    ExpectSameRaw(*want, *got);
  }
  EXPECT_EQ(raced.memo()->num_grids(), empty.memo()->num_grids());
}

TEST_F(FeatureMatrixMemoTest, RefineRowsSameWithEmptyAndFilledMemo) {
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  FeatureMatrixOptions rough;
  rough.sample_rate = 0.1;
  rough.seed = 77;
  std::vector<size_t> rows;
  for (size_t i = 0; i < views_->size(); i += 7) rows.push_back(i);

  // Refinement over a table whose memo is empty: every reference scans.
  const data::Table empty = EmptyMemoTable();
  auto want = FeatureMatrix::Build(&empty, *views_, *query_, &registry, rough);
  ASSERT_TRUE(want.ok());
  // A rough build uses a sampled reference and fills no grids.
  EXPECT_EQ(empty.memo()->num_grids(), 0u);
  ASSERT_TRUE(want->RefineRows(rows).ok());

  // Refinement over a table whose memo an exact build filled first.
  const data::Table filled = EmptyMemoTable();
  auto exact = FeatureMatrix::Build(&filled, *views_, *query_, &registry, {});
  ASSERT_TRUE(exact.ok());
  const size_t grids = filled.memo()->num_grids();
  auto got = FeatureMatrix::Build(&filled, *views_, *query_, &registry, rough);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->RefineRows(rows).ok());
  EXPECT_EQ(filled.memo()->num_grids(), grids);  // every reference served
  ExpectSameRaw(*want, *got);
  // The refined rows are the exact rows; the refinement cost is unchanged.
  EXPECT_EQ(got->num_exact(), rows.size());
  EXPECT_EQ(got->RefineCostPerRow(), want->RefineCostPerRow());
  for (size_t i : rows) {
    for (size_t j = 0; j < got->num_features(); ++j) {
      const double x = exact->raw()(i, j);
      const double y = got->raw()(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0);
    }
  }
}

// Exact and rough builds gather the target selection's measures once and
// fold every group's target pass from the copies; RefineRows reads in
// place.  A rough build refined on every row is therefore the in-place
// exact matrix, and the gathered exact build must equal it bit for bit —
// sequential or with pool workers sharing the copies, shared scans or
// per-view, on the lane path (>= 2^16 selected rows), a 20,000-level
// dimension, numeric-binned dimensions, and nulls in dimensions and in
// int64 and double measures.  Below the lane thresholds the scalar oracle
// (use_kernels = false, which gathers nothing) must agree too.
class FeatureMatrixGatherTest : public ::testing::Test {
 protected:
  static data::Table MakeTable(size_t rows, uint64_t levels, uint64_t seed) {
    auto schema = *data::Schema::Make({
        {"c", data::DataType::kString, data::FieldRole::kDimension},
        {"s", data::DataType::kString, data::FieldRole::kDimension},
        {"x", data::DataType::kDouble, data::FieldRole::kDimension},
        {"i", data::DataType::kInt64, data::FieldRole::kDimension},
        {"md", data::DataType::kDouble, data::FieldRole::kMeasure},
        {"mi", data::DataType::kInt64, data::FieldRole::kMeasure},
        {"mc", data::DataType::kDouble, data::FieldRole::kMeasure},
    });
    data::TableBuilder b(schema);
    b.Reserve(rows);
    Rng rng(seed);
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t code =
          r < levels ? r : rng.NextBounded(1 + rng.NextBounded(levels));
      const bool null_c = r >= levels && rng.NextBernoulli(0.02);
      const auto s = static_cast<int64_t>(rng.NextBounded(5));
      EXPECT_TRUE(
          b.AppendRow(
               {null_c ? data::Value() : data::Value("L" + std::to_string(code)),
                rng.NextBernoulli(0.03)
                    ? data::Value()
                    : data::Value("S" + std::to_string(s)),
                rng.NextBernoulli(0.05)
                    ? data::Value()
                    : data::Value(rng.NextDouble() * 50.0 + 2.0 * s),
                data::Value(rng.NextInt64(-40, 40)),
                rng.NextBernoulli(0.1)
                    ? data::Value()
                    : data::Value(rng.NextGaussian() * 100.0 + 10.0 * s),
                rng.NextBernoulli(0.1)
                    ? data::Value()
                    : data::Value(rng.NextInt64(0, 5000) + 300 * s),
                data::Value(rng.NextDouble() + 0.1 * s)})
              .ok());
    }
    return *b.Build();
  }

  static data::SelectionVector Subset(size_t rows, double keep,
                                      uint64_t seed) {
    Rng rng(seed);
    data::SelectionVector sel;
    for (uint32_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(keep)) sel.push_back(r);
    }
    return sel;
  }

  /// The in-place exact matrix: a rough build refined on every row.
  static FeatureMatrix InPlace(const data::Table& table,
                               const std::vector<ViewSpec>& views,
                               const data::SelectionVector& query,
                               const UtilityFeatureRegistry& registry,
                               bool shared_scan) {
    FeatureMatrixOptions rough;
    rough.sample_rate = 0.5;
    rough.seed = 3;
    rough.shared_scan = shared_scan;
    auto fm = FeatureMatrix::Build(&table, views, query, &registry, rough);
    EXPECT_TRUE(fm.ok());
    std::vector<size_t> all(views.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    EXPECT_TRUE(fm->RefineRows(all).ok());
    EXPECT_TRUE(fm->AllExact());
    return *std::move(fm);
  }

  static void ExpectSameRaw(const FeatureMatrix& want,
                            const FeatureMatrix& got) {
    const ml::Matrix& a = want.raw();
    const ml::Matrix& b = got.raw();
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) {
        const double x = a(i, j);
        const double y = b(i, j);
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << "row " << i << " col " << j << ": " << x << " vs " << y;
      }
    }
  }

  /// Gathered builds under every (shared_scan, pool size) setting equal
  /// \p want; with \p oracle also the use_kernels = false build.
  static void ExpectBuildsMatch(const data::Table& table,
                                const std::vector<ViewSpec>& views,
                                const data::SelectionVector& query,
                                double sample_rate, bool oracle) {
    const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
    for (const bool shared_scan : {true, false}) {
      std::optional<FeatureMatrix> want;
      if (sample_rate >= 1.0) {
        want = InPlace(table, views, query, registry, shared_scan);
      }
      for (const size_t threads : {size_t{0}, size_t{4}}) {
        SCOPED_TRACE(std::string("shared_scan ") +
                     (shared_scan ? "on" : "off") + " threads " +
                     std::to_string(threads));
        ThreadPool pool(threads);
        FeatureMatrixOptions options;
        options.sample_rate = sample_rate;
        options.seed = 11;
        options.shared_scan = shared_scan;
        options.pool = &pool;
        auto got = FeatureMatrix::Build(&table, views, query, &registry,
                                        options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (want) ExpectSameRaw(*want, *got);
        if (oracle) {
          options.use_kernels = false;
          auto scalar = FeatureMatrix::Build(&table, views, query, &registry,
                                             options);
          ASSERT_TRUE(scalar.ok());
          ExpectSameRaw(*scalar, *got);
        }
      }
    }
  }
};

TEST_F(FeatureMatrixGatherTest, LanePathAndHighCardinalityMatchInPlace) {
  const data::Table table = MakeTable(90'000, 20'000, 71);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.8, 72);
  ASSERT_GE(query.size(), size_t{1} << 16);
  ExpectBuildsMatch(table, views, query, 1.0, /*oracle=*/false);
}

TEST_F(FeatureMatrixGatherTest, BelowLaneThresholdsMatchInPlaceAndOracle) {
  const data::Table table = MakeTable(4'000, 300, 81);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.3, 82);
  ExpectBuildsMatch(table, views, query, 1.0, /*oracle=*/true);
  // Rough builds gather the sampled target too.
  ExpectBuildsMatch(table, views, query, 0.3, /*oracle=*/true);
}

// kernel.run_fail fires in the first kernel pass, the gathered target
// pass of the first group: the build fails with Internal, publishes no
// grid to the table memo, and the next build succeeds unchanged.
TEST_F(FeatureMatrixGatherTest, KernelFaultFailsGatheredBuild) {
  const data::Table table = MakeTable(2'000, 40, 91);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.4, 92);
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  FeatureMatrixOptions scalar_options;
  scalar_options.use_kernels = false;
  auto want =
      FeatureMatrix::Build(&table, views, query, &registry, scalar_options);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(table.memo()->num_grids(), 0u);
  {
    fault::FaultInjector injector(1);
    injector.SetSchedule("kernel.run_fail", {1});
    fault::ScopedFaultInjector scoped(&injector);
    auto failed = FeatureMatrix::Build(&table, views, query, &registry, {});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_EQ(injector.Stats("kernel.run_fail").fires, 1u);
    EXPECT_EQ(table.memo()->num_grids(), 0u);
  }
  auto recovered = FeatureMatrix::Build(&table, views, query, &registry, {});
  ASSERT_TRUE(recovered.ok());
  ExpectSameRaw(*want, *recovered);
}

// Every pool size builds the sequential matrix, bit for bit: exact and
// rough, shared scans and per-view groups.  Dimension c has more than 256
// levels, so its target passes take the no-lane path, and null cells in
// it and in the md/mi measures; on the larger table the exact build's
// few-bin groups take the lane path beside it.  Its views span many
// blocks of the fused deviation pass and end in a partial one (4,097
// levels leave a single bin), so phase B runs them first, beside the
// few-bin views that fit in one block.
TEST_F(FeatureMatrixGatherTest, EveryPoolSizeMatchesSequential) {
  struct Shape {
    size_t rows;
    uint64_t levels;
    double keep;
  };
  for (const Shape& shape :
       {Shape{6'000, 500, 0.35}, Shape{70'000, 300, 0.97},
        Shape{9'000, 4'097, 0.6}}) {
    const data::Table table = MakeTable(shape.rows, shape.levels, 101);
    const auto views = *EnumerateViews(table, {});
    const data::SelectionVector query =
        Subset(table.num_rows(), shape.keep, 102);
    const auto* c = dynamic_cast<const data::CategoricalColumn*>(
        table.ColumnByName("c")->get());
    ASSERT_NE(c, nullptr);
    ASSERT_GT(c->cardinality(), 256);
    ASSERT_GT(c->cardinality(), static_cast<int32_t>(kFusedBlock));
    ASSERT_NE(static_cast<size_t>(c->cardinality()) % kFusedBlock, 0u);
    ASSERT_GT(c->null_count(), 0u);
    ASSERT_GT((*table.ColumnByName("md"))->null_count(), 0u);
    ASSERT_GT((*table.ColumnByName("mi"))->null_count(), 0u);
    if (shape.keep > 0.9) {
      ASSERT_GE(query.size(), size_t{1} << 16);
    }
    const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
    for (const double sample_rate : {1.0, 0.3}) {
      for (const bool shared_scan : {true, false}) {
        FeatureMatrixOptions options;
        options.sample_rate = sample_rate;
        options.seed = 5;
        options.shared_scan = shared_scan;
        auto want = FeatureMatrix::Build(&table, views, query, &registry,
                                         options);
        ASSERT_TRUE(want.ok());
        for (const size_t workers : {0, 1, 3, 8}) {
          SCOPED_TRACE("rows " + std::to_string(shape.rows) + " alpha " +
                       std::to_string(sample_rate) + " shared " +
                       std::to_string(shared_scan) + " workers " +
                       std::to_string(workers));
          ThreadPool pool(workers);
          options.pool = &pool;
          auto got = FeatureMatrix::Build(&table, views, query, &registry,
                                          options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameRaw(*want, *got);
          EXPECT_EQ(got->AllExact(), sample_rate >= 1.0);
          options.pool = nullptr;
        }
      }
    }
  }
}

// Four threads build different subsets at once on one shared pool (the
// serving layer's concurrent creates); each gets its sequential matrix.
TEST_F(FeatureMatrixGatherTest, ConcurrentBuildsShareOnePool) {
  const data::Table table = MakeTable(8'000, 700, 111);
  const auto views = *EnumerateViews(table, {});
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  constexpr size_t kBuilders = 4;
  std::vector<data::SelectionVector> queries;
  std::vector<FeatureMatrix> want;
  for (size_t b = 0; b < kBuilders; ++b) {
    queries.push_back(Subset(table.num_rows(), 0.1 + 0.2 * b, 112 + b));
    auto fm = FeatureMatrix::Build(&table, views, queries[b], &registry, {});
    ASSERT_TRUE(fm.ok());
    want.push_back(*std::move(fm));
  }
  ThreadPool pool(3);
  std::vector<std::optional<FeatureMatrix>> got(kBuilders);
  std::vector<std::string> errors(kBuilders);
  std::vector<std::thread> builders;
  for (size_t b = 0; b < kBuilders; ++b) {
    builders.emplace_back([&, b] {
      FeatureMatrixOptions options;
      options.pool = &pool;
      for (int round = 0; round < 3; ++round) {
        auto fm =
            FeatureMatrix::Build(&table, views, queries[b], &registry, options);
        if (!fm.ok()) {
          errors[b] = fm.status().ToString();
          return;
        }
        got[b] = *std::move(fm);
      }
    });
  }
  for (std::thread& t : builders) t.join();
  for (size_t b = 0; b < kBuilders; ++b) {
    SCOPED_TRACE("builder " + std::to_string(b));
    EXPECT_EQ(errors[b], "");
    ASSERT_TRUE(got[b].has_value());
    ExpectSameRaw(want[b], *got[b]);
  }
}

// A custom feature runs per view inside the view tasks.
TEST_F(FeatureMatrixGatherTest, CustomFeatureRegistryMatchesSequential) {
  const data::Table table = MakeTable(5'000, 400, 121);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.3, 122);
  UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  ASSERT_TRUE(registry.Register("TREND", MakeTrendFeature()).ok());
  auto want = FeatureMatrix::Build(&table, views, query, &registry, {});
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->num_features(), 9u);
  ThreadPool pool(3);
  FeatureMatrixOptions options;
  options.pool = &pool;
  auto got = FeatureMatrix::Build(&table, views, query, &registry, options);
  ASSERT_TRUE(got.ok());
  ExpectSameRaw(*want, *got);
}

// An injected kernel failure fails a pooled build with the status of the
// sequential build, wherever among the pool's tasks it fires.  Each build
// reads a fresh table, so every one starts from an empty memo and makes
// the same kernel passes: for each of the four groups (c, s, x and i, in
// view order) one gathered target pass per measure (md, mi, mc), then its
// reference pass, 4 x (3 + 1) = 16 in the inline build's task order.
TEST_F(FeatureMatrixGatherTest, KernelFaultReturnsSequentialStatus) {
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  ThreadPool pool(3);
  auto build_with = [&](ThreadPool* with, std::vector<uint64_t> schedule,
                        uint64_t* hits) {
    const data::Table table = MakeTable(3'000, 60, 131);
    const auto views = *EnumerateViews(table, {});
    const data::SelectionVector query = Subset(table.num_rows(), 0.4, 132);
    fault::FaultInjector injector(1);
    if (schedule.empty()) {
      injector.SetProbability("kernel.run_fail", 1.0);
    } else {
      injector.SetSchedule("kernel.run_fail", std::move(schedule));
    }
    fault::ScopedFaultInjector scoped(&injector);
    FeatureMatrixOptions options;
    options.pool = with;
    const vs::Status status =
        FeatureMatrix::Build(&table, views, query, &registry, options)
            .status();
    if (hits != nullptr) *hits = injector.Stats("kernel.run_fail").hits;
    return status;
  };
  uint64_t passes = 0;
  ASSERT_TRUE(build_with(nullptr, {1000}, &passes).ok());
  ASSERT_EQ(passes, 16u);
  // Every hit fails, or exactly the first or second target pass, the
  // first reference pass, or the last pass.
  for (const std::vector<uint64_t>& schedule :
       {std::vector<uint64_t>{}, {1}, {2}, {4}, {16}}) {
    SCOPED_TRACE("schedule " + (schedule.empty()
                                    ? std::string("every hit")
                                    : std::to_string(schedule[0])));
    uint64_t hits = 0;
    const vs::Status sequential = build_with(nullptr, schedule, &hits);
    ASSERT_FALSE(sequential.ok());
    // The inline build stops at the failing pass.
    EXPECT_EQ(hits, schedule.empty() ? 1u : schedule[0]);
    for (int run = 0; run < 5; ++run) {
      const vs::Status pooled = build_with(&pool, schedule, nullptr);
      EXPECT_EQ(pooled.code(), sequential.code());
      EXPECT_EQ(pooled.message(), sequential.message());
    }
  }
}

// Two groups, then two views, fail with different errors: every pooled
// build reports the first in group or view order, as the inline build
// does, even when a later task fails first.
TEST_F(FeatureMatrixGatherTest, FirstFailureInOrderWinsWithPool) {
  const data::Table table = MakeTable(3'000, 60, 141);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.4, 142);
  ThreadPool pool(3);
  auto expect_inline_status = [&](const std::vector<ViewSpec>& specs,
                                  const UtilityFeatureRegistry& registry,
                                  bool use_kernels, const std::string& want) {
    FeatureMatrixOptions sequential;
    sequential.use_kernels = use_kernels;
    FeatureMatrixOptions pooled = sequential;
    pooled.pool = &pool;
    const vs::Status inline_status =
        FeatureMatrix::Build(&table, specs, query, &registry, sequential)
            .status();
    ASSERT_FALSE(inline_status.ok());
    EXPECT_NE(inline_status.message().find(want), std::string::npos)
        << inline_status.ToString();
    for (int run = 0; run < 10; ++run) {
      const vs::Status got =
          FeatureMatrix::Build(&table, specs, query, &registry, pooled)
              .status();
      EXPECT_EQ(got.code(), inline_status.code());
      EXPECT_EQ(got.message(), inline_status.message());
    }
  };

  // Unknown dimensions in the second and the last group.  The kernel path
  // meets them while staging the groups' bins (phase 0), the scalar
  // oracle in the groups' passes (phase A); both in group order.
  std::vector<ViewSpec> bad_groups = views;
  ViewSpec first_bad = views.back();
  first_bad.dimension = "no_such_dimension_a";
  ViewSpec second_bad = views.back();
  second_bad.dimension = "no_such_dimension_b";
  bad_groups.insert(bad_groups.begin() + 1, first_bad);
  bad_groups.push_back(second_bad);
  const UtilityFeatureRegistry builtins = UtilityFeatureRegistry::Default();
  for (const bool use_kernels : {true, false}) {
    SCOPED_TRACE(use_kernels ? "kernel" : "scalar oracle");
    expect_inline_status(bad_groups, builtins, use_kernels,
                         "no_such_dimension_a");
  }

  // Phase B: a custom feature fails slowly on the first view and at once
  // on the last group's views, so the later failure is recorded first.
  const data::GroupByExecutor executor(&table);
  const std::vector<double> first_values =
      executor.Execute(views.front().ToGroupBySpec(), &query)->values;
  const size_t fast_bins =
      static_cast<size_t>(*executor.NumBins(views.back().ToGroupBySpec()));
  ASSERT_NE(first_values.size(), fast_bins);
  UtilityFeatureRegistry failing = UtilityFeatureRegistry::Default();
  ASSERT_TRUE(failing
                  .Register("FAILS",
                            [=](const ViewMaterialization& view)
                                -> vs::Result<double> {
                              const size_t bins = view.target.num_bins();
                              if (view.target.values == first_values) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(20));
                                return vs::Status::Internal("slow failure");
                              }
                              if (bins == fast_bins) {
                                return vs::Status::Internal("fast failure");
                              }
                              return 0.0;
                            })
                  .ok());
  expect_inline_status(views, failing, /*use_kernels=*/true, "slow failure");
}

// Phase B runs the widest views first but reports the first failure in
// view order.  One measure holds +inf in one row, so every view over it
// that sums or maxes that row fails to normalize, with an error that
// names its width: the early views over the 5-level dimension s and the
// later ones over the 1,000-level dimension c, which a pool starts
// first.  Every pool size returns the inline build's status, which is
// the first s view's.
TEST_F(FeatureMatrixGatherTest, WidestFirstReportsFirstFailureInViewOrder) {
  auto schema = *data::Schema::Make({
      {"s", data::DataType::kString, data::FieldRole::kDimension},
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
      {"ok", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  Rng rng(161);
  constexpr uint64_t kWide = 1'000;
  for (uint64_t r = 0; r < 4'000; ++r) {
    const uint64_t code = r < kWide ? r : rng.NextBounded(kWide);
    ASSERT_TRUE(
        b.AppendRow(
             {data::Value(StrFormat("S%d", static_cast<int>(r % 5))),
              data::Value(StrFormat("L%d", static_cast<int>(code))),
              data::Value(r == 777 ? std::numeric_limits<double>::infinity()
                                   : rng.NextGaussian()),
              data::Value(rng.NextDouble())})
            .ok());
  }
  const data::Table table = *b.Build();
  const data::SelectionVector query = Subset(table.num_rows(), 0.5, 162);
  ASSERT_TRUE(std::binary_search(query.begin(), query.end(), 777u));
  using data::AggregateFunction;
  std::vector<ViewSpec> views;
  std::vector<ViewSpec> wide_views;
  for (const char* dimension : {"s", "c"}) {
    for (const char* measure : {"ok", "m"}) {
      for (const AggregateFunction func :
           {AggregateFunction::kCount, AggregateFunction::kSum,
            AggregateFunction::kMax}) {
        views.push_back({dimension, measure, func, 0});
        if (std::string(dimension) == "c") wide_views.push_back(views.back());
      }
    }
  }
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  const vs::Status sequential =
      FeatureMatrix::Build(&table, views, query, &registry, {}).status();
  ASSERT_FALSE(sequential.ok());
  EXPECT_NE(sequential.message().find("in bin 2 of 5"), std::string::npos)
      << sequential.ToString();
  // The wide views fail too, with an error of their own.
  const vs::Status wide =
      FeatureMatrix::Build(&table, wide_views, query, &registry, {}).status();
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.message().find("in bin 777 of 1000"), std::string::npos)
      << wide.ToString();
  for (const size_t workers : {0, 1, 3, 8}) {
    SCOPED_TRACE(StrFormat("workers %zu", workers));
    ThreadPool pool(workers);
    FeatureMatrixOptions options;
    options.pool = &pool;
    for (int run = 0; run < 5; ++run) {
      const vs::Status pooled =
          FeatureMatrix::Build(&table, views, query, &registry, options)
              .status();
      EXPECT_EQ(pooled.code(), sequential.code());
      EXPECT_EQ(pooled.message(), sequential.message());
    }
  }
}

// feature_seconds holds the feature phase's wall time, so with a pool its
// sum per build stays within the build's own time (data.groupby_ms, build
// minus features, cannot go negative).
TEST_F(FeatureMatrixGatherTest, FeatureSecondsIsWithinBuildSeconds) {
  const data::Table table = MakeTable(20'000, 5'000, 151);
  const auto views = *EnumerateViews(table, {});
  const data::SelectionVector query = Subset(table.num_rows(), 0.5, 152);
  const UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();
  auto& metrics = obs::MetricsRegistry::Default();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  obs::Histogram* build_seconds = metrics.GetHistogram(
      "feature_matrix.build_seconds", obs::DefaultLatencyBuckets());
  obs::Histogram* feature_seconds = metrics.GetHistogram(
      "feature_matrix.feature_seconds", obs::DefaultLatencyBuckets());
  ThreadPool pool(3);
  FeatureMatrixOptions options;
  options.pool = &pool;
  for (int round = 0; round < 3; ++round) {
    const double build_before = build_seconds->sum();
    const double feature_before = feature_seconds->sum();
    const uint64_t features_observed = feature_seconds->count();
    ASSERT_TRUE(
        FeatureMatrix::Build(&table, views, query, &registry, options).ok());
    const double build = build_seconds->sum() - build_before;
    const double feature = feature_seconds->sum() - feature_before;
    EXPECT_GT(feature, 0.0);
    EXPECT_LE(feature, build);
    EXPECT_EQ(feature_seconds->count(), features_observed + 1);
  }
  metrics.set_enabled(was_enabled);
}

}  // namespace
}  // namespace vs::core
