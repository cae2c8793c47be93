/// Feature-matrix equality: Build and RefineRows compute Usability,
/// Accuracy and P-value once per (target grid, reference grid) pair and
/// share them across that measure's views, so their raw matrices must be
/// bit-equal to per-view ComputeAll over the same materializations.  The
/// measures carry null cells in different rows, so each has its own
/// per-bin counts: a shortcut keyed by dimension instead of by measure
/// would give some view another measure's Usability or P-value.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/threadpool.h"
#include "core/feature_matrix.h"
#include "core/view_data.h"
#include "data/groupby.h"
#include "data/sampler.h"

namespace vs::core {
namespace {

/// A categorical dimension "c", a numeric dimension "x", and measures
/// "m1" (null mostly on label L0), "m2" (null on a tenth of the rows,
/// elsewhere) and "m3" (null-free).
data::Table NullMeasureTable() {
  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"x", data::DataType::kDouble, data::FieldRole::kDimension},
      {"m1", data::DataType::kDouble, data::FieldRole::kMeasure},
      {"m2", data::DataType::kInt64, data::FieldRole::kMeasure},
      {"m3", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  Rng rng(29);
  for (int r = 0; r < 4000; ++r) {
    const uint64_t label = rng.NextBounded(7);
    const double x = rng.NextDouble() * 10.0;
    const bool m1_null = label == 0 ? rng.NextBernoulli(0.8)
                                    : rng.NextBernoulli(0.05);
    const bool m2_null = rng.NextBernoulli(0.1);
    EXPECT_TRUE(
        b.AppendRow(
             {data::Value("L" + std::to_string(label)), data::Value(x),
              m1_null ? data::Value()
                      : data::Value(rng.NextGaussian() + x * 0.3),
              m2_null ? data::Value()
                      : data::Value(rng.NextInt64(0, 20)),
              data::Value(rng.NextGaussian() * 2.0 + label)})
            .ok());
  }
  return *b.Build();
}

std::vector<ViewSpec> AllViews(const data::Table& table) {
  ViewEnumerationOptions options;
  options.numeric_bin_configs = {3, 5};
  return *EnumerateViews(table, options);
}

data::SelectionVector Query(const data::Table& table) {
  data::SelectionVector query;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    if (r % 3 == 0 || r % 7 == 1) query.push_back(r);
  }
  return query;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Per-view ComputeAll over views materialized one at a time: targets
/// over \p target, references over \p reference (nullptr = all rows).
ml::Matrix PerViewFeatures(const data::Table& table,
                           const std::vector<ViewSpec>& views,
                           const data::SelectionVector& target,
                           const data::SelectionVector* reference,
                           const UtilityFeatureRegistry& registry) {
  data::GroupByExecutor executor(&table);
  ml::Matrix out(views.size(), registry.size());
  for (size_t i = 0; i < views.size(); ++i) {
    auto mat = MaterializeView(executor, views[i], target, reference);
    EXPECT_TRUE(mat.ok()) << mat.status().ToString();
    if (!mat.ok()) continue;
    auto features = registry.ComputeAll(*mat);
    EXPECT_TRUE(features.ok()) << features.status().ToString();
    if (!features.ok()) continue;
    for (size_t j = 0; j < features->size(); ++j) out(i, j) = (*features)[j];
  }
  return out;
}

void ExpectBitEqual(const ml::Matrix& want, const ml::Matrix& got,
                    const std::vector<ViewSpec>& views,
                    const UtilityFeatureRegistry& registry) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(Bits(want(i, j)), Bits(got(i, j)))
          << views[i].ToGroupBySpec().ToString() << " "
          << registry.names()[j] << ": " << want(i, j) << " vs " << got(i, j);
    }
  }
}

/// The default registry, and the default registry with one custom feature
/// appended (evaluated per view through its own function).
std::vector<UtilityFeatureRegistry> Registries() {
  std::vector<UtilityFeatureRegistry> registries;
  registries.push_back(UtilityFeatureRegistry::Default());
  registries.push_back(UtilityFeatureRegistry::Default());
  EXPECT_TRUE(registries.back().Register("TREND", MakeTrendFeature()).ok());
  return registries;
}

TEST(FeatureMatrixEqualityTest, MeasuresHaveTheirOwnCounts) {
  // The premise of the suite: on one dimension, the three measures'
  // per-bin counts differ.
  const data::Table table = NullMeasureTable();
  data::GroupByExecutor executor(&table);
  const data::SelectionVector query = Query(table);
  auto m1 = executor.Execute({"c", "m1", data::AggregateFunction::kAvg, 0},
                             &query);
  auto m2 = executor.Execute({"c", "m2", data::AggregateFunction::kAvg, 0},
                             &query);
  auto m3 = executor.Execute({"c", "m3", data::AggregateFunction::kAvg, 0},
                             &query);
  ASSERT_TRUE(m1.ok() && m2.ok() && m3.ok());
  EXPECT_NE(m1->counts(), m2->counts());
  EXPECT_NE(m1->counts(), m3->counts());
  EXPECT_NE(m2->counts(), m3->counts());
}

TEST(FeatureMatrixEqualityTest, ExactBuildMatchesPerViewComputeAll) {
  const data::Table table = NullMeasureTable();
  const std::vector<ViewSpec> views = AllViews(table);
  const data::SelectionVector query = Query(table);
  for (const UtilityFeatureRegistry& registry : Registries()) {
    SCOPED_TRACE(registry.size());
    const ml::Matrix want =
        PerViewFeatures(table, views, query, nullptr, registry);
    for (size_t threads : {size_t{0}, size_t{2}}) {
      ThreadPool pool(threads);
      FeatureMatrixOptions options;
      options.pool = &pool;
      auto fm = FeatureMatrix::Build(&table, views, query, &registry, options);
      ASSERT_TRUE(fm.ok()) << fm.status().ToString();
      ExpectBitEqual(want, fm->raw(), views, registry);
    }
  }
}

TEST(FeatureMatrixEqualityTest, RoughBuildAndRefineMatchPerViewComputeAll) {
  const data::Table table = NullMeasureTable();
  const std::vector<ViewSpec> views = AllViews(table);
  const data::SelectionVector query = Query(table);
  FeatureMatrixOptions options;
  options.sample_rate = 0.3;
  options.seed = 77;
  // The sample Build draws: the same seed and rate over the table's rows,
  // with the target restricted to the sampled query rows.
  Rng rng(options.seed);
  const data::SelectionVector sample =
      data::BernoulliSample(table.num_rows(), options.sample_rate, &rng);
  data::SelectionVector sampled_query;
  std::set_intersection(query.begin(), query.end(), sample.begin(),
                        sample.end(), std::back_inserter(sampled_query));
  ASSERT_FALSE(sampled_query.empty());

  for (const UtilityFeatureRegistry& registry : Registries()) {
    SCOPED_TRACE(registry.size());
    auto fm = FeatureMatrix::Build(&table, views, query, &registry, options);
    ASSERT_TRUE(fm.ok()) << fm.status().ToString();
    EXPECT_EQ(fm->num_exact(), 0u);
    ExpectBitEqual(
        PerViewFeatures(table, views, sampled_query, &sample, registry),
        fm->raw(), views, registry);

    // Refining every row (one shared scan per group) lands on the exact
    // per-view values.
    std::vector<size_t> all(views.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    ASSERT_TRUE(fm->RefineRows(all).ok());
    EXPECT_TRUE(fm->AllExact());
    ExpectBitEqual(PerViewFeatures(table, views, query, nullptr, registry),
                   fm->raw(), views, registry);
  }
}

}  // namespace
}  // namespace vs::core
