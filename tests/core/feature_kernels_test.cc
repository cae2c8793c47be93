#include "core/feature_kernels.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/utility_features.h"
#include "core/view_data.h"
#include "data/groupby.h"
#include "data/table.h"
#include "data/value.h"
#include "stats/distance.h"
#include "stats/histogram.h"

namespace vs::core {
namespace {

// Differential equivalence suite for the fused utility-feature kernels
// (core/feature_kernels.h) against the per-feature scalar functions: the
// deviation family within 1e-9 (lane partial sums reassociate), the
// non-loop features (Usability / Accuracy / P-value) bit-identical.

constexpr double kTolerance = 1e-9;

void ExpectFeatureNear(double oracle, double got, const std::string& what) {
  if (std::isnan(oracle) || std::isnan(got)) {
    EXPECT_EQ(std::isnan(oracle), std::isnan(got)) << what;
    return;
  }
  EXPECT_LE(std::fabs(oracle - got),
            kTolerance * std::max({1.0, std::fabs(oracle), std::fabs(got)}))
      << what << " oracle=" << oracle << " got=" << got;
}

stats::Distribution RandomDistribution(Rng& rng, size_t bins) {
  std::vector<double> raw(bins);
  double total = 0.0;
  const bool spiky = rng.NextBernoulli(0.3);
  for (size_t i = 0; i < bins; ++i) {
    raw[i] = spiky && !rng.NextBernoulli(0.2) ? 0.0 : rng.NextDouble();
    total += raw[i];
  }
  if (total == 0.0 && bins > 0) {
    raw[rng.NextBounded(bins)] = 1.0;
    total = 1.0;
  }
  for (double& v : raw) v /= total;
  return stats::Distribution{std::move(raw)};
}

// 500 random aligned pairs per run: the fused single-pass deviation
// kernel vs the five stats:: scalar distances.
TEST(FeatureKernelsTest, FusedDeviationMatchesScalarDistances) {
  Rng rng(20260808);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const size_t bins = 1 + rng.NextBounded(200);
    const stats::Distribution p = RandomDistribution(rng, bins);
    const stats::Distribution q = RandomDistribution(rng, bins);
    auto fused = FusedDeviationDistances(p, q);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();

    const std::string context = "iter " + std::to_string(iteration) +
                                " bins " + std::to_string(bins);
    ExpectFeatureNear(*stats::KlDivergence(p, q), fused->kl, context + " KL");
    ExpectFeatureNear(*stats::EarthMoversDistance(p, q), fused->emd,
                      context + " EMD");
    ExpectFeatureNear(*stats::L1Distance(p, q), fused->l1, context + " L1");
    ExpectFeatureNear(*stats::L2Distance(p, q), fused->l2, context + " L2");
    ExpectFeatureNear(*stats::MaxDiff(p, q), fused->max_diff,
                      context + " MAX_DIFF");
  }
}

TEST(FeatureKernelsTest, FusedDeviationShapeErrorsMatchScalar) {
  const stats::Distribution p{{0.5, 0.5}};
  const stats::Distribution q{{0.25, 0.25, 0.5}};
  auto fused = FusedDeviationDistances(p, q);
  auto scalar = stats::L1Distance(p, q);
  EXPECT_FALSE(fused.ok());
  EXPECT_FALSE(scalar.ok());
  EXPECT_EQ(fused.status().code(), scalar.status().code());

  const stats::Distribution empty{{}};
  auto fused_empty = FusedDeviationDistances(empty, empty);
  auto scalar_empty = stats::L1Distance(empty, empty);
  EXPECT_EQ(fused_empty.ok(), scalar_empty.ok());
}

// End-to-end: materialized views from random tables through the Default()
// registry with kernels on vs off.  The deviation prefix agrees within
// tolerance; Usability/Accuracy/P-value delegate to the same stats::
// routines and must be bit-identical.
TEST(FeatureKernelsTest, RegistryComputeAllMatchesScalarOnRandomViews) {
  Rng rng(77);
  auto kernel_registry = UtilityFeatureRegistry::Default();
  auto scalar_registry = UtilityFeatureRegistry::Default();
  scalar_registry.set_use_kernels(false);
  ASSERT_TRUE(kernel_registry.use_kernels());
  ASSERT_FALSE(scalar_registry.use_kernels());

  for (int iteration = 0; iteration < 40; ++iteration) {
    auto schema = *data::Schema::Make({
        {"c", data::DataType::kString, data::FieldRole::kDimension},
        {"x", data::DataType::kDouble, data::FieldRole::kDimension},
        {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
    });
    const size_t rows = 20 + rng.NextBounded(300);
    data::TableBuilder b(schema);
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(
          b.AppendRow({data::Value(StrFormat(
                       "L%d", static_cast<int>(rng.NextBounded(9)))),
                       data::Value(rng.NextDouble() * 50.0),
                       data::Value(rng.NextGaussian() * 4.0 + 1.0)})
              .ok());
    }
    data::Table table = *b.Build();
    data::GroupByExecutor executor(&table);

    data::SelectionVector query;
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(0.35)) query.push_back(static_cast<uint32_t>(r));
    }
    if (query.empty()) query.push_back(0);

    for (const ViewSpec& spec :
         {ViewSpec{"c", "m", data::AggregateFunction::kAvg, 0},
          ViewSpec{"c", "m", data::AggregateFunction::kSum, 0},
          ViewSpec{"x", "m", data::AggregateFunction::kCount, 5}}) {
      auto view = MaterializeView(executor, spec, query);
      if (!view.ok()) continue;  // degenerate distribution; both paths skip
      auto kernel_values = kernel_registry.ComputeAll(*view);
      auto scalar_values = scalar_registry.ComputeAll(*view);
      ASSERT_EQ(kernel_values.ok(), scalar_values.ok());
      if (!kernel_values.ok()) continue;
      ASSERT_EQ(kernel_values->size(), scalar_values->size());
      for (int f = 0; f < kNumBuiltinFeatures; ++f) {
        const std::string context =
            "iter " + std::to_string(iteration) + " " +
            UtilityFeatureName(static_cast<UtilityFeature>(f));
        if (f >= static_cast<int>(UtilityFeature::kUsability)) {
          EXPECT_EQ((*kernel_values)[f], (*scalar_values)[f]) << context;
        } else {
          ExpectFeatureNear((*scalar_values)[f], (*kernel_values)[f], context);
        }
      }
    }
  }
}

// Custom features registered on top of the built-in prefix always run
// through their own function, on both settings, in registration order.
TEST(FeatureKernelsTest, CustomFeatureUnaffectedByKernelToggle) {
  auto registry = UtilityFeatureRegistry::Default();
  ASSERT_TRUE(registry
                  .Register("CONST42",
                            [](const ViewMaterialization&) -> vs::Result<double> {
                              return 42.0;
                            })
                  .ok());

  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  Rng rng(5);
  for (int r = 0; r < 60; ++r) {
    ASSERT_TRUE(
        b.AppendRow({data::Value(StrFormat(
                       "L%d", static_cast<int>(rng.NextBounded(4)))),
                     data::Value(rng.NextDouble())})
            .ok());
  }
  data::Table table = *b.Build();
  data::GroupByExecutor executor(&table);
  data::SelectionVector query = {0, 2, 4, 6, 8, 10};
  auto view = MaterializeView(
      executor, {"c", "m", data::AggregateFunction::kAvg, 0}, query);
  ASSERT_TRUE(view.ok());

  for (const bool use_kernels : {true, false}) {
    registry.set_use_kernels(use_kernels);
    auto values = registry.ComputeAll(*view);
    ASSERT_TRUE(values.ok());
    ASSERT_EQ(values->size(), static_cast<size_t>(kNumBuiltinFeatures) + 1);
    EXPECT_EQ((*values)[kNumBuiltinFeatures], 42.0);
  }
}

// A registry whose prefix is NOT the unmodified built-in eight must never
// take the fused path, even with kernels enabled.
TEST(FeatureKernelsTest, NonDefaultRegistryIgnoresKernelFlag) {
  UtilityFeatureRegistry registry;
  ASSERT_TRUE(registry
                  .Register("ONLY",
                            [](const ViewMaterialization&) -> vs::Result<double> {
                              return 7.0;
                            })
                  .ok());
  registry.set_use_kernels(true);

  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({data::Value("a"), data::Value(1.0)}).ok());
  ASSERT_TRUE(b.AppendRow({data::Value("b"), data::Value(2.0)}).ok());
  data::Table table = *b.Build();
  data::GroupByExecutor executor(&table);
  data::SelectionVector query = {0};
  auto view = MaterializeView(
      executor, {"c", "m", data::AggregateFunction::kAvg, 0}, query);
  ASSERT_TRUE(view.ok());
  auto values = registry.ComputeAll(*view);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0], 7.0);
}

// ComputeBuiltinFeatures is the raw kernel entry point used by the
// registry; its output must line up index-for-index with ComputeAll.
TEST(FeatureKernelsTest, ComputeBuiltinFeaturesMatchesRegistry) {
  auto schema = *data::Schema::Make({
      {"c", data::DataType::kString, data::FieldRole::kDimension},
      {"m", data::DataType::kDouble, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  Rng rng(11);
  for (int r = 0; r < 120; ++r) {
    ASSERT_TRUE(
        b.AppendRow({data::Value(StrFormat(
                       "L%d", static_cast<int>(rng.NextBounded(6)))),
                     data::Value(rng.NextGaussian() + 3.0)})
            .ok());
  }
  data::Table table = *b.Build();
  data::GroupByExecutor executor(&table);
  data::SelectionVector query;
  for (uint32_t r = 0; r < 120; r += 3) query.push_back(r);
  auto view = MaterializeView(
      executor, {"c", "m", data::AggregateFunction::kSum, 0}, query);
  ASSERT_TRUE(view.ok());

  auto measure = ComputeMeasureFeatures(view->target, view->reference);
  ASSERT_TRUE(measure.ok());
  double raw[kNumBuiltinFeatures] = {};
  ASSERT_TRUE(ComputeBuiltinFeatures(*view, *measure, raw).ok());
  auto registry = UtilityFeatureRegistry::Default();
  auto values = registry.ComputeAll(*view);
  ASSERT_TRUE(values.ok());
  for (int f = 0; f < kNumBuiltinFeatures; ++f) {
    EXPECT_EQ(raw[f], (*values)[f]) << f;
  }
  // The shared-measure overload gives the same bits, and is refused by a
  // registry that does not fuse the built-ins.
  auto shared = registry.ComputeAll(*view, *measure);
  ASSERT_TRUE(shared.ok());
  for (int f = 0; f < kNumBuiltinFeatures; ++f) {
    EXPECT_EQ((*shared)[f], (*values)[f]) << f;
  }
  registry.set_use_kernels(false);
  EXPECT_FALSE(registry.fuses_builtins());
  EXPECT_TRUE(
      registry.ComputeAll(*view, *measure).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace vs::core
