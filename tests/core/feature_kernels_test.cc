#include "core/feature_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
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

// The raw-values path: each side's scale, then the kernel on the raw bins.
vs::Result<DeviationDistances> FromRawValues(
    const std::vector<double>& target, const std::vector<double>& reference,
    double smoothing) {
  VS_ASSIGN_OR_RETURN(const stats::BinScale target_scale,
                      stats::ComputeBinScale(target));
  VS_ASSIGN_OR_RETURN(const stats::BinScale reference_scale,
                      stats::ComputeBinScale(reference));
  return FusedDeviationDistances(target, target_scale, reference,
                                 reference_scale, smoothing);
}

// The distribution path: stats::Normalize on each side, then the kernel.
vs::Result<DeviationDistances> FromDistributions(
    const std::vector<double>& target, const std::vector<double>& reference,
    double smoothing) {
  VS_ASSIGN_OR_RETURN(const stats::Distribution p, stats::Normalize(target));
  VS_ASSIGN_OR_RETURN(const stats::Distribution q,
                      stats::Normalize(reference));
  return FusedDeviationDistances(p, q, smoothing);
}

// The scalar status: stats::Normalize on each side, then
// stats::KlDivergence, the one scalar distance that can fail on aligned
// distributions.
vs::Status ScalarStatus(const std::vector<double>& target,
                        const std::vector<double>& reference,
                        double smoothing) {
  VS_ASSIGN_OR_RETURN(const stats::Distribution p, stats::Normalize(target));
  VS_ASSIGN_OR_RETURN(const stats::Distribution q,
                      stats::Normalize(reference));
  return stats::KlDivergence(p, q, smoothing).status();
}

void ExpectSameBits(double want, double got, const std::string& what) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << ": " << want << " vs " << got;
}

// Raw bins of one kind, \p bins long.
std::vector<double> RawBins(Rng& rng, size_t bins, const std::string& kind) {
  std::vector<double> values(bins);
  for (size_t i = 0; i < bins; ++i) {
    if (kind == "positive") {
      values[i] = rng.NextDouble() * 100.0;
    } else if (kind == "signed") {  // shifted by the minimum
      values[i] = rng.NextGaussian() * 10.0;
    } else if (kind == "sparse") {  // zero mass in most bins
      values[i] = rng.NextBernoulli(0.2) ? rng.NextDouble() : 0.0;
    } else if (kind == "zero") {  // uniform
      values[i] = 0.0;
    } else if (kind == "inf") {
      values[i] = i == bins / 2 ? std::numeric_limits<double>::infinity()
                                : rng.NextDouble();
    } else if (kind == "nan") {
      values[i] = i + 1 == bins ? std::numeric_limits<double>::quiet_NaN()
                                : rng.NextDouble();
    }
  }
  return values;
}

// Scaling inside the kernel is exact: over every bin count around the lane
// width and the block size, up to a 20,000-level dimension, and raw bins
// that are shifted, uniform, sparse (zero reference mass, an error with
// smoothing 0) or non-finite, the raw-values result has the bits of
// stats::Normalize followed by the kernel, and every error has the status
// code of stats::Normalize and stats::KlDivergence.
TEST(FeatureKernelsTest, RawValuesMatchNormalizeThenKernel) {
  Rng rng(20261021);
  const std::vector<std::string> kinds = {"positive", "signed", "sparse",
                                          "zero",     "inf",    "nan"};
  size_t compared = 0;
  size_t failed = 0;
  for (const size_t bins :
       {size_t{1}, size_t{3}, size_t{4}, size_t{5}, kFusedBlock - 1,
        kFusedBlock, kFusedBlock + 1, size_t{4097}, size_t{20'000}}) {
    for (const std::string& target_kind : kinds) {
      for (const std::string& reference_kind : kinds) {
        const std::vector<double> target = RawBins(rng, bins, target_kind);
        const std::vector<double> reference =
            RawBins(rng, bins, reference_kind);
        for (const double smoothing : {1e-6, 0.0}) {
          const std::string context =
              "bins " + std::to_string(bins) + " target " + target_kind +
              " reference " + reference_kind + " smoothing " +
              std::to_string(smoothing);
          const auto raw = FromRawValues(target, reference, smoothing);
          const auto dist = FromDistributions(target, reference, smoothing);
          const vs::Status scalar = ScalarStatus(target, reference, smoothing);
          ASSERT_EQ(raw.ok(), dist.ok()) << context;
          ASSERT_EQ(raw.ok(), scalar.ok()) << context;
          if (!raw.ok()) {
            EXPECT_EQ(raw.status().code(), scalar.code()) << context;
            EXPECT_EQ(dist.status().code(), scalar.code()) << context;
            ++failed;
            continue;
          }
          ExpectSameBits(dist->kl, raw->kl, context + " KL");
          ExpectSameBits(dist->emd, raw->emd, context + " EMD");
          ExpectSameBits(dist->l1, raw->l1, context + " L1");
          ExpectSameBits(dist->l2, raw->l2, context + " L2");
          ExpectSameBits(dist->max_diff, raw->max_diff, context + " MAX_DIFF");
          ++compared;
        }
      }
    }
  }
  // Both outcomes are exercised at every size.
  EXPECT_GT(compared, 0u);
  EXPECT_GT(failed, 0u);

  // Misaligned and empty sides fail like the scalar distances.
  const std::vector<double> three = {1.0, 2.0, 3.0};
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(FromRawValues(three, four, 1e-6).status().code(),
            ScalarStatus(three, four, 1e-6).code());
  EXPECT_EQ(FromRawValues({}, {}, 1e-6).status().code(),
            ScalarStatus({}, {}, 1e-6).code());
  EXPECT_EQ(FusedDeviationDistances(std::span<const double>(), {},
                                    std::span<const double>(), {})
                .status()
                .code(),
            stats::L1Distance(stats::Distribution{}, stats::Distribution{})
                .status()
                .code());
}

// Over many blocks the fused pass still agrees with the five scalar
// distances within accumulation tolerance.
TEST(FeatureKernelsTest, WideRawValuesMatchScalarDistances) {
  Rng rng(4097);
  for (const size_t bins : {size_t{4097}, size_t{20'000}}) {
    const std::vector<double> target = RawBins(rng, bins, "signed");
    const std::vector<double> reference = RawBins(rng, bins, "sparse");
    const auto raw = FromRawValues(target, reference, 1e-6);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    const stats::Distribution p = *stats::Normalize(target);
    const stats::Distribution q = *stats::Normalize(reference);
    const std::string context = "bins " + std::to_string(bins);
    ExpectFeatureNear(*stats::KlDivergence(p, q), raw->kl, context + " KL");
    ExpectFeatureNear(*stats::EarthMoversDistance(p, q), raw->emd,
                      context + " EMD");
    ExpectFeatureNear(*stats::L1Distance(p, q), raw->l1, context + " L1");
    ExpectFeatureNear(*stats::L2Distance(p, q), raw->l2, context + " L2");
    ExpectFeatureNear(*stats::MaxDiff(p, q), raw->max_diff,
                      context + " MAX_DIFF");
  }
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
  // With a custom feature appended, the built-ins plus the custom features
  // alone give ComputeAll's bits, and a registry that does not fuse the
  // built-ins refuses the custom features alone.
  ASSERT_TRUE(registry.Register("TREND", MakeTrendFeature()).ok());
  auto all = registry.ComputeAll(*view);
  ASSERT_TRUE(all.ok());
  std::vector<double> split(registry.size());
  ASSERT_TRUE(ComputeBuiltinFeatures(*view, *measure, split.data()).ok());
  ASSERT_TRUE(registry.ComputeCustomFeatures(*view, split.data()).ok());
  for (size_t f = 0; f < registry.size(); ++f) {
    EXPECT_EQ(split[f], (*all)[f]) << f;
  }
  registry.set_use_kernels(false);
  EXPECT_FALSE(registry.fuses_builtins());
  EXPECT_TRUE(registry.ComputeCustomFeatures(*view, split.data())
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace vs::core
