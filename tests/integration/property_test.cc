/// Property-based tests: parameterized sweeps (TEST_P) asserting the
/// system's invariants across wide input ranges rather than single
/// examples.

#include <cmath>

#include <gtest/gtest.h>

#include "active/strategy.h"
#include "common/random.h"
#include "core/experiment.h"
#include "core/ideal_utility.h"
#include "core/metrics.h"
#include "data/generator.h"
#include "data/groupby.h"
#include "data/predicate.h"
#include "data/sampler.h"
#include "stats/distance.h"
#include "stats/histogram.h"

namespace vs {
namespace {

// ---------------------------------------------------------------------------
// Distribution/distance properties over random inputs.

class DistanceProperty : public ::testing::TestWithParam<uint64_t> {};

stats::Distribution RandomDistribution(Rng* rng, size_t bins) {
  std::vector<double> v(bins);
  double total = 0.0;
  for (double& x : v) {
    x = rng->NextDouble() + 1e-6;
    total += x;
  }
  for (double& x : v) x /= total;
  return stats::Distribution{std::move(v)};
}

TEST_P(DistanceProperty, IdentityNonNegativityAndBounds) {
  Rng rng(GetParam());
  const size_t bins = 2 + rng.NextBounded(10);
  auto p = RandomDistribution(&rng, bins);
  auto q = RandomDistribution(&rng, bins);
  for (stats::DistanceKind kind : stats::AllDistanceKinds()) {
    const double d_pq = *stats::Distance(kind, p, q);
    const double d_pp = *stats::Distance(kind, p, p);
    EXPECT_GE(d_pq, 0.0) << stats::DistanceKindName(kind);
    EXPECT_NEAR(d_pp, 0.0, 1e-9) << stats::DistanceKindName(kind);
  }
  // Range bounds: L1 <= 2, MAX_DIFF <= 1, EMD <= bins-1.
  EXPECT_LE(*stats::L1Distance(p, q), 2.0 + 1e-12);
  EXPECT_LE(*stats::MaxDiff(p, q), 1.0 + 1e-12);
  EXPECT_LE(*stats::EarthMoversDistance(p, q),
            static_cast<double>(bins - 1) + 1e-12);
}

TEST_P(DistanceProperty, EmdDominatesHalfL1) {
  // For adjacent-bin ground distance, EMD >= L1/2 always holds.
  Rng rng(GetParam() ^ 0xabcdULL);
  const size_t bins = 2 + rng.NextBounded(8);
  auto p = RandomDistribution(&rng, bins);
  auto q = RandomDistribution(&rng, bins);
  EXPECT_GE(*stats::EarthMoversDistance(p, q) + 1e-12,
            *stats::L1Distance(p, q) / 2.0);
}

TEST_P(DistanceProperty, NormalizePreservesRatios) {
  Rng rng(GetParam() ^ 0x1234ULL);
  const size_t bins = 2 + rng.NextBounded(6);
  std::vector<double> raw(bins);
  for (double& x : raw) x = rng.NextDouble() * 100.0 + 0.1;
  auto d = stats::Normalize(raw);
  ASSERT_TRUE(d.ok());
  // Ratios between bins must be preserved by Eq. 5.
  for (size_t i = 1; i < bins; ++i) {
    EXPECT_NEAR(d->p[i] / d->p[0], raw[i] / raw[0], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Group-by partition properties: bins partition the selection.

class GroupByProperty : public ::testing::TestWithParam<int> {};

TEST_P(GroupByProperty, CountsPartitionSelection) {
  data::DiabetesOptions options;
  options.num_rows = 1000;
  options.seed = static_cast<uint64_t>(GetParam());
  auto table = data::GenerateDiabetes(options);
  ASSERT_TRUE(table.ok());
  Rng rng(GetParam());
  auto selection = data::BernoulliSample(table->num_rows(), 0.3, &rng);

  data::GroupByExecutor executor(&*table);
  for (const char* dim : {"gender", "race", "age_group"}) {
    auto r = executor.Execute(
        {dim, "time_in_hospital", data::AggregateFunction::kCount, 0},
        &selection);
    ASSERT_TRUE(r.ok());
    int64_t total = 0;
    for (int64_t c : r->counts()) total += c;
    // No nulls in generated data: bins exactly partition the selection.
    EXPECT_EQ(total, static_cast<int64_t>(selection.size())) << dim;
  }
}

TEST_P(GroupByProperty, SumDecomposesOverBins) {
  data::SyntheticOptions options;
  options.num_rows = 2000;
  options.seed = static_cast<uint64_t>(GetParam()) + 100;
  auto table = data::GenerateSynthetic(options);
  ASSERT_TRUE(table.ok());
  data::GroupByExecutor executor(&*table);
  auto r = executor.Execute(
      {"d0", "m0", data::AggregateFunction::kSum, 4}, nullptr);
  ASSERT_TRUE(r.ok());
  double total = 0.0;
  for (double v : r->values) total += v;
  // Direct sum over the column.
  const auto* m0 = *table->DoubleColumnByName("m0");
  double expected = 0.0;
  for (double v : m0->data()) expected += v;
  EXPECT_NEAR(total, expected, 1e-6);
}

TEST_P(GroupByProperty, AvgIsBetweenMinAndMax) {
  data::SyntheticOptions options;
  options.num_rows = 500;
  options.seed = static_cast<uint64_t>(GetParam()) + 200;
  auto table = data::GenerateSynthetic(options);
  data::GroupByExecutor executor(&*table);
  auto avg = executor.Execute({"d1", "m2", data::AggregateFunction::kAvg, 3},
                              nullptr);
  auto lo = executor.Execute({"d1", "m2", data::AggregateFunction::kMin, 3},
                             nullptr);
  auto hi = executor.Execute({"d1", "m2", data::AggregateFunction::kMax, 3},
                             nullptr);
  ASSERT_TRUE(avg.ok() && lo.ok() && hi.ok());
  for (size_t b = 0; b < avg->num_bins(); ++b) {
    if (avg->counts()[b] == 0) continue;
    EXPECT_GE(avg->values[b], lo->values[b] - 1e-12);
    EXPECT_LE(avg->values[b], hi->values[b] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupByProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Sampler statistical properties across rates.

class SamplerProperty : public ::testing::TestWithParam<double> {};

TEST_P(SamplerProperty, BernoulliRateWithinTolerance) {
  const double rate = GetParam();
  Rng rng(static_cast<uint64_t>(rate * 1000) + 7);
  const size_t n = 50000;
  auto sel = data::BernoulliSample(n, rate, &rng);
  EXPECT_NEAR(static_cast<double>(sel.size()) / n, rate, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplerProperty,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5,
                                           0.75, 0.9));

// ---------------------------------------------------------------------------
// Metric invariants across random score vectors.

class MetricsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsProperty, PrecisionAndUdConsistency) {
  Rng rng(GetParam());
  const size_t n = 10 + rng.NextBounded(40);
  std::vector<double> scores(n);
  for (double& s : scores) s = rng.NextDouble();
  const size_t k = 1 + rng.NextBounded(n / 2);

  auto ideal = core::TopKIndices(scores, k);
  // UD of the ideal set against itself is 0; precision 1.
  EXPECT_DOUBLE_EQ(*core::TopKPrecision(ideal, ideal), 1.0);
  EXPECT_DOUBLE_EQ(*core::UtilityDistance(scores, ideal, ideal), 0.0);

  // Any other same-size set: UD >= 0, precision in [0, 1].
  std::vector<size_t> other;
  for (size_t i = 0; i < k; ++i) other.push_back((i * 7 + 3) % n);
  const double precision = *core::TopKPrecision(other, ideal);
  EXPECT_GE(precision, 0.0);
  EXPECT_LE(precision, 1.0);
  EXPECT_GE(*core::UtilityDistance(scores, other, ideal), 0.0);
}

TEST_P(MetricsProperty, PerfectPrecisionImpliesZeroUd) {
  Rng rng(GetParam() ^ 0x77ULL);
  const size_t n = 20;
  std::vector<double> scores(n);
  for (double& s : scores) s = rng.NextDouble();
  auto ideal = core::TopKIndices(scores, 5);
  std::vector<size_t> shuffled = ideal;
  std::swap(shuffled[0], shuffled[4]);
  EXPECT_DOUBLE_EQ(*core::TopKPrecision(shuffled, ideal), 1.0);
  EXPECT_NEAR(*core::UtilityDistance(scores, shuffled, ideal), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Session-level property: convergence holds across every Table 2 preset.

class SessionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SessionProperty, EveryTable2PresetConvergesOnDiabMini) {
  static data::Table* table = [] {
    data::DiabetesOptions options;
    options.num_rows = 1500;
    options.seed = 5;
    return new data::Table(*data::GenerateDiabetes(options));
  }();
  static data::SelectionVector* query = [] {
    return new data::SelectionVector(*data::SelectRows(
        *table, data::Compare("gender", data::CompareOp::kEq,
                              data::Value("Female"))));
  }();
  static core::UtilityFeatureRegistry* registry = [] {
    return new core::UtilityFeatureRegistry(
        core::UtilityFeatureRegistry::Default());
  }();
  static core::FeatureMatrix* matrix = [] {
    auto views = *core::EnumerateViews(*table, {});
    return new core::FeatureMatrix(*core::FeatureMatrix::Build(
        table, views, *query, registry, core::FeatureMatrixOptions{}));
  }();

  const auto presets = core::Table2Presets();
  const auto& ideal = presets[static_cast<size_t>(GetParam())];
  core::ExperimentConfig config;
  config.k = 5;
  config.max_labels = 120;
  config.seed = 17;
  auto r = core::RunSimulatedSession(*matrix, nullptr, ideal, config);
  ASSERT_TRUE(r.ok()) << ideal.name();
  EXPECT_GE(r->final_precision, 0.8) << ideal.name();
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SessionProperty,
                         ::testing::Range(0, 11));

// ---------------------------------------------------------------------------
// Every query strategy must drive a session to convergence on a
// realizable ideal utility function.

class StrategySessionProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(StrategySessionProperty, ConvergesOnDiabMini) {
  static data::Table* table = [] {
    data::DiabetesOptions options;
    options.num_rows = 1200;
    options.seed = 21;
    return new data::Table(*data::GenerateDiabetes(options));
  }();
  static core::UtilityFeatureRegistry* registry = [] {
    return new core::UtilityFeatureRegistry(
        core::UtilityFeatureRegistry::Default());
  }();
  static core::FeatureMatrix* matrix = [] {
    auto query = *data::SelectRows(
        *table, data::Compare("race", data::CompareOp::kEq,
                              data::Value("Hispanic")));
    auto views = *core::EnumerateViews(*table, {});
    return new core::FeatureMatrix(*core::FeatureMatrix::Build(
        table, views, query, registry, core::FeatureMatrixOptions{}));
  }();

  core::ExperimentConfig config;
  config.k = 5;
  config.strategy = GetParam();
  config.max_labels = 120;
  config.seed = 7;
  auto r = core::RunSimulatedSession(*matrix, nullptr,
                                     core::Table2Presets()[3], config);
  ASSERT_TRUE(r.ok()) << GetParam();
  EXPECT_TRUE(r->reached_target) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySessionProperty,
    ::testing::ValuesIn(vs::active::AllStrategyNames()));

}  // namespace
}  // namespace vs
