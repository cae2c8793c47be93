/// Golden-file regression pin of all eight built-in utility features.
///
/// Algorithm 1's offline initialization reduces every view to one row of
/// utility-feature values; those numbers are the contract between the data
/// layer, the stats layer, and everything downstream (estimators, the
/// matrix cache's bit-identity guarantee).  This test pins the full
/// view x feature matrix of the deterministic MiniWorld table to values
/// committed in testdata/feature_matrix_golden.txt, with a per-feature
/// tolerance.
///
/// Regenerating after an *intentional* semantic change: run (one line)
///   VS_REGEN_GOLDEN=1 ./build/tests/vs_core_test
///       --gtest_filter='FeatureMatrixGoldenTest.*'
/// then review the diff and commit it (docs/TESTING.md).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/feature_matrix.h"
#include "core_test_util.h"

namespace vs::core {
namespace {

std::string GoldenPath() {
  return std::string(VS_TESTDATA_DIR) + "/feature_matrix_golden.txt";
}

/// Distances and usability are closed-form over small rationals; PVALUE
/// runs through the incomplete-gamma series, so it gets a looser (still
/// tight) pin.
double ToleranceFor(const std::string& feature) {
  return feature == "PVALUE" ? 1e-9 : 1e-12;
}

TEST(FeatureMatrixGoldenTest, AllFeaturesMatchCommittedValues) {
  auto world = testutil::MakeMiniWorld();  // seeded, exact build
  const auto& names = world.registry->names();
  ASSERT_EQ(names.size(), 8u);

  if (std::getenv("VS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << "# feature_matrix_golden v1: <view_id>\\t<feature>\\t<value>\n";
    out << "# table: testutil::MiniTable (240 rows, rng seed 12345); "
           "query: color == red\n";
    for (size_t i = 0; i < world.matrix->num_views(); ++i) {
      for (size_t j = 0; j < names.size(); ++j) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      world.matrix->raw()(i, j));
        out << world.views[i].Id() << "\t" << names[j] << "\t" << value
            << "\n";
      }
    }
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath()
                         << " (regenerate with VS_REGEN_GOLDEN=1)";
  std::map<std::pair<std::string, std::string>, double> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Tab-separated because view ids contain spaces ("COUNT(m1) BY color").
    const size_t tab1 = line.find('\t');
    const size_t tab2 =
        tab1 == std::string::npos ? std::string::npos
                                  : line.find('\t', tab1 + 1);
    ASSERT_NE(tab2, std::string::npos) << "bad golden line: " << line;
    const std::string view_id = line.substr(0, tab1);
    const std::string feature = line.substr(tab1 + 1, tab2 - tab1 - 1);
    const double value = std::strtod(line.c_str() + tab2 + 1, nullptr);
    golden[{view_id, feature}] = value;
  }
  ASSERT_EQ(golden.size(), world.matrix->num_views() * names.size());

  for (size_t i = 0; i < world.matrix->num_views(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      const auto key = std::make_pair(world.views[i].Id(), names[j]);
      ASSERT_TRUE(golden.count(key) > 0)
          << "no golden value for " << key.first << " " << key.second;
      EXPECT_NEAR(world.matrix->raw()(i, j), golden[key],
                  ToleranceFor(names[j]))
          << "view " << key.first << " feature " << key.second;
    }
  }
}

/// The eight features themselves are part of the pin: a silent rename or
/// reorder in the default registry would otherwise shift every column.
TEST(FeatureMatrixGoldenTest, DefaultRegistryOrderIsPinned) {
  const auto registry = UtilityFeatureRegistry::Default();
  const std::vector<std::string> expected = {"KL",       "EMD",    "L1",
                                             "L2",       "MAX_DIFF",
                                             "USABILITY", "ACCURACY",
                                             "PVALUE"};
  EXPECT_EQ(registry.names(), expected);
}

}  // namespace
}  // namespace vs::core
