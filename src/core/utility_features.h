#ifndef VS_CORE_UTILITY_FEATURES_H_
#define VS_CORE_UTILITY_FEATURES_H_

/// \file utility_features.h
/// \brief The eight utility features of the paper (§3.1) plus an
/// extensible registry for user-defined features.
///
/// Deviation family (target vs reference distribution): KL divergence,
/// EMD, L1, L2, MAX_DIFF.  Non-deviation: Usability (relative bin width),
/// Accuracy (SSE-based explained variance of the grouping), and P-value
/// (chi-square goodness-of-fit of the target counts against the reference
/// distribution, reported as 1 - p so that *larger = more interesting*
/// like every other feature).

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/view_data.h"
#include "ml/matrix.h"

namespace vs::core {

/// Indices of the built-in features inside the default registry.
enum class UtilityFeature : int {
  kKL = 0,
  kEMD = 1,
  kL1 = 2,
  kL2 = 3,
  kMaxDiff = 4,
  kUsability = 5,
  kAccuracy = 6,
  kPValue = 7,
};

/// Number of built-in utility features (Table 1 row "Number of view
/// utility feature = 8").
inline constexpr int kNumBuiltinFeatures = 8;

/// "KL", "EMD", "L1", "L2", "MAX_DIFF", "USABILITY", "ACCURACY", "PVALUE".
std::string UtilityFeatureName(UtilityFeature feature);

/// Parses a (case-insensitive) built-in feature name into its index.
vs::Result<int> ParseUtilityFeature(const std::string& name);

struct MeasureFeatures;  // core/feature_kernels.h

/// \brief Named collection of feature functions evaluated per view.
///
/// The default registry holds the paper's eight; Register() appends custom
/// ones ("users may customize the utility features, including adding new
/// ones, for personalized analysis").
class UtilityFeatureRegistry {
 public:
  /// Computes one feature value from a materialized view.
  using FeatureFn =
      std::function<vs::Result<double>(const ViewMaterialization&)>;

  /// Empty registry (no features).
  UtilityFeatureRegistry() = default;

  /// The paper's eight built-in features, in UtilityFeature order.
  static UtilityFeatureRegistry Default();

  /// Appends a feature; names must be unique.
  vs::Status Register(std::string name, FeatureFn fn);

  /// Number of registered features.
  size_t size() const { return names_.size(); }

  /// Feature names in registration order.
  const std::vector<std::string>& names() const { return names_; }

  /// Index of a feature by name.
  vs::Result<size_t> IndexOf(const std::string& name) const;

  /// Evaluates every feature on \p view, in registration order.
  ///
  /// Registries created by Default() evaluate the built-in prefix through
  /// the fused kernels of core/feature_kernels.h (one pass for the five
  /// deviation distances) unless set_use_kernels(false) routes them back
  /// through the per-feature scalar functions — the oracle path the
  /// differential equivalence tests compare against.  Custom features
  /// registered on top are always evaluated through their own function.
  vs::Result<ml::Vector> ComputeAll(const ViewMaterialization& view) const;

  /// ComputeAll on the fused path with the built-in Usability, Accuracy
  /// and P-value taken from \p measure, which must be
  /// ComputeMeasureFeatures(view.target, view.reference) — so a caller
  /// holding many views over one (target grid, reference grid) pair
  /// computes them once.  Values are bit-identical to ComputeAll(view).
  /// FailedPrecondition unless fuses_builtins().
  vs::Result<ml::Vector> ComputeAll(const ViewMaterialization& view,
                                    const MeasureFeatures& measure) const;

  /// True when ComputeAll evaluates the built-in prefix through the fused
  /// kernels: a Default() registry with kernels on.
  bool fuses_builtins() const {
    return builtin_prefix_ && use_kernels_ &&
           fns_.size() >= static_cast<size_t>(kNumBuiltinFeatures);
  }

  /// Toggles the fused-kernel fast path for the built-in prefix (only
  /// meaningful on registries created by Default()).
  void set_use_kernels(bool use_kernels) { use_kernels_ = use_kernels; }
  bool use_kernels() const { return use_kernels_; }

 private:
  std::vector<std::string> names_;
  std::vector<FeatureFn> fns_;
  /// True when indices [0, kNumBuiltinFeatures) hold the unmodified
  /// built-in eight (set by Default()), making the fused kernel a valid
  /// substitute for their scalar functions.
  bool builtin_prefix_ = false;
  bool use_kernels_ = true;
};

/// Builds the order-aware *trend* feature for line-chart-style views
/// (paper future work): the absolute difference between the target and
/// reference distributions' least-squares slopes over the bin index —
/// high when the query subset trends up where the population trends down
/// (or vice versa).  Register it alongside the built-in eight:
///
///   registry.Register("TREND", MakeTrendFeature());
UtilityFeatureRegistry::FeatureFn MakeTrendFeature();

}  // namespace vs::core

#endif  // VS_CORE_UTILITY_FEATURES_H_
