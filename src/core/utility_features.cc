#include "core/utility_features.h"

#include <cmath>

#include "common/string_util.h"
#include "core/feature_kernels.h"
#include "stats/distance.h"
#include "stats/hypothesis.h"
#include "stats/usability.h"

namespace vs::core {

std::string UtilityFeatureName(UtilityFeature feature) {
  switch (feature) {
    case UtilityFeature::kKL:
      return "KL";
    case UtilityFeature::kEMD:
      return "EMD";
    case UtilityFeature::kL1:
      return "L1";
    case UtilityFeature::kL2:
      return "L2";
    case UtilityFeature::kMaxDiff:
      return "MAX_DIFF";
    case UtilityFeature::kUsability:
      return "USABILITY";
    case UtilityFeature::kAccuracy:
      return "ACCURACY";
    case UtilityFeature::kPValue:
      return "PVALUE";
  }
  return "?";
}

vs::Result<int> ParseUtilityFeature(const std::string& name) {
  const std::string upper = vs::ToLower(name);
  for (int i = 0; i < kNumBuiltinFeatures; ++i) {
    if (upper ==
        vs::ToLower(UtilityFeatureName(static_cast<UtilityFeature>(i)))) {
      return i;
    }
  }
  return vs::Status::NotFound("unknown utility feature: " + name);
}

namespace {

vs::Result<double> PValueFeature(const ViewMaterialization& view) {
  // 1 - p: high when the target's per-bin *row counts* are extreme under
  // the null hypothesis that the query subset spreads across bins the way
  // the whole dataset does (the reference view's count distribution),
  // matching "larger = more interesting".  Degenerate targets (no rows /
  // single effective bin) carry no statistical evidence: feature 0.
  const std::vector<int64_t>& reference_counts = view.reference.counts();
  std::vector<double> ref_counts(reference_counts.size());
  for (size_t b = 0; b < ref_counts.size(); ++b) {
    ref_counts[b] = static_cast<double>(reference_counts[b]);
  }
  auto expected = stats::Normalize(ref_counts);
  if (!expected.ok()) return expected.status();
  auto test = stats::ChiSquareGoodnessOfFit(view.target.counts(), *expected);
  if (!test.ok()) {
    if (test.status().IsFailedPrecondition()) return 0.0;
    return test.status();
  }
  return 1.0 - test->p_value;
}

vs::Result<double> AccuracyFeature(const ViewMaterialization& view) {
  return stats::AccuracyFromMoments(view.target.sums(), view.target.sumsqs(),
                                    view.target.counts());
}

}  // namespace

UtilityFeatureRegistry UtilityFeatureRegistry::Default() {
  UtilityFeatureRegistry registry;
  auto add_distance = [&registry](UtilityFeature f, stats::DistanceKind kind) {
    vs::Status s = registry.Register(
        UtilityFeatureName(f), [kind](const ViewMaterialization& view) {
          return stats::Distance(kind, view.target_dist, view.reference_dist);
        });
    (void)s;  // names are unique by construction
  };
  add_distance(UtilityFeature::kKL, stats::DistanceKind::kKL);
  add_distance(UtilityFeature::kEMD, stats::DistanceKind::kEMD);
  add_distance(UtilityFeature::kL1, stats::DistanceKind::kL1);
  add_distance(UtilityFeature::kL2, stats::DistanceKind::kL2);
  add_distance(UtilityFeature::kMaxDiff, stats::DistanceKind::kMaxDiff);
  (void)registry.Register(UtilityFeatureName(UtilityFeature::kUsability),
                          [](const ViewMaterialization& view) {
                            return vs::Result<double>(
                                stats::UsabilityFromCounts(
                                    view.target.counts()));
                          });
  (void)registry.Register(UtilityFeatureName(UtilityFeature::kAccuracy),
                          AccuracyFeature);
  (void)registry.Register(UtilityFeatureName(UtilityFeature::kPValue),
                          PValueFeature);
  // The eight above are the unmodified built-ins, so ComputeAll may swap
  // in the fused kernels for them.
  registry.builtin_prefix_ = true;
  return registry;
}

UtilityFeatureRegistry::FeatureFn MakeTrendFeature() {
  // Least-squares slope of p_b against the bin index b, scaled by the bin
  // count so the value is comparable across views with different widths.
  auto slope = [](const stats::Distribution& d) {
    const size_t n = d.size();
    if (n < 2) return 0.0;
    const double mean_x = static_cast<double>(n - 1) / 2.0;
    const double mean_y = 1.0 / static_cast<double>(n);
    double sxy = 0.0;
    double sxx = 0.0;
    for (size_t b = 0; b < n; ++b) {
      const double dx = static_cast<double>(b) - mean_x;
      sxy += dx * (d[b] - mean_y);
      sxx += dx * dx;
    }
    return sxy / sxx * static_cast<double>(n);
  };
  return [slope](const ViewMaterialization& view) {
    return vs::Result<double>(
        std::fabs(slope(view.target_dist) - slope(view.reference_dist)));
  };
}

vs::Status UtilityFeatureRegistry::Register(std::string name, FeatureFn fn) {
  if (name.empty()) {
    return vs::Status::InvalidArgument("feature name must be non-empty");
  }
  if (fn == nullptr) {
    return vs::Status::InvalidArgument("feature function must be callable");
  }
  for (const std::string& existing : names_) {
    if (existing == name) {
      return vs::Status::AlreadyExists("feature already registered: " + name);
    }
  }
  names_.push_back(std::move(name));
  fns_.push_back(std::move(fn));
  return vs::Status::OK();
}

vs::Result<size_t> UtilityFeatureRegistry::IndexOf(
    const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return vs::Status::NotFound("feature not registered: " + name);
}

vs::Result<ml::Vector> UtilityFeatureRegistry::ComputeAll(
    const ViewMaterialization& view) const {
  ml::Vector out(fns_.size(), 0.0);
  if (fuses_builtins()) {
    VS_ASSIGN_OR_RETURN(MeasureFeatures measure,
                        ComputeMeasureFeatures(view.target, view.reference));
    VS_RETURN_IF_ERROR(ComputeBuiltinFeatures(view, measure, out.data()));
    VS_RETURN_IF_ERROR(ComputeCustomFeatures(view, out.data()));
    return out;
  }
  for (size_t i = 0; i < fns_.size(); ++i) {
    VS_ASSIGN_OR_RETURN(out[i], fns_[i](view));
  }
  return out;
}

vs::Status UtilityFeatureRegistry::ComputeCustomFeatures(
    const ViewMaterialization& view, double* out) const {
  if (!fuses_builtins()) {
    return vs::Status::FailedPrecondition(
        "custom features alone need the fused built-in prefix");
  }
  for (size_t i = kNumBuiltinFeatures; i < fns_.size(); ++i) {
    VS_ASSIGN_OR_RETURN(out[i], fns_[i](view));
  }
  return vs::Status::OK();
}

}  // namespace vs::core
