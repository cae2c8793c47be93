#include "core/feature_kernels.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "core/utility_features.h"
#include "stats/hypothesis.h"
#include "stats/usability.h"

namespace vs::core {

vs::Result<DeviationDistances> FusedDeviationDistances(
    const stats::Distribution& p, const stats::Distribution& q,
    double kl_smoothing) {
  const size_t n = p.size();
  if (n == 0 || q.size() == 0) {
    return vs::Status::InvalidArgument("distance over empty distribution");
  }
  if (p.size() != q.size()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "distribution sizes differ: %zu vs %zu", p.size(), q.size()));
  }
  if (kl_smoothing < 0.0 || kl_smoothing >= 1.0) {
    return vs::Status::InvalidArgument("smoothing must be in [0, 1)");
  }
  const double s = kl_smoothing;
  const double u = 1.0 / static_cast<double>(n);

  // Four independent accumulator lanes per reduction: no loop-carried
  // dependence on any single accumulator, so the adds pipeline (and
  // vectorize) instead of serializing.  EMD's carry is a prefix sum and
  // stays sequential through the same loop.
  double kl_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double l1_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double l2_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double md_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double carry = 0.0;
  double emd = 0.0;

  const auto fold = [&](size_t i, int lane) -> vs::Status {
    const double pi = p[i];
    const double qi = q[i];
    const double d = pi - qi;
    const double ad = std::fabs(d);
    l1_lane[lane] += ad;
    l2_lane[lane] += d * d;
    if (ad > md_lane[lane]) md_lane[lane] = ad;
    carry += d;
    emd += std::fabs(carry);
    const double ps = (1.0 - s) * pi + s * u;
    const double qs = (1.0 - s) * qi + s * u;
    if (ps > 0.0) {
      if (qs <= 0.0) {
        return vs::Status::InvalidArgument(
            "KL undefined: zero reference mass with smoothing disabled");
      }
      kl_lane[lane] += ps * std::log(ps / qs);
    }
    return vs::Status::OK();
  };

  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    VS_RETURN_IF_ERROR(fold(i, 0));
    VS_RETURN_IF_ERROR(fold(i + 1, 1));
    VS_RETURN_IF_ERROR(fold(i + 2, 2));
    VS_RETURN_IF_ERROR(fold(i + 3, 3));
  }
  for (; i < n; ++i) {
    VS_RETURN_IF_ERROR(fold(i, static_cast<int>(i & 3)));
  }

  DeviationDistances out;
  out.kl = (kl_lane[0] + kl_lane[1]) + (kl_lane[2] + kl_lane[3]);
  // Same clamp as stats::KlDivergence: cancellation can leave a tiny
  // negative residue though KL >= 0 analytically.
  if (out.kl < 0.0) out.kl = 0.0;
  out.emd = emd;
  out.l1 = (l1_lane[0] + l1_lane[1]) + (l1_lane[2] + l1_lane[3]);
  out.l2 = std::sqrt((l2_lane[0] + l2_lane[1]) + (l2_lane[2] + l2_lane[3]));
  out.max_diff = std::max(std::max(md_lane[0], md_lane[1]),
                          std::max(md_lane[2], md_lane[3]));
  return out;
}

vs::Result<MeasureFeatures> ComputeMeasureFeatures(
    const data::GroupByResult& target, const data::GroupByResult& reference) {
  MeasureFeatures out;
  out.usability = stats::UsabilityFromCounts(target.counts());
  VS_ASSIGN_OR_RETURN(out.accuracy,
                      stats::AccuracyFromMoments(target.sums(),
                                                 target.sumsqs(),
                                                 target.counts()));

  // P-value semantics mirror the scalar registry: target counts tested
  // against the reference count distribution; degenerate targets carry no
  // statistical evidence and score 0.
  const std::vector<int64_t>& reference_counts = reference.counts();
  std::vector<double> ref_counts(reference_counts.size());
  for (size_t b = 0; b < ref_counts.size(); ++b) {
    ref_counts[b] = static_cast<double>(reference_counts[b]);
  }
  VS_ASSIGN_OR_RETURN(stats::Distribution expected,
                      stats::Normalize(ref_counts));
  auto test = stats::ChiSquareGoodnessOfFit(target.counts(), expected);
  if (!test.ok()) {
    if (!test.status().IsFailedPrecondition()) return test.status();
    out.p_value = 0.0;
  } else {
    out.p_value = 1.0 - test->p_value;
  }
  return out;
}

vs::Status ComputeBuiltinFeatures(const ViewMaterialization& view,
                                  const MeasureFeatures& measure,
                                  double* out) {
  VS_ASSIGN_OR_RETURN(
      DeviationDistances deviation,
      FusedDeviationDistances(view.target_dist, view.reference_dist));
  out[static_cast<int>(UtilityFeature::kKL)] = deviation.kl;
  out[static_cast<int>(UtilityFeature::kEMD)] = deviation.emd;
  out[static_cast<int>(UtilityFeature::kL1)] = deviation.l1;
  out[static_cast<int>(UtilityFeature::kL2)] = deviation.l2;
  out[static_cast<int>(UtilityFeature::kMaxDiff)] = deviation.max_diff;
  out[static_cast<int>(UtilityFeature::kUsability)] = measure.usability;
  out[static_cast<int>(UtilityFeature::kAccuracy)] = measure.accuracy;
  out[static_cast<int>(UtilityFeature::kPValue)] = measure.p_value;
  return vs::Status::OK();
}

}  // namespace vs::core
