#include "core/feature_kernels.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/string_util.h"
#include "core/utility_features.h"
#include "stats/hypothesis.h"
#include "stats/usability.h"

namespace vs::core {

vs::Result<DeviationDistances> FusedDeviationDistances(
    std::span<const double> target, const stats::BinScale& target_scale,
    std::span<const double> reference, const stats::BinScale& reference_scale,
    double kl_smoothing) {
  const size_t n = target.size();
  if (n == 0 || reference.empty()) {
    return vs::Status::InvalidArgument("distance over empty distribution");
  }
  if (n != reference.size()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "distribution sizes differ: %zu vs %zu", n, reference.size()));
  }
  if (kl_smoothing < 0.0 || kl_smoothing >= 1.0) {
    return vs::Status::InvalidArgument("smoothing must be in [0, 1)");
  }
  const double s = kl_smoothing;
  const double u = 1.0 / static_cast<double>(n);

  // Four accumulator lanes per reduction, bin i folding into lane i mod 4,
  // so no add waits on the previous bin's.  EMD's carry is a prefix sum
  // and stays sequential.
  double kl_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double l1_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double l2_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double md_lane[4] = {0.0, 0.0, 0.0, 0.0};
  double carry = 0.0;
  double emd = 0.0;

  // Each side's scale, hoisted so no store below can alias it.
  const bool t_uniform = target_scale.uniform;
  const double t_shift = target_scale.shift;
  const double t_total = target_scale.total;
  const bool r_uniform = reference_scale.uniform;
  const double r_shift = reference_scale.shift;
  const double r_total = reference_scale.total;
  double p[kFusedBlock];
  double q[kFusedBlock];
  double d[kFusedBlock];
  double ps[kFusedBlock];
  double qs[kFusedBlock];
  double ratio[kFusedBlock];
  // Folds the \p m bins from \p base.  Whole blocks pass m as a constant,
  // so their loops have a fixed trip count; only the last block's vary.
  const auto fold_block = [&](size_t base, auto m) -> vs::Status {
    const double* t = target.data() + base;
    const double* r = reference.data() + base;
    // Elementwise over the block: p and q by stats::Normalize's
    // expression, their difference, the smoothed pair and its ratio.
    if (t_uniform) {
      std::fill(p, p + m, u);
    } else {
      for (size_t j = 0; j < m; ++j) p[j] = (t[j] + t_shift) / t_total;
    }
    if (r_uniform) {
      std::fill(q, q + m, u);
    } else {
      for (size_t j = 0; j < m; ++j) q[j] = (r[j] + r_shift) / r_total;
    }
    for (size_t j = 0; j < m; ++j) {
      d[j] = p[j] - q[j];
      ps[j] = (1.0 - s) * p[j] + s * u;
      qs[j] = (1.0 - s) * q[j] + s * u;
      ratio[j] = ps[j] / qs[j];
    }
    // Blocks start at a multiple of 4, so lane l of the block is lane l
    // of the view.  The last block's d is padded to a whole lane group
    // with +0.0, which leaves the L1 and L2 lanes (never -0.0) and
    // MAX_DIFF as they are.
    const size_t lanes_end = (m + 3) & ~size_t{3};
    std::fill(d + m, d + lanes_end, 0.0);
    for (size_t j = 0; j < lanes_end; j += 4) {
      for (size_t l = 0; l < 4; ++l) {
        const double ad = std::fabs(d[j + l]);
        l1_lane[l] += ad;
        l2_lane[l] += d[j + l] * d[j + l];
        md_lane[l] = ad > md_lane[l] ? ad : md_lane[l];
      }
    }
    for (size_t j = 0; j < m; ++j) {
      carry += d[j];
      emd += std::fabs(carry);
      if (ps[j] > 0.0) {
        if (qs[j] <= 0.0) {
          return vs::Status::InvalidArgument(
              "KL undefined: zero reference mass with smoothing disabled");
        }
        kl_lane[j & 3] += ps[j] * std::log(ratio[j]);
      }
    }
    return vs::Status::OK();
  };
  size_t base = 0;
  for (; base + kFusedBlock <= n; base += kFusedBlock) {
    VS_RETURN_IF_ERROR(
        fold_block(base, std::integral_constant<size_t, kFusedBlock>()));
  }
  if (base < n) VS_RETURN_IF_ERROR(fold_block(base, n - base));

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

void StoreBuiltinFeatures(const DeviationDistances& deviation,
                          const MeasureFeatures& measure, double* out) {
  out[static_cast<int>(UtilityFeature::kKL)] = deviation.kl;
  out[static_cast<int>(UtilityFeature::kEMD)] = deviation.emd;
  out[static_cast<int>(UtilityFeature::kL1)] = deviation.l1;
  out[static_cast<int>(UtilityFeature::kL2)] = deviation.l2;
  out[static_cast<int>(UtilityFeature::kMaxDiff)] = deviation.max_diff;
  out[static_cast<int>(UtilityFeature::kUsability)] = measure.usability;
  out[static_cast<int>(UtilityFeature::kAccuracy)] = measure.accuracy;
  out[static_cast<int>(UtilityFeature::kPValue)] = measure.p_value;
}

vs::Status ComputeBuiltinFeatures(const ViewMaterialization& view,
                                  const MeasureFeatures& measure,
                                  double* out) {
  VS_ASSIGN_OR_RETURN(
      const DeviationDistances deviation,
      FusedDeviationDistances(view.target_dist, view.reference_dist));
  StoreBuiltinFeatures(deviation, measure, out);
  return vs::Status::OK();
}

}  // namespace vs::core
