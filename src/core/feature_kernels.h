#ifndef VS_CORE_FEATURE_KERNELS_H_
#define VS_CORE_FEATURE_KERNELS_H_

/// \file feature_kernels.h
/// \brief Vectorization-friendly kernels for the eight built-in utility
/// features.
///
/// The default registry evaluates each feature through its own
/// `std::function`, which means five separate passes over the same
/// (target, reference) distribution pair just for the deviation family.
/// The fused kernel below computes KL, EMD, L1, L2 and MAX_DIFF in a
/// single pass over the raw bin values, normalizing them inline (Eq. 5),
/// so no distribution is materialized.  It works in blocks of
/// kFusedBlock bins: elementwise loops scale both sides, take their
/// difference, the smoothed pair and its ratio, then a four-lane step
/// folds bin i into lane i mod 4 of L1/L2/MAX_DIFF.  With g++ 12 at -O2
/// on the x86-64 baseline, -fopt-info-vec reports those loops vectorized
/// with 16-byte (two-double) vectors for every whole block; the last,
/// partial block's elementwise loops and the EMD/KL loop (control flow,
/// and glibc's scalar log, which a vectorized log would not match bit for
/// bit) are not.  Per-element arithmetic is identical to stats/distance.cc
/// and stats::Normalize; only the order in which lane partial sums are
/// combined differs, which keeps results within accumulation tolerance
/// (well under the 1e-12 the golden feature file pins) of the scalar
/// oracle.  EMD's prefix-sum carry is inherently sequential.
///
/// Usability, Accuracy and P-value are not tight loops over aligned
/// pairs; they delegate to the same stats:: routines the scalar registry
/// uses, so those three features stay bit-identical by construction.
/// They read only the target's per-bin counts and moments and the
/// reference's counts — never the aggregate values — so every view over
/// one (target grid, reference grid) pair, i.e. the aggregate views of one
/// (dimension, measure), shares them: ComputeMeasureFeatures evaluates
/// them once for such a pair.

#include <span>

#include "common/result.h"
#include "core/view_data.h"
#include "stats/histogram.h"

namespace vs::core {

/// The deviation family, computed by one fused pass.
struct DeviationDistances {
  double kl = 0.0;
  double emd = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double max_diff = 0.0;
};

/// Bins per block of the fused pass: a multiple of 4, so lanes line up
/// across blocks.
inline constexpr size_t kFusedBlock = 32;

/// Fused single-pass evaluation over the raw bin values of an aligned
/// (target, reference) pair, each normalized inline by its scale
/// (stats::ComputeBinScale of the same values): bit for bit
/// stats::Normalize of each side followed by the kernel on the two
/// distributions, without materializing them.  Shape errors match
/// stats::Distance; \p kl_smoothing mirrors stats::KlDivergence's default
/// uniform-mix smoothing.
vs::Result<DeviationDistances> FusedDeviationDistances(
    std::span<const double> target, const stats::BinScale& target_scale,
    std::span<const double> reference, const stats::BinScale& reference_scale,
    double kl_smoothing = 1e-6);

/// The same kernel over two distributions, with the identity scale.
inline vs::Result<DeviationDistances> FusedDeviationDistances(
    const stats::Distribution& p, const stats::Distribution& q,
    double kl_smoothing = 1e-6) {
  return FusedDeviationDistances(p.p, {}, q.p, {}, kl_smoothing);
}

/// The three built-in features computed from counts and moments.
struct MeasureFeatures {
  double usability = 0.0;
  double accuracy = 0.0;
  double p_value = 0.0;
};

/// Usability and Accuracy of \p target's counts and moments, and P-value
/// of its counts against \p reference's normalized count distribution.
/// Semantics (including the P-value's degenerate-target -> 0 rule) match
/// the scalar registry functions exactly, bit for bit.
vs::Result<MeasureFeatures> ComputeMeasureFeatures(
    const data::GroupByResult& target, const data::GroupByResult& reference);

/// Writes \p deviation and \p measure into \p out[0..kNumBuiltinFeatures),
/// in UtilityFeature order.
void StoreBuiltinFeatures(const DeviationDistances& deviation,
                          const MeasureFeatures& measure, double* out);

/// Evaluates all eight built-in features of \p view into
/// \p out[0..kNumBuiltinFeatures), in UtilityFeature order: the deviation
/// family by one fused pass, the other three from \p measure, which must
/// be ComputeMeasureFeatures(view.target, view.reference).
vs::Status ComputeBuiltinFeatures(const ViewMaterialization& view,
                                  const MeasureFeatures& measure,
                                  double* out);

}  // namespace vs::core

#endif  // VS_CORE_FEATURE_KERNELS_H_
