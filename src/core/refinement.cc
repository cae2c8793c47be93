#include "core/refinement.h"

#include <algorithm>
#include <cmath>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vs::core {

namespace {

/// Cached instrument handles for the refinement path.
struct RefinerMetrics {
  obs::Counter* rows_refined;
  obs::Counter* rows_pruned;
  obs::Counter* batches_total;
  obs::Gauge* deadline_utilization;
  obs::Histogram* batch_seconds;

  static const RefinerMetrics& Get() {
    static const RefinerMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return RefinerMetrics{
          r.GetCounter("refiner.rows_refined",
                       "rough rows refined to exact"),
          r.GetCounter("refiner.rows_pruned",
                       "rough rows interval-pruning excluded from batches"),
          r.GetCounter("refiner.batches_total", "refinement batches run"),
          r.GetGauge("refiner.deadline_utilization",
                     "budget fraction the last batch consumed"),
          r.GetHistogram("refiner.batch_seconds",
                         obs::DefaultLatencyBuckets(),
                         "wall time per refinement batch"),
      };
    }();
    return m;
  }
};

/// Refines \p order front-to-back under \p deadline, batching rows into
/// shared scans (FeatureMatrix::RefineRows).  Returns the refined count.
vs::Result<int> ConsumeOrder(FeatureMatrix* matrix,
                             const std::vector<size_t>& order,
                             Deadline* deadline) {
  int refined = 0;
  const int64_t cost = matrix->RefineCostPerRow();
  size_t pos = 0;
  while (pos < order.size() && !deadline->Expired()) {
    size_t chunk = order.size() - pos;
    const int64_t units = deadline->UnitsLeft();
    if (units > 0) {
      chunk = std::min<size_t>(
          chunk, static_cast<size_t>(std::max<int64_t>(1, units / cost)));
    } else {
      // Wall-clock or infinite budget: modest chunks so the deadline is
      // polled often enough.
      chunk = std::min<size_t>(chunk, 8);
    }
    const std::vector<size_t> batch(order.begin() + static_cast<long>(pos),
                                    order.begin() +
                                        static_cast<long>(pos + chunk));
    VS_RETURN_IF_ERROR(matrix->RefineRows(batch));
    deadline->Charge(cost * static_cast<int64_t>(chunk));
    refined += static_cast<int>(chunk);
    pos += chunk;
  }
  return refined;
}

/// Fraction of \p deadline's budget consumed between the two observations
/// (whichever mode applies; Infinite() utilizes nothing by definition).
double Utilization(double seconds_before, int64_t units_before,
                   const Deadline& deadline) {
  if (units_before != Deadline::kNoUnitLimit) {
    if (units_before <= 0) return 1.0;
    const double used = static_cast<double>(
        units_before - deadline.RemainingUnits());
    return std::clamp(used / static_cast<double>(units_before), 0.0, 1.0);
  }
  if (std::isfinite(seconds_before)) {
    if (seconds_before <= 0.0) return 1.0;
    return std::clamp(
        (seconds_before - deadline.RemainingSeconds()) / seconds_before,
        0.0, 1.0);
  }
  return 0.0;
}

}  // namespace

vs::Result<RefinementStats> IncrementalRefiner::FinishBatch(
    const std::vector<size_t>& order, int rows_pruned, Deadline* deadline) {
  obs::Span span("core.refine");
  const RefinerMetrics& metrics = RefinerMetrics::Get();
  Stopwatch clock;
  const double seconds_before = deadline->RemainingSeconds();
  const int64_t units_before = deadline->RemainingUnits();

  RefinementStats stats;
  stats.rows_pruned = rows_pruned;
  VS_ASSIGN_OR_RETURN(stats.rows_refined,
                      ConsumeOrder(matrix_, order, deadline));
  stats.all_exact = matrix_->AllExact();
  stats.deadline_utilization =
      Utilization(seconds_before, units_before, *deadline);

  metrics.batches_total->Increment();
  metrics.rows_refined->Increment(static_cast<uint64_t>(stats.rows_refined));
  metrics.rows_pruned->Increment(static_cast<uint64_t>(stats.rows_pruned));
  metrics.deadline_utilization->Set(stats.deadline_utilization);
  metrics.batch_seconds->Observe(clock.ElapsedSeconds());
  if (sink_ != nullptr) {
    obs::Event event("refinement_pass");
    event.SetInt("rows_refined", stats.rows_refined)
        .SetInt("rows_pruned", stats.rows_pruned)
        .SetNum("deadline_utilization", stats.deadline_utilization)
        .SetBool("all_exact", stats.all_exact);
    sink_->Emit(event);
  }
  return stats;
}

vs::Result<RefinementStats> IncrementalRefiner::RefineBatch(
    const std::vector<double>& priorities, Deadline* deadline) {
  if (matrix_ == nullptr || deadline == nullptr) {
    return vs::Status::InvalidArgument("matrix and deadline are required");
  }
  if (!priorities.empty() && priorities.size() != matrix_->num_views()) {
    return vs::Status::InvalidArgument(
        "priorities must be empty or one per view");
  }

  // Rough rows sorted by decreasing priority (stable on ties).
  std::vector<size_t> order;
  order.reserve(matrix_->num_views());
  for (size_t i = 0; i < matrix_->num_views(); ++i) {
    if (!matrix_->IsExact(i)) order.push_back(i);
  }
  if (!priorities.empty()) {
    std::stable_sort(order.begin(), order.end(),
                     [&priorities](size_t a, size_t b) {
                       return priorities[a] > priorities[b];
                     });
  }
  return FinishBatch(order, /*rows_pruned=*/0, deadline);
}

vs::Result<RefinementStats> IncrementalRefiner::RefineBatchPruned(
    const std::vector<double>& priorities, const PruningOptions& pruning,
    Deadline* deadline) {
  if (matrix_ == nullptr || deadline == nullptr) {
    return vs::Status::InvalidArgument("matrix and deadline are required");
  }
  if (priorities.size() != matrix_->num_views()) {
    return vs::Status::InvalidArgument(
        "pruned refinement requires one priority score per view");
  }
  VS_ASSIGN_OR_RETURN(std::vector<size_t> order,
                      PrunedRefinementOrder(*matrix_, priorities, pruning));
  size_t rough_total = 0;
  for (size_t i = 0; i < matrix_->num_views(); ++i) {
    if (!matrix_->IsExact(i)) ++rough_total;
  }
  return FinishBatch(order, static_cast<int>(rough_total - order.size()),
                     deadline);
}

}  // namespace vs::core
