#ifndef VS_DATA_GROUPBY_KERNEL_H_
#define VS_DATA_GROUPBY_KERNEL_H_

/// \file groupby_kernel.h
/// \brief Typed grouped-aggregation kernel — the fast path behind
/// GroupByExecutor.
///
/// The generic executor path folds rows through a `std::function` bin
/// decoder and a per-row NumericColumnView type branch; at millions of
/// rows those indirect calls dominate the scan.  The kernel instead
/// dispatches *once* on the concrete column types and runs tight typed
/// loops in two stages per block of rows:
///
///   1. decode the dimension into a small bin-index buffer (dictionary
///      codes pass through; numeric values are equi-width binned with the
///      exact same `(v - lo) / width` arithmetic as the scalar path, so
///      bin assignment is bit-identical);
///   2. for each measure, fold the block into a dense structure-of-arrays
///      grid (counts / sums / sumsqs / mins / maxs) indexed by bin.
///
/// One serial pass over the selection (or the whole table) fills every
/// grid.  With at most 256 bins and a long enough scan the accumulators
/// are replicated into four lanes (row i feeds lane i mod 4, merged in
/// fixed lane order) so that a zipf-popular bin carries four independent
/// floating-point dependency chains instead of serializing on add latency.
///
/// Gathered measures and staged bins.  A feature-matrix build runs every
/// (dimension, bins) group's target pass over the same query subset, and
/// in place every pass re-reads the dimension and every measure through
/// the scattered selection: at e2ebench's cold_explore shape (|Q| ~ 180k
/// of 2M rows) nearly every selected row sits on its own cache line.
/// GatheredMeasures copies the selected cells of each distinct measure
/// once, and stages each target group's bins once (stage 1 over the whole
/// selection, into one int32 per selected row, -1 = skip), into arrays
/// aligned with the selection.  The gathered overload of GroupByKernelRun
/// then reads both the bins and the measure contiguously by domain
/// position, so a build can fold each (group, measure) as its own task
/// without staging the dimension once per measure.  The gather checks
/// each selection row id once, so the gathered run does not check them
/// again.  Lanes are assigned by domain position in both modes, so the
/// grids are bit-identical to the in-place run.
///
/// Only a build's target passes gather and stage.  Reference passes,
/// RefineRows and one-off Execute calls read in place, where a copy is
/// read by one pass and only adds a write.  Measured with e2ebench on a
/// 4-vCPU Xeon VM: also gathering the rough α-sample reference cut
/// paper_sessions' create p50 by 14% but raised its round p50/p99 by
/// 13%/16% (7 alternating pairs), and a gather per RefineRows call slowed
/// traced refinement by 8%.
///
/// Shared grids.  A pass's grids are immutable once it returns.
/// GroupByExecutor wraps each measure's grid in one shared_ptr and hands
/// it, uncopied, to every GroupByResult of the batch over that measure
/// (GroupByResult::moments); a memo-served full-table grid goes to every
/// caller as is.  A result copies only its finalized values, and the
/// scalar oracle's accumulators are packed into the same grid type.
///
/// Equivalence contract vs the scalar oracle: bin assignment, counts,
/// mins and maxs are *exact* (integer adds and min/max are associative).
/// The fold selects a bin's min as `v < min ? v : min` (max alike): the
/// selection AggregateAccumulator::Add makes with a branch, so a NaN never
/// enters and a -0.0/+0.0 tie keeps the zero seen first, but written as a
/// select it compiles to minsd/maxsd instead of a branch that mispredicts
/// on sparse bins.  Lane merging keeps the lowest lane's zero in a tie, so
/// on the lane path the sign of a zero min/max matches the oracle only
/// when the bin's first zero sits in its lowest lane holding one.  Without
/// lanes each bin sums in row order, so sums and sumsqs are
/// bit-identical too; lane merging reassociates them, and they then agree
/// within accumulation tolerance.  The end of the pass carries the
/// `kernel.run_fail` fault point (docs/TESTING.md).

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/column.h"
#include "data/table.h"

namespace vs {
class ThreadPool;
}  // namespace vs

namespace vs::data {

/// Equi-width binning of a numeric dimension, precomputed by the executor
/// from the full-table range so target and reference selections share
/// aligned bins.
struct KernelBinDef {
  double lo = 0.0;
  double width = 1.0;  ///< per-bin width; > 0
};

/// \brief Structure-of-arrays accumulator grid for one measure: one slot
/// per bin.
///
/// Finalization semantics match AggregateAccumulator: empty bins have
/// count 0, sum/sumsq 0 and +-inf min/max, and finalize to 0 for every
/// aggregate function.
struct KernelGrid {
  std::vector<int64_t> counts;
  std::vector<double> sums;
  std::vector<double> sumsqs;
  std::vector<double> mins;
  std::vector<double> maxs;

  /// Resizes to \p num_bins empty slots.
  void Reset(size_t num_bins);

  size_t size() const { return counts.size(); }
};

/// Runs the typed aggregation kernel: groups the rows of \p selection
/// (nullptr = all \p table_rows rows) by \p dimension and folds every
/// column in \p measures into one KernelGrid per measure, in input order.
///
/// \p dimension must be a CategoricalColumn (with \p numeric_bins
/// nullptr and \p num_bins its cardinality) or an Int64/Double column
/// (with \p numeric_bins set).  Measures must be int64 or double columns.
/// Rows whose dimension is null — and, per measure, rows whose measure is
/// null — do not contribute, matching the scalar path.
vs::Result<std::vector<KernelGrid>> GroupByKernelRun(
    const Column* dimension, const KernelBinDef* numeric_bins,
    int32_t num_bins, const std::vector<const Column*>& measures,
    const SelectionVector* selection, size_t table_rows);

/// One target group to stage: a dimension column and its binning, as
/// GroupByKernelRun takes them.
struct KernelDimension {
  const Column* column = nullptr;
  /// Equi-width binning of a numeric column; unset for a categorical one.
  std::optional<KernelBinDef> numeric_bins;
  int32_t num_bins = 0;
};

/// \brief Measure columns gathered, and dimensions staged, over one
/// selection: cell i of a gathered column is the source column's cell at
/// row selection[i], nulls included, and bin i of a staged dimension is
/// the bin of that row (-1 when its dimension cell is null).
///
/// Build-scoped scratch: it borrows the selection and keys each copy by
/// its source column, so both must outlive it.  Read-only after Gather,
/// hence safe to share across threads.
class GatheredMeasures {
 public:
  /// Checks every row id of \p selection against \p table_rows (OutOfRange
  /// before any cell is read) and every column (InvalidArgument unless
  /// \p columns are int64 or double and \p dimensions resolve as
  /// GroupByKernelRun resolves them), then copies the selected cells of
  /// each column and stages the bins of each dimension, one \p pool task
  /// per column and per dimension (inline when \p pool is null).
  static vs::Result<GatheredMeasures> Gather(
      const std::vector<const Column*>& columns,
      const std::vector<KernelDimension>& dimensions,
      const SelectionVector& selection, size_t table_rows,
      ThreadPool* pool = nullptr);

  const SelectionVector& selection() const { return *selection_; }

  /// The gathered copy of \p source, or nullptr when it was not gathered.
  const Column* Find(const Column* source) const;

  /// The staged bins of \p dimension at \p num_bins, or nullptr when it
  /// was not staged.
  const std::vector<int32_t>* FindBins(const Column* dimension,
                                       int32_t num_bins) const;

 private:
  struct StagedBins {
    const Column* dimension = nullptr;
    int32_t num_bins = 0;
    std::vector<int32_t> bins;
  };

  GatheredMeasures() = default;

  const SelectionVector* selection_ = nullptr;
  std::vector<std::pair<const Column*, std::unique_ptr<const Column>>>
      columns_;
  std::vector<StagedBins> staged_;
};

/// The gathered mode of GroupByKernelRun: folds each column of \p measures
/// from its copy in \p gathered by the staged bins of \p dimension at
/// \p num_bins, both read contiguously (each must have been gathered or
/// staged; InvalidArgument otherwise).  The grids are bit-identical to the
/// in-place run over &gathered.selection().
vs::Result<std::vector<KernelGrid>> GroupByKernelRun(
    const Column* dimension, int32_t num_bins,
    const std::vector<const Column*>& measures,
    const GatheredMeasures& gathered);

/// Typed min/max scan over the non-null values of a numeric (int64 or
/// double) column — the kernel-side replacement for the executor's
/// equi-width range discovery.  Returns {+inf, -inf} when every value is
/// null (the caller turns that into its no-non-null-values error).
/// Min/max are associative, so the unrolled scan is bit-identical to the
/// sequential one.
vs::Result<std::pair<double, double>> KernelColumnRange(const Column* column);

}  // namespace vs::data

#endif  // VS_DATA_GROUPBY_KERNEL_H_
