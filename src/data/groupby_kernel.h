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
/// Equivalence contract vs the scalar oracle: bin assignment, counts,
/// mins and maxs are *exact* (integer adds and min/max are associative).
/// Without lanes each bin sums in row order, so sums and sumsqs are
/// bit-identical too; lane merging reassociates them, and they then agree
/// within accumulation tolerance.  The end of the pass carries the
/// `kernel.run_fail` fault point (docs/TESTING.md).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/column.h"
#include "data/table.h"

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

/// Typed min/max scan over the non-null values of a numeric (int64 or
/// double) column — the kernel-side replacement for the executor's
/// equi-width range discovery.  Returns {+inf, -inf} when every value is
/// null (the caller turns that into its no-non-null-values error).
/// Min/max are associative, so the unrolled scan is bit-identical to the
/// sequential one.
vs::Result<std::pair<double, double>> KernelColumnRange(const Column* column);

}  // namespace vs::data

#endif  // VS_DATA_GROUPBY_KERNEL_H_
