#ifndef VS_DATA_GROUPBY_H_
#define VS_DATA_GROUPBY_H_

/// \file groupby.h
/// \brief The grouped-aggregation executor that materializes views.
///
/// A view in the paper is `SELECT a, f(m) FROM D[Q] GROUP BY a`.  The
/// executor is bound to one Table and derives *bin definitions* from the
/// full table — the dictionary for categorical dimensions, full-table
/// min/max for binned numeric dimensions — so that a target view (evaluated
/// over a selection) and its reference view (evaluated over all rows) share
/// identical, aligned bins.  Numeric ranges, categorical bin labels and,
/// on the kernel path, full-table grids are memoized in the table's
/// TableMemo (data/table_memo.h), so executors are cheap to create and any
/// number of them may run concurrently over one table.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/aggregate.h"
#include "data/groupby_kernel.h"
#include "data/table.h"

namespace vs::data {

/// \brief Description of one grouped aggregation.
struct GroupBySpec {
  std::string dimension;  ///< attribute grouped on
  std::string measure;    ///< attribute aggregated
  AggregateFunction func = AggregateFunction::kCount;
  /// 0 for categorical dimensions (one bin per dictionary label);
  /// > 0 for numeric dimensions (equi-width bins over full-table range).
  int32_t num_bins = 0;

  /// "AVG(m) GROUP BY a [4 bins]".
  std::string ToString() const;
};

/// \brief One materialized view: aggregate value and row count per bin.
///
/// Bins with no matching rows are present with value 0 / count 0 so target
/// and reference results always have the same shape.
struct GroupByResult {
  /// Label per bin, full-table order; one immutable vector shared by every
  /// result of a batch (and, for a categorical dimension, by every result
  /// over it: the table memo holds one labels vector per dimension).
  std::shared_ptr<const std::vector<std::string>> bin_labels;
  std::vector<double> values;  ///< finalized aggregate per bin
  /// The per-bin moments the values were finalized from.  One immutable
  /// grid is shared by every result of a batch over the same measure, and
  /// a memo-served full-table result holds the memo's own grid.
  std::shared_ptr<const KernelGrid> moments;
  int64_t rows_seen = 0;  ///< input rows scanned

  size_t num_bins() const { return values.size(); }

  /// The bin labels (empty when none were set).
  const std::vector<std::string>& labels() const;

  /// Contributing rows per bin (empty when no moments were set).
  const std::vector<int64_t>& counts() const;
  /// Σ measure per bin.
  const std::vector<double>& sums() const;
  /// Σ measure² per bin.
  const std::vector<double>& sumsqs() const;
};

/// \brief Execution-path knobs for GroupByExecutor.
struct GroupByExecutorOptions {
  /// Route Execute/ExecuteBatch through the typed aggregation kernel
  /// (data/groupby_kernel.h).  false keeps the original scalar fold — the
  /// reference oracle the differential kernel-equivalence tests compare
  /// against.  Kernel runs without lane replication are bit-identical
  /// to the oracle.
  bool use_kernel = true;
};

/// \brief Executes GroupBySpecs against one table, with bin definitions
/// shared by all selections.
///
/// On the kernel path, full-table batches (`selection == nullptr`) are
/// served from the table memo: only the grids it lacks are scanned, in one
/// kernel pass, and then published.  The scalar oracle path memoizes only
/// numeric ranges, never grids.
class GroupByExecutor {
 public:
  /// Binds to \p table (not owned; must outlive the executor).
  explicit GroupByExecutor(const Table* table,
                           const GroupByExecutorOptions& options = {});

  /// Runs \p spec over the rows in \p selection (nullptr = all rows).
  ///
  /// For COUNT the measure is still consulted for null-ness (SQL COUNT(m)
  /// semantics: null measures do not contribute).
  vs::Result<GroupByResult> Execute(const GroupBySpec& spec,
                                    const SelectionVector* selection) const;

  /// Number of bins \p spec will produce (dictionary cardinality or
  /// spec.num_bins).
  vs::Result<int32_t> NumBins(const GroupBySpec& spec) const;

  /// Shared-scan batch execution (SeeDB-style): runs every spec in
  /// \p specs — all of which must share \p specs[0]'s dimension and bin
  /// count — over a *single* pass of the input, amortizing the dimension
  /// decode across all (measure, function) combinations.  Results are in
  /// spec order and identical to per-spec Execute() calls.
  vs::Result<std::vector<GroupByResult>> ExecuteBatch(
      const std::vector<GroupBySpec>& specs,
      const SelectionVector* selection) const;

  /// Gathers the measure columns named in \p measures and stages the bins
  /// of each (dimension, num_bins) pair in \p dimensions over \p selection
  /// (borrowed; must outlive the result) for the ExecuteBatch overload
  /// below, one \p pool task per measure and per dimension (inline when
  /// \p pool is null).  Fails like ExecuteBatch on an unknown or
  /// non-numeric measure, an unknown dimension or a bin count its type does
  /// not take, and with OutOfRange on a bad selection row id, before any
  /// scan.
  vs::Result<GatheredMeasures> GatherMeasures(
      const std::vector<std::string>& measures,
      const std::vector<std::pair<std::string, int32_t>>& dimensions,
      const SelectionVector& selection, ThreadPool* pool = nullptr) const;

  /// ExecuteBatch over gathered.selection() that folds every spec's
  /// measure from its copy in \p gathered by the staged bins of the specs'
  /// (dimension, num_bins) (each must have been gathered or staged from
  /// this table; InvalidArgument otherwise) — for callers that run several
  /// batches over one selection.  Results are bit-identical to
  /// ExecuteBatch(specs, &gathered.selection()).  The scalar oracle path
  /// reads in place.
  vs::Result<std::vector<GroupByResult>> ExecuteBatch(
      const std::vector<GroupBySpec>& specs,
      const GatheredMeasures& gathered) const;

  /// The bound table.
  const Table& table() const { return *table_; }

  /// The execution-path options this executor was built with.
  const GroupByExecutorOptions& options() const { return options_; }

 private:
  /// Equi-width bins over the full-table [min, max] of a numeric
  /// dimension; the range is memoized in the table memo.
  vs::Result<KernelBinDef> NumericBins(const std::string& dimension,
                                       int32_t num_bins) const;

  /// \p dimension at \p num_bins as the kernel takes it (the column is
  /// owned by the table).  Fails on an unknown or non-numeric,
  /// non-categorical dimension and on a bin count its type does not take.
  vs::Result<KernelDimension> KernelDimensionOf(const std::string& dimension,
                                                int32_t num_bins) const;

  /// The typed-kernel implementation behind ExecuteBatch (specs already
  /// validated to share dimension and bin count).  With \p gathered the
  /// measures are folded from their copies over gathered->selection().
  vs::Result<std::vector<GroupByResult>> ExecuteBatchKernel(
      const std::vector<GroupBySpec>& specs, const SelectionVector* selection,
      const GatheredMeasures* gathered) const;

  const Table* table_;
  GroupByExecutorOptions options_;
};

/// \brief A full aggregate query: optional filter + grouped aggregation.
struct AggregateQuery {
  GroupBySpec spec;
  /// Row filter; nullptr selects all rows.
  std::shared_ptr<const class Predicate> filter;
};

/// Executes \p query against \p table (filter, then group-by).
vs::Result<GroupByResult> ExecuteQuery(const Table& table,
                                       const AggregateQuery& query);

}  // namespace vs::data

#endif  // VS_DATA_GROUPBY_H_
