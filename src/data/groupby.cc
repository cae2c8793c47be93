#include "data/groupby.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "data/groupby_kernel.h"
#include "data/predicate.h"
#include "data/table_memo.h"

namespace vs::data {

namespace {

/// Finalizes every slot of \p grid for \p f into \p out with
/// AggregateAccumulator semantics (empty bins yield 0 for every function).
/// One loop per function, not a dispatch per slot: a 20,000-bin grid
/// finalizes five times per measure.
void FinalizeGrid(const KernelGrid& grid, AggregateFunction f, double* out) {
  const size_t nb = grid.size();
  const int64_t* counts = grid.counts.data();
  const double* moment = grid.sums.data();
  switch (f) {
    case AggregateFunction::kCount:
      for (size_t b = 0; b < nb; ++b) out[b] = static_cast<double>(counts[b]);
      return;
    case AggregateFunction::kAvg:
      for (size_t b = 0; b < nb; ++b) {
        out[b] = counts[b] == 0 ? 0.0
                                : moment[b] / static_cast<double>(counts[b]);
      }
      return;
    case AggregateFunction::kSum:
      break;
    case AggregateFunction::kMin:
      moment = grid.mins.data();
      break;
    case AggregateFunction::kMax:
      moment = grid.maxs.data();
      break;
  }
  for (size_t b = 0; b < nb; ++b) out[b] = counts[b] == 0 ? 0.0 : moment[b];
}

using LabelsPtr = std::shared_ptr<const std::vector<std::string>>;

/// "[lo, hi)" labels of an equi-width numeric binning.
LabelsPtr NumericBinLabels(double lo, double width, int32_t num_bins) {
  auto labels = std::make_shared<std::vector<std::string>>();
  labels->reserve(static_cast<size_t>(num_bins));
  for (int32_t b = 0; b < num_bins; ++b) {
    labels->push_back(
        vs::StrFormat("[%g, %g)", lo + b * width, lo + (b + 1) * width));
  }
  return labels;
}

/// The dictionary of categorical \p dimension as bin labels: one vector
/// per dimension, memoized in the table memo when the table has one.
LabelsPtr CategoricalLabels(const Table& table, const std::string& dimension,
                            const CategoricalColumn& cat) {
  TableMemo* memo = table.memo();
  if (memo != nullptr) {
    if (LabelsPtr found = memo->FindLabels(dimension)) return found;
  }
  auto labels = std::make_shared<const std::vector<std::string>>(
      cat.dictionary());
  return memo != nullptr ? memo->PublishLabels(dimension, std::move(labels))
                         : labels;
}

/// The scalar fold's accumulators as one immutable grid.
std::shared_ptr<const KernelGrid> GridOf(
    const std::vector<AggregateAccumulator>& groups) {
  auto grid = std::make_shared<KernelGrid>();
  grid->Reset(groups.size());
  for (size_t b = 0; b < groups.size(); ++b) {
    grid->counts[b] = groups[b].count;
    grid->sums[b] = groups[b].sum;
    grid->sumsqs[b] = groups[b].sumsq;
    grid->mins[b] = groups[b].min;
    grid->maxs[b] = groups[b].max;
  }
  return grid;
}

/// One result over \p grid: the values finalized for \p func, the grid
/// itself shared, not copied.
GroupByResult FinalizeResult(std::shared_ptr<const KernelGrid> grid,
                             AggregateFunction func, LabelsPtr labels,
                             int64_t rows_seen) {
  GroupByResult result;
  result.bin_labels = std::move(labels);
  result.rows_seen = rows_seen;
  result.values.resize(grid->size());
  FinalizeGrid(*grid, func, result.values.data());
  result.moments = std::move(grid);
  return result;
}

/// The distinct measures of \p specs in first-seen order; \p measure_of_spec
/// maps each spec to its measure's index.
std::vector<std::string> DistinctMeasures(
    const std::vector<GroupBySpec>& specs,
    std::vector<size_t>* measure_of_spec) {
  std::vector<std::string> measures;
  measure_of_spec->resize(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    const auto it =
        std::find(measures.begin(), measures.end(), specs[s].measure);
    (*measure_of_spec)[s] = static_cast<size_t>(it - measures.begin());
    if (it == measures.end()) measures.push_back(specs[s].measure);
  }
  return measures;
}

}  // namespace

const std::vector<std::string>& GroupByResult::labels() const {
  static const std::vector<std::string> kNoLabels;
  return bin_labels != nullptr ? *bin_labels : kNoLabels;
}

const std::vector<int64_t>& GroupByResult::counts() const {
  static const std::vector<int64_t> kNoCounts;
  return moments != nullptr ? moments->counts : kNoCounts;
}

const std::vector<double>& GroupByResult::sums() const {
  static const std::vector<double> kNoSums;
  return moments != nullptr ? moments->sums : kNoSums;
}

const std::vector<double>& GroupByResult::sumsqs() const {
  static const std::vector<double> kNoSumsqs;
  return moments != nullptr ? moments->sumsqs : kNoSumsqs;
}

std::string GroupBySpec::ToString() const {
  std::string out = AggregateFunctionName(func) + "(" + measure +
                    ") GROUP BY " + dimension;
  if (num_bins > 0) out += vs::StrFormat(" [%d bins]", num_bins);
  return out;
}

GroupByExecutor::GroupByExecutor(const Table* table,
                                 const GroupByExecutorOptions& options)
    : table_(table), options_(options) {}

vs::Result<KernelBinDef> GroupByExecutor::NumericBins(
    const std::string& dimension, int32_t num_bins) const {
  if (num_bins <= 0) {
    return vs::Status::InvalidArgument("numeric dimension '" + dimension +
                                       "' requires num_bins > 0");
  }
  TableMemo* memo = table_->memo();
  std::optional<std::pair<double, double>> range;
  if (memo != nullptr) range = memo->FindRange(dimension);
  if (!range) {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(dimension));
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    if (options_.use_kernel) {
      // Typed unrolled scan; min/max are associative, so lo/hi — and
      // therefore every bin boundary — are bit-identical to the scalar
      // loop below, and either path may fill the shared memo.
      VS_ASSIGN_OR_RETURN(auto kernel_range, KernelColumnRange(col.get()));
      lo = kernel_range.first;
      hi = kernel_range.second;
    } else {
      for (size_t r = 0; r < view.size(); ++r) {
        if (view.IsNull(r)) continue;
        const double v = view.at(r);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (!(lo <= hi)) {
      return vs::Status::FailedPrecondition(
          "numeric dimension '" + dimension + "' has no non-null values");
    }
    range = memo != nullptr ? memo->PublishRange(dimension, {lo, hi})
                            : std::make_pair(lo, hi);
  }
  const auto [lo, hi] = *range;
  KernelBinDef def;
  def.lo = lo;
  const double span = hi - lo;
  def.width = span > 0.0 ? span / num_bins : 1.0;
  return def;
}

vs::Result<int32_t> GroupByExecutor::NumBins(const GroupBySpec& spec) const {
  VS_ASSIGN_OR_RETURN(ColumnPtr dim_col,
                      table_->ColumnByName(spec.dimension));
  if (const auto* cat =
          dynamic_cast<const CategoricalColumn*>(dim_col.get())) {
    if (spec.num_bins > 0) {
      return vs::Status::InvalidArgument(
          "categorical dimension '" + spec.dimension +
          "' must use num_bins = 0");
    }
    return cat->cardinality();
  }
  if (spec.num_bins <= 0) {
    return vs::Status::InvalidArgument("numeric dimension '" +
                                       spec.dimension +
                                       "' requires num_bins > 0");
  }
  return spec.num_bins;
}

vs::Result<GroupByResult> GroupByExecutor::Execute(
    const GroupBySpec& spec, const SelectionVector* selection) const {
  if (options_.use_kernel) {
    VS_ASSIGN_OR_RETURN(std::vector<GroupByResult> results,
                        ExecuteBatchKernel({spec}, selection, nullptr));
    return std::move(results[0]);
  }
  VS_ASSIGN_OR_RETURN(ColumnPtr dim_col,
                      table_->ColumnByName(spec.dimension));
  VS_ASSIGN_OR_RETURN(ColumnPtr measure_col,
                      table_->ColumnByName(spec.measure));
  VS_ASSIGN_OR_RETURN(NumericColumnView measure,
                      NumericColumnView::Wrap(measure_col.get()));

  const auto* cat = dynamic_cast<const CategoricalColumn*>(dim_col.get());
  std::vector<AggregateAccumulator> groups;
  LabelsPtr bin_labels;
  int64_t rows_seen = 0;

  auto for_each_row = [&](auto&& fn) -> vs::Status {
    if (selection != nullptr) {
      for (uint32_t r : *selection) {
        if (r >= table_->num_rows()) {
          return vs::Status::OutOfRange("selection row id out of range");
        }
        fn(r);
      }
      rows_seen = static_cast<int64_t>(selection->size());
    } else {
      const size_t n = table_->num_rows();
      for (size_t r = 0; r < n; ++r) fn(static_cast<uint32_t>(r));
      rows_seen = static_cast<int64_t>(n);
    }
    return vs::Status::OK();
  };

  if (cat != nullptr) {
    if (spec.num_bins > 0) {
      return vs::Status::InvalidArgument(
          "categorical dimension '" + spec.dimension +
          "' must use num_bins = 0");
    }
    const int32_t card = cat->cardinality();
    groups.assign(static_cast<size_t>(card), AggregateAccumulator{});
    VS_RETURN_IF_ERROR(for_each_row([&](uint32_t r) {
      const int32_t code = cat->code(r);
      if (code == CategoricalColumn::kNullCode || measure.IsNull(r)) return;
      groups[static_cast<size_t>(code)].Add(measure.at(r));
    }));
    bin_labels = CategoricalLabels(*table_, spec.dimension, *cat);
  } else {
    VS_ASSIGN_OR_RETURN(NumericColumnView dim,
                        NumericColumnView::Wrap(dim_col.get()));
    VS_ASSIGN_OR_RETURN(KernelBinDef bins,
                        NumericBins(spec.dimension, spec.num_bins));
    const int32_t nb = spec.num_bins;
    groups.assign(static_cast<size_t>(nb), AggregateAccumulator{});
    VS_RETURN_IF_ERROR(for_each_row([&](uint32_t r) {
      if (dim.IsNull(r) || measure.IsNull(r)) return;
      const double v = dim.at(r);
      int32_t b = static_cast<int32_t>((v - bins.lo) / bins.width);
      if (b < 0) b = 0;
      if (b >= nb) b = nb - 1;  // max value lands in the last bin
      groups[static_cast<size_t>(b)].Add(measure.at(r));
    }));
    bin_labels = NumericBinLabels(bins.lo, bins.width, nb);
  }
  return FinalizeResult(GridOf(groups), spec.func, std::move(bin_labels),
                        rows_seen);
}

namespace {

vs::Status ValidateBatch(const std::vector<GroupBySpec>& specs) {
  if (specs.empty()) {
    return vs::Status::InvalidArgument("batch of specs must be non-empty");
  }
  for (const GroupBySpec& spec : specs) {
    if (spec.dimension != specs[0].dimension ||
        spec.num_bins != specs[0].num_bins) {
      return vs::Status::InvalidArgument(
          "all specs in a batch must share dimension and bin count");
    }
  }
  return vs::Status::OK();
}

}  // namespace

vs::Result<KernelDimension> GroupByExecutor::KernelDimensionOf(
    const std::string& dimension, int32_t num_bins) const {
  VS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(dimension));
  KernelDimension out;
  out.column = col.get();  // owned by table_
  if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
    if (num_bins > 0) {
      return vs::Status::InvalidArgument(
          "categorical dimension '" + dimension + "' must use num_bins = 0");
    }
    out.num_bins = cat->cardinality();
    return out;
  }
  VS_RETURN_IF_ERROR(NumericColumnView::Wrap(col.get()).status());
  VS_ASSIGN_OR_RETURN(out.numeric_bins, NumericBins(dimension, num_bins));
  out.num_bins = num_bins;
  return out;
}

vs::Result<GatheredMeasures> GroupByExecutor::GatherMeasures(
    const std::vector<std::string>& measures,
    const std::vector<std::pair<std::string, int32_t>>& dimensions,
    const SelectionVector& selection, ThreadPool* pool) const {
  std::vector<const Column*> columns;  // owned by table_
  columns.reserve(measures.size());
  for (const std::string& measure : measures) {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(measure));
    VS_RETURN_IF_ERROR(NumericColumnView::Wrap(col.get()).status());
    columns.push_back(col.get());
  }
  std::vector<KernelDimension> staged;
  staged.reserve(dimensions.size());
  for (const auto& [dimension, num_bins] : dimensions) {
    VS_ASSIGN_OR_RETURN(KernelDimension dim,
                        KernelDimensionOf(dimension, num_bins));
    staged.push_back(dim);
  }
  return GatheredMeasures::Gather(columns, staged, selection,
                                 table_->num_rows(), pool);
}

vs::Result<std::vector<GroupByResult>> GroupByExecutor::ExecuteBatch(
    const std::vector<GroupBySpec>& specs,
    const GatheredMeasures& gathered) const {
  VS_RETURN_IF_ERROR(ValidateBatch(specs));
  if (!options_.use_kernel) return ExecuteBatch(specs, &gathered.selection());
  return ExecuteBatchKernel(specs, &gathered.selection(), &gathered);
}

vs::Result<std::vector<GroupByResult>> GroupByExecutor::ExecuteBatch(
    const std::vector<GroupBySpec>& specs,
    const SelectionVector* selection) const {
  VS_RETURN_IF_ERROR(ValidateBatch(specs));
  if (options_.use_kernel) {
    return ExecuteBatchKernel(specs, selection, nullptr);
  }

  // Distinct measures, decoded once per row.
  std::vector<size_t> measure_of_spec;
  const std::vector<std::string> measures =
      DistinctMeasures(specs, &measure_of_spec);
  std::vector<NumericColumnView> measure_views;
  measure_views.reserve(measures.size());
  for (const std::string& measure : measures) {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(measure));
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    measure_views.push_back(view);
  }

  // Dimension decode, shared by every spec.
  VS_ASSIGN_OR_RETURN(ColumnPtr dim_col,
                      table_->ColumnByName(specs[0].dimension));
  const auto* cat = dynamic_cast<const CategoricalColumn*>(dim_col.get());
  int32_t num_bins = 0;
  LabelsPtr bin_labels;
  std::function<int32_t(uint32_t)> bin_of;
  if (cat != nullptr) {
    if (specs[0].num_bins > 0) {
      return vs::Status::InvalidArgument(
          "categorical dimension '" + specs[0].dimension +
          "' must use num_bins = 0");
    }
    num_bins = cat->cardinality();
    bin_labels = CategoricalLabels(*table_, specs[0].dimension, *cat);
    bin_of = [cat](uint32_t r) { return cat->code(r); };
  } else {
    VS_ASSIGN_OR_RETURN(NumericColumnView dim,
                        NumericColumnView::Wrap(dim_col.get()));
    VS_ASSIGN_OR_RETURN(
        KernelBinDef bins,
        NumericBins(specs[0].dimension, specs[0].num_bins));
    num_bins = specs[0].num_bins;
    bin_labels = NumericBinLabels(bins.lo, bins.width, num_bins);
    const int32_t nb = num_bins;
    bin_of = [dim, bins, nb](uint32_t r) -> int32_t {
      if (dim.IsNull(r)) return -1;
      int32_t b = static_cast<int32_t>((dim.at(r) - bins.lo) / bins.width);
      if (b < 0) b = 0;
      if (b >= nb) b = nb - 1;
      return b;
    };
  }

  // One accumulator grid per distinct measure; the single scan.
  std::vector<std::vector<AggregateAccumulator>> grids(
      measures.size(),
      std::vector<AggregateAccumulator>(static_cast<size_t>(num_bins)));
  int64_t rows_seen = 0;
  auto fold = [&](uint32_t r) {
    const int32_t bin = bin_of(r);
    if (bin < 0) return;
    for (size_t m = 0; m < measure_views.size(); ++m) {
      if (measure_views[m].IsNull(r)) continue;
      grids[m][static_cast<size_t>(bin)].Add(measure_views[m].at(r));
    }
  };
  if (selection != nullptr) {
    for (uint32_t r : *selection) {
      if (r >= table_->num_rows()) {
        return vs::Status::OutOfRange("selection row id out of range");
      }
      fold(r);
    }
    rows_seen = static_cast<int64_t>(selection->size());
  } else {
    for (uint32_t r = 0; r < table_->num_rows(); ++r) fold(r);
    rows_seen = static_cast<int64_t>(table_->num_rows());
  }

  // Finalize per spec from its measure's grid, shared by the measure's
  // specs.
  std::vector<std::shared_ptr<const KernelGrid>> shared(grids.size());
  for (size_t m = 0; m < grids.size(); ++m) shared[m] = GridOf(grids[m]);
  std::vector<GroupByResult> results;
  results.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    results.push_back(FinalizeResult(shared[measure_of_spec[s]],
                                     specs[s].func, bin_labels, rows_seen));
  }
  return results;
}

vs::Result<std::vector<GroupByResult>> GroupByExecutor::ExecuteBatchKernel(
    const std::vector<GroupBySpec>& specs, const SelectionVector* selection,
    const GatheredMeasures* gathered) const {
  // Distinct measures, resolved and type-checked once (same validation
  // and messages as the scalar path).
  std::vector<size_t> measure_of_spec;
  const std::vector<std::string> measures =
      DistinctMeasures(specs, &measure_of_spec);
  std::vector<ColumnPtr> measure_owners;  // keep shared_ptrs alive
  std::vector<const Column*> measure_cols;
  measure_owners.reserve(measures.size());
  measure_cols.reserve(measures.size());
  for (const std::string& measure : measures) {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(measure));
    VS_RETURN_IF_ERROR(NumericColumnView::Wrap(col.get()).status());
    measure_cols.push_back(col.get());
    measure_owners.push_back(std::move(col));
  }

  VS_ASSIGN_OR_RETURN(const KernelDimension dim,
                      KernelDimensionOf(specs[0].dimension, specs[0].num_bins));
  const int32_t num_bins = dim.num_bins;
  const KernelBinDef* kernel_bins = dim.numeric_bins ? &*dim.numeric_bins
                                                     : nullptr;
  const LabelsPtr bin_labels =
      kernel_bins != nullptr
          ? NumericBinLabels(kernel_bins->lo, kernel_bins->width, num_bins)
          : CategoricalLabels(
                *table_, specs[0].dimension,
                static_cast<const CategoricalColumn&>(*dim.column));

  // Full-table grids come from the table memo when present; the kernel
  // scans only for the measures still missing.  Each measure's grid is
  // accumulated independently of the others in the pass, so a grid filled
  // by one batch is bit-identical to what any other batch would compute.
  TableMemo* memo = selection == nullptr ? table_->memo() : nullptr;
  auto key_of = [&](size_t m) {
    FullTableGridKey key;
    key.dimension = specs[0].dimension;
    key.num_bins = num_bins;
    key.measure = measures[m];
    return key;
  };
  std::vector<std::shared_ptr<const KernelGrid>> grids(measures.size());
  std::vector<size_t> missing;
  for (size_t m = 0; m < measures.size(); ++m) {
    if (memo != nullptr) grids[m] = memo->FindGrid(key_of(m));
    if (grids[m] == nullptr) missing.push_back(m);
  }
  if (!missing.empty()) {
    std::vector<const Column*> scan_cols;
    scan_cols.reserve(missing.size());
    for (size_t m : missing) scan_cols.push_back(measure_cols[m]);
    VS_ASSIGN_OR_RETURN(
        std::vector<KernelGrid> fresh,
        gathered != nullptr
            ? GroupByKernelRun(dim.column, num_bins, scan_cols, *gathered)
            : GroupByKernelRun(dim.column, kernel_bins, num_bins, scan_cols,
                               selection, table_->num_rows()));
    for (size_t k = 0; k < missing.size(); ++k) {
      auto grid = std::make_shared<const KernelGrid>(std::move(fresh[k]));
      grids[missing[k]] =
          memo != nullptr ? memo->PublishGrid(key_of(missing[k]), grid)
                          : std::move(grid);
    }
  }
  const auto rows_seen = static_cast<int64_t>(
      selection != nullptr ? selection->size() : table_->num_rows());

  // Each spec finalizes its values from its measure's grid and shares the
  // grid itself: the memo's on full-table passes, one fresh grid per
  // measure otherwise.
  std::vector<GroupByResult> results;
  results.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    results.push_back(FinalizeResult(grids[measure_of_spec[s]], specs[s].func,
                                     bin_labels, rows_seen));
  }
  return results;
}

vs::Result<GroupByResult> ExecuteQuery(const Table& table,
                                       const AggregateQuery& query) {
  GroupByExecutor executor(&table);
  if (query.filter == nullptr) {
    return executor.Execute(query.spec, nullptr);
  }
  VS_ASSIGN_OR_RETURN(SelectionVector sel,
                      SelectRows(table, query.filter.get()));
  return executor.Execute(query.spec, &sel);
}

}  // namespace vs::data
