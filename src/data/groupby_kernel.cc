#include "data/groupby_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/threadpool.h"
#include "testing/fault_injection.h"

namespace vs::data {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rows decoded per staging block: the bin-index buffer stays L1-resident
/// while amortizing the per-measure dispatch branch over the block.
constexpr size_t kBlockRows = 4096;

/// How many selection entries ahead a scattered read prefetches its cell.
/// A selective box touches about half of a column's cache lines in
/// ascending but irregular order, which the hardware prefetcher does not
/// follow; 64 entries covers the miss latency of the gather and staging
/// loops.
constexpr size_t kPrefetchAhead = 64;

/// Accumulator replication factor.  Low-cardinality dimensions funnel most
/// rows into a handful of popular bins, so a single grid serializes on the
/// floating-point add latency of the hot bin (`sums[b] += v` is a
/// loop-carried dependency).  Four independent lanes (row i feeds lane
/// i mod 4) turn that chain into four, merged once per pass in fixed lane
/// order.  Counts/mins/maxs are unchanged by the split (integer adds and
/// min/max are associative); sums/sumsqs are reassociated, which is why
/// the kernel contract promises them within tolerance, not bit-identity.
constexpr size_t kAccumLanes = 4;

/// Lane replication is only worth its memory (lanes x bins x 40 B per
/// measure) while the grids stay cache-resident; above this bin count rows
/// spread out enough that chain collisions are rare anyway, and the 4x
/// footprint starts costing more in cache misses than it saves in chain
/// latency (measured: a 1024-bin dimension regressed ~2x at 4 lanes).
constexpr int32_t kLaneMaxBins = 256;

/// Below this many rows the chain-latency win cannot amortize the 4x grid
/// setup/merge, so the kernel keeps the serial accumulation order — which
/// also keeps small-table results (all the committed fixtures) bit-equal
/// to the scalar oracle, not merely within tolerance.
constexpr size_t kLaneMinRows = size_t{1} << 16;

}  // namespace

void KernelGrid::Reset(size_t num_bins) {
  counts.assign(num_bins, 0);
  sums.assign(num_bins, 0.0);
  sumsqs.assign(num_bins, 0.0);
  mins.assign(num_bins, kInf);
  maxs.assign(num_bins, -kInf);
}

namespace {

/// One measure column, resolved to its concrete type once per call.
struct TypedMeasure {
  const Int64Column* i64 = nullptr;
  const DoubleColumn* f64 = nullptr;
  bool has_nulls = false;
};

// ---------------------------------------------------------------------------
// Stage 1: decode the dimension of one block into bin indices (-1 = skip).
// ---------------------------------------------------------------------------

/// Gathers the codes of the selected \p rows (contiguous scans read the
/// code array in place; see Accumulate).
void StageCategorical(const int32_t* codes, const uint32_t* rows, size_t n,
                      int32_t* bins) {
  // kNullCode is -1, the kernel's skip sentinel — codes pass through.
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(codes + rows[i + kPrefetchAhead]);
    }
    bins[i] = codes[rows[i]];
  }
}

template <typename ColT, bool kHasNulls, bool kContig>
void StageNumeric(const ColT* col, const KernelBinDef& def, int32_t nb,
                  uint32_t base, const uint32_t* rows, size_t n,
                  int32_t* bins) {
  const auto* data = col->data().data();
  const double lo = def.lo;
  const double width = def.width;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = kContig ? base + i : rows[i];
    if (!kContig && i + kPrefetchAhead < n) {
      __builtin_prefetch(data + rows[i + kPrefetchAhead]);
    }
    if (kHasNulls && col->IsNull(row)) {
      bins[i] = -1;
      continue;
    }
    // The exact arithmetic of the scalar path: bin assignment must be
    // bit-identical (no multiply-by-reciprocal, which can flip boundary
    // values into the neighboring bin).
    const double v = static_cast<double>(data[row]);
    int32_t b = static_cast<int32_t>((v - lo) / width);
    if (b < 0) b = 0;
    if (b >= nb) b = nb - 1;  // the full-table max lands in the last bin
    bins[i] = b;
  }
}

// ---------------------------------------------------------------------------
// Stage 2: fold one measure over a staged block into an SoA grid indexed
// by bin.
// ---------------------------------------------------------------------------

/// Raw accumulator pointers of one lane grid — keeps the hot loop free of
/// vector bookkeeping.
struct LanePtrs {
  int64_t* counts;
  double* sums;
  double* sumsqs;
  double* mins;
  double* maxs;
};

LanePtrs PtrsOf(KernelGrid& grid) {
  return {grid.counts.data(), grid.sums.data(), grid.sumsqs.data(),
          grid.mins.data(), grid.maxs.data()};
}

/// kNumLanes = 1 reproduces the scalar fold order bin-for-bin; 4 rotates
/// rows across replicated accumulator segments (slot b of lane l lives at
/// index b + l*stride of one wide grid) so popular bins carry four
/// independent floating-point dependency chains instead of one.  The
/// single-wide-grid layout keeps the hot loop at five base pointers plus
/// small integer offsets — separate per-lane grids would need 20 live
/// pointers and spill.
template <typename ColT, bool kHasNulls, bool kContig, size_t kNumLanes>
void AccumulateBlock(const ColT* col, const int32_t* bins, uint32_t base,
                     const uint32_t* rows, size_t n, const LanePtrs& g,
                     size_t stride) {
  const auto* data = col->data().data();
  size_t lane_off[kNumLanes];
  for (size_t l = 0; l < kNumLanes; ++l) lane_off[l] = l * stride;
  size_t i = 0;
  for (; i + kNumLanes <= n; i += kNumLanes) {
    // Constant-bound inner loop: unrolled with one statically-known lane
    // per slot.
    for (size_t l = 0; l < kNumLanes; ++l) {
      const size_t k = i + l;
      const int32_t b = bins[k];
      if (b < 0) continue;
      const size_t row = kContig ? base + k : rows[k];
      if (kHasNulls && col->IsNull(row)) continue;
      const double v = static_cast<double>(data[row]);
      const size_t idx = static_cast<size_t>(b) + lane_off[l];
      ++g.counts[idx];
      g.sums[idx] += v;
      g.sumsqs[idx] += v * v;
      // Selects, not branches: the same choice as `if (v < min) min = v`.
      g.mins[idx] = v < g.mins[idx] ? v : g.mins[idx];
      g.maxs[idx] = v > g.maxs[idx] ? v : g.maxs[idx];
    }
  }
  for (; i < n; ++i) {
    const int32_t b = bins[i];
    if (b < 0) continue;
    const size_t row = kContig ? base + i : rows[i];
    if (kHasNulls && col->IsNull(row)) continue;
    const double v = static_cast<double>(data[row]);
    const size_t idx = static_cast<size_t>(b) + lane_off[i % kNumLanes];
    ++g.counts[idx];
    g.sums[idx] += v;
    g.sumsqs[idx] += v * v;
    g.mins[idx] = v < g.mins[idx] ? v : g.mins[idx];
    g.maxs[idx] = v > g.maxs[idx] ? v : g.maxs[idx];
  }
}

template <bool kContig, size_t kNumLanes>
void AccumulateMeasure(const TypedMeasure& measure, const int32_t* bins,
                       uint32_t base, const uint32_t* rows, size_t n,
                       const LanePtrs& grid, size_t stride) {
  if (measure.i64 != nullptr) {
    if (measure.has_nulls) {
      AccumulateBlock<Int64Column, true, kContig, kNumLanes>(
          measure.i64, bins, base, rows, n, grid, stride);
    } else {
      AccumulateBlock<Int64Column, false, kContig, kNumLanes>(
          measure.i64, bins, base, rows, n, grid, stride);
    }
  } else {
    if (measure.has_nulls) {
      AccumulateBlock<DoubleColumn, true, kContig, kNumLanes>(
          measure.f64, bins, base, rows, n, grid, stride);
    } else {
      AccumulateBlock<DoubleColumn, false, kContig, kNumLanes>(
          measure.f64, bins, base, rows, n, grid, stride);
    }
  }
}

/// Folds the replicated lane segments of each wide grid (\p num_bins x
/// kAccumLanes slots) back into segment 0, in fixed lane order so the
/// result is deterministic, then truncates the grid to \p num_bins.
void ReduceLanes(std::vector<KernelGrid>& grids, size_t num_bins) {
  for (KernelGrid& g : grids) {
    for (size_t l = 1; l < kAccumLanes; ++l) {
      const size_t off = l * num_bins;
      for (size_t b = 0; b < num_bins; ++b) {
        g.counts[b] += g.counts[off + b];
        g.sums[b] += g.sums[off + b];
        g.sumsqs[b] += g.sumsqs[off + b];
        if (g.mins[off + b] < g.mins[b]) g.mins[b] = g.mins[off + b];
        if (g.maxs[off + b] > g.maxs[b]) g.maxs[b] = g.maxs[off + b];
      }
    }
    g.counts.resize(num_bins);
    g.sums.resize(num_bins);
    g.sumsqs.resize(num_bins);
    g.mins.resize(num_bins);
    g.maxs.resize(num_bins);
  }
}

/// Everything the block loop needs, resolved once per call.
struct KernelInput {
  const CategoricalColumn* cat_dim = nullptr;
  const Int64Column* i64_dim = nullptr;
  const DoubleColumn* f64_dim = nullptr;
  bool dim_has_nulls = false;
  KernelBinDef bin_def;
  int32_t num_bins = 0;
  std::vector<TypedMeasure> measures;
  const uint32_t* sel = nullptr;  ///< selection data; nullptr = contiguous
  /// Bin indices staged over the whole domain; the dimension is then not
  /// read at all.
  const int32_t* staged = nullptr;
};

void StageDimension(const KernelInput& in, uint32_t base,
                    const uint32_t* rows, size_t n, int32_t* bins) {
  if (in.cat_dim != nullptr) {
    StageCategorical(in.cat_dim->codes().data(), rows, n, bins);
  } else if (in.i64_dim != nullptr) {
    if (rows == nullptr) {
      if (in.dim_has_nulls) {
        StageNumeric<Int64Column, true, true>(in.i64_dim, in.bin_def,
                                              in.num_bins, base, rows, n,
                                              bins);
      } else {
        StageNumeric<Int64Column, false, true>(in.i64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      }
    } else {
      if (in.dim_has_nulls) {
        StageNumeric<Int64Column, true, false>(in.i64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      } else {
        StageNumeric<Int64Column, false, false>(in.i64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      }
    }
  } else {
    if (rows == nullptr) {
      if (in.dim_has_nulls) {
        StageNumeric<DoubleColumn, true, true>(in.f64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      } else {
        StageNumeric<DoubleColumn, false, true>(in.f64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      }
    } else {
      if (in.dim_has_nulls) {
        StageNumeric<DoubleColumn, true, false>(in.f64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      } else {
        StageNumeric<DoubleColumn, false, false>(in.f64_dim, in.bin_def,
                                                 in.num_bins, base, rows, n,
                                                 bins);
      }
    }
  }
}

/// Aggregates the domain positions [0, domain) — row ids when scanning
/// the whole table, selection indices otherwise — into \p grids.  With
/// \p stride != 0 each grid is a wide grid of \p stride x kAccumLanes
/// slots (lane l of bin b at b + l * stride).
void Accumulate(const KernelInput& in, size_t domain, size_t stride,
                std::vector<KernelGrid>& grids) {
  int32_t bins[kBlockRows];
  // Bins already laid out by domain position: the staged bins of a
  // gathered run, or a contiguous categorical scan's code array — codes
  // already are bin indices (kNullCode = -1 = skip), so the staging copy
  // would be pure overhead.
  const int32_t* staged = in.staged;
  if (staged == nullptr && in.cat_dim != nullptr && in.sel == nullptr) {
    staged = in.cat_dim->codes().data();
  }
  for (size_t at = 0; at < domain; at += kBlockRows) {
    const size_t n = std::min(kBlockRows, domain - at);
    const auto base = static_cast<uint32_t>(at);
    const uint32_t* rows = in.sel == nullptr ? nullptr : in.sel + at;
    const int32_t* indices = bins;
    if (staged != nullptr) {
      indices = staged + at;
    } else {
      StageDimension(in, base, rows, n, bins);
    }
    for (size_t m = 0; m < in.measures.size(); ++m) {
      const LanePtrs grid = PtrsOf(grids[m]);
      if (rows == nullptr) {
        if (stride != 0) {
          AccumulateMeasure<true, kAccumLanes>(in.measures[m], indices, base,
                                               rows, n, grid, stride);
        } else {
          AccumulateMeasure<true, 1>(in.measures[m], indices, base, rows, n,
                                     grid, 0);
        }
      } else {
        if (stride != 0) {
          AccumulateMeasure<false, kAccumLanes>(in.measures[m], indices, base,
                                                rows, n, grid, stride);
        } else {
          AccumulateMeasure<false, 1>(in.measures[m], indices, base, rows, n,
                                      grid, 0);
        }
      }
    }
  }
}

/// Resolves \p dimension into \p in (type, bins, null-ness).
vs::Status ResolveDimension(const Column* dimension,
                            const KernelBinDef* numeric_bins, int32_t num_bins,
                            KernelInput* in) {
  if (num_bins < 0) {
    return vs::Status::InvalidArgument("kernel: negative bin count");
  }
  in->num_bins = num_bins;
  in->cat_dim = dynamic_cast<const CategoricalColumn*>(dimension);
  if (in->cat_dim != nullptr) return vs::Status::OK();
  if (numeric_bins == nullptr || numeric_bins->width <= 0.0) {
    return vs::Status::InvalidArgument(
        "kernel: numeric dimension requires a positive bin width");
  }
  in->bin_def = *numeric_bins;
  in->i64_dim = dynamic_cast<const Int64Column*>(dimension);
  in->f64_dim = dynamic_cast<const DoubleColumn*>(dimension);
  if (in->i64_dim == nullptr && in->f64_dim == nullptr) {
    return vs::Status::InvalidArgument(
        "kernel: dimension must be categorical or numeric");
  }
  in->dim_has_nulls = dimension->null_count() > 0;
  return vs::Status::OK();
}

vs::Result<TypedMeasure> ResolveMeasure(const Column* column) {
  TypedMeasure measure;
  measure.i64 = dynamic_cast<const Int64Column*>(column);
  measure.f64 = dynamic_cast<const DoubleColumn*>(column);
  if (measure.i64 == nullptr && measure.f64 == nullptr) {
    return vs::Status::InvalidArgument(
        "kernel: measures must be int64 or double columns");
  }
  measure.has_nulls = column->null_count() > 0;
  return measure;
}

/// The pass over domain positions [0, domain) of a resolved input, with
/// the `kernel.run_fail` fault point at its end.
vs::Result<std::vector<KernelGrid>> RunPass(const KernelInput& in,
                                            size_t domain) {
  const auto nb = static_cast<size_t>(in.num_bins);
  const bool lanes = in.num_bins <= kLaneMaxBins && domain >= kLaneMinRows;
  std::vector<KernelGrid> grids(in.measures.size());
  for (KernelGrid& grid : grids) grid.Reset(lanes ? nb * kAccumLanes : nb);
  Accumulate(in, domain, lanes ? nb : 0, grids);
  if (lanes) ReduceLanes(grids, nb);
  if (VS_FAULT("kernel.run_fail")) {
    return vs::Status::Internal("injected failure in the group-by kernel");
  }
  return grids;
}

/// Copies the cells of \p col at the rows of \p sel (already checked).
template <typename ColT>
std::unique_ptr<const Column> GatherColumn(const ColT& col,
                                           const SelectionVector& sel) {
  const auto* data = col.data().data();
  if (col.null_count() == 0) {
    std::vector<std::decay_t<decltype(*data)>> values(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      if (i + kPrefetchAhead < sel.size()) {
        __builtin_prefetch(data + sel[i + kPrefetchAhead]);
      }
      values[i] = data[sel[i]];
    }
    return std::make_unique<const ColT>(std::move(values));
  }
  auto out = std::make_unique<ColT>();
  out->Reserve(sel.size());
  for (uint32_t r : sel) {
    if (col.IsNull(r)) {
      out->AppendNull();
    } else {
      out->Append(data[r]);
    }
  }
  return out;
}

}  // namespace

vs::Result<std::vector<KernelGrid>> GroupByKernelRun(
    const Column* dimension, const KernelBinDef* numeric_bins,
    int32_t num_bins, const std::vector<const Column*>& measures,
    const SelectionVector* selection, size_t table_rows) {
  KernelInput in;
  VS_RETURN_IF_ERROR(ResolveDimension(dimension, numeric_bins, num_bins, &in));
  in.measures.reserve(measures.size());
  for (const Column* column : measures) {
    VS_ASSIGN_OR_RETURN(TypedMeasure measure, ResolveMeasure(column));
    in.measures.push_back(measure);
  }
  if (selection != nullptr) {
    for (uint32_t r : *selection) {
      if (r >= table_rows) {
        return vs::Status::OutOfRange("selection row id out of range");
      }
    }
    in.sel = selection->data();
  }
  return RunPass(in, selection != nullptr ? selection->size() : table_rows);
}

vs::Result<GatheredMeasures> GatheredMeasures::Gather(
    const std::vector<const Column*>& columns,
    const std::vector<KernelDimension>& dimensions,
    const SelectionVector& selection, size_t table_rows, ThreadPool* pool) {
  for (uint32_t r : selection) {
    if (r >= table_rows) {
      return vs::Status::OutOfRange("selection row id out of range");
    }
  }
  std::vector<TypedMeasure> typed;
  typed.reserve(columns.size());
  for (const Column* column : columns) {
    VS_ASSIGN_OR_RETURN(TypedMeasure measure, ResolveMeasure(column));
    typed.push_back(measure);
  }
  std::vector<KernelInput> inputs(dimensions.size());
  for (size_t d = 0; d < dimensions.size(); ++d) {
    const KernelDimension& dim = dimensions[d];
    VS_RETURN_IF_ERROR(ResolveDimension(
        dim.column, dim.numeric_bins ? &*dim.numeric_bins : nullptr,
        dim.num_bins, &inputs[d]));
  }
  GatheredMeasures out;
  out.selection_ = &selection;
  out.columns_.resize(columns.size());
  out.staged_.resize(dimensions.size());
  // One task per column, then one per dimension.
  auto gather = [&](size_t t) {
    if (t < columns.size()) {
      const TypedMeasure& measure = typed[t];
      out.columns_[t] = {columns[t],
                         measure.i64 != nullptr
                             ? GatherColumn(*measure.i64, selection)
                             : GatherColumn(*measure.f64, selection)};
      return;
    }
    const size_t d = t - columns.size();
    StagedBins& staged = out.staged_[d];
    staged.dimension = dimensions[d].column;
    staged.num_bins = dimensions[d].num_bins;
    staged.bins.resize(selection.size());
    StageDimension(inputs[d], 0, selection.data(), selection.size(),
                   staged.bins.data());
  };
  const size_t tasks = columns.size() + dimensions.size();
  if (pool != nullptr) {
    pool->ParallelFor(0, tasks, gather);
  } else {
    for (size_t t = 0; t < tasks; ++t) gather(t);
  }
  return out;
}

const Column* GatheredMeasures::Find(const Column* source) const {
  for (const auto& [from, copy] : columns_) {
    if (from == source) return copy.get();
  }
  return nullptr;
}

const std::vector<int32_t>* GatheredMeasures::FindBins(
    const Column* dimension, int32_t num_bins) const {
  for (const StagedBins& staged : staged_) {
    if (staged.dimension == dimension && staged.num_bins == num_bins) {
      return &staged.bins;
    }
  }
  return nullptr;
}

vs::Result<std::vector<KernelGrid>> GroupByKernelRun(
    const Column* dimension, int32_t num_bins,
    const std::vector<const Column*>& measures,
    const GatheredMeasures& gathered) {
  const std::vector<int32_t>* bins = gathered.FindBins(dimension, num_bins);
  if (bins == nullptr) {
    return vs::Status::InvalidArgument(
        "kernel: dimension was not staged over this selection");
  }
  KernelInput in;
  in.num_bins = num_bins;
  in.staged = bins->data();
  in.measures.reserve(measures.size());
  for (const Column* column : measures) {
    const Column* copy = gathered.Find(column);
    if (copy == nullptr) {
      return vs::Status::InvalidArgument(
          "kernel: measure was not gathered over this selection");
    }
    VS_ASSIGN_OR_RETURN(TypedMeasure measure, ResolveMeasure(copy));
    in.measures.push_back(measure);
  }
  // Gather checked every row id of the selection and staged the bins by
  // domain position, so the pass reads both contiguously.
  return RunPass(in, gathered.selection().size());
}

namespace {

template <typename ColT, bool kHasNulls>
std::pair<double, double> TypedMinMax(const ColT* col) {
  const auto* data = col->data().data();
  const size_t n = col->size();
  double lo[kAccumLanes];
  double hi[kAccumLanes];
  for (size_t l = 0; l < kAccumLanes; ++l) {
    lo[l] = kInf;
    hi[l] = -kInf;
  }
  size_t i = 0;
  for (; i + kAccumLanes <= n; i += kAccumLanes) {
    for (size_t l = 0; l < kAccumLanes; ++l) {
      const size_t row = i + l;
      if (kHasNulls && col->IsNull(row)) continue;
      const double v = static_cast<double>(data[row]);
      if (v < lo[l]) lo[l] = v;
      if (v > hi[l]) hi[l] = v;
    }
  }
  for (; i < n; ++i) {
    if (kHasNulls && col->IsNull(i)) continue;
    const double v = static_cast<double>(data[i]);
    if (v < lo[0]) lo[0] = v;
    if (v > hi[0]) hi[0] = v;
  }
  for (size_t l = 1; l < kAccumLanes; ++l) {
    if (lo[l] < lo[0]) lo[0] = lo[l];
    if (hi[l] > hi[0]) hi[0] = hi[l];
  }
  return {lo[0], hi[0]};
}

}  // namespace

vs::Result<std::pair<double, double>> KernelColumnRange(const Column* column) {
  const bool has_nulls = column->null_count() > 0;
  if (const auto* i64 = dynamic_cast<const Int64Column*>(column)) {
    return has_nulls ? TypedMinMax<Int64Column, true>(i64)
                     : TypedMinMax<Int64Column, false>(i64);
  }
  if (const auto* f64 = dynamic_cast<const DoubleColumn*>(column)) {
    return has_nulls ? TypedMinMax<DoubleColumn, true>(f64)
                     : TypedMinMax<DoubleColumn, false>(f64);
  }
  return vs::Status::InvalidArgument(
      "kernel: range scan requires an int64 or double column");
}

}  // namespace vs::data
