/// \file feature_matrix.cc
/// \brief Feature-matrix builds and refinement over shared group scans.
///
/// Build and RefineRows materialize views one (dimension, bin count) group
/// at a time through one helper, MaterializeGroup: one target batch and one
/// reference batch per group (data/groupby.h), then the features of each
/// view.  The batches hand every aggregate view of a measure the same
/// immutable moment grid, so on the kernel path Usability, Accuracy and
/// P-value — which read only counts and moments — are computed once per
/// (target grid, reference grid) pair, i.e. once per (dimension, measure),
/// together with P-value's normalized reference count distribution.  The
/// pair is keyed by grid, not by dimension, because a measure with null
/// cells has its own counts.  KL/EMD/L1/L2/MAX_DIFF and custom registered
/// features still run per view, and the scalar oracle path
/// (use_kernels = false) keeps per-view ComputeAll.  Either way the values
/// are bit-identical.

#include "core/feature_matrix.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "core/feature_kernels.h"
#include "data/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vs::core {

namespace {

/// Intersection of two sorted selection vectors.
data::SelectionVector Intersect(const data::SelectionVector& a,
                                const data::SelectionVector& b) {
  data::SelectionVector out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Cached instrument handles for the build/refine hot paths.
struct BuildMetrics {
  obs::Histogram* build_seconds;
  obs::Histogram* view_seconds;
  obs::Histogram* feature_seconds;
  obs::Counter* builds_total;
  obs::Counter* views_built;
  obs::Counter* rough_rows;
  obs::Counter* rows_refined;
  obs::Counter* cow_detaches;

  static const BuildMetrics& Get() {
    static const BuildMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return BuildMetrics{
          r.GetHistogram("feature_matrix.build_seconds",
                         obs::DefaultLatencyBuckets(),
                         "full feature-matrix build time"),
          r.GetHistogram("feature_matrix.view_seconds",
                         obs::DefaultLatencyBuckets(),
                         "per-view materialization + feature time "
                         "(scan cost amortized over shared-scan groups)"),
          r.GetHistogram("feature_matrix.feature_seconds",
                         obs::DefaultLatencyBuckets(),
                         "per-view utility-feature evaluation time"),
          r.GetCounter("feature_matrix.builds_total",
                       "feature-matrix builds"),
          r.GetCounter("feature_matrix.views_built",
                       "view rows materialized by builds"),
          r.GetCounter("feature_matrix.rough_rows",
                       "view rows built on the sample (rough)"),
          r.GetCounter("feature_matrix.rows_refined",
                       "rough rows recomputed on the full data"),
          r.GetCounter("feature_matrix.cow_detaches",
                       "refinements that deep-copied a shared state"),
      };
    }();
    return m;
  }
};

/// Where one group's target and reference passes read.
struct GroupPasses {
  /// Target measures gathered over the target selection, or null to read
  /// them in place over \p target.
  const data::GatheredMeasures* gathered = nullptr;
  const data::SelectionVector* target = nullptr;
  const data::SelectionVector* reference = nullptr;  ///< nullptr = all rows
};

/// Materializes the views \p members of \p views (one dimension and bin
/// count) from one target and one reference batch and writes each view's
/// features into its row of \p raw.  With \p share_measure_features (the
/// kernel path with a registry that fuses the built-ins) the measure-level
/// features are computed once per (target grid, reference grid) pair.
/// When \p feature_seconds is set it observes one sample per view: the
/// view's ComputeAll, plus the measure-level features for the first view
/// of each pair.
vs::Status MaterializeGroup(const data::GroupByExecutor& executor,
                            const std::vector<ViewSpec>& views,
                            const std::vector<size_t>& members,
                            const GroupPasses& passes,
                            const UtilityFeatureRegistry& registry,
                            bool share_measure_features, ml::Matrix* raw,
                            obs::Histogram* feature_seconds) {
  std::vector<data::GroupBySpec> specs;
  specs.reserve(members.size());
  for (size_t i : members) specs.push_back(views[i].ToGroupBySpec());
  VS_ASSIGN_OR_RETURN(std::vector<data::GroupByResult> targets,
                      passes.gathered != nullptr
                          ? executor.ExecuteBatch(specs, *passes.gathered)
                          : executor.ExecuteBatch(specs, passes.target));
  VS_ASSIGN_OR_RETURN(std::vector<data::GroupByResult> references,
                      executor.ExecuteBatch(specs, passes.reference));

  using GridPair = std::pair<std::shared_ptr<const data::KernelGrid>,
                             std::shared_ptr<const data::KernelGrid>>;
  std::vector<std::pair<GridPair, MeasureFeatures>> measure_features;
  for (size_t k = 0; k < members.size(); ++k) {
    ViewMaterialization mat;
    mat.target = std::move(targets[k]);
    mat.reference = std::move(references[k]);
    VS_ASSIGN_OR_RETURN(mat.target_dist,
                        stats::Normalize(mat.target.values));
    VS_ASSIGN_OR_RETURN(mat.reference_dist,
                        stats::Normalize(mat.reference.values));
    Stopwatch feature_clock;
    ml::Vector features;
    if (share_measure_features) {
      const GridPair grids(mat.target.moments, mat.reference.moments);
      auto it = std::find_if(
          measure_features.begin(), measure_features.end(),
          [&grids](const auto& entry) { return entry.first == grids; });
      if (it == measure_features.end()) {
        VS_ASSIGN_OR_RETURN(
            MeasureFeatures measure,
            ComputeMeasureFeatures(mat.target, mat.reference));
        it = measure_features.emplace(it, grids, measure);
      }
      VS_ASSIGN_OR_RETURN(features, registry.ComputeAll(mat, it->second));
    } else {
      VS_ASSIGN_OR_RETURN(features, registry.ComputeAll(mat));
    }
    if (feature_seconds != nullptr) {
      feature_seconds->Observe(feature_clock.ElapsedSeconds());
    }
    for (size_t j = 0; j < features.size(); ++j) {
      (*raw)(members[k], j) = features[j];
    }
  }
  return vs::Status::OK();
}

}  // namespace

vs::Result<FeatureMatrix> FeatureMatrix::Build(
    const data::Table* table, std::vector<ViewSpec> views,
    data::SelectionVector query_selection,
    const UtilityFeatureRegistry* registry,
    const FeatureMatrixOptions& options) {
  if (table == nullptr || registry == nullptr) {
    return vs::Status::InvalidArgument("table and registry are required");
  }
  if (views.empty()) {
    return vs::Status::InvalidArgument("view list must be non-empty");
  }
  if (registry->size() == 0) {
    return vs::Status::InvalidArgument("registry has no features");
  }
  if (options.sample_rate <= 0.0 || options.sample_rate > 1.0) {
    return vs::Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  for (uint32_t r : query_selection) {
    if (r >= table->num_rows()) {
      return vs::Status::OutOfRange("query selection row out of range");
    }
  }

  obs::ScopedSpan build_span("FeatureMatrix::Build");
  const BuildMetrics& metrics = BuildMetrics::Get();
  const bool observe = obs::MetricsRegistry::Default().enabled();
  Stopwatch build_clock;

  FeatureMatrix fm;
  fm.table_ = table;
  fm.registry_ = registry;
  auto imm = std::make_shared<Immutable>();
  imm->views = std::move(views);
  imm->query_selection = std::move(query_selection);
  auto state = std::make_shared<State>();
  state->raw = ml::Matrix(imm->views.size(), registry->size());
  state->exact.assign(imm->views.size(), false);

  const bool exact_build = options.sample_rate >= 1.0;
  data::GroupByExecutorOptions executor_options;
  executor_options.use_kernel = options.use_kernels;
  data::GroupByExecutor executor(table, executor_options);

  data::SelectionVector ref_sample;
  data::SelectionVector target_sample;
  const data::SelectionVector* ref_sel = nullptr;  // nullptr = all rows
  const data::SelectionVector* target_sel = &imm->query_selection;
  if (!exact_build) {
    vs::Rng rng(options.seed);
    ref_sample =
        data::BernoulliSample(table->num_rows(), options.sample_rate, &rng);
    target_sample = Intersect(imm->query_selection, ref_sample);
    if (target_sample.empty() || ref_sample.empty()) {
      // The sample missed the (small) query subset entirely; rough
      // features would be vacuous, so fall back to the full selections.
      ref_sel = nullptr;
      target_sel = &imm->query_selection;
    } else {
      ref_sel = &ref_sample;
      target_sel = &target_sample;
    }
  }

  fm.shared_scan_ = options.shared_scan;
  fm.use_kernels_ = options.use_kernels;

  // Shared-scan batching (SeeDB-style): all views over one (dimension,
  // bin count) share a single target pass and a single reference pass.
  // Without shared_scan every view is its own group (the per-view cost
  // model of the paper's prototype).
  std::vector<std::vector<size_t>> groups;
  if (options.shared_scan) {
    std::map<std::pair<std::string, int32_t>, size_t> group_of;
    for (size_t i = 0; i < imm->views.size(); ++i) {
      const auto key =
          std::make_pair(imm->views[i].dimension, imm->views[i].num_bins);
      auto [it, inserted] = group_of.emplace(key, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  } else {
    groups.resize(imm->views.size());
    for (size_t i = 0; i < imm->views.size(); ++i) groups[i] = {i};
  }

  // Every group's target pass reads the same measures over the same
  // selection, so the kernel path gathers them once, aligned with the
  // selection (data/groupby_kernel.h).  Reference passes keep reading in
  // place (memo-served on exact builds).  The copies are shared read-only
  // by the pool workers and freed when Build returns.
  std::optional<data::GatheredMeasures> target_measures;
  if (options.use_kernels) {
    std::vector<std::string> measures;
    for (const ViewSpec& view : imm->views) {
      if (std::find(measures.begin(), measures.end(), view.measure) ==
          measures.end()) {
        measures.push_back(view.measure);
      }
    }
    VS_ASSIGN_OR_RETURN(target_measures,
                        executor.GatherMeasures(measures, *target_sel));
  }

  GroupPasses passes;
  passes.gathered = target_measures ? &*target_measures : nullptr;
  passes.target = target_sel;
  passes.reference = ref_sel;
  const bool share_measure_features =
      options.use_kernels && registry->fuses_builtins();
  auto compute_group = [&](size_t g) -> vs::Status {
    const std::vector<size_t>& members = groups[g];
    Stopwatch group_clock;
    VS_RETURN_IF_ERROR(MaterializeGroup(
        executor, imm->views, members, passes, *registry,
        share_measure_features, &state->raw,
        observe ? metrics.feature_seconds : nullptr));
    if (observe) {
      // Shared scans make the per-view cost the group cost amortized over
      // its members; one observation per view keeps the histogram count
      // meaningful as "views built".
      const double per_view =
          group_clock.ElapsedSeconds() / static_cast<double>(members.size());
      for (size_t k = 0; k < members.size(); ++k) {
        metrics.view_seconds->Observe(per_view);
      }
    }
    return vs::Status::OK();
  };

  if (options.num_threads == 0) {
    for (size_t g = 0; g < groups.size(); ++g) {
      VS_RETURN_IF_ERROR(compute_group(g));
    }
  } else {
    // Groups are independent and write disjoint rows.  The executor
    // keeps no state of its own (ranges and full-table grids live in the
    // thread-safe table memo), so one executor serves every worker.
    std::vector<vs::Status> group_status(groups.size());
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(0, groups.size(), [&](size_t g) {
      group_status[g] = compute_group(g);
    });
    for (const vs::Status& s : group_status) {
      VS_RETURN_IF_ERROR(s);
    }
  }
  if (exact_build) {
    state->exact.assign(imm->views.size(), true);
    state->num_exact = imm->views.size();
  }
  state->normalized_dirty = true;
  fm.imm_ = std::move(imm);
  fm.state_ = std::move(state);
  metrics.builds_total->Increment();
  metrics.views_built->Increment(fm.num_views());
  if (!exact_build) metrics.rough_rows->Increment(fm.num_views());
  metrics.build_seconds->Observe(build_clock.ElapsedSeconds());
  return fm;
}

const ml::Matrix& FeatureMatrix::normalized() const {
  State& state = *state_;
  if (state.normalized_dirty) {
    state.normalized = state.raw;
    const size_t rows = state.raw.rows();
    const size_t cols = state.raw.cols();
    for (size_t j = 0; j < cols; ++j) {
      double lo = state.raw(0, j);
      double hi = state.raw(0, j);
      for (size_t i = 1; i < rows; ++i) {
        lo = std::min(lo, state.raw(i, j));
        hi = std::max(hi, state.raw(i, j));
      }
      const double span = hi - lo;
      for (size_t i = 0; i < rows; ++i) {
        state.normalized(i, j) =
            span > 0.0 ? (state.raw(i, j) - lo) / span : 0.0;
      }
    }
    state.normalized_dirty = false;
  }
  return state.normalized;
}

ml::Vector FeatureMatrix::NormalizedRow(size_t view_index) const {
  return normalized().Row(view_index);
}

void FeatureMatrix::DetachStateIfShared() {
  if (state_.use_count() == 1) return;
  state_ = std::make_shared<State>(*state_);
  BuildMetrics::Get().cow_detaches->Increment();
}

vs::Status FeatureMatrix::RefineRow(size_t view_index) {
  return RefineRows({view_index});
}

vs::Status FeatureMatrix::RefineRows(
    const std::vector<size_t>& view_indices) {
  const std::vector<ViewSpec>& views = imm_->views;
  // Group the rough rows by (dimension, bin count) for shared scans; in
  // per-view mode (shared_scan = false) each row is its own scan.
  std::map<std::pair<std::string, int32_t>, std::vector<size_t>> groups;
  int32_t next_unique = 0;
  for (size_t view_index : view_indices) {
    if (view_index >= views.size()) {
      return vs::Status::OutOfRange("view index out of range");
    }
    if (state_->exact[view_index]) continue;
    if (shared_scan_) {
      groups[{views[view_index].dimension, views[view_index].num_bins}]
          .push_back(view_index);
    } else {
      groups[{views[view_index].dimension, --next_unique}] = {view_index};
    }
  }
  if (groups.empty()) return vs::Status::OK();

  // The write below must not be visible to other handles sharing this
  // state (one serving session's refinement must never leak into
  // another's, nor into the cache's canonical copy).
  DetachStateIfShared();
  State& state = *state_;

  obs::ScopedSpan refine_span("FeatureMatrix::RefineRows");
  data::GroupByExecutorOptions executor_options;
  executor_options.use_kernel = use_kernels_;
  data::GroupByExecutor executor(table_, executor_options);
  GroupPasses passes;
  passes.target = &imm_->query_selection;
  const bool share_measure_features =
      use_kernels_ && registry_->fuses_builtins();
  for (const auto& [key, members] : groups) {
    VS_RETURN_IF_ERROR(MaterializeGroup(executor, views, members, passes,
                                        *registry_, share_measure_features,
                                        &state.raw, nullptr));
    for (size_t row : members) {
      state.exact[row] = true;
      ++state.num_exact;
      BuildMetrics::Get().rows_refined->Increment();
    }
  }
  state.normalized_dirty = true;
  return vs::Status::OK();
}

int64_t FeatureMatrix::RefineCostPerRow() const {
  // One refinement scans the full table (reference) plus the query subset
  // (target).
  return static_cast<int64_t>(table_->num_rows() +
                              imm_->query_selection.size());
}

size_t FeatureMatrix::ApproxBytes() const {
  const size_t cells = state_->raw.rows() * state_->raw.cols();
  size_t bytes = 2 * cells * sizeof(double);       // raw + normalized
  bytes += state_->exact.size() / 8 + 1;           // exactness bitmap
  bytes += imm_->query_selection.size() * sizeof(uint32_t);
  for (const ViewSpec& view : imm_->views) {
    bytes += sizeof(ViewSpec) + view.dimension.size() + view.measure.size();
  }
  return bytes;
}

}  // namespace vs::core
