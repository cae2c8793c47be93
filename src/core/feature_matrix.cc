/// \file feature_matrix.cc
/// \brief Feature-matrix builds and refinement over shared group scans.
///
/// Build and RefineRows materialize views over (dimension, bin count)
/// groups in two helpers: RunGroupPasses runs each group's target and
/// reference batches (data/groupby.h), then ComputeGroupFeatures computes
/// the features of each view.  The batches hand every aggregate view of a
/// measure the same immutable moment grid, so on the kernel path
/// Usability, Accuracy and P-value — which read only counts and moments —
/// are computed once per (target grid, reference grid) pair, i.e. once per
/// (dimension, measure), together with P-value's normalized reference
/// count distribution.  The pair is keyed by grid, not by dimension,
/// because a measure with null cells has its own counts.
/// KL/EMD/L1/L2/MAX_DIFF and custom registered features still run per
/// view, and the scalar oracle path (use_kernels = false) keeps per-view
/// ComputeAll.  Either way the values are bit-identical.
///
/// Build runs in three phases on the borrowed FeatureMatrixOptions::pool
/// (inline without one), each under its own trace span:
///  0. gather: the target measures are gathered and each group's target
///     bins staged, one task per measure and one per group;
///  A. groups: each group's target pass folds one task per measure from
///     the staged bins, so no task holds a whole wide group, then one task
///     per group runs its reference pass;
///  B. features: one task per grid pair for the measure features, then
///     one task per view.
/// Every task writes only its own slot, so the matrix is bit-identical
/// with any pool size, and the status is the first failure in task order,
/// the inline build's.  RefineRows runs the same helpers inline, one group
/// at a time, in place: one target task per group.

#include "core/feature_matrix.h"

#include <algorithm>
#include <atomic>
#include <functional>
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
  /// Target measures gathered and group bins staged over the target
  /// selection, or null to read them in place over \p target.
  const data::GatheredMeasures* gathered = nullptr;
  const data::SelectionVector* target = nullptr;
  const data::SelectionVector* reference = nullptr;  ///< nullptr = all rows
};

/// One group's materialized views, in member order.
struct GroupResults {
  std::vector<data::GroupByResult> targets;
  std::vector<data::GroupByResult> references;
};

/// Runs fn(i) for i in [0, n) on \p pool (inline, in index order, when
/// null) and returns the failure of the lowest index.  A task is skipped
/// once a lower index has failed, so whatever the interleaving, every
/// index below the first failure runs and the result is the status a
/// sequential loop returns.
vs::Status RunTasks(ThreadPool* pool, size_t n,
                    const std::function<vs::Status(size_t)>& fn) {
  std::vector<vs::Status> status(n);
  std::atomic<size_t> first_failure{n};
  auto run = [&](size_t i) {
    if (first_failure.load() < i) return;
    status[i] = fn(i);
    if (status[i].ok()) return;
    size_t seen = first_failure.load();
    while (i < seen && !first_failure.compare_exchange_weak(seen, i)) {
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, n, run);
  } else {
    for (size_t i = 0; i < n; ++i) run(i);
  }
  const size_t failed = first_failure.load();
  return failed < n ? status[failed] : vs::Status::OK();
}

/// Phase A: runs the target and reference passes of \p groups (each one
/// dimension and bin count) on \p pool (inline when null) into
/// \p results.  The tasks run in group order.  A group's target pass is one
/// task per distinct measure when the target is gathered and staged, so no
/// task holds a whole wide group; otherwise it is one task for the group.
/// Then comes the group's reference pass, one task that stages the
/// dimension once for all its measures.  Each task finalizes its own specs
/// into its own slots.  Returns the first failure in task order.
vs::Status RunGroupPasses(const data::GroupByExecutor& executor,
                          const std::vector<ViewSpec>& views,
                          const std::vector<std::vector<size_t>>& groups,
                          const GroupPasses& passes, ThreadPool* pool,
                          std::vector<GroupResults>* results) {
  struct PassTask {
    size_t group;
    std::vector<size_t> members;  ///< positions in groups[group]
    bool reference;
  };
  std::vector<PassTask> tasks;
  results->resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<size_t> all(groups[g].size());
    for (size_t k = 0; k < all.size(); ++k) all[k] = k;
    if (passes.gathered != nullptr) {
      // One target task per distinct measure, in first-seen order.
      std::vector<std::string> measures;
      const size_t first = tasks.size();
      for (size_t k : all) {
        const std::string& measure = views[groups[g][k]].measure;
        const auto m = static_cast<size_t>(
            std::find(measures.begin(), measures.end(), measure) -
            measures.begin());
        if (m == measures.size()) {
          measures.push_back(measure);
          tasks.push_back({g, {}, false});
        }
        tasks[first + m].members.push_back(k);
      }
    } else {
      tasks.push_back({g, all, false});
    }
    tasks.push_back({g, std::move(all), true});
    (*results)[g].targets.resize(groups[g].size());
    (*results)[g].references.resize(groups[g].size());
  }
  return RunTasks(pool, tasks.size(), [&](size_t t) {
    const PassTask& task = tasks[t];
    std::vector<data::GroupBySpec> specs;
    specs.reserve(task.members.size());
    for (size_t k : task.members) {
      specs.push_back(views[groups[task.group][k]].ToGroupBySpec());
    }
    VS_ASSIGN_OR_RETURN(
        std::vector<data::GroupByResult> batch,
        task.reference ? executor.ExecuteBatch(specs, passes.reference)
        : passes.gathered != nullptr
            ? executor.ExecuteBatch(specs, *passes.gathered)
            : executor.ExecuteBatch(specs, passes.target));
    GroupResults& group = (*results)[task.group];
    std::vector<data::GroupByResult>& slots =
        task.reference ? group.references : group.targets;
    for (size_t i = 0; i < batch.size(); ++i) {
      slots[task.members[i]] = std::move(batch[i]);
    }
    return vs::Status::OK();
  });
}

/// Phase B: writes each view's features into its row of \p raw from the
/// passes in \p results, on \p pool (inline when null).  The
/// measure-level features (the kernel path with a registry that fuses the
/// built-ins, \p share_measure_features) are computed once per (target
/// grid, reference grid) pair, then one task per view normalizes, runs
/// ComputeAll, writes the row and frees the view's materialization.
/// Returns the first failure in view order.
vs::Status ComputeGroupFeatures(const std::vector<std::vector<size_t>>& groups,
                                std::vector<GroupResults>* results,
                                const UtilityFeatureRegistry& registry,
                                bool share_measure_features, ThreadPool* pool,
                                ml::Matrix* raw) {
  // Views in (group, member) order, and with shared measure features the
  // grid pair each one reads.
  struct ViewTask {
    size_t group;
    size_t member;
    size_t pair;
  };
  std::vector<ViewTask> tasks;
  using GridPair = std::pair<const data::KernelGrid*, const data::KernelGrid*>;
  std::vector<GridPair> pairs;
  std::vector<size_t> pair_first_task;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t k = 0; k < groups[g].size(); ++k) {
      size_t pair = 0;
      if (share_measure_features) {
        const GridPair grids((*results)[g].targets[k].moments.get(),
                             (*results)[g].references[k].moments.get());
        pair = static_cast<size_t>(
            std::find(pairs.begin(), pairs.end(), grids) - pairs.begin());
        if (pair == pairs.size()) {
          pairs.push_back(grids);
          pair_first_task.push_back(tasks.size());
        }
      }
      tasks.push_back({g, k, pair});
    }
  }
  // A pair's failure is reported by each of its views, after the view's
  // own normalization: the order a view-at-a-time build meets it in.
  std::vector<vs::Status> pair_status(pairs.size());
  std::vector<MeasureFeatures> pair_features(pairs.size());
  RunTasks(pool, pairs.size(), [&](size_t p) {
    const ViewTask& first = tasks[pair_first_task[p]];
    vs::Result<MeasureFeatures> measure = ComputeMeasureFeatures(
        (*results)[first.group].targets[first.member],
        (*results)[first.group].references[first.member]);
    if (measure.ok()) {
      pair_features[p] = *measure;
    } else {
      pair_status[p] = measure.status();
    }
    return vs::Status::OK();  // reported by the pair's views
  });
  return RunTasks(pool, tasks.size(), [&](size_t t) {
    const ViewTask& task = tasks[t];
    ViewMaterialization mat;
    mat.target = std::move((*results)[task.group].targets[task.member]);
    mat.reference = std::move((*results)[task.group].references[task.member]);
    VS_ASSIGN_OR_RETURN(mat.target_dist, stats::Normalize(mat.target.values));
    VS_ASSIGN_OR_RETURN(mat.reference_dist,
                        stats::Normalize(mat.reference.values));
    ml::Vector features;
    if (share_measure_features) {
      VS_RETURN_IF_ERROR(pair_status[task.pair]);
      VS_ASSIGN_OR_RETURN(features,
                          registry.ComputeAll(mat, pair_features[task.pair]));
    } else {
      VS_ASSIGN_OR_RETURN(features, registry.ComputeAll(mat));
    }
    const size_t row = groups[task.group][task.member];
    for (size_t j = 0; j < features.size(); ++j) (*raw)(row, j) = features[j];
    return vs::Status::OK();
  });
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

  // Phase 0.  Every group's target pass reads the same measures over the
  // same selection, so the kernel path gathers them once, aligned with
  // the selection, and stages each group's bins once
  // (data/groupby_kernel.h), one pool task per measure and per group.
  // Reference passes keep reading in place (memo-served on exact builds).
  // The copies are shared read-only by the pass tasks and freed when Build
  // returns.
  std::optional<data::GatheredMeasures> target_measures;
  if (options.use_kernels) {
    obs::ScopedSpan gather_span("FeatureMatrix::Build.gather");
    std::vector<std::string> measures;
    for (const ViewSpec& view : imm->views) {
      if (std::find(measures.begin(), measures.end(), view.measure) ==
          measures.end()) {
        measures.push_back(view.measure);
      }
    }
    std::vector<std::pair<std::string, int32_t>> dimensions;
    for (const std::vector<size_t>& group : groups) {
      const ViewSpec& view = imm->views[group[0]];
      const std::pair<std::string, int32_t> key(view.dimension,
                                                view.num_bins);
      if (std::find(dimensions.begin(), dimensions.end(), key) ==
          dimensions.end()) {
        dimensions.push_back(key);
      }
    }
    VS_ASSIGN_OR_RETURN(target_measures,
                        executor.GatherMeasures(measures, dimensions,
                                                *target_sel, options.pool));
  }

  GroupPasses passes;
  passes.gathered = target_measures ? &*target_measures : nullptr;
  passes.target = target_sel;
  passes.reference = ref_sel;
  // Groups and views are independent and write disjoint rows.  The
  // executor keeps no state of its own (ranges and full-table grids live
  // in the thread-safe table memo), so one executor serves every task.
  Stopwatch groups_clock;
  std::vector<GroupResults> results;
  {
    obs::ScopedSpan groups_span("FeatureMatrix::Build.groups");
    VS_RETURN_IF_ERROR(RunGroupPasses(executor, imm->views, groups, passes,
                                      options.pool, &results));
  }
  {
    obs::ScopedSpan features_span("FeatureMatrix::Build.features");
    Stopwatch feature_clock;
    VS_RETURN_IF_ERROR(ComputeGroupFeatures(
        groups, &results, *registry,
        options.use_kernels && registry->fuses_builtins(), options.pool,
        &state->raw));
    if (observe) {
      metrics.feature_seconds->Observe(feature_clock.ElapsedSeconds());
    }
  }
  if (observe) {
    // One observation per view keeps the histogram count meaningful as
    // "views built"; each is the view's share of the passes and features.
    const double per_view = groups_clock.ElapsedSeconds() /
                            static_cast<double>(imm->views.size());
    for (size_t i = 0; i < imm->views.size(); ++i) {
      metrics.view_seconds->Observe(per_view);
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
  // One group at a time, inline: a failure leaves the groups before it
  // refined.
  for (const auto& [key, members] : groups) {
    const std::vector<std::vector<size_t>> group = {members};
    std::vector<GroupResults> results;
    VS_RETURN_IF_ERROR(RunGroupPasses(executor, views, group, passes,
                                      /*pool=*/nullptr, &results));
    VS_RETURN_IF_ERROR(ComputeGroupFeatures(
        group, &results, *registry_,
        use_kernels_ && registry_->fuses_builtins(), /*pool=*/nullptr,
        &state.raw));
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
