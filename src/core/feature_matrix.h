#ifndef VS_CORE_FEATURE_MATRIX_H_
#define VS_CORE_FEATURE_MATRIX_H_

/// \file feature_matrix.h
/// \brief The view x utility-feature matrix — the paper's internal view
/// representation (a view becomes the tuple (a, m, f, u1(), ..., un())).
///
/// Built exactly (full data) or roughly (an α% uniform Bernoulli sample of
/// the underlying table, §3.3); rough rows can be *refined* one view at a
/// time by recomputing them on the full data, which is what the
/// incremental-refinement optimizer does between user prompts.  Feature
/// columns are min-max normalized to [0, 1] so that learned weights and
/// simulated ideal utility functions operate on comparable scales.
///
/// Sharing and copy-on-write: a FeatureMatrix is a cheap handle over two
/// internal blocks — an immutable part (view specs + query selection,
/// fixed at build time) and a refinement state (raw/normalized values,
/// exactness bitmap).  Copying a FeatureMatrix shares both blocks;
/// RefineRows() detaches a private copy of the state first whenever it is
/// shared, so refining one copy never changes the values another copy
/// observes.  This is what lets the serving layer keep one canonical
/// matrix per (table, query, view space, options) in a cross-session
/// cache and hand each session its own refinable handle.
///
/// Thread-safety of shared handles: concurrent *reads* of copies that
/// share state are safe once the lazy normalization cache has been
/// materialized (call normalized() once before publishing a matrix to
/// other threads — FeatureMatrixCache does this).  Refinement must be
/// externally serialized per handle, as before.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/utility_features.h"
#include "core/view.h"
#include "data/table.h"
#include "ml/matrix.h"

namespace vs {
class ThreadPool;
}  // namespace vs

namespace vs::core {

/// \brief Controls feature-matrix construction.
struct FeatureMatrixOptions {
  /// α — fraction of the table used for the initial ("rough") computation;
  /// 1.0 computes exact features directly.
  double sample_rate = 1.0;
  /// Seed of the sampling pass.
  uint64_t seed = 123;
  /// Borrowed pool for the build's three phases — the target measure
  /// gather and bin staging, one task per (group, measure) target pass and
  /// one reference task per group, then one task per view for its
  /// features — with the calling thread running tasks too; nullptr runs
  /// them inline.  The matrix is bit-identical either way, and one pool
  /// may serve concurrent builds.  RefineRows always runs inline.
  ThreadPool* pool = nullptr;
  /// Share one scan across all views of a dimension (SeeDB-style
  /// batching; ~5x faster builds).  Disable to reproduce the per-view
  /// execution cost model of the paper's prototype — Figures 6/7 measure
  /// the α-sampling optimization under that model, where the per-view
  /// cost is what the optimization amortizes.  Feature values are
  /// identical either way.
  bool shared_scan = true;
  /// Route group-by execution through the typed aggregation kernel
  /// (data/groupby_kernel.h).  false reinstates the scalar fold — the
  /// oracle path of the differential kernel-equivalence tests.  Results
  /// agree within accumulation tolerance, so (like pool) this
  /// field is excluded from the cache-identity hash.
  bool use_kernels = true;
};

/// \brief The materialized feature matrix with refinement state.
class FeatureMatrix {
 public:
  /// Builds the matrix for \p views over \p table: target views aggregate
  /// the rows of \p query_selection, reference views the whole table —
  /// both restricted to an α% sample when options.sample_rate < 1.
  ///
  /// \p table and \p registry are borrowed and must outlive the matrix.
  static vs::Result<FeatureMatrix> Build(
      const data::Table* table, std::vector<ViewSpec> views,
      data::SelectionVector query_selection,
      const UtilityFeatureRegistry* registry,
      const FeatureMatrixOptions& options);

  size_t num_views() const { return imm_->views.size(); }
  size_t num_features() const { return registry_->size(); }
  const std::vector<ViewSpec>& views() const { return imm_->views; }
  const UtilityFeatureRegistry& registry() const { return *registry_; }
  const data::Table& table() const { return *table_; }
  const data::SelectionVector& query_selection() const {
    return imm_->query_selection;
  }

  /// Raw feature values (rough or exact per row; see IsExact).
  const ml::Matrix& raw() const { return state_->raw; }

  /// Min-max normalized features over the *current* raw values; refreshed
  /// lazily after refinements.
  const ml::Matrix& normalized() const;

  /// One normalized row.
  ml::Vector NormalizedRow(size_t view_index) const;

  /// True when row \p view_index was computed on the full data.
  bool IsExact(size_t view_index) const { return state_->exact[view_index]; }

  /// Number of exact rows.
  size_t num_exact() const { return state_->num_exact; }

  /// True when every row is exact.
  bool AllExact() const { return state_->num_exact == imm_->views.size(); }

  /// Recomputes row \p view_index on the full data (no-op if already
  /// exact).  Normalization is invalidated.
  vs::Status RefineRow(size_t view_index);

  /// Batch refinement: recomputes every rough row in \p view_indices on
  /// the full data, sharing one scan per (dimension, bin count) group —
  /// the same SeeDB-style batching Build() uses.  Already-exact rows are
  /// skipped.  Detaches a private state copy first when this handle
  /// shares state with another (copy-on-write).
  vs::Status RefineRows(const std::vector<size_t>& view_indices);

  /// Approximate work units (rows scanned) one RefineRow costs; used to
  /// charge deterministic Deadlines.
  int64_t RefineCostPerRow() const;

  /// Approximate heap footprint of the shared blocks (raw + normalized
  /// values, exactness bitmap, view specs, query selection) — the unit of
  /// the serving cache's byte budget.
  size_t ApproxBytes() const;

  /// True when this handle reads the same refinement state as \p other
  /// (i.e. neither side has detached since they were copies of each
  /// other).  Test/introspection hook for the COW contract.
  bool SharesStateWith(const FeatureMatrix& other) const {
    return state_ == other.state_;
  }

 private:
  FeatureMatrix() = default;

  /// Fixed at build time, shared by every copy, never detached.
  struct Immutable {
    std::vector<ViewSpec> views;
    data::SelectionVector query_selection;
  };

  /// The refinable block; detached (deep-copied) on first refinement of a
  /// shared handle.
  struct State {
    ml::Matrix raw;
    std::vector<bool> exact;
    size_t num_exact = 0;
    /// Lazy min-max normalization cache over raw.
    mutable ml::Matrix normalized;
    mutable bool normalized_dirty = true;
  };

  /// Gives this handle sole ownership of its state (copy-on-write).
  void DetachStateIfShared();

  const data::Table* table_ = nullptr;
  const UtilityFeatureRegistry* registry_ = nullptr;
  std::shared_ptr<const Immutable> imm_;
  std::shared_ptr<State> state_;
  bool shared_scan_ = true;
  bool use_kernels_ = true;
};

}  // namespace vs::core

#endif  // VS_CORE_FEATURE_MATRIX_H_
