#ifndef VS_E2EBENCH_INPUTS_H_
#define VS_E2EBENCH_INPUTS_H_

/// \file inputs.h
/// \brief Seeded inputs and expected answers: the DIAB-shaped and
/// big-shaped tables, the query subsets every workload explores, and the
/// simulated users (the paper's Table 2 u* presets over exact features)
/// that label views and judge top-k precision.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_matrix.h"
#include "core/utility_features.h"
#include "core/view.h"
#include "data/table.h"

namespace vsbench {

/// The paper's protocol constants (Figures 3/4): k = 5, labels quantised
/// to 0.01, tie-tolerant precision, and a cap on labels per session.
inline constexpr int kTopK = 5;
inline constexpr double kLabelStep = 0.01;
inline constexpr size_t kLabelCap = 150;

/// One simulated user: a Table 2 u* evaluated on a subset's exact
/// features.  Read-only after construction, so clients share it.
class Oracle {
 public:
  Oracle(std::vector<double> true_scores);
  /// The user's label for \p view: normalised u*, quantised to 0.01.
  double Label(size_t view) const;
  /// Tie-tolerant top-k precision of \p topk against the ideal top-k.
  double Precision(const std::vector<size_t>& topk) const;
  const std::vector<size_t>& ideal_topk() const { return ideal_topk_; }
  /// Replaces the expected answer with a wrong one (the benchmark's own
  /// test uses this to prove the correctness check can fail).
  void Corrupt();

 private:
  std::vector<double> true_scores_;
  std::vector<size_t> ideal_topk_;
  double threshold_ = 0.0;
};

/// A query subset with one oracle per Table 2 preset.
struct Subset {
  std::string filter;
  std::vector<Oracle> users;
};

/// The exact feature matrix of \p filter; it borrows \p table and
/// \p registry.
vs::Result<vs::core::FeatureMatrix> BuildExact(
    const vs::data::Table& table, const std::vector<vs::core::ViewSpec>& views,
    const vs::core::UtilityFeatureRegistry& registry,
    const std::string& filter);

/// Everything a subset's simulated users need, built from exact features.
vs::Result<Subset> MakeSubset(const vs::data::Table& table,
                              const std::vector<vs::core::ViewSpec>& views,
                              const vs::core::UtilityFeatureRegistry& registry,
                              const std::string& filter);

/// Selection of \p filter over \p table.
vs::Result<vs::data::SelectionVector> Select(const vs::data::Table& table,
                                         const std::string& filter);

/// The tables are fixed testbeds, like the paper's datasets: their
/// generator seeds do not follow the run seed, which instead picks every
/// session's seeker and sampling seeds.  The
/// values are the generator defaults of `viewseeker generate`.
inline constexpr uint64_t kDiabTableSeed = 7;
inline constexpr uint64_t kBigTableSeed = 99;

/// DIAB-shaped table (Table 1): \p rows rows from \p seed.
vs::Result<vs::data::Table> MakeDiabTable(size_t rows, uint64_t seed);

/// Writes the big-shaped table (the `--dataset=big` generator plus one
/// categorical dimension with more levels than the group-by kernel's
/// dense-grid limit) straight to \p path.
vs::Status WriteBigTable(size_t rows, uint64_t seed, const std::string& path);

/// The paper's query hypercube on DIAB (~0.6% of rows).
std::string PaperFilter();

/// Numeric-range subsets of the big table: \p bases fixed base boxes, each
/// covering ~9% of rows.  Session i explores base i % bases with both
/// range bounds shifted by (i / bases) * 1e-4, so every session has a
/// distinct selection (a matrix-cache miss) whose exact features stay
/// within a fraction of a percent of its base's.  The boxes do not follow
/// the run seed: the top-k of this view space is sensitive to the box, so
/// seed-drawn boxes would move labels_to_target by a third between seeds.
class RangeSubsets {
 public:
  explicit RangeSubsets(size_t bases);
  size_t bases() const { return lo0_.size(); }
  std::string Filter(uint64_t session) const;

 private:
  std::vector<double> lo0_;
  std::vector<double> lo1_;
};

/// Outcome of one simulated session, for correctness checks.
struct SessionOutcome {
  uint64_t index = 0;
  int labels = 0;
  bool reached = false;
  std::vector<size_t> topk;
};

/// Replays a session in-process on \p exact with the same seeker seed and
/// user — the reference cold_explore's checked session must equal.
vs::Result<SessionOutcome> ReplaySession(const vs::core::FeatureMatrix& exact,
                                         const Oracle& user,
                                         uint64_t seeker_seed);

}  // namespace vsbench

#endif  // VS_E2EBENCH_INPUTS_H_
