#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "core/ideal_utility.h"
#include "core/metrics.h"
#include "core/seeker.h"
#include "core/simulated_user.h"
#include "data/generator.h"
#include "data/predicate.h"
#include "data/query.h"

namespace vsbench {

Oracle::Oracle(std::vector<double> true_scores)
    : true_scores_(std::move(true_scores)),
      ideal_topk_(vs::core::TopKIndices(true_scores_, kTopK)) {
  // Views within half a label step of the k-th ideal view are
  // indistinguishable to a user answering at 0.01 granularity.
  threshold_ = true_scores_[ideal_topk_.back()] - kLabelStep / 2.0;
}

double Oracle::Label(size_t view) const {
  const double label = std::round(true_scores_[view] / kLabelStep) * kLabelStep;
  return std::clamp(label, 0.0, 1.0);
}

double Oracle::Precision(const std::vector<size_t>& topk) const {
  size_t hits = 0;
  for (size_t v : topk) {
    if (v < true_scores_.size() && true_scores_[v] >= threshold_) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(ideal_topk_.size());
}

void Oracle::Corrupt() {
  // Expect the k lowest-scoring views instead: no honest top-k matches.
  std::vector<double> negated(true_scores_.size());
  for (size_t i = 0; i < negated.size(); ++i) negated[i] = -true_scores_[i];
  ideal_topk_ = vs::core::TopKIndices(negated, kTopK);
  threshold_ = 2.0;
}

vs::Result<vs::data::SelectionVector> Select(const vs::data::Table& table,
                                         const std::string& filter) {
  VS_ASSIGN_OR_RETURN(vs::data::PredicatePtr predicate, vs::data::ParseFilter(filter));
  return vs::data::SelectRows(table, predicate.get());
}

vs::Result<vs::core::FeatureMatrix> BuildExact(
    const vs::data::Table& table, const std::vector<vs::core::ViewSpec>& views,
    const vs::core::UtilityFeatureRegistry& registry,
    const std::string& filter) {
  VS_ASSIGN_OR_RETURN(vs::data::SelectionVector selection,
                      Select(table, filter));
  return vs::core::FeatureMatrix::Build(&table, views, std::move(selection),
                                        &registry, {});
}

vs::Result<Subset> MakeSubset(const vs::data::Table& table,
                              const std::vector<vs::core::ViewSpec>& views,
                              const vs::core::UtilityFeatureRegistry& registry,
                              const std::string& filter) {
  VS_ASSIGN_OR_RETURN(vs::core::FeatureMatrix exact,
                      BuildExact(table, views, registry, filter));
  Subset subset;
  subset.filter = filter;
  for (const vs::core::IdealUtilityFunction& ustar : vs::core::Table2Presets()) {
    VS_ASSIGN_OR_RETURN(vs::core::SimulatedUser user,
                        vs::core::SimulatedUser::Make(&exact.normalized(), ustar));
    subset.users.emplace_back(std::vector<double>(
        user.true_scores().begin(), user.true_scores().end()));
  }
  return subset;
}

vs::Result<vs::data::Table> MakeDiabTable(size_t rows, uint64_t seed) {
  vs::data::DiabetesOptions options;
  options.num_rows = rows;
  options.seed = seed;
  return vs::data::GenerateDiabetes(options);
}

vs::Status WriteBigTable(size_t rows, uint64_t seed, const std::string& path) {
  vs::data::LargeScaleOptions options;
  options.num_rows = rows;
  options.seed = seed;
  // The generator's default dimensions plus one with more levels than the
  // dense group-by grid (2^14), which forces the kernel's hash path.
  options.cardinalities = {12, 96, 1024, 20000};
  return vs::data::GenerateLargeScaleToFile(options, path);
}

std::string PaperFilter() {
  return "age_group = '[70+)' AND insulin = 'Up' AND "
         "admission_type = 'Urgent'";
}

RangeSubsets::RangeSubsets(size_t bases) {
  vs::Rng rng(0x5ab5e75ULL);
  for (size_t b = 0; b < bases; ++b) {
    lo0_.push_back(std::round(rng.NextDouble() * 0.7 * 1e4) / 1e4);
    lo1_.push_back(std::round(rng.NextDouble() * 0.7 * 1e4) / 1e4);
  }
}

std::string RangeSubsets::Filter(uint64_t session) const {
  const size_t base = session % lo0_.size();
  const double shift = static_cast<double>(session / lo0_.size()) * 1e-4;
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "d0 BETWEEN %.6f AND %.6f AND d1 BETWEEN %.6f AND %.6f",
                lo0_[base] + shift, lo0_[base] + 0.3 + shift,
                lo1_[base] + shift, lo1_[base] + 0.3 + shift);
  return buffer;
}

vs::Result<SessionOutcome> ReplaySession(const vs::core::FeatureMatrix& exact,
                                         const Oracle& user,
                                         uint64_t seeker_seed) {
  vs::core::ViewSeekerOptions options;
  options.k = kTopK;
  options.seed = seeker_seed;
  VS_ASSIGN_OR_RETURN(vs::core::ViewSeeker seeker,
                      vs::core::ViewSeeker::Make(&exact, options));
  SessionOutcome out;
  VS_ASSIGN_OR_RETURN(std::vector<size_t> next, seeker.NextQueries());
  while (!next.empty()) {
    VS_RETURN_IF_ERROR(seeker.SubmitLabel(next[0], user.Label(next[0])));
    ++out.labels;
    const bool cold = seeker.in_cold_start();
    VS_ASSIGN_OR_RETURN(out.topk, seeker.RecommendTopK());
    if (!cold && user.Precision(out.topk) >= 1.0) {
      out.reached = true;
      break;
    }
    if (static_cast<size_t>(out.labels) >= kLabelCap ||
        seeker.num_unlabeled() == 0) {
      break;
    }
    VS_ASSIGN_OR_RETURN(next, seeker.NextQueries());
  }
  return out;
}

}  // namespace vsbench
