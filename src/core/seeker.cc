#include "core/seeker.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "core/diversify.h"
#include "core/metrics.h"
#include "ml/cross_validation.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vs::core {

namespace {

/// Cached instrument handles for the interactive loop.
struct SeekerMetrics {
  obs::Histogram* iteration_seconds;
  obs::Histogram* refit_seconds;
  obs::Counter* labels_total;
  obs::Counter* cold_start_picks;
  obs::Counter* strategy_picks;
  obs::Counter* refits_total;

  static const SeekerMetrics& Get() {
    static const SeekerMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return SeekerMetrics{
          r.GetHistogram("seeker.iteration_seconds",
                         obs::DefaultLatencyBuckets(),
                         "engine-side latency per labeling iteration "
                         "(query selection + label ingest + refits)"),
          r.GetHistogram("seeker.refit_seconds",
                         obs::DefaultLatencyBuckets(),
                         "estimator refit time per label"),
          r.GetCounter("seeker.labels_total", "labels submitted"),
          r.GetCounter("seeker.cold_start_picks",
                       "queries chosen by the cold-start sweep"),
          r.GetCounter("seeker.strategy_picks",
                       "queries chosen by the active-learning strategy"),
          r.GetCounter("seeker.refits_total", "estimator refit passes"),
      };
    }();
    return m;
  }
};

}  // namespace

ViewSeeker::ViewSeeker(const FeatureMatrix* features,
                       const ViewSeekerOptions& options,
                       std::unique_ptr<active::QueryStrategy> strategy)
    : features_(features),
      options_(options),
      strategy_(std::move(strategy)),
      cold_start_(&features->normalized(), options.positive_threshold),
      utility_estimator_(options.utility_options),
      uncertainty_estimator_(options.uncertainty_options,
                             options.positive_threshold),
      rng_(options.seed) {
  unlabeled_.resize(features->num_views());
  for (size_t i = 0; i < unlabeled_.size(); ++i) unlabeled_[i] = i;
}

vs::Result<ViewSeeker> ViewSeeker::Make(const FeatureMatrix* features,
                                        const ViewSeekerOptions& options) {
  if (features == nullptr) {
    return vs::Status::InvalidArgument("feature matrix is required");
  }
  if (features->num_views() == 0) {
    return vs::Status::InvalidArgument("feature matrix has no views");
  }
  if (options.k <= 0) {
    return vs::Status::InvalidArgument("k must be positive");
  }
  if (options.views_per_iteration <= 0) {
    return vs::Status::InvalidArgument(
        "views_per_iteration must be positive");
  }
  VS_ASSIGN_OR_RETURN(auto strategy, active::MakeStrategy(options.strategy));
  return ViewSeeker(features, options, std::move(strategy));
}

void ViewSeeker::SetEventSink(obs::EventSink* sink) {
  sink_ = sink;
  if (sink_ == nullptr) return;
  obs::Event event("session_start");
  event.SetInt("k", options_.k)
      .SetStr("strategy", options_.strategy)
      .SetInt("views_per_iteration", options_.views_per_iteration)
      .SetNum("positive_threshold", options_.positive_threshold)
      .SetInt("seed", static_cast<int64_t>(options_.seed))
      .SetInt("num_views", static_cast<int64_t>(features_->num_views()))
      .SetInt("num_features",
              static_cast<int64_t>(features_->num_features()))
      .SetInt("num_labeled", static_cast<int64_t>(labeled_.size()));
  sink_->Emit(event);
}

vs::Result<std::vector<size_t>> ViewSeeker::NextQueries() {
  if (unlabeled_.empty()) {
    return vs::Status::FailedPrecondition("every view is already labeled");
  }
  obs::Span span("core.seeker.next");
  const SeekerMetrics& metrics = SeekerMetrics::Get();
  Stopwatch clock;
  ++iteration_;
  const size_t batch = std::min<size_t>(
      static_cast<size_t>(options_.views_per_iteration), unlabeled_.size());
  std::vector<size_t> candidates = unlabeled_;
  std::vector<size_t> queries;
  queries.reserve(batch);
  for (size_t b = 0; b < batch; ++b) {
    size_t pick = 0;
    const bool cold = !cold_start_.Done();
    if (cold) {
      VS_ASSIGN_OR_RETURN(pick, cold_start_.SelectNext(candidates, &rng_));
      metrics.cold_start_picks->Increment();
      if (sink_ != nullptr) {
        obs::Event event("cold_start_pick");
        event.SetInt("iteration", iteration_)
            .SetInt("view", static_cast<int64_t>(pick))
            .SetStr("view_id", features_->views()[pick].Id());
        sink_->Emit(event);
      }
    } else {
      active::QueryContext ctx;
      ctx.features = &features_->normalized();
      ctx.unlabeled = &candidates;
      ctx.labeled = &labeled_;
      ctx.labels = &labels_;
      ctx.uncertainty_model = &uncertainty_estimator_.model();
      ctx.utility_model = &utility_estimator_.model();
      ctx.rng = &rng_;
      VS_ASSIGN_OR_RETURN(pick, strategy_->SelectNext(ctx));
      metrics.strategy_picks->Increment();
    }
    if (sink_ != nullptr) {
      obs::Event event("query_issued");
      event.SetInt("iteration", iteration_)
          .SetInt("view", static_cast<int64_t>(pick))
          .SetStr("view_id", features_->views()[pick].Id())
          .SetStr("phase", cold ? "cold_start" : options_.strategy);
      sink_->Emit(event);
    }
    queries.push_back(pick);
    candidates.erase(std::find(candidates.begin(), candidates.end(), pick));
  }
  // Selection cost folds into the next SubmitLabel's iteration latency
  // (one iteration = pick views + ingest the answer + refit).
  last_selection_seconds_ = clock.ElapsedSeconds();
  return queries;
}

vs::Status ViewSeeker::SubmitLabel(size_t view_index, double label) {
  if (view_index >= features_->num_views()) {
    return vs::Status::OutOfRange("view index out of range");
  }
  if (!std::isfinite(label) || label < 0.0 || label > 1.0) {
    return vs::Status::InvalidArgument("label must be in [0, 1]");
  }
  auto it = std::find(unlabeled_.begin(), unlabeled_.end(), view_index);
  if (it == unlabeled_.end()) {
    return vs::Status::AlreadyExists("view already labeled");
  }
  obs::Span span("core.seeker.label");
  const SeekerMetrics& metrics = SeekerMetrics::Get();
  Stopwatch clock;
  unlabeled_.erase(it);
  labeled_.push_back(view_index);
  labels_.push_back(label);
  cold_start_.ReportLabel(label);
  metrics.labels_total->Increment();
  if (sink_ != nullptr) {
    obs::Event event("label_received");
    event.SetInt("view", static_cast<int64_t>(view_index))
        .SetNum("label", label)
        .SetInt("num_labeled", static_cast<int64_t>(labeled_.size()));
    sink_->Emit(event);
  }

  // Refit both estimators on all collected feedback (Algorithm 1 lines
  // 10-11).  With auto_ridge, re-select the ridge strength from the
  // labels first (falls back to the configured l2 while labels are few).
  if (options_.auto_ridge && !options_.auto_ridge_candidates.empty()) {
    ml::Matrix x(labeled_.size(), features_->num_features());
    for (size_t i = 0; i < labeled_.size(); ++i) {
      const ml::Vector row = features_->NormalizedRow(labeled_[i]);
      for (size_t j = 0; j < row.size(); ++j) x(i, j) = row[j];
    }
    auto l2 = ml::SelectRidgeStrength(x, labels_,
                                      options_.auto_ridge_candidates,
                                      /*k=*/3, &rng_);
    if (l2.ok()) {
      ml::LinearRegressionOptions tuned = options_.utility_options;
      tuned.l2 = *l2;
      utility_estimator_ = ViewUtilityEstimator(tuned);
    }
  }
  Stopwatch refit_clock;
  VS_RETURN_IF_ERROR(utility_estimator_.Refit(features_->normalized(),
                                              labeled_, labels_));
  VS_RETURN_IF_ERROR(uncertainty_estimator_.Refit(features_->normalized(),
                                                  labeled_, labels_));
  metrics.refit_seconds->Observe(refit_clock.ElapsedSeconds());
  metrics.refits_total->Increment();
  if (sink_ != nullptr) {
    const ml::LinearRegression& model = utility_estimator_.model();
    obs::Event event("estimator_refit");
    event.SetInt("num_labels", static_cast<int64_t>(labeled_.size()))
        .SetNumList("coefficients",
                    std::vector<double>(model.coefficients().begin(),
                                        model.coefficients().end()))
        .SetNum("intercept", model.intercept())
        .SetBool("uncertainty_fitted", uncertainty_estimator_.fitted());
    sink_->Emit(event);
  }
  // One iteration = the preceding NextQueries selection plus this label's
  // ingest + refits (views_per_iteration = 1, the paper's default).
  metrics.iteration_seconds->Observe(last_selection_seconds_ +
                                     clock.ElapsedSeconds());
  last_selection_seconds_ = 0.0;
  return vs::Status::OK();
}

vs::Result<std::vector<size_t>> ViewSeeker::RecommendTopK() const {
  obs::Span span("core.seeker.topk");
  VS_ASSIGN_OR_RETURN(std::vector<double> scores, CurrentScores());
  std::vector<size_t> topk =
      TopKIndices(scores, static_cast<size_t>(options_.k));
  if (sink_ != nullptr && topk != last_topk_) {
    last_topk_ = topk;
    obs::Event event("topk_change");
    event.SetInt("num_labeled", static_cast<int64_t>(labeled_.size()))
        .SetIntList("topk", topk);
    sink_->Emit(event);
  }
  return topk;
}

vs::Result<std::vector<size_t>> ViewSeeker::RecommendDiverseTopK(
    double lambda) const {
  VS_ASSIGN_OR_RETURN(std::vector<double> scores, CurrentScores());
  DiversifyOptions options;
  options.k = options_.k;
  options.lambda = lambda;
  return DiversifiedTopK(*features_, scores, options);
}

vs::Result<std::vector<double>> ViewSeeker::CurrentScores() const {
  if (!utility_estimator_.fitted()) {
    return vs::Status::FailedPrecondition(
        "no labels submitted yet; the utility estimator is unfitted");
  }
  VS_ASSIGN_OR_RETURN(ml::Vector scores,
                      utility_estimator_.ScoreAll(features_->normalized()));
  return std::vector<double>(scores.begin(), scores.end());
}

}  // namespace vs::core
