// cold_explore (in-process SessionManager over the 2M-row big table) and
// paper_sessions (Algorithm 1 through the core API on DIAB 100k).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/stopwatch.h"
#include "core/feature_matrix.h"
#include "core/refinement.h"
#include "core/seeker.h"
#include "data/io.h"
#include "serve/session_manager.h"
#include "session_loop.h"
#include "workloads.h"

namespace vsbench {

namespace vcore = vs::core;
namespace vdata = vs::data;
namespace vserve = vs::serve;

namespace {

// ---------------------------------------------------------------------------
// cold_explore

class ManagerClient : public SessionClient {
 public:
  ManagerClient(vserve::SessionManager* manager, size_t num_views,
                const vdata::Table* shadow_table, OpCounter* ops)
      : manager_(manager),
        num_views_(num_views),
        shadow_table_(shadow_table),
        ops_(ops) {}

  void Shadow(const SessionSpec& spec) override {
    if (shadow_table_ == nullptr) return;
    Span span("data::SelectRows");
    Select(*shadow_table_, spec.filter).ok();
  }

  bool Create(const SessionSpec& spec, Step* step) override {
    vserve::CreateSpec create;
    create.filter = spec.filter;
    create.options.k = kTopK;
    create.options.seed = spec.seeker_seed;
    vs::Result<vserve::SessionInfo> info = [&] {
      Span span("SessionManager::Create");
      return manager_->Create(create);
    }();
    if (!info.ok()) return Failed("create: " + info.status().ToString());
    ops_->Ok();
    id_ = info->id;
    vs::Result<vserve::NextBatch> next = [&] {
      Span span("SessionManager::Next@create");
      return manager_->Next(id_);
    }();
    return TakeNext(next, step);
  }

  bool Round(size_t view, double label, Step* step) override {
    vs::Result<size_t> labeled = [&] {
      Span span("SessionManager::Label");
      return manager_->Label(id_, view, label);
    }();
    if (!labeled.ok()) return Failed("label: " + labeled.status().ToString());
    ops_->Ok();
    step->next.clear();
    if (*labeled < num_views_) {  // Next fails once every view is labelled
      vs::Result<vserve::NextBatch> next = [&] {
        Span span("SessionManager::Next");
        return manager_->Next(id_);
      }();
      if (!TakeNext(next, step)) return false;
    }
    vs::Result<vserve::TopKResult> topk = [&] {
      Span span("SessionManager::TopK");
      return manager_->TopK(id_);
    }();
    if (!topk.ok()) return Failed("topk: " + topk.status().ToString());
    if (topk->views.size() != static_cast<size_t>(kTopK) ||
        !InRange(topk->views)) {
      return Failed("topk: malformed answer");
    }
    ops_->Ok();
    step->topk = topk->views;
    return true;
  }

  bool Finish() override {
    vs::Status deleted = [&] {
      Span span("SessionManager::Delete");
      return manager_->Delete(id_);
    }();
    if (!deleted.ok()) return Failed("delete: " + deleted.ToString());
    ops_->Ok();
    return true;
  }

 private:
  bool Failed(const std::string& what) {
    ops_->Fail(what);
    return false;
  }
  bool InRange(const std::vector<size_t>& views) const {
    for (size_t v : views) {
      if (v >= num_views_) return false;
    }
    return true;
  }
  bool TakeNext(const vs::Result<vserve::NextBatch>& next, Step* step) {
    if (!next.ok()) return Failed("next: " + next.status().ToString());
    if (next->views.size() > 1 || !InRange(next->views)) {
      return Failed("next: malformed answer");
    }
    ops_->Ok();
    step->next = next->views;
    step->cold_start = next->cold_start;
    return true;
  }

  vserve::SessionManager* manager_;
  size_t num_views_;
  const vdata::Table* shadow_table_;
  OpCounter* ops_;
  std::string id_;
};

}  // namespace

/// Cold sessions keep labelling past the target up to this budget: rounds
/// are microseconds next to a create, and the budget gives every run more
/// than a thousand rounds for round_p99_ms.
constexpr size_t kColdLabelBudget = 60;

/// Set-up + measurement slices per run (see RunChunks).
constexpr int kChunks = 6;

/// Host sensitivities (see HostFactor and NOTES.md): the slope of
/// log(time) on log(probe time) when the host slows.  cold_explore's
/// column scans slow in step with the probe (slopes 0.9-1.2, correlation
/// 0.89-0.96); paper_sessions' refinement over small, scattered row sets
/// slows more (slopes 1.4-2.1, correlation 0.85-0.97).
constexpr double kColdHostSensitivity = 1.0;
constexpr double kPaperHostSensitivity = 1.5;

WorkloadThreads RunColdExplore(const Options& o, Report* report,
                               OpCounter* ops) {
  // Inputs and expected answers, before any timer.
  const size_t rows = o.smoke ? 100000 : 2000000;
  const std::string table_path = o.work_dir + "/big.vst";
  Check(WriteBigTable(rows, kBigTableSeed, table_path), "generate big table");
  const RangeSubsets ranges(4);
  const vcore::UtilityFeatureRegistry registry =
      vcore::UtilityFeatureRegistry::Default();
  std::vector<Subset> bases;
  size_t num_views = 0;
  {
    const vdata::Table table =
        Unwrap(vdata::ReadTableFile(table_path), "read big table");
    const std::vector<vcore::ViewSpec> views =
        Unwrap(vcore::EnumerateViews(table, {}), "enumerate views");
    num_views = views.size();
    if (num_views < kColdLabelBudget) {
      Die(vs::Status::Internal("view space smaller than the label budget"),
          "enumerate views");
    }
    for (size_t b = 0; b < ranges.bases(); ++b) {
      bases.push_back(Unwrap(
          MakeSubset(table, views, registry, ranges.Filter(b)), "oracle"));
    }
  }
  auto spec_of = [&](uint64_t i) {
    const size_t base = i % ranges.bases();
    const size_t preset = (i / ranges.bases()) % bases[base].users.size();
    return SessionSpec{i, ranges.Filter(i), &bases[base].users[preset],
                       SeekerSeed(o.seed, i),
                       std::min(kLabelCap, num_views)};
  };
  ResetPeakRss();

  // Set-up: the manager loads the table and enumerates its views.
  vserve::SessionManagerOptions manager_options;
  std::unique_ptr<vserve::SessionManager> manager;
  auto setup = [&] {
    manager.reset();
    const double t0 = NowSeconds();
    manager = std::make_unique<vserve::SessionManager>(manager_options,
                                                       table_path);
    Check(manager->PreloadDefaultTable(), "preload");
    return std::vector<double>{NowSeconds() - t0};
  };
  std::unique_ptr<vdata::Table> shadow;
  if (o.trace) {
    shadow = std::make_unique<vdata::Table>(
        Unwrap(vdata::ReadTableFile(table_path), "read big table"));
  }
  auto run = [&](double seconds, uint64_t first) {
    ManagerClient client(manager.get(), num_views, shadow.get(), ops);
    return RunClosedLoop(seconds, first, &client, spec_of, kColdLabelBudget,
                         o.inject_failure);
  };
  const ChunkedRun r =
      RunChunks(o, kChunks, kColdHostSensitivity, setup, run);

  if (!o.trace) {
    AddEndToEnd(report, r, PeakRssMb(), 44, *ops);
  } else {
    const Registry& d = r.traced_delta;
    const auto spans = Tracer::Get().Summarize();
    const uint64_t creates = r.traced.create.size();
    const uint64_t rounds = r.traced.round.size();
    const double per_create = 1e3 / std::max<uint64_t>(1, creates);
    const double per_round = 1e3 / std::max<uint64_t>(1, rounds);
    LayerMetrics layers;
    const double build_ms =
        d.HistogramSum("feature_matrix.build_seconds") * per_create;
    const double features_ms =
        d.HistogramSum("feature_matrix.feature_seconds") * per_create;
    layers.Set("data.select_ms", SpanMean(spans, "data::SelectRows", creates));
    layers.Set("core.build_ms", build_ms);
    layers.Set("core.features_ms", features_ms);
    layers.Set("data.groupby_ms", build_ms - features_ms);
    layers.Set("serve.create_self_ms",
               SpanMean(spans, "SessionManager::Create", creates) - build_ms);
    const double hits = d.Counter("fmcache.hits");
    const double misses = d.Counter("fmcache.misses");
    layers.Set("serve.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    const double refit_ms = d.HistogramSum("seeker.refit_seconds") * per_round;
    layers.Set("ml.refit_ms", refit_ms);
    layers.Set("core.seeker_ms",
               SpanMean(spans, "SessionManager::Label", rounds) +
                   SpanMean(spans, "SessionManager::Next", rounds) +
                   SpanMean(spans, "SessionManager::TopK", rounds) - refit_ms);
    AddSpanLayers(report, &layers, r.untraced, r.traced);
    layers.Emit(report, creates, rounds);
    WriteTrace(o);
  }

  // Correctness: session 0 against an independent in-process build of
  // its subset, replayed with the same seeker seed and user.
  manager.reset();
  shadow.reset();
  const LoopResult& checked = r.untraced;
  if (checked.outcomes.empty() || checked.outcomes.front().index != 0) {
    report->CheckFailed("cold_explore: session 0 did not complete");
  } else {
    const vdata::Table table =
        Unwrap(vdata::ReadTableFile(table_path), "read big table");
    const std::vector<vcore::ViewSpec> views =
        Unwrap(vcore::EnumerateViews(table, {}), "enumerate views");
    const SessionSpec spec = spec_of(0);
    const vcore::FeatureMatrix exact =
        Unwrap(BuildExact(table, views, registry, spec.filter), "replay build");
    CompareReplay(report, checked.outcomes.front(),
                  Unwrap(ReplaySession(exact, *spec.user, spec.seeker_seed),
                         "replay"),
                  o.corrupt_expected, "cold_explore");
  }
  return {1, 0};
}

// ---------------------------------------------------------------------------
// paper_sessions

namespace {

class PaperClient : public SessionClient {
 public:
  PaperClient(const vdata::Table* table,
              const std::vector<vcore::ViewSpec>* views,
              const vdata::SelectionVector* selection,
              const vcore::UtilityFeatureRegistry* registry,
              size_t refine_views, uint64_t seed, OpCounter* ops,
              double* rows_refined)
      : table_(table),
        views_(views),
        selection_(selection),
        registry_(registry),
        refine_views_(refine_views),
        seed_(seed),
        ops_(ops),
        rows_refined_(rows_refined) {}

  bool Create(const SessionSpec& spec, Step* step) override {
    vcore::FeatureMatrixOptions rough;
    rough.sample_rate = 0.1;
    rough.seed = spec.seeker_seed ^ seed_;
    vs::Result<vcore::FeatureMatrix> built = [&] {
      Span span("FeatureMatrix::Build");
      return vcore::FeatureMatrix::Build(table_, *views_, *selection_,
                                         registry_, rough);
    }();
    if (!built.ok()) return Failed("build: " + built.status().ToString());
    ops_->Ok();
    matrix_ = std::make_unique<vcore::FeatureMatrix>(std::move(*built));
    vcore::ViewSeekerOptions options;
    options.k = kTopK;
    options.seed = spec.seeker_seed;
    vs::Result<vcore::ViewSeeker> seeker = [&] {
      Span span("ViewSeeker::Make");
      return vcore::ViewSeeker::Make(matrix_.get(), options);
    }();
    if (!seeker.ok()) return Failed("seeker: " + seeker.status().ToString());
    ops_->Ok();
    seeker_ = std::make_unique<vcore::ViewSeeker>(std::move(*seeker));
    refiner_ = std::make_unique<vcore::IncrementalRefiner>(matrix_.get());
    vs::Result<std::vector<size_t>> next = [&] {
      Span span("ViewSeeker::NextQueries@create");
      return seeker_->NextQueries();
    }();
    if (!next.ok()) return Failed("next: " + next.status().ToString());
    ops_->Ok();
    step->next = *next;
    return true;
  }

  bool Round(size_t view, double label, Step* step) override {
    vs::Status labeled = [&] {
      Span span("ViewSeeker::SubmitLabel");
      return seeker_->SubmitLabel(view, label);
    }();
    if (!labeled.ok()) return Failed("label: " + labeled.ToString());
    ops_->Ok();
    step->cold_start = seeker_->in_cold_start();
    vs::Result<std::vector<size_t>> topk = [&] {
      Span span("ViewSeeker::RecommendTopK");
      return seeker_->RecommendTopK();
    }();
    if (!topk.ok()) return Failed("topk: " + topk.status().ToString());
    ops_->Ok();
    step->topk = *topk;
    // §3.3: refine ~4% of the view space between prompts, highest
    // predicted utility first, under a deterministic work budget.
    if (!matrix_->AllExact()) {
      vs::Result<std::vector<double>> priorities = [&] {
        Span span("ViewSeeker::CurrentScores");
        return seeker_->CurrentScores();
      }();
      if (!priorities.ok()) {
        return Failed("scores: " + priorities.status().ToString());
      }
      vs::Deadline budget = vs::Deadline::AfterUnits(
          static_cast<int64_t>(refine_views_) * matrix_->RefineCostPerRow());
      vs::Result<vcore::RefinementStats> refined = [&] {
        Span span("IncrementalRefiner::RefineBatch");
        return refiner_->RefineBatch(*priorities, &budget);
      }();
      if (!refined.ok()) return Failed("refine: " + refined.status().ToString());
      ops_->Ok();
      *rows_refined_ += refined->rows_refined;
    }
    vs::Result<std::vector<size_t>> next = [&] {
      Span span("ViewSeeker::NextQueries");
      return seeker_->NextQueries();
    }();
    if (!next.ok()) return Failed("next: " + next.status().ToString());
    ops_->Ok();
    step->next = *next;
    return true;
  }

  bool Finish() override {
    refiner_.reset();
    seeker_.reset();
    matrix_.reset();
    return true;
  }

 private:
  bool Failed(const std::string& what) {
    ops_->Fail(what);
    return false;
  }

  const vdata::Table* table_;
  const std::vector<vcore::ViewSpec>* views_;
  const vdata::SelectionVector* selection_;
  const vcore::UtilityFeatureRegistry* registry_;
  size_t refine_views_;
  uint64_t seed_;
  OpCounter* ops_;
  double* rows_refined_;
  std::unique_ptr<vcore::FeatureMatrix> matrix_;
  std::unique_ptr<vcore::ViewSeeker> seeker_;
  std::unique_ptr<vcore::IncrementalRefiner> refiner_;
};

}  // namespace

WorkloadThreads RunPaperSessions(const Options& o, Report* report,
                                 OpCounter* ops) {
  const size_t rows = o.smoke ? 20000 : 100000;
  const std::string table_path = o.work_dir + "/diab.vst";
  const vcore::UtilityFeatureRegistry registry =
      vcore::UtilityFeatureRegistry::Default();
  Subset expected;
  size_t expected_views = 0;
  {
    const vdata::Table diab = Unwrap(MakeDiabTable(rows, kDiabTableSeed), "diab");
    Check(vdata::WriteTableFile(diab, table_path), "write diab");
    const std::vector<vcore::ViewSpec> views =
        Unwrap(vcore::EnumerateViews(diab, {}), "enumerate views");
    expected = Unwrap(MakeSubset(diab, views, registry, PaperFilter()),
                      "oracle");
    expected_views = views.size();
  }
  ResetPeakRss();

  // Set-up: load the table, enumerate the view space, select the query
  // subset.  Short, so repeated three times per slice.
  vdata::Table table;
  std::vector<vcore::ViewSpec> views;
  vdata::SelectionVector selection;
  auto setup = [&] {
    std::vector<double> seconds;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = NowSeconds();
      table = Unwrap(vdata::ReadTableFile(table_path), "read diab");
      views = Unwrap(vcore::EnumerateViews(table, {}), "enumerate views");
      selection = Unwrap(Select(table, PaperFilter()), "select");
      seconds.push_back(NowSeconds() - t0);
    }
    return seconds;
  };
  auto spec_of = [&](uint64_t i) {
    return SessionSpec{i, PaperFilter(),
                       &expected.users[i % expected.users.size()],
                       SeekerSeed(o.seed, i),
                       std::min(kLabelCap, expected_views)};
  };
  double rows_refined = 0.0;
  double traced_rows_refined = 0.0;
  auto run = [&](double seconds, uint64_t first) {
    // ~4% of the view space per iteration, the paper's t_l window.
    const size_t refine_views = views.size() / 24 + 1;
    const double rows_before = rows_refined;
    PaperClient client(&table, &views, &selection, &registry, refine_views,
                       o.seed, ops, &rows_refined);
    LoopResult result = RunClosedLoop(seconds, first, &client, spec_of, 0,
                                      o.inject_failure);
    if (Tracer::Get().enabled()) {
      traced_rows_refined += rows_refined - rows_before;
    }
    return result;
  };
  const ChunkedRun r =
      RunChunks(o, kChunks, kPaperHostSensitivity, setup, run);

  if (!o.trace) {
    AddEndToEnd(report, r, PeakRssMb(), 352, *ops);
  } else {
    const Registry& d = r.traced_delta;
    const auto spans = Tracer::Get().Summarize();
    const uint64_t creates = r.traced.create.size();
    const uint64_t rounds = r.traced.round.size();
    const double per_create = 1e3 / std::max<uint64_t>(1, creates);
    const double per_round = 1e3 / std::max<uint64_t>(1, rounds);
    LayerMetrics layers;
    const double features_ms =
        d.HistogramSum("feature_matrix.feature_seconds") * per_create;
    layers.Set("core.build_ms", SpanMean(spans, "FeatureMatrix::Build", creates));
    layers.Set("core.features_ms", features_ms);
    layers.Set("data.groupby_ms",
               d.HistogramSum("feature_matrix.build_seconds") * per_create -
                   features_ms);
    layers.Set("core.refine_ms",
               SpanMean(spans, "IncrementalRefiner::RefineBatch", rounds));
    layers.Set("core.rows_refined",
               traced_rows_refined / std::max<uint64_t>(1, rounds));
    const double refit_ms = d.HistogramSum("seeker.refit_seconds") * per_round;
    layers.Set("ml.refit_ms", refit_ms);
    layers.Set("core.seeker_ms",
               SpanMean(spans, "ViewSeeker::SubmitLabel", rounds) +
                   SpanMean(spans, "ViewSeeker::RecommendTopK", rounds) +
                   SpanMean(spans, "ViewSeeker::CurrentScores", rounds) +
                   SpanMean(spans, "ViewSeeker::NextQueries", rounds) -
                   refit_ms);
    AddSpanLayers(report, &layers, r.untraced, r.traced);
    layers.Emit(report, creates, rounds);
    WriteTrace(o);
  }

  // Correctness: every session reaches 100% top-k precision within the
  // label cap, and its final top-k is right against the expected answer.
  if (o.corrupt_expected) {
    for (Oracle& user : expected.users) user.Corrupt();
  }
  size_t wrong = 0;
  size_t total = 0;
  for (const LoopResult* part : {&r.untraced, &r.traced}) {
    for (const SessionOutcome& outcome : part->outcomes) {
      const Oracle& user =
          expected.users[outcome.index % expected.users.size()];
      if (!outcome.reached || user.Precision(outcome.topk) < 1.0) ++wrong;
      ++total;
    }
  }
  if (total == 0 || wrong > 0) {
    report->CheckFailed("paper_sessions: " + std::to_string(wrong) + " of " +
                        std::to_string(total) +
                        " sessions missed 100% top-k precision");
  }
  return {1, 0};
}

}  // namespace vsbench
