/// Microbenchmarks (google-benchmark) for the substrate hot paths: grouped
/// aggregation, distance kernels, regression fits, sampling, and feature
/// computation.  Run in Release/RelWithDebInfo for meaningful numbers.
///
/// Two modes:
///
///   bench_micro [google-benchmark flags]
///       the usual registered microbenchmarks;
///
///   bench_micro --kernels [--rows=N] [--min-speedup=X] [--json-out=PATH]
///       the vectorized-kernel gate: per-kernel throughput counters
///       (group-by categorical, numeric-binned and under a selection,
///       fused utility features) measured kernel-vs-scalar over a
///       generated large-scale table, plus the headline end-to-end
///       feature-matrix build at N rows (default 1M): default fast path
///       (kernels + shared scans) against the paper prototype's per-view
///       scalar execution model, with the shared-scan scalar oracle
///       reported alongside, an exact build over a ~9% range box
///       (feature_build_selective, ungated) against that oracle, and the
///       box's filter alone (select_box, ungated: SelectRows inline against
///       a pool of ThreadPool::DefaultThreads() workers, with the build
///       type named beside it), and a 20,000-level dimension's gathered
///       target pass over 4 measures (groupby_wide_target, ungated: one
///       task against one task per measure on such a pool), and one of its
///       views' eight built-in features (feature_compute_wide, ungated:
///       stats::Normalize plus the scalar registry against the fused pass
///       from raw bins, with the build type named beside it).
///       Writes a JSON report and exits nonzero when the gated build
///       speedup falls below --min-speedup — CI runs this with
///       --min-speedup=4 as a smoke gate, and the committed BENCH_PR9.json
///       is regenerated the same way (docs/TESTING.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/view_data.h"
#include "core/feature_kernels.h"
#include "core/feature_matrix.h"
#include "core/view.h"
#include "data/generator.h"
#include "data/groupby.h"
#include "data/predicate.h"
#include "data/sampler.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distance.h"

namespace {

/// A table over the same columns as \p table with an empty memo
/// (data/table_memo.h), so a full-table group-by over it scans instead of
/// being served from the memo a previous iteration filled.
vs::data::Table EmptyMemoCopy(const vs::data::Table& table) {
  std::vector<vs::data::ColumnPtr> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  return *vs::data::Table::Make(table.schema(), std::move(columns));
}

const vs::data::Table& DiabTable() {
  static const vs::data::Table* table = [] {
    vs::data::DiabetesOptions options;
    options.num_rows = 50000;
    options.seed = 3;
    return new vs::data::Table(*vs::data::GenerateDiabetes(options));
  }();
  return *table;
}

void BM_GroupByCategorical(benchmark::State& state) {
  const auto& table = DiabTable();
  vs::data::GroupBySpec spec{"race", "num_medications",
                             vs::data::AggregateFunction::kAvg, 0};
  for (auto _ : state) {
    state.PauseTiming();
    const vs::data::Table fresh = EmptyMemoCopy(table);
    vs::data::GroupByExecutor executor(&fresh);
    state.ResumeTiming();
    auto r = executor.Execute(spec, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_GroupByCategorical);

void BM_GroupByWithSelection(benchmark::State& state) {
  const auto& table = DiabTable();
  vs::Rng rng(5);
  auto selection = vs::data::BernoulliSample(table.num_rows(), 0.1, &rng);
  vs::data::GroupByExecutor executor(&table);
  vs::data::GroupBySpec spec{"age_group", "time_in_hospital",
                             vs::data::AggregateFunction::kSum, 0};
  for (auto _ : state) {
    auto r = executor.Execute(spec, &selection);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(selection.size()));
}
BENCHMARK(BM_GroupByWithSelection);

void BM_GroupByBatchVsLoop(benchmark::State& state) {
  // The shared-scan batch (all 40 (measure, func) views of one dimension
  // in one pass) vs 40 separate Execute calls; arg 0 = loop, 1 = batch.
  // Every scan runs on a table with an empty memo, so the loop pays one
  // scan per view, as the per-view model does.
  const auto& table = DiabTable();
  std::vector<vs::data::GroupBySpec> specs;
  for (const std::string& m :
       table.schema().NamesWithRole(vs::data::FieldRole::kMeasure)) {
    for (auto f : vs::data::AllAggregateFunctions()) {
      specs.push_back({"race", m, f, 0});
    }
  }
  const bool batch = state.range(0) == 1;
  for (auto _ : state) {
    if (batch) {
      state.PauseTiming();
      const vs::data::Table fresh = EmptyMemoCopy(table);
      vs::data::GroupByExecutor executor(&fresh);
      state.ResumeTiming();
      auto r = executor.ExecuteBatch(specs, nullptr);
      benchmark::DoNotOptimize(r);
    } else {
      for (const auto& spec : specs) {
        state.PauseTiming();
        const vs::data::Table fresh = EmptyMemoCopy(table);
        vs::data::GroupByExecutor executor(&fresh);
        state.ResumeTiming();
        auto r = executor.Execute(spec, nullptr);
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetLabel(batch ? "shared-scan" : "per-view");
}
BENCHMARK(BM_GroupByBatchVsLoop)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PredicateSelection(benchmark::State& state) {
  const auto& table = DiabTable();
  auto predicate = vs::data::And(
      {vs::data::Compare("gender", vs::data::CompareOp::kEq,
                         vs::data::Value("Female")),
       vs::data::Compare("num_medications", vs::data::CompareOp::kGe,
                         vs::data::Value(10.0))});
  for (auto _ : state) {
    auto sel = vs::data::SelectRows(table, predicate);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_PredicateSelection);

void BM_Distance(benchmark::State& state) {
  const auto kind = static_cast<vs::stats::DistanceKind>(state.range(0));
  vs::Rng rng(7);
  std::vector<double> p(64);
  std::vector<double> q(64);
  double ps = 0.0;
  double qs = 0.0;
  for (size_t i = 0; i < 64; ++i) {
    p[i] = rng.NextDouble() + 0.01;
    q[i] = rng.NextDouble() + 0.01;
    ps += p[i];
    qs += q[i];
  }
  for (size_t i = 0; i < 64; ++i) {
    p[i] /= ps;
    q[i] /= qs;
  }
  vs::stats::Distribution dp{p};
  vs::stats::Distribution dq{q};
  for (auto _ : state) {
    auto d = vs::stats::Distance(kind, dp, dq);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Distance)->DenseRange(0, 4)->ArgName("kind");

void BM_LinearRegressionFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  vs::Rng rng(9);
  vs::ml::Matrix x(n, 8);
  vs::ml::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    vs::ml::LinearRegression model;
    auto s = model.Fit(x, y);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LinearRegressionFit)->Arg(16)->Arg(64)->Arg(256);

void BM_LogisticRegressionFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  vs::Rng rng(11);
  vs::ml::Matrix x(n, 8);
  vs::ml::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < 8; ++j) {
      x(i, j) = rng.NextDouble();
      z += x(i, j) - 0.5;
    }
    y[i] = z > 0.0 ? 1.0 : 0.0;
  }
  for (auto _ : state) {
    vs::ml::LogisticRegression model;
    auto s = model.Fit(x, y);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LogisticRegressionFit)->Arg(16)->Arg(64)->Arg(256);

void BM_BernoulliSample(benchmark::State& state) {
  vs::Rng rng(13);
  for (auto _ : state) {
    auto sel = vs::data::BernoulliSample(100000, 0.1, &rng);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_BernoulliSample);

void BM_FeatureMatrixBuild(benchmark::State& state) {
  // Exact builds (arg 100) after the first iteration serve their
  // reference grids from the table memo: the steady state of a
  // long-lived table.  Rough builds use a sampled reference and scan.
  const auto& table = DiabTable();
  auto query = *vs::data::SelectRows(
      table, vs::data::Compare("gender", vs::data::CompareOp::kEq,
                               vs::data::Value("Male")));
  auto views = *vs::core::EnumerateViews(table, {});
  auto registry = vs::core::UtilityFeatureRegistry::Default();
  vs::core::FeatureMatrixOptions options;
  options.sample_rate = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto matrix = vs::core::FeatureMatrix::Build(&table, views, query,
                                                 &registry, options);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetLabel("alpha=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_FeatureMatrixBuild)->Arg(100)->Arg(10)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FeatureMatrixBuildObs(benchmark::State& state) {
  // The vs::obs overhead budget: arg 0 runs with the metrics registry and
  // trace collector disabled (each instrumented call site must then cost
  // at most one relaxed atomic load; the collector starts disabled, the
  // registry enabled), arg 1 with both enabled.
  // The disabled variant must stay within noise (<3%) of
  // BM_FeatureMatrixBuild/100 above.
  const bool instrumented = state.range(0) == 1;
  auto& registry = vs::obs::MetricsRegistry::Default();
  auto& traces = vs::obs::TraceCollector::Default();
  const bool metrics_were_enabled = registry.enabled();
  const bool traces_were_enabled = traces.enabled();
  registry.set_enabled(instrumented);
  traces.set_enabled(instrumented);

  const auto& table = DiabTable();
  auto query = *vs::data::SelectRows(
      table, vs::data::Compare("gender", vs::data::CompareOp::kEq,
                               vs::data::Value("Male")));
  auto views = *vs::core::EnumerateViews(table, {});
  auto registry_features = vs::core::UtilityFeatureRegistry::Default();
  for (auto _ : state) {
    auto matrix = vs::core::FeatureMatrix::Build(&table, views, query,
                                                 &registry_features, {});
    benchmark::DoNotOptimize(matrix);
  }
  state.SetLabel(instrumented ? "obs-enabled" : "obs-disabled");

  registry.set_enabled(metrics_were_enabled);
  traces.set_enabled(traces_were_enabled);
}
BENCHMARK(BM_FeatureMatrixBuildObs)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel gate mode (--kernels): kernel-vs-scalar throughput counters and the
// feature-build speedup gate behind BENCH_PR9.json.
// ---------------------------------------------------------------------------

namespace kernel_gate {

struct GateConfig {
  size_t rows = 1'000'000;
  double min_speedup = 0.0;  ///< 0 = report only, no gate
  std::string json_out = "BENCH_PR9.json";
  int repeats = 3;
};

GateConfig ParseGateArgs(int argc, char** argv) {
  GateConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (!vs::StartsWith(arg, "--") || eq == std::string::npos) continue;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "rows") {
      config.rows = static_cast<size_t>(
          vs::ParseInt64(value).ValueOr(static_cast<int64_t>(config.rows)));
    } else if (key == "min-speedup") {
      config.min_speedup = vs::ParseDouble(value).ValueOr(config.min_speedup);
    } else if (key == "json-out") {
      config.json_out = value;
    } else if (key == "repeats") {
      config.repeats =
          static_cast<int>(vs::ParseInt64(value).ValueOr(config.repeats));
    }
  }
  return config;
}

/// Best-of-N wall time of `fn` in seconds (minimum filters scheduler
/// noise, which matters on the shared single-core CI runners).
template <typename Fn>
double BestOf(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    vs::Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Best-of-N like BestOf, but every repeat gets its own copy of \p table
/// with an empty memo, made (and handed to \p prepare) before the clock
/// starts, so a full-table group-by is timed as a scan and not as a memo
/// lookup filled by the previous repeat.
template <typename Prepare, typename Fn>
double BestOfEmptyMemo(int repeats, const vs::data::Table& table,
                       Prepare&& prepare, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const vs::data::Table fresh = EmptyMemoCopy(table);
    prepare(fresh);
    vs::Stopwatch watch;
    fn(fresh);
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Runs \p spec over \p selection on \p table, reporting a failure.
void ExecuteOrReport(const vs::data::Table& table,
                     const vs::data::GroupByExecutorOptions& options,
                     const vs::data::GroupBySpec& spec,
                     const vs::data::SelectionVector* selection) {
  auto r = vs::data::GroupByExecutor(&table, options).Execute(spec, selection);
  if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
}

/// One kernel-vs-scalar measurement: seconds for each side plus derived
/// throughput (units = rows or feature evaluations per second).
struct Comparison {
  std::string name;
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  double units = 0.0;
  double speedup() const { return scalar_seconds / kernel_seconds; }
  double kernel_per_sec() const { return units / kernel_seconds; }
  double scalar_per_sec() const { return units / scalar_seconds; }
};

Comparison CompareGroupBy(const std::string& name,
                          const vs::data::Table& table,
                          const vs::data::GroupBySpec& spec,
                          const vs::data::SelectionVector* selection,
                          int repeats) {
  vs::data::GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  const vs::data::GroupByExecutorOptions kernel_options{};

  // Each repeat scans a table with an empty grid memo.  Its numeric range
  // is filled before the clock (an empty selection fills only the range),
  // so the group-by itself is what gets timed; numeric_range_scan times
  // the range.
  auto time = [&](const vs::data::GroupByExecutorOptions& options) {
    const vs::data::SelectionVector none;
    return BestOfEmptyMemo(
        repeats, table,
        [&](const vs::data::Table& fresh) {
          ExecuteOrReport(fresh, options, spec, &none);
        },
        [&](const vs::data::Table& fresh) {
          ExecuteOrReport(fresh, options, spec, selection);
        });
  };
  Comparison c;
  c.name = name;
  c.units = static_cast<double>(selection != nullptr ? selection->size()
                                                     : table.num_rows());
  c.scalar_seconds = time(scalar_options);
  c.kernel_seconds = time(kernel_options);
  return c;
}

int RunKernelGate(int argc, char** argv) {
  const GateConfig config = ParseGateArgs(argc, argv);

  std::fprintf(stderr, "generating large-scale table (%zu rows)...\n",
               config.rows);
  vs::data::LargeScaleOptions table_options;
  table_options.num_rows = config.rows;
  auto table_or = vs::data::GenerateLargeScale(table_options);
  if (!table_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 table_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::Table& table = *table_or;

  vs::Rng rng(17);
  const auto query =
      vs::data::BernoulliSample(table.num_rows(), 0.1, &rng);

  // --- Per-kernel counters -------------------------------------------------
  std::vector<Comparison> comparisons;
  comparisons.push_back(CompareGroupBy(
      "groupby_cat_dense",
      table, {"g1", "m0", vs::data::AggregateFunction::kAvg, 0}, nullptr,
      config.repeats));
  comparisons.push_back(CompareGroupBy(
      "groupby_numeric_binned",
      table, {"d0", "m2", vs::data::AggregateFunction::kAvg, 32}, nullptr,
      config.repeats));
  comparisons.push_back(CompareGroupBy(
      "groupby_selection",
      table, {"g0", "m3", vs::data::AggregateFunction::kMax, 0}, &query,
      config.repeats));

  // Numeric range discovery: each repeat runs on a table whose memo is
  // empty, over an empty selection, so the full-column range scan is
  // what gets timed.
  {
    Comparison c;
    c.name = "numeric_range_scan";
    c.units = static_cast<double>(table.num_rows());
    const vs::data::GroupBySpec spec{
        "d1", "m0", vs::data::AggregateFunction::kAvg, 4};
    const vs::data::SelectionVector none;
    auto time = [&](const vs::data::GroupByExecutorOptions& options) {
      return BestOfEmptyMemo(
          config.repeats, table, [](const vs::data::Table&) {},
          [&](const vs::data::Table& fresh) {
            ExecuteOrReport(fresh, options, spec, &none);
          });
    };
    vs::data::GroupByExecutorOptions scalar_options;
    scalar_options.use_kernel = false;
    c.scalar_seconds = time(scalar_options);
    c.kernel_seconds = time({});
    comparisons.push_back(c);
  }

  // Fused utility features over one materialized view (g1: 96 bins).
  {
    vs::data::GroupByExecutor executor(&table);
    auto view = vs::core::MaterializeView(
        executor, {"g1", "m0", vs::data::AggregateFunction::kAvg, 0}, query);
    if (!view.ok()) {
      std::fprintf(stderr, "materialize: %s\n",
                   view.status().ToString().c_str());
      return 1;
    }
    auto scalar_registry = vs::core::UtilityFeatureRegistry::Default();
    scalar_registry.set_use_kernels(false);
    auto kernel_registry = vs::core::UtilityFeatureRegistry::Default();
    constexpr int kEvals = 20'000;
    Comparison c;
    c.name = "feature_compute_all";
    c.units = kEvals;
    c.scalar_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kEvals; ++i) {
        auto v = scalar_registry.ComputeAll(*view);
        benchmark::DoNotOptimize(v);
      }
    });
    c.kernel_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kEvals; ++i) {
        auto v = kernel_registry.ComputeAll(*view);
        benchmark::DoNotOptimize(v);
      }
    });
    comparisons.push_back(c);
  }

  // --- Headline: end-to-end feature-matrix build at config.rows ------------
  auto views_or = vs::core::EnumerateViews(table, {});
  if (!views_or.ok()) {
    std::fprintf(stderr, "views: %s\n", views_or.status().ToString().c_str());
    return 1;
  }
  auto scalar_registry = vs::core::UtilityFeatureRegistry::Default();
  scalar_registry.set_use_kernels(false);
  auto kernel_registry = vs::core::UtilityFeatureRegistry::Default();

  // The gated baseline is the per-view execution cost model of the
  // paper's prototype (shared_scan=false, scalar folds) — the cost the
  // fast path (SeeDB-style shared scans + typed kernels) replaces.  The
  // shared-scan scalar oracle is reported alongside so the kernel's own
  // contribution stays visible; it is NOT gated because on a single core
  // the typed batch fold already runs within ~2.5x of the scatter-update
  // floor (see docs/TESTING.md for the regen recipe and rationale).
  //
  // Every timed build runs on a table with an empty memo, as the first
  // exact build over a freshly loaded table does; the filled-memo build
  // (reference grids already memoized, the steady state of a long-lived
  // table) is printed as ungated disclosure.
  auto build_once = [&](const vs::data::Table& over, bool use_kernels,
                        bool shared_scan) {
    vs::core::FeatureMatrixOptions options;
    options.use_kernels = use_kernels;
    options.shared_scan = shared_scan;
    auto* registry = use_kernels ? &kernel_registry : &scalar_registry;
    auto m = vs::core::FeatureMatrix::Build(&over, *views_or, query, registry,
                                            options);
    if (!m.ok()) std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
  };
  auto time_build = [&](bool use_kernels, bool shared_scan) {
    return BestOfEmptyMemo(
        config.repeats, table, [](const vs::data::Table&) {},
        [&](const vs::data::Table& fresh) {
          build_once(fresh, use_kernels, shared_scan);
        });
  };
  const double kernel_build_seconds =
      time_build(/*use_kernels=*/true, /*shared_scan=*/true);
  const double scalar_shared_seconds =
      time_build(/*use_kernels=*/false, /*shared_scan=*/true);
  build_once(table, /*use_kernels=*/true, /*shared_scan=*/true);
  const double filled_memo_build_seconds = BestOf(config.repeats, [&] {
    build_once(table, /*use_kernels=*/true, /*shared_scan=*/true);
  });

  Comparison build;
  build.name = "feature_matrix_build";
  build.units = static_cast<double>(table.num_rows());
  build.scalar_seconds =
      time_build(/*use_kernels=*/false, /*shared_scan=*/false);
  build.kernel_seconds = kernel_build_seconds;

  Comparison build_vs_shared;
  build_vs_shared.name = "feature_matrix_build_vs_shared_scalar";
  build_vs_shared.units = build.units;
  build_vs_shared.scalar_seconds = scalar_shared_seconds;
  build_vs_shared.kernel_seconds = kernel_build_seconds;

  // Selective exact build: the query subset is a ~9% range box (d0 and d1
  // are uniform on [0, 1)), the shape of e2ebench's cold_explore subsets,
  // so the target passes read scattered rows.  Default path against the
  // shared-scan scalar oracle, each on an empty memo; the filled-memo
  // build (references served, target passes only) is disclosed beside it.
  const vs::data::PredicatePtr box_filter =
      vs::data::And({vs::data::Between("d0", 0.2, 0.5),
                     vs::data::Between("d1", 0.4, 0.7)});
  auto box_or = vs::data::SelectRows(table, box_filter);
  if (!box_or.ok()) {
    std::fprintf(stderr, "select: %s\n", box_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::SelectionVector& box = *box_or;
  // The filter layer on its own (ungated): the box's two-BETWEEN
  // conjunction, the first conjunct scanning each block and the second
  // testing only its survivors, inline against the default-sized pool a
  // serving create borrows ("scalar" = inline, "kernel" = pooled).
  Comparison select_box;
  select_box.name = "select_box";
  select_box.units = static_cast<double>(table.num_rows());
  const size_t select_workers = vs::ThreadPool::DefaultThreads();
  {
    vs::ThreadPool select_pool(select_workers);
    auto time_select = [&](vs::ThreadPool* pool) {
      return BestOf(config.repeats, [&] {
        auto selected = vs::data::SelectRows(table, box_filter, pool);
        benchmark::DoNotOptimize(selected);
      });
    };
    select_box.scalar_seconds = time_select(nullptr);
    select_box.kernel_seconds = time_select(&select_pool);
  }
  auto box_build = [&](const vs::data::Table& over, bool use_kernels) {
    vs::core::FeatureMatrixOptions options;
    options.use_kernels = use_kernels;
    auto* registry = use_kernels ? &kernel_registry : &scalar_registry;
    auto m =
        vs::core::FeatureMatrix::Build(&over, *views_or, box, registry, options);
    if (!m.ok()) std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
  };
  auto time_box_build = [&](bool use_kernels) {
    return BestOfEmptyMemo(
        config.repeats, table, [](const vs::data::Table&) {},
        [&](const vs::data::Table& fresh) { box_build(fresh, use_kernels); });
  };
  Comparison selective;
  selective.name = "feature_build_selective";
  selective.units = static_cast<double>(table.num_rows());
  selective.scalar_seconds = time_box_build(/*use_kernels=*/false);
  selective.kernel_seconds = time_box_build(/*use_kernels=*/true);
  box_build(table, /*use_kernels=*/true);
  const double selective_filled_memo_seconds = BestOf(
      config.repeats, [&] { box_build(table, /*use_kernels=*/true); });

  // The wide target pass (ungated): a 20,000-level dimension's gathered
  // target pass over the same box, its 4 measures' views folded as one
  // task against one task per measure on a default-sized pool — the
  // split a cold build's group phase makes.  The gather and staging run
  // once, before the clock.
  vs::data::LargeScaleOptions wide_options;
  wide_options.num_rows = config.rows;
  wide_options.cardinalities = {20'000};
  auto wide_or = vs::data::GenerateLargeScale(wide_options);
  if (!wide_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 wide_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::Table& wide = *wide_or;
  auto wide_box_or = vs::data::SelectRows(wide, box_filter);
  if (!wide_box_or.ok()) {
    std::fprintf(stderr, "select: %s\n",
                 wide_box_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::SelectionVector& wide_box = *wide_box_or;
  const std::vector<std::string> wide_measures = {"m0", "m1", "m2", "m3"};
  std::vector<std::vector<vs::data::GroupBySpec>> wide_specs;
  std::vector<vs::data::GroupBySpec> wide_all;
  using vs::data::AggregateFunction;
  for (const std::string& measure : wide_measures) {
    wide_specs.emplace_back();
    for (AggregateFunction func :
         {AggregateFunction::kCount, AggregateFunction::kSum,
          AggregateFunction::kAvg, AggregateFunction::kMin,
          AggregateFunction::kMax}) {
      wide_specs.back().push_back({"g0", measure, func, 0});
      wide_all.push_back(wide_specs.back().back());
    }
  }
  const vs::data::GroupByExecutor wide_executor(&wide);
  auto wide_gathered_or =
      wide_executor.GatherMeasures(wide_measures, {{"g0", 0}}, wide_box);
  if (!wide_gathered_or.ok()) {
    std::fprintf(stderr, "gather: %s\n",
                 wide_gathered_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::GatheredMeasures& wide_gathered = *wide_gathered_or;
  auto run_wide = [&](const std::vector<vs::data::GroupBySpec>& specs) {
    auto r = wide_executor.ExecuteBatch(specs, wide_gathered);
    if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  };
  Comparison wide_target;
  wide_target.name = "groupby_wide_target";
  wide_target.units = static_cast<double>(wide_box.size());
  {
    vs::ThreadPool wide_pool(select_workers);
    wide_target.scalar_seconds =
        BestOf(config.repeats, [&] { run_wide(wide_all); });
    wide_target.kernel_seconds = BestOf(config.repeats, [&] {
      wide_pool.ParallelFor(0, wide_specs.size(),
                            [&](size_t m) { run_wide(wide_specs[m]); });
    });
  }

  // One wide view's built-in features (ungated): the 20,000-level
  // dimension's AVG(m0) over the box, all eight features from the raw bins
  // as a cold build's phase B computes them (each side's scale, the fused
  // deviation pass, the measure features), against stats::Normalize of
  // each side plus the scalar registry.  The view is materialized once,
  // before the clock.
  Comparison wide_features;
  wide_features.name = "feature_compute_wide";
  auto wide_view = vs::core::MaterializeView(
      wide_executor, {"g0", "m0", AggregateFunction::kAvg, 0}, wide_box);
  if (!wide_view.ok()) {
    std::fprintf(stderr, "materialize: %s\n",
                 wide_view.status().ToString().c_str());
    return 1;
  }
  {
    constexpr int kWideEvals = 50;
    wide_features.units = kWideEvals;
    const std::vector<double>& target = wide_view->target.values;
    const std::vector<double>& reference = wide_view->reference.values;
    vs::core::ViewMaterialization scalar_view;
    scalar_view.target = wide_view->target;
    scalar_view.reference = wide_view->reference;
    wide_features.scalar_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kWideEvals; ++i) {
        scalar_view.target_dist = *vs::stats::Normalize(target);
        scalar_view.reference_dist = *vs::stats::Normalize(reference);
        auto v = scalar_registry.ComputeAll(scalar_view);
        benchmark::DoNotOptimize(v);
      }
    });
    double out[vs::core::kNumBuiltinFeatures];
    wide_features.kernel_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kWideEvals; ++i) {
        auto deviation = vs::core::FusedDeviationDistances(
            target, *vs::stats::ComputeBinScale(target), reference,
            *vs::stats::ComputeBinScale(reference));
        auto measure = vs::core::ComputeMeasureFeatures(wide_view->target,
                                                        wide_view->reference);
        vs::core::StoreBuiltinFeatures(*deviation, *measure, out);
        benchmark::DoNotOptimize(out);
      }
    });
  }

  // --- Report --------------------------------------------------------------
  const std::string build_type = vs::GetBuildInfo().build_type.empty()
                                     ? "unknown build type"
                                     : vs::GetBuildInfo().build_type;
  std::printf("%-24s %14s %14s %9s\n", "kernel", "scalar/s", "kernel/s",
              "speedup");
  auto print_row = [](const Comparison& c) {
    std::printf("%-24s %14.3e %14.3e %8.2fx\n", c.name.c_str(),
                c.scalar_per_sec(), c.kernel_per_sec(), c.speedup());
  };
  for (const auto& c : comparisons) print_row(c);
  print_row(build_vs_shared);
  print_row(build);
  print_row(selective);
  std::printf(
      "%-24s %9.3f ms inline %9.3f ms on %zu workers + caller %8.2fx  "
      "(%zu rows, %s, ungated)\n",
      select_box.name.c_str(), select_box.scalar_seconds * 1e3,
      select_box.kernel_seconds * 1e3, select_workers, select_box.speedup(),
      box.size(), build_type.c_str());
  std::printf(
      "%-24s %9.3f ms one task %9.3f ms per measure on %zu workers + caller "
      "%8.2fx  (%zu rows, %s, ungated)\n",
      wide_target.name.c_str(), wide_target.scalar_seconds * 1e3,
      wide_target.kernel_seconds * 1e3, select_workers, wide_target.speedup(),
      wide_box.size(), build_type.c_str());
  std::printf(
      "%-24s %9.3f ms scalar %9.3f ms fused from raw bins %8.2fx  "
      "(20000 bins, %s, ungated)\n",
      wide_features.name.c_str(),
      wide_features.scalar_seconds * 1e3 / wide_features.units,
      wide_features.kernel_seconds * 1e3 / wide_features.units,
      wide_features.speedup(), build_type.c_str());
  std::printf(
      "%-24s %14s %14.3e %8.2fx  (filled memo vs empty memo, ungated)\n",
      "feature_matrix_build_memo", "",
      static_cast<double>(table.num_rows()) / filled_memo_build_seconds,
      kernel_build_seconds / filled_memo_build_seconds);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"bench_micro --kernels\",\n";
  json +=
      "  \"claim\": \"the default build fast path (typed aggregation "
      "kernels + SeeDB-style shared scans) delivers >= 4x feature-build "
      "throughput at 1M rows over the paper prototype's per-view scalar "
      "execution model (shared_scan=false, use_kernels=false); the "
      "shared-scan scalar oracle is reported alongside, ungated\",\n";
  json += vs::StrFormat("  \"rows\": %llu,\n",
                        static_cast<unsigned long long>(table.num_rows()));
  json += vs::StrFormat("  \"views\": %zu,\n", views_or->size());
  json += vs::StrFormat("  \"repeats\": %d,\n", config.repeats);
  json += "  \"kernels\": {\n";
  for (size_t i = 0; i < comparisons.size(); ++i) {
    const auto& c = comparisons[i];
    json += vs::StrFormat(
        "    \"%s\": {\"scalar_per_sec\": %.0f, \"kernel_per_sec\": %.0f, "
        "\"speedup\": %.3f}%s\n",
        c.name.c_str(), c.scalar_per_sec(), c.kernel_per_sec(), c.speedup(),
        i + 1 < comparisons.size() ? "," : "");
  }
  json += "  },\n";
  json += vs::StrFormat(
      "  \"feature_build\": {\"scalar_per_view_seconds\": %.3f, "
      "\"scalar_shared_seconds\": %.3f, \"kernel_seconds\": %.3f, "
      "\"speedup_vs_per_view\": %.3f, \"speedup_vs_shared\": %.3f, "
      "\"kernel_filled_memo_seconds\": %.3f},\n",
      build.scalar_seconds, scalar_shared_seconds, build.kernel_seconds,
      build.speedup(), build_vs_shared.speedup(), filled_memo_build_seconds);
  json += vs::StrFormat(
      "  \"feature_build_selective\": {\"selected_rows\": %zu, "
      "\"scalar_shared_seconds\": %.3f, \"kernel_seconds\": %.3f, "
      "\"speedup_vs_shared\": %.3f, \"kernel_filled_memo_seconds\": %.3f},\n",
      box.size(), selective.scalar_seconds, selective.kernel_seconds,
      selective.speedup(), selective_filled_memo_seconds);
  json += vs::StrFormat(
      "  \"select_box\": {\"selected_rows\": %zu, \"inline_ms\": %.3f, "
      "\"pool_ms\": %.3f, \"pool_workers\": %zu, \"speedup\": %.3f, "
      "\"build_type\": \"%s\"},\n",
      box.size(), select_box.scalar_seconds * 1e3,
      select_box.kernel_seconds * 1e3, select_workers, select_box.speedup(),
      build_type.c_str());
  json += vs::StrFormat(
      "  \"groupby_wide_target\": {\"selected_rows\": %zu, \"levels\": 20000, "
      "\"measures\": %zu, \"one_task_ms\": %.3f, \"per_measure_ms\": %.3f, "
      "\"pool_workers\": %zu, \"speedup\": %.3f, \"build_type\": \"%s\"},\n",
      wide_box.size(), wide_measures.size(), wide_target.scalar_seconds * 1e3,
      wide_target.kernel_seconds * 1e3, select_workers, wide_target.speedup(),
      build_type.c_str());
  json += vs::StrFormat(
      "  \"feature_compute_wide\": {\"bins\": %zu, \"scalar_ms\": %.4f, "
      "\"fused_ms\": %.4f, \"speedup\": %.3f, \"build_type\": \"%s\"}\n",
      wide_view->target.num_bins(),
      wide_features.scalar_seconds * 1e3 / wide_features.units,
      wide_features.kernel_seconds * 1e3 / wide_features.units,
      wide_features.speedup(), build_type.c_str());
  json += "}\n";

  if (!config.json_out.empty()) {
    std::FILE* f = std::fopen(config.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", config.json_out.c_str());
  }

  if (config.min_speedup > 0.0 && build.speedup() < config.min_speedup) {
    std::printf(
        "FAIL: feature-build speedup vs per-view scalar %.2fx < "
        "required %.2fx\n",
        build.speedup(), config.min_speedup);
    return 1;
  }
  if (config.min_speedup > 0.0) {
    std::printf(
        "PASS: feature-build speedup vs per-view scalar %.2fx >= %.2fx\n",
        build.speedup(), config.min_speedup);
  }
  return 0;
}

}  // namespace kernel_gate

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels") {
      return kernel_gate::RunKernelGate(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
