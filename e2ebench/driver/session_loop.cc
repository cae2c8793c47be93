#include "session_loop.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.h"

namespace vsbench {

namespace {

/// Median of \p values (0 when empty).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

LoopResult RunClosedLoop(double seconds, uint64_t first_index,
                         SessionClient* client,
                         const std::function<SessionSpec(uint64_t)>& spec_of,
                         size_t min_labels, bool inject_failure) {
  LoopResult result;
  const bool tracing = Tracer::Get().enabled();
  const double cpu_start = ProcessCpuSeconds();
  const double start = NowSeconds();
  const double end = start + seconds;
  double finished_at = start;
  double last_probe = -1.0;
  double probe_wall = 0.0;
  double probe_cpu = 0.0;
  uint64_t index = first_index;

  while (NowSeconds() < end) {
    if (last_probe < 0.0 || NowSeconds() - last_probe >= 0.1) {
      const double w0 = NowSeconds();
      const double c0 = ProcessCpuSeconds();
      result.probe.Add(HostProbeMs());
      probe_cpu += ProcessCpuSeconds() - c0;
      last_probe = NowSeconds();
      probe_wall += last_probe - w0;
    }
    const SessionSpec spec = spec_of(index++);
    Tracer::SetTraceId(spec.index);
    if (tracing) client->Shadow(spec);
    Step step;
    const double t0 = NowSeconds();
    bool ok = false;
    {
      Span root("create");
      ok = client->Create(spec, &step);
    }
    if (!ok) continue;
    result.create.Add((NowSeconds() - t0) * 1e3);
    SessionOutcome outcome;
    outcome.index = spec.index;
    int labels = 0;
    while (!step.next.empty()) {
      const size_t view = step.next[0];
      const double label = spec.user->Label(view);
      const size_t sent =
          inject_failure && spec.index == 1 ? SIZE_MAX : view;
      const double r0 = NowSeconds();
      {
        Span root("round");
        ok = client->Round(sent, label, &step);
      }
      if (!ok) break;
      result.round.Add((NowSeconds() - r0) * 1e3);
      ++labels;
      if (!outcome.reached && !step.cold_start &&
          spec.user->Precision(step.topk) >= 1.0) {
        outcome.reached = true;
        outcome.labels = labels;
        outcome.topk = step.topk;
      }
      if (outcome.reached && static_cast<size_t>(labels) >= min_labels) {
        break;
      }
      if (static_cast<size_t>(labels) >= spec.max_labels) break;
    }
    ok = client->Finish() && ok;
    finished_at = NowSeconds();
    if (!ok) continue;
    result.session.Add((finished_at - t0) * 1e3);
    if (!outcome.reached) {
      outcome.labels = labels;
      outcome.topk = step.topk;
    }
    result.outcomes.push_back(std::move(outcome));
  }

  result.wall_seconds = finished_at - start - probe_wall;
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start - probe_cpu;
  result.sessions = result.outcomes.size();
  result.next_index = index;
  return result;
}

double SpanMean(const std::map<std::string, Tracer::Aggregate>& spans,
                const char* name, uint64_t per) {
  auto it = spans.find(name);
  if (it == spans.end() || per == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(per);
}

void CompareReplay(Report* report, const SessionOutcome& got,
                   SessionOutcome expected, bool corrupt,
                   const std::string& what) {
  if (corrupt) expected.labels += 1;
  if (got.labels != expected.labels || got.topk != expected.topk ||
      got.reached != expected.reached) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s: session %llu took %d labels (reached=%d), in-process "
                  "replay %d (reached=%d), top-k %s",
                  what.c_str(), static_cast<unsigned long long>(got.index),
                  got.labels, got.reached, expected.labels, expected.reached,
                  got.topk == expected.topk ? "equal" : "differs");
    report->CheckFailed(line);
  }
}

void WriteTrace(const Options& options) {
  const std::string path =
      std::filesystem::path(options.work_dir).parent_path().string() + "/" +
      options.workload + ".trace.json";
  if (Tracer::Get().WriteChromeTrace(path)) {
    std::printf("trace written: %s\n", path.c_str());
  }
}

void AddEndToEnd(Report* report, const ChunkedRun& run, double peak_rss_mb,
                 uint64_t quality_sessions, const OpCounter& ops) {
  const LoopResult& loop = run.untraced;
  const LoopResult& raw = run.raw_untraced;
  const uint64_t sessions = std::max<uint64_t>(1, loop.sessions);
  double labels = 0.0;
  uint64_t counted = 0;
  for (const SessionOutcome& o : loop.outcomes) {
    if (o.index - loop.outcomes.front().index >= quality_sessions) break;
    labels += o.labels;
    ++counted;
  }
  std::string factors;
  for (const double f : run.host_factors) {
    char one[16];
    std::snprintf(one, sizeof(one), " %.4f", f);
    factors += one;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "host probe: median %.4f ms n=%zu, reference %.1f ms; "
                "slice timings divided by%s",
                raw.probe.Percentile(0.5), raw.probe.size(),
                kProbeReferenceMs, factors.c_str());
  report->Note(line);
  auto add = [&](const char* name, double value, double raw_value,
                 const char* unit, uint64_t samples) {
    report->Add(name, value, unit, samples);
    std::snprintf(line, sizeof(line), "raw %s %.6f %s", name, raw_value,
                  unit);
    report->Note(line);
  };
  add("setup_s", Median(run.setup_seconds), Median(run.raw_setup_seconds),
      "s", run.setup_seconds.size());
  add("create_p50_ms", loop.create.Percentile(0.5), raw.create.Percentile(0.5),
      "ms", loop.create.size());
  add("round_p50_ms", loop.round.Percentile(0.5), raw.round.Percentile(0.5),
      "ms", loop.round.size());
  add("round_p99_ms", loop.round.Percentile(0.99), raw.round.Percentile(0.99),
      "ms", loop.round.size());
  add("session_p50_ms", loop.session.Percentile(0.5),
      raw.session.Percentile(0.5), "ms", loop.session.size());
  add("sessions_per_s",
      static_cast<double>(loop.sessions) / std::max(1e-9, loop.wall_seconds),
      static_cast<double>(raw.sessions) / std::max(1e-9, raw.wall_seconds),
      "1/s", loop.sessions);
  report->Add("labels_to_target",
              counted > 0 ? labels / static_cast<double>(counted) : 0.0,
              "labels", counted);
  add("cpu_ms_per_session",
      loop.cpu_seconds * 1e3 / static_cast<double>(sessions),
      raw.cpu_seconds * 1e3 / static_cast<double>(sessions), "ms",
      loop.sessions);
  report->Add("peak_rss_mb", peak_rss_mb, "MiB", 1);

  const uint64_t attempted = ops.attempted.load();
  const uint64_t failed = ops.failed.load();
  std::snprintf(line, sizeof(line),
                "fail_share %.6f ratio n=%llu (failed, refused or wrong "
                "answers / attempted operations)",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(attempted));
  report->Note(line);
  if (loop.round.size() < 1000) {
    report->Note("warning: round_p99_ms rests on fewer than 1000 rounds");
  }
}

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
  bool per_round;  ///< sample count = rounds (else creates)
};

const std::vector<LayerDef>& LayerDefs() {
  static const std::vector<LayerDef> kDefs = {
      {"data.select_ms", "ms", false},
      {"data.groupby_ms", "ms", false},
      {"core.features_ms", "ms", false},
      {"core.build_ms", "ms", false},
      {"core.refine_ms", "ms", true},
      {"core.rows_refined", "count", true},
      {"core.seeker_ms", "ms", true},
      {"ml.refit_ms", "ms", true},
      {"serve.cache_hit_ratio", "ratio", false},
      {"serve.create_self_ms", "ms", false},
      {"unattributed.create_ms", "ms", false},
      {"unattributed.round_ms", "ms", true},
      {"obs.trace_overhead_pct", "%", false},
  };
  return kDefs;
}

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const LayerDef& d : LayerDefs()) values_[d.name] = 0.0;
}

void LayerMetrics::Set(const std::string& name, double value) {
  if (values_.count(name) == 0) {
    std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void LayerMetrics::Emit(Report* report, uint64_t creates,
                        uint64_t rounds) const {
  for (const LayerDef& d : LayerDefs()) {
    report->Add(d.name, values_.at(d.name), d.unit,
                d.per_round ? rounds : creates);
  }
}

void AddSpanLayers(Report* report, LayerMetrics* layers,
                   const LoopResult& untraced, const LoopResult& traced) {
  const auto spans = Tracer::Get().Summarize();
  auto self_mean = [&](const char* name) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return it->second.self_ms / static_cast<double>(it->second.count);
  };
  layers->Set("unattributed.create_ms", self_mean("create"));
  layers->Set("unattributed.round_ms", self_mean("round"));
  // Traced and untraced slices alternate, and both are at the reference
  // host speed, so a host swing between slices does not read as tracing
  // cost.
  const double base = untraced.session.Percentile(0.5);
  if (base > 0.0) {
    layers->Set("obs.trace_overhead_pct",
                (traced.session.Percentile(0.5) / base - 1.0) * 100.0);
  }
  Samples creates;
  creates.Append(untraced.create);
  creates.Append(traced.create);
  const double tail = TailPercentile(creates.size());
  char line[200];
  if (tail > 0.0) {
    std::snprintf(line, sizeof(line),
                  "create tail: p%.1f = %.3f ms (p50 %.3f ms, n=%zu, both "
                  "phases)",
                  tail * 100.0, creates.Percentile(tail),
                  creates.Percentile(0.5), creates.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "create tail: fewer than 20 creates (n=%zu)",
                  creates.size());
  }
  report->Note(line);
  for (const auto& [name, agg] : spans) {
    std::snprintf(line, sizeof(line),
                  "span %-36s n=%-8llu total %12.3f ms  self %12.3f ms",
                  name.c_str(), static_cast<unsigned long long>(agg.count),
                  agg.total_ms, agg.self_ms);
    report->Note(line);
  }
}

Registry Registry::Read() {
  Registry r;
  const vs::obs::MetricsSnapshot snapshot =
      vs::obs::MetricsRegistry::Default().SnapshotAll();
  for (const auto& c : snapshot.counters) {
    r.counters_[c.name] = static_cast<double>(c.value);
  }
  for (const auto& g : snapshot.gauges) r.counters_[g.name] = g.value;
  for (const auto& h : snapshot.histograms) {
    r.histogram_sums_[h.name] = h.sum;
  }
  return r;
}

double Registry::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Registry::HistogramSum(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, sum] : histogram_sums_) {
    if (name.rfind(prefix, 0) == 0) total += sum;
  }
  return total;
}

void Registry::AddDelta(const Registry& after, const Registry& before) {
  for (const auto& [name, value] : after.counters_) {
    counters_[name] += value - before.Counter(name);
  }
  for (const auto& [name, sum] : after.histogram_sums_) {
    auto old = before.histogram_sums_.find(name);
    histogram_sums_[name] +=
        sum - (old == before.histogram_sums_.end() ? 0.0 : old->second);
  }
}

namespace {

/// Appends \p part to \p into with its timings divided by \p factor.
void Merge(LoopResult* into, const LoopResult& part, double factor) {
  into->create.Append(part.create, 1.0 / factor);
  into->round.Append(part.round, 1.0 / factor);
  into->session.Append(part.session, 1.0 / factor);
  into->probe.Append(part.probe);
  into->sessions += part.sessions;
  into->wall_seconds += part.wall_seconds / factor;
  into->cpu_seconds += part.cpu_seconds / factor;
  into->outcomes.insert(into->outcomes.end(), part.outcomes.begin(),
                        part.outcomes.end());
  into->next_index = part.next_index;
}

}  // namespace

ChunkedRun RunChunks(
    const Options& options, int chunks, double host_sensitivity,
    const std::function<std::vector<double>()>& setup,
    const std::function<LoopResult(double seconds, uint64_t first_index)>&
        run) {
  ChunkedRun out;
  uint64_t next = 0;
  for (int c = 0; c < chunks; ++c) {
    const std::vector<double> setup_seconds = setup();
    const bool traced = options.trace && c % 2 == 1;
    const Registry before = Registry::Read();
    Tracer::Get().set_enabled(traced);
    const LoopResult part = run(options.seconds / chunks, next);
    Tracer::Get().set_enabled(false);
    if (traced) out.traced_delta.AddDelta(Registry::Read(), before);
    next = part.next_index;
    const double factor = HostFactor(part.probe, host_sensitivity);
    out.host_factors.push_back(factor);
    for (const double s : setup_seconds) {
      out.setup_seconds.push_back(s / factor);
      out.raw_setup_seconds.push_back(s);
    }
    Merge(traced ? &out.traced : &out.untraced, part, factor);
    if (!traced) Merge(&out.raw_untraced, part, 1.0);
  }
  return out;
}

}  // namespace vsbench
