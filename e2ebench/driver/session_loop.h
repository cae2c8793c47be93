#ifndef VS_E2EBENCH_SESSION_LOOP_H_
#define VS_E2EBENCH_SESSION_LOOP_H_

/// \file session_loop.h
/// \brief The closed-loop simulated-user session every workload runs, the
/// metrics computed from it, and readings of the program's own counters.
///
/// A session is: create (new query subset -> first view to label), then
/// rounds (label -> next view + refreshed top-k) until the top-k reaches
/// 100% tie-tolerant precision after the cold-start stage, or the label
/// cap; then delete.  Each workload supplies a SessionClient that performs
/// those three steps through one layer's public API.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace vsbench {

/// What the user sees after a step.
struct Step {
  std::vector<size_t> next;  ///< views to label now
  std::vector<size_t> topk;  ///< refreshed recommendation (rounds only)
  bool cold_start = true;
};

struct SessionSpec {
  uint64_t index = 0;
  std::string filter;
  const Oracle* user = nullptr;
  uint64_t seeker_seed = 1;
  /// kLabelCap, or the view count when the view space is smaller (a
  /// session that never reaches the target stops once every view is
  /// labelled, as ReplaySession does).
  size_t max_labels = kLabelCap;
};

class SessionClient {
 public:
  virtual ~SessionClient() = default;
  /// Untimed per-session work of the traced run (shadow layer calls).
  virtual void Shadow(const SessionSpec&) {}
  virtual bool Create(const SessionSpec& spec, Step* step) = 0;
  virtual bool Round(size_t view, double label, Step* step) = 0;
  virtual bool Finish() = 0;
};

struct LoopResult {
  Samples create;
  Samples round;
  Samples session;
  /// Host probe times (HostProbeMs), taken between sessions.
  Samples probe;
  uint64_t sessions = 0;
  /// Wall and process CPU seconds of the loop, host probes excluded.
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// One per completed session, sorted by index.
  std::vector<SessionOutcome> outcomes;
  uint64_t next_index = 0;
};

/// Runs one closed-loop client for \p seconds; a session started before
/// the window closes runs to completion.  Session indices start at
/// \p first_index and are handed out in order.  A session that reaches
/// the target keeps labelling until it has \p min_labels labels; its
/// outcome is taken where the target was first reached.  Only operations
/// that succeeded are timed.  With \p inject_failure, session 1 labels a
/// view that does not exist, so the program itself refuses the call.
/// Between sessions, at most every 100 ms, the loop times the host probe.
LoopResult RunClosedLoop(double seconds, uint64_t first_index,
                         SessionClient* client,
                         const std::function<SessionSpec(uint64_t)>& spec_of,
                         size_t min_labels, bool inject_failure);

/// Total milliseconds of spans named \p name, divided by \p per.
double SpanMean(const std::map<std::string, Tracer::Aggregate>& spans,
                const char* name, uint64_t per);

/// Fails the check when \p got differs from the in-process replay.
void CompareReplay(Report* report, const SessionOutcome& got,
                   SessionOutcome expected, bool corrupt,
                   const std::string& what);

/// Writes the traced run's spans next to the work directory.
void WriteTrace(const Options& options);

struct ChunkedRun;

/// Adds every end-to-end metric from the untraced slices of \p run, at the
/// reference host speed; the raw values are printed as notes.
/// labels_to_target averages the sessions with index below
/// \p quality_sessions, so it does not depend on how many sessions a run
/// completes.
void AddEndToEnd(Report* report, const ChunkedRun& run, double peak_rss_mb,
                 uint64_t quality_sessions, const OpCounter& ops);

/// The per-layer metrics, in the order BENCHMARK.json lists them.  Every
/// workload prints all of them; a layer off its path reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  void Set(const std::string& name, double value);
  void Emit(Report* report, uint64_t creates, uint64_t rounds) const;

 private:
  std::map<std::string, double> values_;
};

/// Fills the span-derived layer metrics every workload shares:
/// unattributed remainders, tracing overhead, create tail note.
void AddSpanLayers(Report* report, LayerMetrics* layers,
                   const LoopResult& untraced, const LoopResult& traced);

/// A snapshot of the program's metrics registry.
class Registry {
 public:
  static Registry Read();
  double Counter(const std::string& name) const;
  /// Sum over histograms whose name starts with \p prefix.
  double HistogramSum(const std::string& prefix) const;
  /// Adds what changed from \p before to \p after.
  void AddDelta(const Registry& after, const Registry& before);

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> histogram_sums_;
};

/// One run: the window is cut into \p chunks equal slices and every slice
/// is preceded by a timed set-up, so set-up samples and measurement are
/// spread over the whole run instead of sitting in one burst of machine
/// load.  In a traced run odd slices are traced and even ones are not,
/// which also interleaves the tracing-overhead comparison.  Each slice's
/// set-up and loop timings are divided by that slice's host factor
/// (HostFactor with the workload's \p host_sensitivity).
struct ChunkedRun {
  /// At the reference host speed.
  std::vector<double> setup_seconds;
  LoopResult untraced;
  LoopResult traced;
  /// As measured, for the report's raw notes.
  std::vector<double> raw_setup_seconds;
  LoopResult raw_untraced;
  /// Host factor of every slice, in order.
  std::vector<double> host_factors;
  /// Program counters accumulated over the traced slices.
  Registry traced_delta;
};
ChunkedRun RunChunks(
    const Options& options, int chunks, double host_sensitivity,
    const std::function<std::vector<double>()>& setup,
    const std::function<LoopResult(double seconds, uint64_t first_index)>&
        run);

}  // namespace vsbench

#endif  // VS_E2EBENCH_SESSION_LOOP_H_
