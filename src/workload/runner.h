#ifndef VS_WORKLOAD_RUNNER_H_
#define VS_WORKLOAD_RUNNER_H_

/// \file runner.h
/// \brief Replays a compiled WorkloadPlan against a live `viewseeker
/// serve` worker or `viewseeker route` front-end and judges the result
/// against the spec's SLO budgets.
///
/// Open-loop mode launches sessions at their planned Poisson arrival
/// times from a pool of max_concurrent workers (late starts are reported
/// as start lag, never silently absorbed — that would turn the open loop
/// back into a closed one).  Closed-loop mode runs one thread per lane,
/// back-to-back sessions until the duration expires.  Think pauses
/// subtract the previous request's service time, so offered load tracks
/// the spec even when the server slows down.
///
/// The verdict (RunReport::Pass) is the CI gate: zero protocol errors,
/// every budgeted endpoint's %-of-ops-within-SLO at or above slo.target
/// (the IDEBench metric), and — against a router — at least
/// require_shards distinct X-Shard values observed.

#include <cstdint>
#include <map>
#include <string>

#include "common/latency.h"
#include "common/result.h"
#include "workload/plan.h"

namespace vs::workload {

struct RunnerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Dataset path sent in create bodies; overrides spec.table when set.
  std::string table;
  /// Closed-loop duration override in seconds (<= 0: spec value).
  double duration_seconds = 0.0;
  /// Fail the verdict unless this many distinct X-Shard values served.
  int require_shards = 0;
  /// Per-request deadline stamped as `X-Deadline-Ms` (<= 0: none).  The
  /// server answers 504 when the budget is spent before the handler runs
  /// — the runner counts those as backpressure (the system said "too
  /// late" honestly), never as protocol errors.
  double deadline_ms = 0.0;
};

struct EndpointReport {
  vs::LatencySummary summary;  ///< completed (non-shed) responses
  uint64_t backpressure = 0;   ///< 429/503/504 answers
  uint64_t errors = 0;         ///< transport failures + other 5xx
  uint64_t deadline_expired = 0;  ///< 504 answers (subset of backpressure)

  /// %-of-ops-within-SLO: budget-met completions over completions plus
  /// shed requests (a shed op did not meet the user's deadline).
  double WithinSloFraction() const;
};

struct RunReport {
  std::string workload;
  uint64_t seed = 0;
  double elapsed_seconds = 0.0;
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  uint64_t ops_executed = 0;
  uint64_t ops_skipped = 0;  ///< e.g. label with nothing fetched (409 races)
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t backpressure = 0;
  uint64_t deadline_expired = 0;  ///< 504s across endpoints
  uint64_t retries_suppressed = 0;  ///< client retries a budget refused
  double max_start_lag_seconds = 0.0;
  double slo_target = 0.99;
  int require_shards = 0;
  std::map<std::string, EndpointReport> endpoints;
  std::map<std::string, uint64_t> shard_counts;

  bool ShardsOk() const;
  /// The machine-readable PASS/FAIL the CI job exits on.
  bool Pass() const;
  /// Human-readable report (loadgen-style table).
  std::string FormatText() const;
  /// Machine-readable report (the BENCH_PR8.json payload).
  std::string ToJson() const;
};

/// Executes the plan; fails only on setup errors (bad options, no port) —
/// traffic-level failures land in the report, not the status.
vs::Result<RunReport> RunWorkload(const WorkloadPlan& plan,
                                  const RunnerOptions& options);

}  // namespace vs::workload

#endif  // VS_WORKLOAD_RUNNER_H_
