/// IDEBench-style workload replayer for `viewseeker serve` / `route`.
///
///   workbench --spec=workloads/mixed_smoke.json --port=P
///             [--host=127.0.0.1] [--seed=N] [--duration=S] [--table=F]
///             [--require-shards=N] [--deadline-ms=D] [--json-out=F]
///             [--ledger-out=F] [--dry-run]
///
/// --deadline-ms stamps every request with X-Deadline-Ms so the server
/// (and each router hop) can fast-fail work that cannot finish in time;
/// resulting 504s count as backpressure, and budget-suppressed retries
/// are reported.
///
/// Loads a declarative workload spec (see src/workload/spec.h for the
/// schema), compiles it into a deterministic plan — session arrival times,
/// zipf-popular filters, per-step op scripts with lognormal think times —
/// and replays it against a live server, reporting per-endpoint
/// p50/p95/p99 and the IDEBench %-of-ops-within-SLO metric per endpoint.
///
/// The exit code IS the verdict: 0 iff zero protocol errors, every
/// budgeted endpoint meets slo.target, and (with --require-shards) enough
/// distinct shards served traffic.  CI pipes that straight into the gate.
///
/// --dry-run compiles the plan, prints the ledger digest (and the full op
/// ledger with --ledger-out), and exits without touching the network —
/// running it twice with the same --spec/--seed and diffing the ledgers
/// proves bit-reproducibility.
///
/// --seed overrides the spec's seed; --duration and --table likewise, so
/// one committed spec serves smoke (short) and bench (long) runs.

#include <cstdio>
#include <map>
#include <string>

#include "common/result.h"
#include "common/string_util.h"
#include "workload/plan.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace {

using namespace vs;

/// Parsed --key=value arguments (same shape as tools/viewseeker.cc).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseInt64(it->second).ValueOr(fallback);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseDouble(it->second).ValueOr(fallback);
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

bool WriteFileOrComplain(const std::string& path,
                         const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "workbench: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "workbench: short write to %s\n", path.c_str());
  return ok;
}

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string spec_path = args.Get("spec");
  if (spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: workbench --spec=F --port=P [--host=H] [--seed=N]\n"
                 "                 [--duration=S] [--table=F]\n"
                 "                 [--require-shards=N] [--deadline-ms=D]\n"
                 "                 [--json-out=F]\n"
                 "                 [--ledger-out=F] [--dry-run]\n");
    return 2;
  }

  auto spec = vs::workload::LoadWorkloadSpecFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "workbench: %s\n",
                 spec.status().message().c_str());
    return 2;
  }
  const int64_t seed_override = args.Has("seed") ? args.GetInt("seed", -1)
                                                 : -1;
  if (args.Has("duration")) {
    // Override before compilation so open-loop plans cover the new span.
    spec->duration_seconds = args.GetDouble("duration",
                                            spec->duration_seconds);
  }
  auto plan = vs::workload::CompilePlan(*spec, seed_override);
  if (!plan.ok()) {
    std::fprintf(stderr, "workbench: %s\n",
                 plan.status().message().c_str());
    return 2;
  }

  const std::string ledger = vs::workload::FormatLedger(*plan);
  std::printf("plan: %zu sessions, %llu ops, %zu filters, ledger digest "
              "%016llx\n",
              plan->sessions.size(),
              static_cast<unsigned long long>(plan->total_ops),
              plan->filters.size(),
              static_cast<unsigned long long>(
                  vs::workload::LedgerDigest(ledger)));
  const std::string ledger_out = args.Get("ledger-out");
  if (!ledger_out.empty() && !WriteFileOrComplain(ledger_out, ledger)) {
    return 2;
  }
  if (args.Has("dry-run")) return 0;

  vs::workload::RunnerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<int>(args.GetInt("port", 0));
  options.table = args.Get("table");
  options.duration_seconds = args.GetDouble("duration", 0.0);
  options.require_shards =
      static_cast<int>(args.GetInt("require-shards", 0));
  options.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  auto report = vs::workload::RunWorkload(*plan, options);
  if (!report.ok()) {
    std::fprintf(stderr, "workbench: %s\n",
                 report.status().message().c_str());
    return 2;
  }

  std::fputs(report->FormatText().c_str(), stdout);
  const std::string json_out = args.Get("json-out");
  if (!json_out.empty() &&
      !WriteFileOrComplain(json_out, report->ToJson())) {
    return 2;
  }
  return report->Pass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
