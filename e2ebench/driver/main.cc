// End-to-end benchmark driver for ViewSeeker.
//
//   vs_e2ebench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//               [--smoke] [--corrupt-expected] [--inject-failure]
//               --work-dir=<dir>
//
// Prints a provenance line, notes, one line per metric (name, value,
// unit, sample count) and, as the last line, the JSON result object.
// Exits 1 when a correctness check fails or any operation failed, 2 on a
// usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vs_e2ebench --workload=cold_explore|paper_sessions "
               "--seed=N --seconds=S --trace=0|1 --work-dir=DIR [--smoke] "
               "[--corrupt-expected] [--inject-failure] "
               "[--source-digest=HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vsbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      options.trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--work-dir=")) {
      options.work_dir = v;
    } else if (const char* v = value("--source-digest=")) {
      options.source_digest = v;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-expected") {
      options.corrupt_expected = true;
    } else if (arg == "--inject-failure") {
      options.inject_failure = true;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || !(options.seconds > 0.0)) return Usage();
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 2;
  }

  vsbench::Report report;
  vsbench::OpCounter ops;
  vsbench::WorkloadThreads threads;
  if (options.workload == "cold_explore") {
    threads = vsbench::RunColdExplore(options, &report, &ops);
  } else if (options.workload == "paper_sessions") {
    threads = vsbench::RunPaperSessions(options, &report, &ops);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(options.work_dir, ec);
  for (const std::string& failure : ops.FirstFailures()) {
    report.Note("failed op: " + failure);
  }
  // A failed, refused or malformed answer is a wrong result: the run's
  // timings would otherwise rest only on the sessions that succeeded.
  if (ops.failed.load() > 0) {
    report.CheckFailed(std::to_string(ops.failed.load()) + " of " +
                       std::to_string(ops.attempted.load()) +
                       " operations failed");
  }

  std::printf("provenance %s\n",
              vsbench::ProvenanceJson(options, threads.client, threads.server)
                  .c_str());
  report.Print(ops.attempted.load(), ops.failed.load());
  return report.correct() ? 0 : 1;
}
