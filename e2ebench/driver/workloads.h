#ifndef VS_E2EBENCH_WORKLOADS_H_
#define VS_E2EBENCH_WORKLOADS_H_

/// \file workloads.h
/// \brief The two workloads.  Each generates its inputs from the seed,
/// times its own set-up, runs the closed loop (untraced, or untraced then
/// traced), checks its answers and fills the report.

#include <cstdlib>
#include <cstdio>
#include <string>

#include "common/result.h"
#include "harness.h"

namespace vsbench {

/// Thread counts for the provenance block.
struct WorkloadThreads {
  int client = 1;
  int server = 0;
};

WorkloadThreads RunColdExplore(const Options& options, Report* report,
                               OpCounter* ops);
WorkloadThreads RunPaperSessions(const Options& options, Report* report,
                                 OpCounter* ops);

/// Set-up failures are not measurements: report and exit non-zero.
[[noreturn]] inline void Die(const vs::Status& status, const char* what) {
  std::fprintf(stderr, "set-up failed (%s): %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

inline void Check(const vs::Status& status, const char* what) {
  if (!status.ok()) Die(status, what);
}

template <typename T>
T Unwrap(vs::Result<T> result, const char* what) {
  if (!result.ok()) Die(result.status(), what);
  return std::move(*result);
}

/// Seeker seed of session \p index under run seed \p seed.
inline uint64_t SeekerSeed(uint64_t seed, uint64_t index) {
  return seed * 1000003ULL + index + 1;
}

}  // namespace vsbench

#endif  // VS_E2EBENCH_WORKLOADS_H_
