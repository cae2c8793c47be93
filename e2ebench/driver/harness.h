#ifndef VS_E2EBENCH_HARNESS_H_
#define VS_E2EBENCH_HARNESS_H_

/// \file harness.h
/// \brief Shared pieces of the end-to-end benchmark driver: command-line
/// options, latency samples, process resource readings, the in-memory
/// span recorder of the traced run, and the result report.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vsbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and a short window: checks wiring, not performance.
  bool smoke = false;
  /// Perturbs the expected answers so the correctness check must fail
  /// (exercised by the benchmark's own test).
  bool corrupt_expected = false;
  /// Makes one operation fail through the program's own error path (an
  /// out-of-range label); the run must then fail too.
  bool inject_failure = false;
  /// Scratch directory for generated tables and durability files.
  std::string work_dir;
  /// Digest of the benchmarked sources (computed by run.py).
  std::string source_digest = "unknown";
};

/// Monotonic seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency samples in milliseconds with nearest-rank percentiles (sorted
/// lazily; not for concurrent use).
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  /// Appends \p other's samples multiplied by \p scale.
  void Append(const Samples& other, double scale = 1.0);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, \p q in (0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// The highest percentile (in 0.1 steps of a percent) that leaves at least
/// ten samples beyond it, or 0 when fewer than twenty samples exist.
double TailPercentile(size_t n);

/// \name Host speed.
/// The measuring host is a shared VM whose speed drifts by up to 2x over
/// seconds to minutes as other tenants come and go.  Every run therefore
/// times a fixed probe between sessions and expresses the timings of each
/// slice (see RunChunks) at the reference host speed: a timing divided by
/// the slice's HostFactor() reads as if the probe had taken
/// kProbeReferenceMs.
/// @{
/// Milliseconds of one fixed piece of work shaped like the program's hot
/// loops: a sort and hash aggregation of small keys plus random reads
/// over a 4 MiB column.  It calls nothing in the program under test, so no
/// change to the program can move it.
double HostProbeMs();
/// The probe time that defines the reference host speed.
inline constexpr double kProbeReferenceMs = 2.5;
/// (median probe time / kProbeReferenceMs) ^ \p sensitivity; 1 without
/// probes.  \p sensitivity is how much more a workload's times move than
/// the probe's when the host slows, measured per workload.
double HostFactor(const Samples& probes, double sensitivity);
/// @}

/// User + system CPU seconds of this process.
double ProcessCpuSeconds();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();
/// Resets the kernel's peak-RSS mark so input generation does not count.
void ResetPeakRss();

/// \name In-memory spans of the traced run.
/// Spans are kept per thread and only aggregated when the run ends; with
/// tracing off, Span is a single relaxed load and a branch.
/// @{
struct SpanRecord {
  const char* name;
  uint64_t trace_id;  ///< session index; spans of one session share it
  int32_t parent;     ///< index within the same thread's buffer, -1 = root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  static Tracer& Get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Session index stamped on spans the calling thread opens from now on.
  static void SetTraceId(uint64_t id);

  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Total and self milliseconds (self = duration minus direct children)
  /// and the number of spans, per span name.
  struct Aggregate {
    double total_ms = 0.0;
    double self_ms = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Aggregate> Summarize() const;
  /// Writes every span as Chrome trace-event JSON; returns false on error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;  ///< stack of open span indices
    uint32_t tid = 0;
  };
  ThreadBuffer* Buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call into the program.
class Span {
 public:
  explicit Span(const char* name)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Get().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};
/// @}

/// Operation accounting shared by all workloads: every attempted call or
/// request counts once; a failed, refused or wrong answer counts as failed.
struct OpCounter {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Ok() { attempted.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  /// The first few failures, for the report.
  std::vector<std::string> FirstFailures() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> first_failures_;
};

/// The result of one run: metrics in print order plus correctness.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  void Note(const std::string& line);
  /// Records a failed correctness check (the run then reports
  /// correct=false and exits non-zero).
  void CheckFailed(const std::string& what);
  bool correct() const { return correct_; }
  /// Prints notes, one line per metric with its sample count, and the
  /// final JSON object as the last line of standard output.
  void Print(uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// Hardware and provenance block printed with every result.
std::string ProvenanceJson(const Options& options, int client_threads,
                           int server_threads);

}  // namespace vsbench

#endif  // VS_E2EBENCH_HARNESS_H_
