#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace vsbench {

void Samples::Append(const Samples& other, double scale) {
  for (const double v : other.values_) values_.push_back(v * scale);
  sorted_ = false;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double TailPercentile(size_t n) {
  if (n < 20) return 0.0;
  const double p = 1.0 - 10.0 / static_cast<double>(n);
  return std::floor(p * 1000.0) / 1000.0;
}

double HostProbeMs() {
  static const std::vector<uint32_t> column = [] {
    std::vector<uint32_t> values(size_t{1} << 20);  // 4 MiB: twice L2
    uint32_t x = 2463534242u;
    for (uint32_t& v : values) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    return values;
  }();
  static volatile uint64_t sink = 0;
  // Untimed warm-up: whatever the program touched since the last probe,
  // the column starts in cache, so the probe measures the host and not
  // the program's own cache footprint.
  uint64_t total = 0;
  for (size_t i = 0; i < column.size(); i += 16) total += column[i];
  const double start = NowSeconds();
  // Sort and hash-aggregate 16K keys of 5000 levels: branchy code over
  // small, freshly allocated structures.
  std::vector<uint32_t> keys(column.begin(), column.begin() + (1 << 14));
  for (uint32_t& k : keys) k %= 5000;
  std::unordered_map<uint32_t, uint64_t> groups;
  for (size_t i = 0; i < keys.size(); ++i) groups[keys[i]] += i;
  std::sort(keys.begin(), keys.end());
  for (const uint32_t k : keys) total += groups[k];
  // Independent random reads over the whole column: cache and memory
  // latency beyond L2.
  uint32_t x = 12345;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    total += column[x & (column.size() - 1)];
  }
  sink = sink + total;
  return (NowSeconds() - start) * 1e3;
}

double HostFactor(const Samples& probes, double sensitivity) {
  if (probes.size() == 0) return 1.0;
  return std::pow(probes.Percentile(0.5) / kProbeReferenceMs, sensitivity);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

thread_local uint64_t t_trace_id = 0;

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetTraceId(uint64_t id) { t_trace_id = id; }

Tracer::ThreadBuffer* Tracer::Buffer() {
  // Owned by buffers_, which outlives every thread (the tracer is never
  // destroyed), so a finished thread's spans stay readable.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
  }
  return buffer;
}

int32_t Tracer::Open(const char* name) {
  ThreadBuffer* b = Buffer();
  SpanRecord record{name, t_trace_id, b->open.empty() ? -1 : b->open.back(),
                    SteadyNanos(), 0};
  b->spans.push_back(record);
  const int32_t index = static_cast<int32_t>(b->spans.size() - 1);
  b->open.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  ThreadBuffer* b = Buffer();
  b->spans[static_cast<size_t>(index)].end_ns = SteadyNanos();
  if (!b->open.empty() && b->open.back() == index) b->open.pop_back();
}

std::map<std::string, Tracer::Aggregate> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Aggregate> out;
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      if (s.end_ns == 0) continue;
      Aggregate& a = out[s.name];
      const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      a.total_ms += total;
      a.self_ms += total - static_cast<double>(child_ns[i]) * 1e-6;
      ++a.count;
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t epoch = INT64_MAX;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) epoch = std::min(epoch, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%llu}}",
                   first ? "" : ",", s.name, b->tid,
                   static_cast<double>(s.start_ns - epoch) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.trace_id));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Accounting and report

void OpCounter::Fail(const std::string& what) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  failed.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_failures_.size() < 5) first_failures_.push_back(what);
}

std::vector<std::string> OpCounter::FirstFailures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failures_;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::CheckFailed(const std::string& what) {
  if (correct_) std::fprintf(stderr, "correctness check failed: %s\n",
                             what.c_str());
  correct_ = false;
}

void Report::Print(uint64_t attempted, uint64_t failed) const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  for (const Entry& m : metrics_) {
    std::printf("metric %-28s %14.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string ProvenanceJson(const Options& options, int client_threads,
                           int server_threads) {
  std::string model = "unknown";
  std::set<std::string> isa;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  static const std::set<std::string> kInteresting = {
      "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl",
      "avx512dq", "avx512_vnni", "bmi2"};
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && isa.empty()) {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        if (kInteresting.count(flag) > 0) isa.insert(flag);
      }
    }
  }
  std::string isa_json;
  for (const std::string& flag : isa) {
    if (!isa_json.empty()) isa_json += ",";
    isa_json += "\"" + flag + "\"";
  }
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"nproc\":%u,\"cpu_model\":\"%s\",\"isa\":[%s],\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"sources\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%.1f,\"trace\":%s,\"client_threads\":%d,"
      "\"server_threads\":%d}",
      std::thread::hardware_concurrency(), model.c_str(), isa_json.c_str(),
      VS_BENCH_BUILD_TYPE, __VERSION__, options.source_digest.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? "true" : "false", client_threads,
      server_threads);
  return buffer;
}

}  // namespace vsbench
