#include "data/table_memo.h"

#include <atomic>
#include <tuple>

#include "data/groupby_kernel.h"
#include "obs/metrics.h"

namespace vs::data {

namespace {

/// Bytes per memoized bin: count, sum, sumsq, min and max.
constexpr size_t kBytesPerBin = sizeof(int64_t) + 4 * sizeof(double);

/// Cached handles into the default registry.
struct MemoMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Gauge* bytes;

  static const MemoMetrics& Get() {
    static const MemoMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return MemoMetrics{
          r.GetCounter("table_memo.hits",
                       "full-table group-by grids served from a table memo"),
          r.GetCounter("table_memo.misses",
                       "full-table group-by grids not yet memoized"),
          r.GetGauge("table_memo.bytes",
                     "bytes held by full-table grids across all table "
                     "memos"),
      };
    }();
    return m;
  }
};

/// Process-wide memo bytes; the gauge is Set from it so that toggling the
/// registry between a fill and a table's destruction cannot make it drift.
std::atomic<int64_t> g_memo_bytes{0};

void AddMemoBytes(int64_t delta) {
  g_memo_bytes.fetch_add(delta);
  MemoMetrics::Get().bytes->Set(static_cast<double>(g_memo_bytes.load()));
}

}  // namespace

bool FullTableGridKey::operator<(const FullTableGridKey& other) const {
  return std::tie(dimension, num_bins, measure) <
         std::tie(other.dimension, other.num_bins, other.measure);
}

TableMemo::~TableMemo() {
  if (bytes_ > 0) AddMemoBytes(-static_cast<int64_t>(bytes_));
}

std::shared_ptr<const KernelGrid> TableMemo::FindGrid(
    const FullTableGridKey& key) const {
  std::shared_ptr<const KernelGrid> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = grids_.find(key);
    if (it != grids_.end()) found = it->second;
  }
  const MemoMetrics& metrics = MemoMetrics::Get();
  (found != nullptr ? metrics.hits : metrics.misses)->Increment();
  return found;
}

std::shared_ptr<const KernelGrid> TableMemo::PublishGrid(
    const FullTableGridKey& key, std::shared_ptr<const KernelGrid> grid) {
  size_t added = 0;
  std::shared_ptr<const KernelGrid> memoized;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = grids_.emplace(key, std::move(grid));
    if (inserted) {
      added = it->second->size() * kBytesPerBin;
      bytes_ += added;
    }
    memoized = it->second;
  }
  if (added > 0) AddMemoBytes(static_cast<int64_t>(added));
  return memoized;
}

std::optional<std::pair<double, double>> TableMemo::FindRange(
    const std::string& dimension) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ranges_.find(dimension);
  if (it == ranges_.end()) return std::nullopt;
  return it->second;
}

std::pair<double, double> TableMemo::PublishRange(
    const std::string& dimension, std::pair<double, double> range) {
  std::lock_guard<std::mutex> lock(mu_);
  return ranges_.emplace(dimension, range).first->second;
}

std::shared_ptr<const std::vector<std::string>> TableMemo::FindLabels(
    const std::string& dimension) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = labels_.find(dimension);
  return it != labels_.end() ? it->second : nullptr;
}

std::shared_ptr<const std::vector<std::string>> TableMemo::PublishLabels(
    const std::string& dimension,
    std::shared_ptr<const std::vector<std::string>> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return labels_.emplace(dimension, std::move(labels)).first->second;
}

size_t TableMemo::num_grids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grids_.size();
}

size_t TableMemo::num_ranges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ranges_.size();
}

size_t TableMemo::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace vs::data
