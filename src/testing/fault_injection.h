#ifndef VS_TESTING_FAULT_INJECTION_H_
#define VS_TESTING_FAULT_INJECTION_H_

/// \file fault_injection.h
/// \brief Seeded, deterministic fault injection for the serving and
/// session layers.
///
/// Production code marks failure-prone operations with named *fault
/// points*:
///
///     if (VS_FAULT("snapshot.read_fail")) {
///       return vs::Status::IOError("injected snapshot read failure");
///     }
///
/// With no injector installed (the default, and the only state production
/// ever runs in) a fault point costs exactly one relaxed atomic load and
/// never fires.  Tests install a FaultInjector, configure points to fire
/// with a probability or on an explicit schedule of hit indices, and every
/// guarded failure path becomes reachable on demand.
///
/// Determinism: whether hit number N of point P fires is a pure function
/// of (seed, P, N) — independent of thread interleaving, platform, and
/// std::hash.  Two runs with the same seed produce the same fault
/// *schedule* (the set of firing hit indices per point) even when threads
/// reach the point in a different order, which is what makes stress-run
/// failures reproducible from the seed alone.
///
/// Observability: every hit and fire also increments the process-wide
/// obs counters `fault.hits` / `fault.fires`, so fault activity shows up
/// in /metrics next to the serving counters it perturbs.
///
/// Fault-point catalog: see docs/TESTING.md.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vs::fault {

class FaultInjector;

namespace internal {
/// The installed injector (nullptr = disabled).  Read on every fault
/// point; written only by Install().
extern std::atomic<FaultInjector*> g_active;
}  // namespace internal

/// \brief Decides, deterministically per (seed, point, hit), whether each
/// hit of a named fault point fires.  Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms \p point to fire each hit with probability \p probability
  /// (clamped to [0, 1]).  Replaces any previous configuration.
  void SetProbability(const std::string& point, double probability);

  /// Arms \p point to fire exactly on the given 1-based hit indices.
  /// Replaces any previous configuration.
  void SetSchedule(const std::string& point, std::vector<uint64_t> hits);

  /// Disarms \p point (hits keep being counted).
  void Clear(const std::string& point);

  /// Disarms every point.
  void ClearAll();

  /// Called by VS_FAULT at every guarded site; true = inject the failure.
  /// Unconfigured points count the hit and never fire.
  bool Fire(std::string_view point);

  /// \name Introspection.
  /// @{
  struct PointStats {
    uint64_t hits = 0;
    uint64_t fires = 0;
  };
  /// Stats for one point (zeros when never hit).
  PointStats Stats(const std::string& point) const;
  /// All points ever hit or configured, sorted by name.
  std::vector<std::pair<std::string, PointStats>> AllStats() const;
  uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }
  uint64_t seed() const { return seed_; }
  /// @}

  /// The pure decision function behind probability mode: does hit
  /// \p hit_index (1-based) of \p point fire at \p probability under
  /// \p seed?  Stable across platforms (no std::hash) — this is the
  /// reproducibility contract tools/stress prints its fault plan from.
  static bool Decide(uint64_t seed, std::string_view point,
                     uint64_t hit_index, double probability);

 private:
  struct Point {
    enum class Mode { kDisarmed, kProbability, kSchedule };
    Mode mode = Mode::kDisarmed;
    double probability = 0.0;
    std::vector<uint64_t> schedule;  ///< sorted 1-based hit indices
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fires{0};
  };

  Point* GetPoint(std::string_view point);

  const uint64_t seed_;
  std::atomic<uint64_t> total_fires_{0};
  mutable std::mutex mu_;  ///< guards the map, not the per-point atomics
  std::map<std::string, std::unique_ptr<Point>, std::less<>> points_;
};

/// Installs \p injector process-wide (nullptr uninstalls).  The caller
/// keeps ownership and must keep it alive while installed.
void InstallFaultInjector(FaultInjector* injector);

/// The currently installed injector, or nullptr.
inline FaultInjector* ActiveFaultInjector() {
  return internal::g_active.load(std::memory_order_relaxed);
}

/// RAII install/uninstall for tests.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector) {
    InstallFaultInjector(injector);
  }
  ~ScopedFaultInjector() { InstallFaultInjector(nullptr); }

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
};

/// Out-of-line slow path (counts the hit, decides, bumps obs counters).
bool FireFaultPoint(std::string_view point);

/// The guard production code uses.  Disabled cost: one relaxed load.
inline bool InjectFault(const char* point) {
  return ActiveFaultInjector() != nullptr && FireFaultPoint(point);
}

}  // namespace vs::fault

/// Marks a named fault point; evaluates to true when the installed
/// injector decides this hit fires.
#define VS_FAULT(point) (::vs::fault::InjectFault(point))

#endif  // VS_TESTING_FAULT_INJECTION_H_
