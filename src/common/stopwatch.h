#ifndef VS_COMMON_STOPWATCH_H_
#define VS_COMMON_STOPWATCH_H_

/// \file stopwatch.h
/// \brief Monotonic timing utilities: Stopwatch for measurement and Deadline
/// for time-budgeted loops (the paper's per-iteration time constraint t_l).

#include <chrono>
#include <cstdint>
#include <limits>

namespace vs {

/// \brief Measures elapsed wall-clock time from construction or Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the origin to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction/Restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed microseconds since construction/Restart.
  int64_t ElapsedMicros() const { return MicrosAt(Clock::now()); }

  /// Microseconds from the origin to \p t (one clock read, many origins).
  int64_t MicrosAt(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief A time budget that work loops poll to honour the interactive time
/// constraint t_l.
///
/// A Deadline may be *wall-clock* (expires after a duration) or *work-unit*
/// (expires after a fixed number of Charge() calls).  The work-unit mode
/// makes the paper's optimization experiments deterministic and
/// hardware-independent, which is what the test suite uses; the benchmark
/// harness uses wall-clock mode to reproduce Figure 7.
class Deadline {
 public:
  /// A deadline that never expires.
  static Deadline Infinite() { return Deadline(); }

  /// A wall-clock deadline expiring \p seconds from now.
  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.has_wall_ = true;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return d;
  }

  /// A work-unit deadline expiring after \p units calls to Charge().
  static Deadline AfterUnits(int64_t units) {
    Deadline d;
    d.has_units_ = true;
    d.units_left_ = units;
    return d;
  }

  /// Consumes \p n work units (no effect in wall-clock mode).
  void Charge(int64_t n = 1) {
    if (has_units_) units_left_ -= n;
  }

  /// True once the budget is exhausted.
  bool Expired() const {
    if (has_units_ && units_left_ <= 0) return true;
    if (has_wall_ && Clock::now() >= expiry_) return true;
    return false;
  }

  /// Remaining work units (work-unit mode only; 0 otherwise).
  int64_t UnitsLeft() const { return has_units_ ? units_left_ : 0; }

  /// Sentinel returned by RemainingUnits() when no unit budget applies.
  static constexpr int64_t kNoUnitLimit =
      std::numeric_limits<int64_t>::max();

  /// Remaining wall-clock budget in seconds: never negative, +infinity
  /// for Infinite() and work-unit deadlines (no wall-clock bound applies).
  /// Lets callers report deadline slack/utilization without knowing which
  /// mode constructed the deadline.
  double RemainingSeconds() const {
    if (!has_wall_) return std::numeric_limits<double>::infinity();
    const double left =
        std::chrono::duration<double>(expiry_ - Clock::now()).count();
    return left > 0.0 ? left : 0.0;
  }

  /// Remaining work-unit budget: never negative, kNoUnitLimit (the
  /// integer infinity sentinel) for Infinite() and wall-clock deadlines.
  int64_t RemainingUnits() const {
    if (!has_units_) return kNoUnitLimit;
    return units_left_ > 0 ? units_left_ : 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Deadline() = default;

  bool has_wall_ = false;
  bool has_units_ = false;
  Clock::time_point expiry_{};
  int64_t units_left_ = 0;
};

}  // namespace vs

#endif  // VS_COMMON_STOPWATCH_H_
