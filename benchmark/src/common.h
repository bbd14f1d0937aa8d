#pragma once

// Harness plumbing shared by every workload: options, clocks, resource
// usage, latency quantiles and the result record.

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/clock.h"

namespace slickbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;        // result JSON; empty = stdout table only
  bool trace = false;     // also run the traced pass
  std::string trace_out;  // Chrome trace-event JSON of the traced pass
  bool inject_fault = false;
  /// Length of each measured pass: a traced run splits its time between
  /// the untraced and the traced pass, so it costs what an untraced run
  /// costs.
  double pass_seconds() const { return trace ? seconds / 2 : seconds; }
};

/// Throughput is the median of the rates over windows this long, so a VM
/// stall costs one window instead of shifting the whole figure.
inline constexpr uint64_t kRateWindowNs = 100'000'000;

/// CLOCK_MONOTONIC nanoseconds: the clock every span, due time and
/// latency uses, shared with forked children.
inline uint64_t NowNs() { return slick::util::MonotonicNanos(); }

/// Sleeps until the absolute CLOCK_MONOTONIC time `t_ns`.
void SleepUntil(uint64_t t_ns);

/// Lowers this thread's timer slack to 1 ns, so sub-100 µs sleeps wake on
/// time instead of up to 50 µs late.
void TightenTimerSlack();

/// Thread placement for the runtime workloads, as `taskset` would do it:
/// every thread of the system under test on the first CPU, harness
/// threads (and the processes they fork) on the last. On a VM a thread
/// woken on another vCPU costs the hypervisor an IPI whose price swings
/// with other tenants' load, and left to the scheduler a woken worker
/// sometimes queues behind a busy thread; either made the same run come out
/// several times slower. With fewer than 4 CPUs nothing is pinned.
class Placement {
 public:
  /// Notes the threads that exist now.
  Placement();
  /// Pins the threads started since construction to the system CPU.
  void PinNewThreads();
  /// Pins the calling thread to the system CPU.
  void PinSelfToSystem();
  /// Pins the calling thread, and processes it forks later, to the
  /// harness CPU.
  void PinSelfToHarness();
  /// Lets the calling thread run anywhere again.
  void ReleaseSelf();

 private:
  bool enabled_ = false;
  cpu_set_t all_;
  int system_cpu_ = 0;
  int harness_cpu_ = 0;
  std::vector<int> known_;
};

struct Usage {
  double cpu_s = 0.0;  // user + system
  double csw = 0.0;    // voluntary + involuntary context switches
};
Usage ProcessUsage();
Usage ThreadUsage();
Usage operator-(const Usage& a, const Usage& b);

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

double Median(std::vector<double> v);

/// Deterministic sampling gaps: uniform in [1, 2·mean − 1], so sampled
/// calls are spread evenly without locking onto periodic structure in the
/// stream (a fixed stride of 256 would only ever see even positions).
class GapSampler {
 public:
  explicit GapSampler(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint32_t Next(uint32_t mean) {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    const uint64_t r = s_ * 0x2545F4914F6CDD1Dull;
    return 1 + static_cast<uint32_t>((r >> 33) % (2 * mean - 1));
  }

 private:
  uint64_t s_;
};

/// Integer nanosecond samples with exact counts. Quantiles treat each
/// integer value v as spread over [v − 0.5, v + 0.5) and interpolate
/// within that bin, so a quantile landing on a run of tied values still
/// reflects how far into the run it falls. Memory is fixed (exact bins
/// below 64 µs plus a list of the rare larger values), so it does not grow
/// with throughput.
class Latencies {
 public:
  void Add(uint64_t ns);
  uint64_t count() const { return n_; }
  double Quantile(double q);
  double Mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

 private:
  static constexpr uint64_t kBins = uint64_t{1} << 16;
  std::vector<uint64_t> bins_ = std::vector<uint64_t>(kBins, 0);
  std::vector<uint64_t> big_;
  uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Median over consecutive segments of `per_segment` samples (in arrival
/// order) of each segment's q-quantile; a trailing segment shorter than
/// half is folded into the one before it. Robust against a run whose
/// stalls bunch into a few seconds.
double SegmentedQuantile(const std::vector<uint64_t>& samples,
                         std::size_t per_segment, double q);

/// Progress marks (time, cumulative count) through a measured phase,
/// thinned to one per millisecond (the newest always kept), so memory
/// follows the run's length, not its throughput.
class RateWindows {
 public:
  void Mark(uint64_t t_ns, uint64_t count) {
    if (marks_.size() >= 2 && t_ns - marks_[marks_.size() - 2].t_ns < kMinGapNs) {
      marks_.back() = {t_ns, count};
    } else {
      marks_.push_back({t_ns, count});
    }
  }
  /// Median over consecutive windows of at least `window_ns` of the
  /// count per second; the whole span's rate when no window completes.
  double MedianRate(uint64_t window_ns) const;

 private:
  static constexpr uint64_t kMinGapNs = 1'000'000;
  struct Point {
    uint64_t t_ns;
    uint64_t count;
  };
  std::vector<Point> marks_;
};

/// Everything one invocation reports. Metrics keep insertion order; a
/// later Set() of the same name overwrites the value.
class Results {
 public:
  void Set(const std::string& name, double value, const char* unit);
  bool Has(const std::string& name) const;
  void Info(const std::string& key, const std::string& value);
  /// Records `n` failed items (wrong answers or lost tuples) and why.
  void Fail(uint64_t n, const std::string& why);
  void Attempt(uint64_t n) { attempted_ += n; }

  uint64_t failed() const { return failed_; }
  bool WriteJson(const std::string& path) const;
  void Print(std::FILE* f) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace slickbench
