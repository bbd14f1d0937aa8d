#pragma once
// Deterministic cooperative model checker for the parallel runtime
// (tests/model/, see DESIGN.md §9).
//
// A *world* is a set of virtual threads over shared state (a real SpscRing
// plus oracles). Each thread is a hand-written step machine whose Step()
// executes one scheduler-visible action — one ring operation, one
// eventcount snapshot, one wait-path recheck — exactly mirroring the code
// under test. The explorer enumerates every interleaving of those steps by
// stateless replay (CHESS-style): a schedule is the sequence of thread
// choices at each decision point; after a terminal run, backtrack to the
// deepest decision with an untried alternative and re-run the world from
// scratch along the new prefix.
//
// Pruning is bounded preemption: a context switch away from a thread that
// is still enabled counts against `preemption_bound`; forced switches
// (running thread parked or finished) are free. With the bound exhausted
// the previously running thread is the only allowed choice while it stays
// enabled. Bound < 0 means unbounded (full DFS). Empirically (CHESS,
// dBug) a small bound covers almost all protocol bugs at a fraction of
// the schedule count; the nightly job raises it via env knobs.
//
// Blocking is modeled with park predicates: a thread that would call
// std::atomic::wait(e) parks on "event word != e" and becomes enabled
// again only once the predicate holds — i.e. wakes are *value-based*, the
// guarantee the eventcount protocol actually relies on. A protocol edit
// that stops bumping an event word therefore shows up here as a deadlock
// (lost wakeup): a state where some thread is not done, yet nothing is
// enabled.
//
// Memory-model scope: steps execute sequentially consistently on one OS
// thread, so this checker proves protocol-level properties (FIFO order,
// no double-consume, conservation, no lost wakeup) over *all* bounded
// interleavings at step granularity. Races *inside* one ring operation
// (compiler/hardware reordering of its individual loads and stores) are
// out of scope — that is what the TSan CI leg and the fuzz suite cover.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace slick::model {

/// Reads a non-negative (or -1 = unbounded) integer env knob, mirroring
/// SLICK_FUZZ_TRIALS: the PR gate runs defaults, the nightly job cranks
/// SLICK_MODEL_OPS / SLICK_MODEL_CAPACITY / SLICK_MODEL_PREEMPTIONS /
/// SLICK_MODEL_MAX_SCHEDULES past them.
inline long EnvKnob(const char* name, long fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') return v;
  }
  return fallback;
}

/// One cooperative thread of a modeled world: a step machine over shared
/// state. Step() is called only while Enabled().
class VirtualThread {
 public:
  virtual ~VirtualThread() = default;

  /// Executes the thread's next scheduler-visible action.
  virtual void Step() = 0;

  /// Finished — no further steps.
  virtual bool Done() const = 0;

  /// Parked on a wait predicate that does not currently hold. A parked
  /// thread is disabled until shared state flips the predicate.
  virtual bool Parked() const = 0;

  bool Enabled() const { return !Done() && !Parked(); }
};

/// A freshly constructed world per schedule: threads plus invariant hooks.
struct World {
  std::vector<VirtualThread*> threads;  // borrowed; factory owns them
  /// Invoked after every step; fail via `fail(message)`.
  std::function<void(const std::function<void(const std::string&)>& fail)>
      check_step;
  /// Invoked once all threads are Done.
  std::function<void(const std::function<void(const std::string&)>& fail)>
      check_final;
};

struct ExploreResult {
  uint64_t schedules = 0;       ///< terminal schedules fully executed
  uint64_t steps = 0;           ///< total steps across all schedules
  uint64_t max_depth = 0;       ///< longest schedule seen
  bool exhausted = false;       ///< DFS completed within max_schedules
  bool failed = false;
  std::string failure;          ///< first divergence + its schedule
};

struct ExploreOptions {
  /// Voluntary context switches allowed per schedule; -1 = unbounded.
  int preemption_bound = 4;
  /// Hard cap on explored schedules (runaway guard). Exceeding it clears
  /// `exhausted` — the caller decides whether that is a failure.
  uint64_t max_schedules = 2'000'000;
  /// Hard cap on steps within one schedule; tripping it means a thread
  /// loops without the scheduler's help (a livelock bug in the model).
  uint64_t max_steps_per_schedule = 10'000;
};

/// Exhaustively explores every interleaving (subject to the preemption
/// bound) of the worlds produced by `factory`. The factory must be
/// deterministic: replaying a choice prefix must reproduce identical
/// enabled sets, which is what makes stateless backtracking sound.
class ScheduleExplorer {
 public:
  explicit ScheduleExplorer(ExploreOptions opts) : opts_(opts) {}

  template <typename WorldFactory>
  ExploreResult Explore(const WorldFactory& factory) {
    ExploreResult result;
    // chosen_[d] = index into the enabled set at decision depth d;
    // width_[d] = how many were enabled there (for backtracking).
    std::vector<std::size_t> chosen;
    std::vector<std::size_t> width;
    for (;;) {
      if (result.schedules >= opts_.max_schedules) {
        return result;  // cap hit: not exhausted
      }
      auto owned = factory();  // holds threads + shared state alive
      World& world = owned->world;
      width.resize(chosen.size());
      std::vector<int> trace;
      int prev = -1;
      int preemptions = 0;
      std::size_t depth = 0;
      auto fail = [&](const std::string& msg) {
        if (result.failed) return;
        result.failed = true;
        result.failure = msg + "\n  schedule: " + FormatTrace(trace);
      };
      for (;;) {
        if (trace.size() > opts_.max_steps_per_schedule) {
          fail("schedule exceeded max_steps_per_schedule (model livelock)");
          return result;
        }
        std::vector<int> enabled = EnabledSet(world, prev, preemptions);
        if (enabled.empty()) {
          if (!AllDone(world)) {
            fail("deadlock: no enabled thread but work remains "
                 "(lost wakeup)");
            return result;
          }
          break;  // terminal
        }
        if (depth == chosen.size()) {
          chosen.push_back(0);
          width.push_back(enabled.size());
        } else {
          width[depth] = enabled.size();
        }
        const int t = enabled[chosen[depth]];
        if (prev >= 0 && t != prev &&
            world.threads[static_cast<std::size_t>(prev)]->Enabled()) {
          ++preemptions;  // switched away from a still-enabled thread
        }
        world.threads[static_cast<std::size_t>(t)]->Step();
        trace.push_back(t);
        ++result.steps;
        ++depth;
        if (world.check_step) {
          world.check_step(fail);
          if (result.failed) return result;
        }
        prev = t;
      }
      if (world.check_final) {
        world.check_final(fail);
        if (result.failed) return result;
      }
      ++result.schedules;
      if (depth > result.max_depth) result.max_depth = depth;
      // Backtrack to the deepest decision with an untried alternative.
      while (!chosen.empty() && chosen.back() + 1 >= width.back()) {
        chosen.pop_back();
        width.pop_back();
      }
      if (chosen.empty()) {
        result.exhausted = true;
        return result;
      }
      ++chosen.back();
    }
  }

 private:
  static bool AllDone(const World& world) {
    for (const VirtualThread* t : world.threads) {
      if (!t->Done()) return false;
    }
    return true;
  }

  std::vector<int> EnabledSet(const World& world, int prev,
                              int preemptions) const {
    // With the preemption budget spent, the running thread keeps the
    // processor while it stays enabled (the CHESS pruning rule).
    if (opts_.preemption_bound >= 0 && preemptions >= opts_.preemption_bound &&
        prev >= 0 && world.threads[static_cast<std::size_t>(prev)]->Enabled()) {
      return {prev};
    }
    std::vector<int> enabled;
    for (std::size_t i = 0; i < world.threads.size(); ++i) {
      if (world.threads[i]->Enabled()) enabled.push_back(static_cast<int>(i));
    }
    return enabled;
  }

  static std::string FormatTrace(const std::vector<int>& trace) {
    std::string s;
    s.reserve(trace.size() * 2);
    for (int t : trace) {
      s += static_cast<char>('0' + t);
      s += ' ';
    }
    return s;
  }

  ExploreOptions opts_;
};

/// Every model suite's verdict on one exploration: no failing schedule, the
/// bounded schedule space fully exhausted, and a one-line size report.
inline void ReportAndExpectExhausted(const ExploreResult& r, const char* what) {
  EXPECT_FALSE(r.failed) << what << ": " << r.failure;
  EXPECT_TRUE(r.exhausted)
      << what << ": bounded schedule space not exhausted within "
      << r.schedules << " schedules — raise SLICK_MODEL_MAX_SCHEDULES";
  EXPECT_GT(r.schedules, 0u);
  std::printf("[model] %-36s schedules=%llu steps=%llu max_depth=%llu\n",
              what, static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(r.steps),
              static_cast<unsigned long long>(r.max_depth));
}

}  // namespace slick::model
