#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace slick::telemetry {

inline constexpr std::size_t kCacheLine = 64;

/// Monotonic event counter on its own cache line, so counters owned by
/// different threads (one ShardCounters per shard) never false-share.
/// Add() is a single relaxed fetch_add — wait-free, safe from any thread.
struct alignas(kCacheLine) Counter {
  std::atomic<uint64_t> v{0};

  void Add(uint64_t n = 1) { v.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Get() const { return v.load(std::memory_order_relaxed); }
  /// Rewind/overwrite — used by crash recovery to reset a counter to the
  /// restored checkpoint's value before the replay re-accumulates it. Only
  /// call while the counting thread is quiescent (joined).
  void Set(uint64_t x) { v.store(x, std::memory_order_relaxed); }
};

/// Last-value gauge (e.g. a worker heartbeat, ring occupancy at sample
/// time). Single relaxed store/load.
struct alignas(kCacheLine) Gauge {
  std::atomic<uint64_t> v{0};

  void Set(uint64_t x) { v.store(x, std::memory_order_relaxed); }
  uint64_t Get() const { return v.load(std::memory_order_relaxed); }
};

/// High-water gauge with a SINGLE-WRITER update protocol: Observe() does a
/// plain load-compare-store (no CAS loop), which is race-free because only
/// the owning thread ever writes it — exactly the shape of the per-ring
/// occupancy high-water, which only the producer samples. Readers on other
/// threads use relaxed loads.
struct alignas(kCacheLine) MaxGauge {
  std::atomic<uint64_t> v{0};

  void Observe(uint64_t x) {
    if (x > v.load(std::memory_order_relaxed)) {
      v.store(x, std::memory_order_relaxed);
    }
  }
  uint64_t Get() const { return v.load(std::memory_order_relaxed); }
};

/// Per-shard registry of the parallel runtime's flow metrics. One instance
/// per shard, each field cache-line-padded; the router writes the ingress
/// side, the worker writes the egress side, and a snapshot thread reads
/// everything with relaxed loads. The conservation law the fuzz tests
/// assert at every epoch:
///
///   tuples_in == tuples_out + (in-flight in the ring)
///
/// with dropped counted separately (shed before ever becoming tuples_in).
struct ShardCounters {
  Counter tuples_in;   ///< admitted into the shard ring (router)
  Counter tuples_out;  ///< slid into the shard aggregator (worker)
  Counter dropped;     ///< shed by a backpressure policy (router)
  Counter batches;     ///< drain batches, by either holder (worker)
  Counter coordinator_batches;  ///< of those, drained on the query thread
                                ///< by the caller-runs epoch barrier
  Counter producer_batches;  ///< of those, drained on a producer handle's
                             ///< thread while the worker slept
  Counter idle_polls;  ///< zero-length drain polls — ring empty when the
                       ///< worker looked; kept out of the batch-size
                       ///< histogram so it reflects real batches (worker)
  Counter combines;    ///< ⊕ applications attributed to this shard
  Counter inverses;    ///< ⊖ applications attributed to this shard
  // Fault-tolerance metrics (DESIGN.md §12; see RUNBOOK.md for how to
  // read them). All zero on a fault-free run.
  Counter restarts;             ///< worker fail-stops recovered (supervisor)
  Counter checkpoints;          ///< validated checkpoints committed (worker)
  Counter checkpoint_failures;  ///< checkpoints discarded at write (worker)
  Counter replayed;             ///< tuples re-slid after a restore (recovery)
  Counter stall_detections;     ///< heartbeat-stall transitions (supervisor)
};

/// Engine-level tallies for the single-thread ACQ engine. Kept as plain
/// (non-atomic) integers: the engine is single-threaded by contract, and
/// the compile-time sink (see sink.h) decides whether these are maintained
/// at all.
struct EngineCounters {
  uint64_t tuples_in = 0;   ///< raw stream elements pushed
  uint64_t partials = 0;    ///< completed partials slid into the window
  uint64_t answers = 0;     ///< query answers emitted
};

}  // namespace slick::telemetry

