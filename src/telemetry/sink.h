#pragma once

#include <cstdint>

#include "telemetry/counters.h"
#include "telemetry/histogram.h"

namespace slick::telemetry {

// The single-thread engines (AcqEngine, TimeAcqEngine) are instrumented
// through a SINK TYPE chosen at compile time, so the disabled configuration
// costs literally nothing: NullEngineSink's methods are empty inline
// functions on an empty [[no_unique_address]] member, and the optimizer
// deletes every call site — tier-1 throughput (e.g.
// bench/micro_aggregators) is bit-identical to the uninstrumented build.
// Opting in is a template argument (AcqEngine<Agg, CountingEngineSink>),
// not a runtime flag, so the hot loop never branches on "is telemetry on".
//
// The multi-threaded runtime (src/runtime/) is instrumented always-on
// instead: its counters are bumped once per BATCH, not per element, so the
// cost is already amortized below measurement noise, and a dark parallel
// runtime would defeat the point of serving-time observability.

/// Zero-cost default: every hook is an empty inline no-op.
struct NullEngineSink {
  static constexpr bool kEnabled = false;
  /// Latency recording implies clock reads around the hot path; sinks that
  /// want it set kLatency so the engine can skip the clock entirely
  /// otherwise.
  static constexpr bool kLatency = false;

  void OnTuple() {}
  void OnPartial() {}
  void OnAnswer(uint64_t /*n*/ = 1) {}
  void OnPaneClose(bool /*empty*/, uint64_t /*watermark*/) {}
  void OnLatency(uint64_t /*ns*/) {}
};

/// Counter-only sink: plain uint64 increments (the engines are
/// single-threaded by contract). No clocks, no histogram.
struct CountingEngineSink {
  static constexpr bool kEnabled = true;
  static constexpr bool kLatency = false;

  EngineCounters counters;

  void OnTuple() { ++counters.tuples_in; }
  void OnPartial() { ++counters.partials; }
  void OnAnswer(uint64_t n = 1) { counters.answers += n; }
  void OnPaneClose(bool empty, uint64_t watermark) {
    ++counters.panes_closed;
    if (empty) ++counters.panes_empty;
    counters.watermark = watermark;
  }
  void OnLatency(uint64_t /*ns*/) {}
};

/// Full sink: counters plus a log-bucketed per-push latency histogram.
/// The engine brackets each Push with clock reads only when kLatency is
/// set (if constexpr), so CountingEngineSink users still pay no clock.
struct HistogramEngineSink {
  static constexpr bool kEnabled = true;
  static constexpr bool kLatency = true;

  EngineCounters counters;
  LatencyHistogram latency;

  void OnTuple() { ++counters.tuples_in; }
  void OnPartial() { ++counters.partials; }
  void OnAnswer(uint64_t n = 1) { counters.answers += n; }
  void OnPaneClose(bool empty, uint64_t watermark) {
    ++counters.panes_closed;
    if (empty) ++counters.panes_empty;
    counters.watermark = watermark;
  }
  void OnLatency(uint64_t ns) { latency.Record(ns); }
};

}  // namespace slick::telemetry

