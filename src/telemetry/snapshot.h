#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/counters.h"
#include "telemetry/histogram.h"

namespace slick::telemetry {

/// Point-in-time view of one shard of the parallel runtime. All fields are
/// plain integers (the atomics were read once, with relaxed loads); the
/// conservation identity the fuzz tests check is
///
///   tuples_in == tuples_out + in_flight
///
/// exactly at a quiescent cut (epoch snapshot / after stop()), and within
/// the one in-transit batch otherwise.
struct ShardSnapshot {
  uint64_t tuples_in = 0;       ///< admitted into the shard ring
  uint64_t tuples_out = 0;      ///< slid into the shard aggregator
  uint64_t dropped = 0;         ///< shed by backpressure (never admitted)
  uint64_t batches = 0;         ///< drain batches, by any holder
  uint64_t coordinator_batches = 0;  ///< batches the query thread drained
  uint64_t producer_batches = 0;  ///< batches producer threads drained
  uint64_t idle_polls = 0;      ///< zero-length drain polls (ring empty)
  uint64_t in_flight = 0;       ///< published, not yet claimed by the worker
  uint64_t unreleased = 0;      ///< claimed replay log, pre-checkpoint
  uint64_t staged = 0;          ///< router-side staging, not yet admitted
  uint64_t ring_highwater = 0;  ///< max ring occupancy ever observed
  uint64_t combines = 0;        ///< ⊕ applications (when op-counting is on)
  uint64_t inverses = 0;        ///< ⊖ applications (when op-counting is on)
  // Fault-tolerance view (DESIGN.md §12, RUNBOOK.md). Zero when fault-free.
  uint64_t worker_restarts = 0;      ///< fail-stops recovered on this shard
  uint64_t checkpoints = 0;          ///< validated checkpoints committed
  uint64_t checkpoint_failures = 0;  ///< checkpoints discarded at write
  uint64_t replayed = 0;             ///< tuples re-slid after restores
  uint64_t stall_detections = 0;     ///< heartbeat-stall transitions
  uint64_t heartbeat_age_ns = 0;     ///< now - last worker loop iteration
  // Shm lease reaper view (DESIGN.md §17). Zero for in-process rings.
  uint64_t leases_reclaimed = 0;  ///< dead/expired producer leases freed
  uint64_t slots_tombstoned = 0;  ///< abandoned claim slots repaired
  uint64_t zombie_fences = 0;     ///< fences applied to still-live pids
};

/// Point-in-time view of one ingest-server connection (net::IngestServer).
/// Counters are cumulative since accept; closed connections are retained
/// so a post-mortem snapshot still accounts for every frame.
struct ConnectionSnapshot {
  uint64_t id = 0;                 ///< accept-order connection id
  bool open = false;               ///< still connected when sampled
  uint64_t frames = 0;             ///< well-formed frames decoded
  uint64_t frame_errors = 0;       ///< typed FrameErrors (connection fatal)
  uint64_t tuples_accepted = 0;    ///< handed to the sink
  uint64_t tuples_dropped = 0;     ///< shed by the backpressure policy
};

/// Point-in-time view of the TCP front door: totals plus per-connection
/// counters and the merged ingest-latency histogram (frame decode start to
/// sink handoff, nanoseconds).
struct IngestSnapshot {
  uint64_t connections_opened = 0;
  uint64_t connections_open = 0;
  uint64_t connections_closed_on_error = 0;  ///< protocol-error closes
  uint64_t frames = 0;
  uint64_t frame_errors = 0;
  uint64_t tuples_accepted = 0;
  uint64_t tuples_dropped = 0;
  uint64_t idle_closes = 0;  ///< half-open connections closed by idle_ns
  LatencyHistogram::Snapshot ingest_latency_ns;
  std::vector<ConnectionSnapshot> connections;
};

/// Point-in-time view of the whole parallel runtime: per-shard flow
/// counters plus the merged per-batch drain-latency histogram.
struct RuntimeSnapshot {
  std::vector<ShardSnapshot> shards;
  LatencyHistogram::Snapshot batch_latency_ns;  ///< merged across shards
  LatencyHistogram::Snapshot batch_sizes;       ///< drained elements/batch
  const char* backpressure = "block";  ///< engine ring-full policy name
  uint64_t checkpoint_interval = 0;    ///< tuples per checkpoint; 0 = off
  /// Front-door view, attached by the caller when an IngestServer fronts
  /// this runtime (rs.ingest = server.snapshot(); rs.has_ingest = true).
  IngestSnapshot ingest;
  bool has_ingest = false;

  uint64_t total_in() const { return Sum(&ShardSnapshot::tuples_in); }
  uint64_t total_out() const { return Sum(&ShardSnapshot::tuples_out); }
  uint64_t total_dropped() const { return Sum(&ShardSnapshot::dropped); }
  uint64_t total_in_flight() const { return Sum(&ShardSnapshot::in_flight); }
  uint64_t total_staged() const { return Sum(&ShardSnapshot::staged); }
  uint64_t total_restarts() const {
    return Sum(&ShardSnapshot::worker_restarts);
  }
  uint64_t total_replayed() const { return Sum(&ShardSnapshot::replayed); }

 private:
  uint64_t Sum(uint64_t ShardSnapshot::* field) const {
    uint64_t n = 0;
    for (const ShardSnapshot& s : shards) n += s.*field;
    return n;
  }
};

}  // namespace slick::telemetry

