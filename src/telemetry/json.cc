#include "telemetry/json.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace slick::telemetry {
namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void AppendU64(std::string& out, const char* key, uint64_t v, bool comma) {
  AppendF(out, "\"%s\":%" PRIu64 "%s", key, v, comma ? "," : "");
}

void AppendDouble(std::string& out, const char* key, double v, bool comma) {
  AppendF(out, "\"%s\":%.1f%s", key, v, comma ? "," : "");
}

}  // namespace

std::string ToJson(const LatencyHistogram::Snapshot& h) {
  std::string out = "{";
  AppendU64(out, "count", h.total(), true);
  AppendU64(out, "sum", h.sum, true);
  AppendDouble(out, "min", h.MinEstimate(), true);
  AppendDouble(out, "p25", h.Quantile(0.25), true);
  AppendDouble(out, "p50", h.Quantile(0.50), true);
  AppendDouble(out, "p75", h.Quantile(0.75), true);
  AppendDouble(out, "p99", h.Quantile(0.99), true);
  AppendDouble(out, "p999", h.Quantile(0.999), true);
  AppendDouble(out, "max", h.MaxEstimate(), true);
  AppendDouble(out, "avg", h.Mean(), true);
  out += "\"buckets\":{";
  bool first = true;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    AppendF(out, "\"%" PRIu64 "\":%" PRIu64, LatencyHistogram::BucketLower(i),
            h.counts[i]);
  }
  out += "}}";
  return out;
}

std::string ToJson(const ShardSnapshot& s) {
  std::string out = "{";
  AppendU64(out, "tuples_in", s.tuples_in, true);
  AppendU64(out, "tuples_out", s.tuples_out, true);
  AppendU64(out, "dropped", s.dropped, true);
  AppendU64(out, "batches", s.batches, true);
  AppendU64(out, "coordinator_batches", s.coordinator_batches, true);
  AppendU64(out, "producer_batches", s.producer_batches, true);
  AppendU64(out, "idle_polls", s.idle_polls, true);
  AppendU64(out, "in_flight", s.in_flight, true);
  AppendU64(out, "unreleased", s.unreleased, true);
  AppendU64(out, "staged", s.staged, true);
  AppendU64(out, "ring_highwater", s.ring_highwater, true);
  AppendU64(out, "combines", s.combines, true);
  AppendU64(out, "inverses", s.inverses, true);
  AppendU64(out, "worker_restarts", s.worker_restarts, true);
  AppendU64(out, "checkpoints", s.checkpoints, true);
  AppendU64(out, "checkpoint_failures", s.checkpoint_failures, true);
  AppendU64(out, "replayed", s.replayed, true);
  AppendU64(out, "stall_detections", s.stall_detections, true);
  AppendU64(out, "heartbeat_age_ns", s.heartbeat_age_ns, true);
  AppendU64(out, "leases_reclaimed", s.leases_reclaimed, true);
  AppendU64(out, "slots_tombstoned", s.slots_tombstoned, true);
  AppendU64(out, "zombie_fences", s.zombie_fences, false);
  out += "}";
  return out;
}

std::string ToJson(const ConnectionSnapshot& c) {
  std::string out = "{";
  AppendU64(out, "id", c.id, true);
  AppendF(out, "\"open\":%s,", c.open ? "true" : "false");
  AppendU64(out, "frames", c.frames, true);
  AppendU64(out, "frame_errors", c.frame_errors, true);
  AppendU64(out, "tuples_accepted", c.tuples_accepted, true);
  AppendU64(out, "tuples_dropped", c.tuples_dropped, false);
  out += "}";
  return out;
}

std::string ToJson(const IngestSnapshot& s) {
  std::string out = "{";
  AppendU64(out, "connections_opened", s.connections_opened, true);
  AppendU64(out, "connections_open", s.connections_open, true);
  AppendU64(out, "connections_closed_on_error", s.connections_closed_on_error,
            true);
  AppendU64(out, "frames", s.frames, true);
  AppendU64(out, "frame_errors", s.frame_errors, true);
  AppendU64(out, "tuples_accepted", s.tuples_accepted, true);
  AppendU64(out, "tuples_dropped", s.tuples_dropped, true);
  AppendU64(out, "idle_closes", s.idle_closes, true);
  out += "\"connections\":[";
  for (std::size_t i = 0; i < s.connections.size(); ++i) {
    if (i != 0) out += ",";
    out += ToJson(s.connections[i]);
  }
  out += "],\"ingest_latency_ns\":";
  out += ToJson(s.ingest_latency_ns);
  out += "}";
  return out;
}

std::string ToJson(const RuntimeSnapshot& r) {
  std::string out = "{";
  AppendU64(out, "total_in", r.total_in(), true);
  AppendU64(out, "total_out", r.total_out(), true);
  AppendU64(out, "total_dropped", r.total_dropped(), true);
  AppendU64(out, "total_in_flight", r.total_in_flight(), true);
  AppendU64(out, "total_staged", r.total_staged(), true);
  AppendU64(out, "total_restarts", r.total_restarts(), true);
  AppendU64(out, "total_replayed", r.total_replayed(), true);
  AppendF(out, "\"backpressure\":\"%s\",", r.backpressure);
  AppendU64(out, "checkpoint_interval", r.checkpoint_interval, true);
  out += "\"shards\":[";
  for (std::size_t i = 0; i < r.shards.size(); ++i) {
    if (i != 0) out += ",";
    out += ToJson(r.shards[i]);
  }
  out += "],\"batch_latency_ns\":";
  out += ToJson(r.batch_latency_ns);
  out += ",\"batch_sizes\":";
  out += ToJson(r.batch_sizes);
  if (r.has_ingest) {
    out += ",\"ingest\":";
    out += ToJson(r.ingest);
  }
  out += "}";
  return out;
}

std::string ToJson(const EngineCounters& c) {
  std::string out = "{";
  AppendU64(out, "tuples_in", c.tuples_in, true);
  AppendU64(out, "partials", c.partials, true);
  AppendU64(out, "answers", c.answers, false);
  out += "}";
  return out;
}

}  // namespace slick::telemetry
