// Live telemetry demo/smoke tool: drives the parallel sharded runtime over
// the synthetic energy stream and dumps the telemetry layer's JSON
// snapshots while the system is serving — queue depth, in-flight backlog,
// backpressure drops, ring high-water, per-shard ⊕ counts (via
// ops::ThreadCountingOp) and the merged per-batch drain-latency histogram.
//
// Output is one JSON object per line (JSONL): `{"epoch":...,"answer":...,
// "runtime":{...}}` per reporting interval, then a final quiescent
// snapshot after stop() where the conservation identity
// tuples_in == tuples_out and in_flight == 0 is asserted.
//
// Flags: --window=W (default 8192)   --shards=N (default 4)
//        --tuples=T (default 500000) --ring=R (default 1024)
//        --batch=B (default 64)      --epochs=E snapshots (default 8)
//        --drop (use kDropNewest backpressure)  --seed=S
//        --policy=P (block | drop-newest | block-with-deadline |
//                    shed-oldest | error; overrides --drop)
//        --checkpoint-interval=C (default 0; C > 0 runs supervised with
//                                 periodic worker checkpoints)
//        --deadline-us=D (block-with-deadline budget, default 5000)
//        --shm=NAME (inspect a live shm ring segment instead of running
//                    the demo: prints cursors, reaper telemetry and the
//                    full lease table as one JSON object — read-only, so
//                    safe against a serving ring; see RUNBOOK.md)
//
// Supervised runs additionally assert the fault-tolerant conservation
// identity: admitted == processed + in_flight at every epoch cut, and the
// final snapshot reports worker_restarts / checkpoints / replayed so the
// JSONL stream doubles as a smoke test for the recovery telemetry.
//
// Every shard object carries `coordinator_batches`, the drain batches the
// query thread ran itself (the caller-runs epoch barrier, DESIGN.md §12.6),
// and `producer_batches`, those a producer handle ran on its own thread
// (producer-runs admission), out of `batches`; the final line adds the
// run's totals of all three, so an operator sees how much drain work ran
// off the workers. Supervised runs never drain on the query thread, and
// the tool asserts it; this tool's router-fed engine has no producer
// handles, so its producer total is 0.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "ops/arith.h"
#include "ops/counting.h"
#include "runtime/parallel_engine.h"
#include "runtime/shm/shm_ring.h"
#include "telemetry/json.h"
#include "util/check.h"

namespace slick {
namespace {

using Op = ops::ThreadCountingOp<ops::Sum>;
using Agg = core::SlickDequeInv<Op>;
using Engine = runtime::ParallelShardedEngine<Agg>;

runtime::Backpressure ParsePolicy(const std::string& name) {
  for (const auto policy :
       {runtime::Backpressure::kBlock, runtime::Backpressure::kDropNewest,
        runtime::Backpressure::kBlockWithDeadline,
        runtime::Backpressure::kShedOldest, runtime::Backpressure::kError}) {
    if (name == runtime::BackpressureName(policy)) return policy;
  }
  SLICK_CHECK(false, "unknown --policy (want block | drop-newest | "
                     "block-with-deadline | shed-oldest | error)");
  return runtime::Backpressure::kBlock;
}

const char* SpanStateName(uint64_t s) {
  switch (static_cast<runtime::LeaseSpan>(s)) {
    case runtime::LeaseSpan::kIdle: return "idle";
    case runtime::LeaseSpan::kIntent: return "intent";
    case runtime::LeaseSpan::kOwned: return "owned";
  }
  return "corrupt";
}

/// --shm=NAME: read-only triage dump of a live (or abandoned) shm ring
/// segment — the on-call path for a leases_reclaimed / zombie_fences
/// spike or a suspected stuck lease (RUNBOOK.md). PROT_READ mapping:
/// cannot perturb the ring it inspects.
int DumpShmSegment(const std::string& name) {
  const runtime::ShmSegmentInfo info = runtime::InspectShmSegment(name);
  if (!info.ok) {
    std::fprintf(stderr, "telemetry_dump: --shm=%s: %s\n", name.c_str(),
                 info.error.c_str());
    return 1;
  }
  std::printf("{\"segment\":\"%s\",\"capacity\":%" PRIu64
              ",\"slot_size\":%" PRIu64 ",\"closed\":%s,"
              "\"head\":%" PRIu64 ",\"tail\":%" PRIu64 ",\"claim\":%" PRIu64
              ",\"unconsumed\":%" PRIu64 ",\"highwater\":%" PRIu64
              ",\"leases_reclaimed\":%" PRIu64 ",\"slots_tombstoned\":%" PRIu64
              ",\"zombie_fences\":%" PRIu64 ",\"leases\":[",
              name.c_str(), info.capacity, info.slot_size,
              info.closed ? "true" : "false", info.head, info.tail,
              info.claim, info.tail - info.head, info.highwater,
              info.leases_reclaimed, info.slots_tombstoned,
              info.zombie_fences);
  bool first = true;
  for (const runtime::ShmLeaseInfo& l : info.leases) {
    if (l.pid == 0 && l.span_state ==
                          static_cast<uint64_t>(runtime::LeaseSpan::kIdle)) {
      continue;  // free row: noise in a triage dump
    }
    std::printf("%s{\"row\":%zu,\"pid\":%" PRIu64 ",\"epoch\":%" PRIu64
                ",\"heartbeat_ns\":%" PRIu64 ",\"span\":[%" PRIu64
                ",%" PRIu64 "],\"span_state\":\"%s\",\"fenced_at_ns\":%" PRIu64
                "}",
                first ? "" : ",", l.row, l.pid, l.epoch, l.heartbeat_ns,
                l.span_begin, l.span_end, SpanStateName(l.span_state),
                l.fenced_at_ns);
    first = false;
  }
  std::printf("]}\n");
  return 0;
}

int Run(const bench::Flags& flags) {
  const std::string shm = flags.GetString("shm", "");
  if (!shm.empty()) return DumpShmSegment(shm);
  const std::size_t window = flags.GetU64("window", 8192);
  const std::size_t shards = flags.GetU64("shards", 4);
  const uint64_t tuples = flags.GetU64("tuples", 500000);
  const uint64_t epochs = flags.GetU64("epochs", 8);
  Engine::Options opt;
  opt.ring_capacity = flags.GetU64("ring", 1024);
  opt.batch = flags.GetU64("batch", 64);
  opt.backpressure = flags.GetU64("drop", 0) != 0
                         ? runtime::Backpressure::kDropNewest
                         : runtime::Backpressure::kBlock;
  const std::string policy = flags.GetString("policy", "");
  if (!policy.empty()) opt.backpressure = ParsePolicy(policy);
  opt.checkpoint_interval = flags.GetU64("checkpoint-interval", 0);
  opt.deadline_ns = flags.GetU64("deadline-us", 5000) * 1000;
  const bool supervised = opt.checkpoint_interval > 0;

  SLICK_CHECK(window % shards == 0, "window must be a multiple of shards");
  Engine engine(window, shards, opt);

  const std::vector<double> data =
      bench::BenchSeries(flags, 1 << 18, flags.GetU64("seed", 42));
  std::size_t di = 0;
  const uint64_t per_epoch = tuples / (epochs == 0 ? 1 : epochs);
  uint64_t fed = 0;
  for (uint64_t e = 0; e < epochs; ++e) {
    for (uint64_t i = 0; i < per_epoch; ++i) {
      engine.push(Op::lift(data[di]));
      di = di + 1 == data.size() ? 0 : di + 1;
      ++fed;
    }
    engine.flush();
    double answer = 0.0;
    const bool quiescent = engine.ready();
    if (quiescent) answer = engine.query();  // quiescent epoch cut
    const telemetry::RuntimeSnapshot snap = engine.snapshot();
    if (quiescent) {
      // The recovery-aware conservation identity must hold exactly at a
      // quiescent cut, supervised or not — replayed tuples never inflate
      // tuples_out, drops never vanish.
      SLICK_CHECK(snap.total_in() ==
                      snap.total_out() + snap.total_in_flight(),
                  "conservation violated at epoch cut");
    }
    std::printf("{\"epoch\":%" PRIu64 ",\"fed\":%" PRIu64
                ",\"answer\":%.3f,\"runtime\":%s}\n",
                e, fed, answer, telemetry::ToJson(snap).c_str());
  }

  engine.stop();
  const telemetry::RuntimeSnapshot final_snap = engine.snapshot();
  // Quiescent conservation: everything admitted was processed, nothing is
  // left in flight, and the histogram saw every drain batch.
  SLICK_CHECK(final_snap.total_in() == final_snap.total_out(),
              "telemetry conservation violated after stop()");
  SLICK_CHECK(final_snap.total_in_flight() == 0,
              "ring not drained after stop()");
  SLICK_CHECK(final_snap.total_in() + final_snap.total_dropped() +
                      final_snap.total_staged() ==
                  fed,
              "admitted + dropped + staged != fed");
  uint64_t batches = 0, coordinator_batches = 0, producer_batches = 0;
  for (const auto& s : final_snap.shards) {
    SLICK_CHECK(s.coordinator_batches + s.producer_batches <= s.batches,
                "callers drained more batches than the shard did");
    batches += s.batches;
    coordinator_batches += s.coordinator_batches;
    producer_batches += s.producer_batches;
  }
  SLICK_CHECK(!supervised || coordinator_batches == 0,
              "supervised run drained on the query thread");
  if (supervised) {
    // Each shard saw tuples/shards >> interval tuples, so every worker
    // must have committed at least one checkpoint; with no injected
    // faults nothing may have restarted or replayed.
    uint64_t checkpoints = 0;
    for (const auto& s : final_snap.shards) checkpoints += s.checkpoints;
    SLICK_CHECK(checkpoints > 0, "supervised run committed no checkpoints");
    SLICK_CHECK(final_snap.total_restarts() == 0 &&
                    final_snap.total_replayed() == 0,
                "fault-free run reported restarts or replay");
  }
  std::printf("{\"final\":%s,\"batches\":%" PRIu64
              ",\"coordinator_batches\":%" PRIu64
              ",\"producer_batches\":%" PRIu64 "}\n",
              telemetry::ToJson(final_snap).c_str(), batches,
              coordinator_batches, producer_batches);
  return 0;
}

}  // namespace
}  // namespace slick

int main(int argc, char** argv) {
  return slick::Run(slick::bench::Flags(argc, argv));
}
