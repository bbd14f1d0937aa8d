// pipe-inproc, ingest-tcp and ingest-shm: runtime::ParallelShardedEngine
// fed on a 1 ms open-loop schedule. Phase A (the first two thirds of the
// run) offers a fixed rate and measures latency; phase B (the last third)
// offers as much as the path takes and measures the completion rate.

#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/slick_deque_inv.h"
#include "net/frame.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "runtime/shm/shm_ring.h"
#include "telemetry/snapshot.h"
#include "trace.h"
#include "util/check.h"
#include "workloads.h"

namespace slickbench {
namespace {

using Agg = slick::core::SlickDequeInv<slick::ops::Sum>;
using PipeEngine = slick::runtime::ParallelShardedEngine<Agg>;
using TcpEngine =
    slick::runtime::ParallelShardedEngine<Agg, slick::runtime::MpmcRing>;
using ShmEngine =
    slick::runtime::ParallelShardedEngine<Agg, slick::runtime::ShmRing>;

constexpr uint64_t kWindow = 65536;  // global window; also the prefill
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kRing = 16384;
constexpr uint64_t kTickNs = 1'000'000;
// Latency percentiles are medians over 1 s segments of phase-A ticks.
constexpr std::size_t kTicksPerSegment = 1000;
constexpr std::size_t kFrame = 256;  // tuples per wire frame / push chunk
constexpr int kSetupReps = 11;  // set-up is a few ms here: take a median
constexpr uint64_t kPollNs = 20'000;  // coordinator poll period
// In phase B a forked generator keeps at most this many tuples in flight
// (sent, not yet processed): saturation with a bounded backlog, half the
// rings' capacity. Unbounded, the TCP event loop blocks in the sink, the
// socket backs up, and the rate collapses 20x for seconds at a time on a
// VM, so it would swing that much between runs.
constexpr uint64_t kMaxInFlight = 16384;
constexpr uint64_t kQuiesceTimeoutNs = 30'000'000'000ull;

template <typename Engine>
typename Engine::Options EngineOptions() {
  typename Engine::Options o;
  o.ring_capacity = kRing;
  o.batch = kBatch;
  o.backpressure = slick::runtime::Backpressure::kBlock;
  return o;
}

/// Constructs the engine (spawning its workers) and slides the first
/// full window through it; returns only once every shard is warm.
template <typename Engine>
void SetUpEngine(std::optional<Engine>& engine, const Reference& ref) {
  engine.emplace(kWindow, kShards, EngineOptions<Engine>());
  for (uint64_t i = 0; i < kWindow; ++i) engine->push(ref.At(i));
  (void)engine->query();
}

/// The open-loop schedule: tick k is due at t0 + k ms. Ticks [0, a) are
/// phase A, [a, a + b) phase B.
struct Schedule {
  uint64_t t0 = 0;
  uint64_t a_ticks = 0;
  uint64_t b_ticks = 0;
  uint64_t per_tick = 0;  // phase-A tuples per tick (even: see CheckFinal)
  uint64_t Due(uint64_t k) const { return t0 + k * kTickNs; }
  uint64_t b_start() const { return Due(a_ticks); }
  uint64_t b_end() const { return Due(a_ticks + b_ticks); }
  /// Phase-B tick that `now` falls in.
  uint64_t TickAt(uint64_t now) const {
    return a_ticks + (now - b_start()) / kTickNs;
  }
};

Schedule MakeSchedule(const Options& opt, uint64_t rate_per_s) {
  Schedule s;
  const auto ticks = std::max<uint64_t>(
      3, static_cast<uint64_t>(std::llround(opt.pass_seconds() * 1e9 / kTickNs)));
  s.a_ticks = ticks * 2 / 3;
  s.b_ticks = ticks - s.a_ticks;
  s.per_tick = rate_per_s * kTickNs / 1'000'000'000ull;
  s.t0 = NowNs() + 5 * kTickNs;  // lead time for a forked generator to start
  return s;
}

/// Worker-side flow counters summed over shards, from the public snapshot.
struct Flow {
  double drain_ns = 0.0;
  double out = 0.0;
  double batches = 0.0;
  double idle_polls = 0.0;
  double size_sum = 0.0;
  double size_count = 0.0;
};

template <typename Engine>
Flow ReadFlow(const Engine& engine) {
  const slick::telemetry::RuntimeSnapshot s = engine.snapshot();
  Flow f;
  f.drain_ns = static_cast<double>(s.batch_latency_ns.sum);
  f.out = static_cast<double>(s.total_out());
  for (const auto& shard : s.shards) {
    f.batches += static_cast<double>(shard.batches);
    f.idle_polls += static_cast<double>(shard.idle_polls);
  }
  f.size_sum = static_cast<double>(s.batch_sizes.sum);
  f.size_count = static_cast<double>(s.batch_sizes.total());
  return f;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runtime-layer metrics: drain cost and worker busy share over phase B,
/// batching and idle polling over phase A.
void SetRuntimeMetrics(const Flow& a0, const Flow& a1, const Flow& b1,
                       double b_seconds, double highwater_frac,
                       Results& out) {
  const double drain = b1.drain_ns - a1.drain_ns;
  out.Set("runtime.drain_ns_per_tuple", Ratio(drain, b1.out - a1.out), "ns/tuple");
  out.Set("runtime.worker_busy_frac",
          Ratio(drain, static_cast<double>(kShards) * b_seconds * 1e9), "frac");
  out.Set("runtime.batch_size_mean",
          Ratio(a1.size_sum - a0.size_sum, a1.size_count - a0.size_count), "count");
  out.Set("runtime.idle_polls_per_batch",
          Ratio(a1.idle_polls - a0.idle_polls, a1.batches - a0.batches), "count");
  out.Set("runtime.ring_highwater_frac", highwater_frac, "frac");
}

template <typename Engine>
double RingOccupancyFrac(Engine& engine) {
  std::size_t most = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    most = std::max(most, engine.shard_ring(i).unconsumed());
  }
  return static_cast<double>(most) /
         static_cast<double>(engine.shard_ring(0).capacity());
}

/// Checks the quiesced engine's window answer against prefix sums. Round
/// robin over two shards covers exactly the last kWindow tuples whenever
/// the stream length is even, which every schedule guarantees.
template <typename Engine>
void CheckAnswer(Engine& engine, const Reference& ref, uint64_t n,
                 bool perturb, uint64_t tick, Results& out) {
  double got = engine.query();
  if (perturb) got += 1.0;  // --inject-fault
  out.Attempt(1);
  if (n % kShards != 0 ||
      static_cast<uint64_t>(got) != ref.WindowSum(n, kWindow)) {
    out.Fail(1, "window answer after " + std::to_string(n) + " tuples (tick " +
                    std::to_string(tick) + ") differs from the prefix-sum reference");
  }
}

/// Self times of bench.tick and the stages under it over phase-B ticks,
/// per tuple, against the generator's phase-B wall time per tuple net of
/// what recording those spans cost.
void SetReconcile(const std::vector<trace::Span>& spans,
                  const trace::Reduced& reduced, const trace::Overhead& overhead,
                  const Schedule& s, std::initializer_list<uint16_t> path,
                  double b_wall_ns, double b_tuples, Results& out) {
  const uint64_t lo = s.a_ticks;
  const trace::Stage tick = trace::Summarize(spans, reduced, trace::kBenchTick, lo);
  double stages = tick.self_ns;
  double recorded = static_cast<double>(tick.spans);
  for (uint16_t name : path) {
    const trace::Stage st = trace::Summarize(spans, reduced, name, lo);
    stages += st.self_ns;
    recorded += static_cast<double>(st.spans);
  }
  const double wall = (b_wall_ns - recorded * overhead.pair_ns) / b_tuples;
  stages /= b_tuples;
  out.Set("bench.traced_wall_ns_per_tuple", wall, "ns/tuple");
  out.Set("bench.stage_sum_ns_per_tuple", stages, "ns/tuple");
  out.Set("bench.reconcile_error_frac", std::fabs(stages - wall) / wall, "frac");
}

/// The end-to-end metrics of an untraced runtime pass.
void SetEndToEnd(double b_tps, const std::vector<uint64_t>& latency,
                 double cpu_ns_per_tuple, const std::vector<double>& setup,
                 Results& out) {
  out.Set("throughput_tps", b_tps, "tuples/s");
  out.Set("latency_p50_ns", SegmentedQuantile(latency, kTicksPerSegment, 0.50), "ns");
  out.Set("bench.latency_p99_ns", SegmentedQuantile(latency, kTicksPerSegment, 0.99),
          "ns");
  out.Set("cpu_ns_per_tuple", cpu_ns_per_tuple, "ns/tuple");
  out.Set("setup_s", Median(setup), "s");
  out.Set("rss_peak_mb", PeakRssMb(), "MiB");
  out.Set("bench.latency_samples", static_cast<double>(latency.size()), "count");
}

void WriteTrace(const Options& opt, const std::vector<trace::Span>& spans,
                Results& out) {
  if (!opt.trace_out.empty() && !trace::WriteChrome(opt.trace_out, spans)) {
    out.Fail(1, "cannot write trace file " + opt.trace_out);
  }
}

// ---------------------------------------------------------------------------
// pipe-inproc: the generator thread is the engine's router thread. Each
// tick pushes its tuples and then reads the window answer with query().

/// Runs one pass; returns its phase-B rate.
double PipePass(const Options& opt, const Reference& ref, bool traced,
                    Results& out) {
  std::optional<PipeEngine> engine;
  std::optional<Placement> placement;
  std::vector<double> setup;
  for (int rep = 0; rep < (traced ? 1 : kSetupReps); ++rep) {
    engine.reset();
    placement.emplace();
    const uint64_t t0 = NowNs();
    SetUpEngine(engine, ref);
    setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  // The generator is the engine's router thread: it shares the system CPU
  // with the workers.
  placement->PinNewThreads();
  placement->PinSelfToSystem();
  const trace::Overhead overhead = traced ? trace::Calibrate() : trace::Overhead{};
  trace::Reset();
  trace::Enable(traced);

  const Schedule s = MakeSchedule(opt, 1'000'000);
  uint64_t n = kWindow;
  std::vector<uint64_t> latency;
  Latencies query_ns, late;
  RateWindows rate;
  double highwater = 0.0;
  const auto push_n = [&](uint64_t count) {
    trace::Scope span(trace::kRuntimePush);
    for (uint64_t j = 0; j < count; ++j) engine->push(ref.At(n++));
  };
  const auto query = [&](uint64_t tick) {
    trace::Scope span(trace::kRuntimeQuery);
    const uint64_t q0 = NowNs();
    CheckAnswer(*engine, ref, n, opt.inject_fault && !traced && tick == 10,
                tick, out);
    const uint64_t q1 = NowNs();
    query_ns.Add(q1 - q0);
    return q1;
  };

  const Flow a0 = ReadFlow(*engine);
  const Usage u0 = ProcessUsage();
  for (uint64_t k = 0; k < s.a_ticks; ++k) {
    SleepUntil(s.Due(k));
    const uint64_t start = NowNs();
    late.Add(start - s.Due(k));
    trace::Scope tick(trace::kBenchTick, k);
    push_n(s.per_tick);
    highwater = std::max(highwater, RingOccupancyFrac(*engine));
    latency.push_back(query(k) - start);
  }
  const Usage ua = ProcessUsage();
  const Flow a1 = ReadFlow(*engine);
  const double a_tuples = static_cast<double>(n - kWindow);
  const double query_p50 = query_ns.Quantile(0.50);
  const double query_p99 = query_ns.Quantile(0.99);

  // Phase B: push back to back, still reading the answer every tick.
  SleepUntil(s.b_start());
  const uint64_t nb = n;
  const uint64_t b0 = NowNs();
  rate.Mark(b0, 0);
  for (uint64_t now = b0; now < s.b_end(); now = NowNs()) {
    const uint64_t k = s.TickAt(now);
    const uint64_t tick_end = std::min(s.Due(k + 1), s.b_end());
    trace::Scope tick(trace::kBenchTick, k);
    do {
      push_n(kFrame);
    } while (NowNs() < tick_end);
    rate.Mark(query(k), n - nb);
  }
  const uint64_t b1 = NowNs();
  const Flow fb = ReadFlow(*engine);
  trace::Enable(false);
  const double b_tuples = static_cast<double>(n - nb);
  const double b_tps = rate.MedianRate(kRateWindowNs);

  const PipeEngine::Stats st = engine->stats();
  out.Attempt(n - kWindow);
  if (st.processed != n || st.dropped != 0) {
    out.Fail(n - std::min<uint64_t>(n, st.processed) + st.dropped,
             "tuples pushed but not processed");
  }
  const double state_bytes = static_cast<double>(
      engine->shard(0).memory_bytes() + engine->shard(1).memory_bytes());
  engine.reset();
  placement->ReleaseSelf();

  if (!traced) {
    SetEndToEnd(b_tps, latency, (ua - u0).cpu_s * 1e9 / a_tuples, setup, out);
  }
  out.Set("runtime.query_ns_p50", query_p50, "ns");
  out.Set("runtime.query_ns_p99", query_p99, "ns");
  out.Set("core.state_bytes", state_bytes, "bytes");
  out.Set("sys.ctx_switches_per_ktuple", (ua - u0).csw * 1e3 / a_tuples,
          "count/ktuple");
  out.Set("bench.gen_late_p99_ns", late.Quantile(0.99), "ns");
  SetRuntimeMetrics(a0, a1, fb, static_cast<double>(b1 - b0) * 1e-9, highwater, out);
  if (traced) {
    const std::vector<trace::Span> spans = trace::Collect();
    const trace::Reduced reduced = trace::Reduce(spans, overhead);
    out.Set("runtime.push_ns_per_tuple",
            trace::Summarize(spans, reduced, trace::kRuntimePush, s.a_ticks).total_ns /
                b_tuples,
            "ns/tuple");
    SetReconcile(spans, reduced, overhead, s,
                 {trace::kRuntimePush, trace::kRuntimeQuery},
                 static_cast<double>(b1 - b0), b_tuples, out);
    WriteTrace(opt, spans, out);
  }
  return b_tps;
}

// ---------------------------------------------------------------------------
// ingest-tcp / ingest-shm: a forked generator process feeds the engine
// through a front door; the parent's main thread only coordinates,
// polling the public stats().processed to time each tick's completion.

/// What the forked generator reports back over its pipe, followed by its
/// serialized spans.
struct ChildReport {
  uint64_t sent = 0;      // tuples that entered the front door
  uint64_t sent_b = 0;    // ... during phase B
  uint64_t b_wall_ns = 0;  // generator's phase-B wall time
  uint64_t errors = 0;    // failed sends, fenced or closed rings
  uint64_t calls = 0;     // SendBatch / TryPush calls
  uint64_t full = 0;      // TryPush calls that found the ring full
  double late_p99_ns = 0.0;
  uint64_t span_bytes = 0;
};

[[noreturn]] void FinishChild(int fd, ChildReport rep) {
  const std::string spans = trace::Serialize();
  rep.span_bytes = spans.size();
  std::string msg(reinterpret_cast<const char*>(&rep), sizeof(rep));
  msg += spans;
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t w = ::write(fd, msg.data() + off, msg.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) _exit(3);
    off += static_cast<std::size_t>(w);
  }
  _exit(0);
}

bool ReadAll(int fd, std::string* out) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return false;
    if (r == 0) return true;
    out->append(buf, static_cast<std::size_t>(r));
  }
}

/// Words shared between the coordinator and the forked generator through
/// an anonymous shared mapping: the coordinator publishes the processed
/// count; the generator publishes when it began each phase-A tick.
class SharedProgress {
 public:
  explicit SharedProgress(uint64_t ticks)
      : bytes_((ticks + 1) * sizeof(std::atomic<uint64_t>)),
        map_(::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0)) {
    SLICK_CHECK(map_ != MAP_FAILED, "cannot map the shared progress words");
    words_ = static_cast<std::atomic<uint64_t>*>(map_);
    for (uint64_t i = 0; i <= ticks; ++i) new (&words_[i]) std::atomic<uint64_t>(0);
  }
  ~SharedProgress() { ::munmap(map_, bytes_); }
  SharedProgress(const SharedProgress&) = delete;
  SharedProgress& operator=(const SharedProgress&) = delete;

  std::atomic<uint64_t>& processed() { return words_[0]; }
  std::atomic<uint64_t>& tick_start(uint64_t k) { return words_[k + 1]; }

 private:
  std::size_t bytes_;
  void* map_;
  std::atomic<uint64_t>* words_ = nullptr;
};

/// Drives the generator's schedule: phase-A ticks with `per_tick` tuples
/// each, then chunks of kFrame, as fast as the in-flight bound allows,
/// until phase B ends. `emit` takes (tick, first stream position, count)
/// and `tick_end` flushes.
template <typename Emit, typename TickEnd>
void GenerateSchedule(const Schedule& s, SharedProgress& shared,
                      ChildReport& rep, Emit&& emit, TickEnd&& tick_end) {
  TightenTimerSlack();
  Latencies late;
  uint64_t pos = kWindow;
  for (uint64_t k = 0; k < s.a_ticks; ++k) {
    SleepUntil(s.Due(k));
    const uint64_t start = NowNs();
    late.Add(start - s.Due(k));
    // release: the coordinator reads it once the tick's tuples land.
    shared.tick_start(k).store(start, std::memory_order_release);
    trace::Scope tick(trace::kBenchTick, k);
    emit(k, pos, s.per_tick);
    pos += s.per_tick;
    tick_end();
  }
  SleepUntil(s.b_start());
  const uint64_t pos_b = pos;
  const uint64_t b0 = NowNs();
  for (uint64_t now = b0; now < s.b_end(); now = NowNs()) {
    const uint64_t k = s.TickAt(now);
    const uint64_t end = std::min(s.Due(k + 1), s.b_end());
    trace::Scope tick(trace::kBenchTick, k);
    while (NowNs() < end) {
      // acquire: pairs with the coordinator's release store.
      if (pos - kWindow >
          shared.processed().load(std::memory_order_acquire) + kMaxInFlight -
              kFrame) {
        std::this_thread::yield();
        continue;
      }
      emit(k, pos, kFrame);
      pos += kFrame;
    }
    tick_end();
  }
  rep.b_wall_ns = NowNs() - b0;
  rep.sent_b = pos - pos_b;
  rep.late_p99_ns = late.Quantile(0.99);
}

struct TcpDoor {
  using Engine = TcpEngine;
  static constexpr uint64_t kRate = 250'000;
  static constexpr uint16_t kGeneratorStage = trace::kNetSend;

  std::optional<slick::net::IngestServer> server;

  bool Start(Engine& engine) {
    slick::net::IngestServer::Options o;
    o.port = 0;
    o.threads = 1;
    o.backpressure = slick::runtime::Backpressure::kBlock;
    server.emplace(o, [&engine](std::size_t) {
      auto prod = std::make_shared<Engine::Producer>(engine.MakeProducer());
      // The sink admits the whole frame into the shard rings before it
      // returns, so a tick's tuples never wait in producer staging.
      return [prod](const slick::net::WireTuple* t, std::size_t n) {
        trace::Scope sink(trace::kNetSink, t[0].ts);
        trace::Scope push(trace::kRuntimeProducerPush);
        for (std::size_t i = 0; i < n; ++i) prod->push(t[i].v);
        prod->flush();
        return n;
      };
    });
    return server->Start();
  }
  void Stop() { server.reset(); }
  void Poll(Engine&) {}

  [[noreturn]] void Child(Engine&, const Reference& ref, const Schedule& s,
                          SharedProgress& shared, int fd) {
    ChildReport rep;
    slick::net::IngestClient client;
    if (!client.Connect("127.0.0.1", server->port())) {
      rep.errors = 1;
      FinishChild(fd, rep);
    }
    std::vector<slick::net::WireTuple> frame;
    frame.reserve(kFrame);
    const auto send = [&] {
      trace::Scope span(trace::kNetSend);
      ++rep.calls;
      if (client.SendBatch(frame.data(), frame.size())) {
        rep.sent += frame.size();
      } else {
        ++rep.errors;
      }
      frame.clear();
    };
    GenerateSchedule(
        s, shared, rep,
        [&](uint64_t tick, uint64_t pos, uint64_t count) {
          for (uint64_t i = 0; i < count; ++i) {
            frame.push_back({tick, ref.At(pos + i)});
            if (frame.size() == kFrame) send();
          }
        },
        [&] {
          if (!frame.empty()) send();
        });
    client.CloseSend();
    client.Close();
    FinishChild(fd, rep);
  }

  void Report(Engine&, const ChildReport& rep, bool traced,
              const std::vector<trace::Span>& spans,
              const trace::Reduced& reduced, const Schedule& s, Results& out) {
    const slick::telemetry::IngestSnapshot snap = server->snapshot();
    out.Set("net.decode_to_sink_ns_p50", snap.ingest_latency_ns.Quantile(0.50), "ns");
    out.Set("net.decode_to_sink_ns_p99", snap.ingest_latency_ns.Quantile(0.99), "ns");
    out.Set("net.frame_errors", static_cast<double>(snap.frame_errors), "count");
    out.Set("net.tuples_dropped", static_cast<double>(snap.tuples_dropped), "count");
    out.Fail(snap.frame_errors, "front door reported frame errors");
    out.Fail(snap.tuples_dropped, "front door dropped tuples");
    out.Fail(rep.errors, "client sends failed");
    if (!traced) return;
    const double b = static_cast<double>(rep.sent_b);
    const auto per_tuple = [&](uint16_t name) {
      return trace::Summarize(spans, reduced, name, s.a_ticks).total_ns / b;
    };
    out.Set("net.send_ns_per_tuple", per_tuple(trace::kNetSend), "ns/tuple");
    out.Set("net.sink_ns_per_tuple", per_tuple(trace::kNetSink), "ns/tuple");
    out.Set("runtime.producer_push_ns_per_tuple",
            per_tuple(trace::kRuntimeProducerPush), "ns/tuple");
  }
};

struct ShmDoor {
  using Engine = ShmEngine;
  using Lease = slick::runtime::ShmRing<double>::LeaseProducer;
  static constexpr uint64_t kRate = 2'000'000;
  static constexpr uint16_t kGeneratorStage = trace::kShmTrypush;

  bool Start(Engine&) { return true; }
  void Stop() {}
  /// The coordinator is the engine's supervisor: it runs the lease reaper.
  void Poll(Engine& engine) { engine.SupervisePoll(); }

  [[noreturn]] void Child(Engine& engine, const Reference& ref,
                          const Schedule& s, SharedProgress& shared, int fd) {
    ChildReport rep;
    std::vector<Lease> leases;
    std::vector<std::vector<double>> stage(kShards);
    for (std::size_t sh = 0; sh < kShards; ++sh) {
      leases.push_back(engine.shard_ring(sh).AttachProducer());
      stage[sh].reserve(kBatch);
    }
    const auto flush = [&](std::size_t sh) {
      const double* src = stage[sh].data();
      std::size_t left = stage[sh].size();
      while (left > 0) {
        std::size_t pushed = 0;
        Lease::Result r;
        {
          trace::Scope span(trace::kShmTrypush);
          r = leases[sh].TryPush(src, left, &pushed);
        }
        ++rep.calls;
        src += pushed;
        left -= pushed;
        rep.sent += pushed;
        if (left == 0) break;
        if (r != Lease::Result::kFull) {
          ++rep.errors;  // fenced or closed: the rest is lost
          break;
        }
        ++rep.full;
        std::this_thread::yield();
      }
      stage[sh].clear();
    };
    std::size_t next = 0;
    GenerateSchedule(
        s, shared, rep,
        [&](uint64_t, uint64_t pos, uint64_t count) {
          for (uint64_t i = 0; i < count; ++i) {
            stage[next].push_back(ref.At(pos + i));
            if (stage[next].size() >= kBatch) flush(next);
            next = next + 1 == kShards ? 0 : next + 1;
          }
        },
        [&] {
          for (std::size_t sh = 0; sh < kShards; ++sh) flush(sh);
        });
    for (Lease& l : leases) l.Detach();
    FinishChild(fd, rep);
  }

  void Report(Engine& engine, const ChildReport& rep, bool traced,
              const std::vector<trace::Span>& spans,
              const trace::Reduced& reduced, const Schedule& s, Results& out) {
    uint64_t tombstoned = 0, reclaimed = 0;
    for (const auto& shard : engine.snapshot().shards) {
      tombstoned += shard.slots_tombstoned;
      reclaimed += shard.leases_reclaimed;
    }
    out.Set("shm.slots_tombstoned", static_cast<double>(tombstoned), "count");
    out.Set("shm.leases_reclaimed", static_cast<double>(reclaimed), "count");
    out.Set("shm.full_retry_frac",
            Ratio(static_cast<double>(rep.full), static_cast<double>(rep.calls)),
            "frac");
    out.Fail(tombstoned, "shm slots tombstoned");
    out.Fail(reclaimed, "shm leases reclaimed");
    out.Fail(rep.errors, "shm producer fenced or ring closed");
    if (!traced) return;
    out.Set("shm.trypush_ns_per_tuple",
            trace::Summarize(spans, reduced, trace::kShmTrypush, s.a_ticks).total_ns /
                static_cast<double>(rep.sent_b),
            "ns/tuple");
  }
};

/// Runs one pass; returns its phase-B rate.
template <typename Door>
double IngestPass(const Options& opt, const Reference& ref, bool traced,
                      Results& out) {
  using Engine = typename Door::Engine;
  std::optional<Engine> engine;
  Door door;
  std::optional<Placement> placement;
  std::vector<double> setup;
  for (int rep = 0; rep < (traced ? 1 : kSetupReps); ++rep) {
    door.Stop();
    engine.reset();
    placement.emplace();
    const uint64_t t0 = NowNs();
    SetUpEngine(engine, ref);
    if (!door.Start(*engine)) {
      out.Fail(1, "front door failed to start");
      return 0.0;
    }
    setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  // Workers and the server loop share the system CPU; this thread, and
  // with it the forked generator, moves to the harness CPU.
  placement->PinNewThreads();
  placement->PinSelfToHarness();
  const trace::Overhead overhead = traced ? trace::Calibrate() : trace::Overhead{};
  trace::Reset();
  trace::Enable(traced);

  const Schedule s = MakeSchedule(opt, Door::kRate);
  SharedProgress progress(s.a_ticks);
  int fds[2];
  if (::pipe(fds) != 0) {
    out.Fail(1, "pipe() failed");
    return 0.0;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    trace::Reset();
    door.Child(*engine, ref, s, progress, fds[1]);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    out.Fail(1, "fork() failed");
    return 0.0;
  }

  // Coordinator: through phase A it polls processed back to back (its CPU
  // is subtracted below; it yields so the generator on the same CPU runs
  // on time), otherwise every 20 µs. Tick k is complete once processed
  // covers its cumulative count; its latency runs from when the generator
  // began offering it to the poll that sees that.
  TightenTimerSlack();
  std::vector<uint64_t> latency;
  Latencies poll_gap;
  RateWindows rate;
  double highwater = 0.0;
  uint64_t next_tick = 0;
  Flow a0, a1, fb;
  Usage u0, ua, t0u, tau;
  uint64_t tb0 = 0, tb1 = 0;
  int phase = -1;  // -1 before A, 0 in A, 1 in B, 2 after B
  uint64_t last = NowNs();
  while (phase < 2) {
    if (phase == 0) {
      std::this_thread::yield();
    } else {
      SleepUntil(last + kPollNs);
    }
    // processed before the clock: a tick it covers started before `now`.
    const uint64_t processed = engine->stats().processed - kWindow;
    const uint64_t now = NowNs();
    // release: pairs with the generator's acquire load.
    progress.processed().store(processed, std::memory_order_release);
    door.Poll(*engine);
    while (next_tick < s.a_ticks && processed >= (next_tick + 1) * s.per_tick) {
      // acquire: pairs with the generator's release store.
      latency.push_back(now - progress.tick_start(next_tick).load(
                                  std::memory_order_acquire));
      ++next_tick;
    }
    if (phase == -1 && now >= s.Due(0)) {
      phase = 0;
      a0 = ReadFlow(*engine);
      u0 = ProcessUsage();
      t0u = ThreadUsage();
    } else if (phase == 0) {
      poll_gap.Add(now - last);
      highwater = std::max(highwater, RingOccupancyFrac(*engine));
      if (now >= s.b_start()) {
        phase = 1;
        ua = ProcessUsage();
        tau = ThreadUsage();
        a1 = ReadFlow(*engine);
        tb0 = now;
        rate.Mark(now, processed);
      }
    } else if (phase == 1) {
      rate.Mark(now, processed);
      if (now >= s.b_end()) {
        phase = 2;
        tb1 = now;
        fb = ReadFlow(*engine);
      }
    }
    last = now;
  }

  std::string msg;
  const bool read_ok = ReadAll(fds[0], &msg);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ChildReport rep;
  if (!read_ok || msg.size() < sizeof(rep) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    out.Fail(1, "generator process failed");
  } else {
    std::memcpy(&rep, msg.data(), sizeof(rep));
    if (!trace::Import(msg.substr(sizeof(rep)))) out.Fail(1, "malformed child spans");
  }
  trace::Enable(false);

  // Quiesce: every tuple the generator sent must be processed.
  const uint64_t expected = kWindow + rep.sent;
  const uint64_t give_up = NowNs() + kQuiesceTimeoutNs;
  while (engine->stats().processed < expected && NowNs() < give_up) {
    SleepUntil(NowNs() + 100'000);
  }
  const auto st = engine->stats();
  out.Attempt(rep.sent);
  if (st.processed != expected || st.dropped != 0) {
    out.Fail(expected - std::min(expected, st.processed) + st.dropped,
             "tuples sent but never processed");
  }
  const std::vector<trace::Span> spans = traced ? trace::Collect() : std::vector<trace::Span>{};
  const trace::Reduced reduced = trace::Reduce(spans, overhead);
  door.Report(*engine, rep, traced, spans, reduced, s, out);
  door.Stop();
  placement->ReleaseSelf();
  CheckAnswer(*engine, ref, kWindow + rep.sent, opt.inject_fault && !traced,
              s.a_ticks + s.b_ticks, out);
  const double state_bytes = static_cast<double>(
      engine->shard(0).memory_bytes() + engine->shard(1).memory_bytes());
  engine.reset();

  const double b_seconds = static_cast<double>(tb1 - tb0) * 1e-9;
  const double b_tps = rate.MedianRate(kRateWindowNs);
  const double a_tuples = static_cast<double>(s.a_ticks * s.per_tick);
  if (!traced) {
    // The coordinating thread is harness, not system under test.
    SetEndToEnd(b_tps, latency,
                ((ua - u0).cpu_s - (tau - t0u).cpu_s) * 1e9 / a_tuples, setup, out);
  }
  out.Set("core.state_bytes", state_bytes, "bytes");
  out.Set("sys.ctx_switches_per_ktuple",
          ((ua - u0).csw - (tau - t0u).csw) * 1e3 / a_tuples, "count/ktuple");
  out.Set("bench.gen_late_p99_ns", rep.late_p99_ns, "ns");
  out.Set("bench.poll_resolution_ns", poll_gap.Mean(), "ns");
  SetRuntimeMetrics(a0, a1, fb, b_seconds, highwater, out);
  if (traced) {
    SetReconcile(spans, reduced, overhead, s, {Door::kGeneratorStage},
                 static_cast<double>(rep.b_wall_ns),
                 static_cast<double>(rep.sent_b), out);
    WriteTrace(opt, spans, out);
  }
  return b_tps;
}

template <typename Pass>
void RunTwoPasses(const Options& opt, Pass&& pass, Results& out) {
  const double untraced_tps = pass(false);
  if (!opt.trace) return;
  const double traced_tps = pass(true);
  out.Set("bench.trace_overhead_frac",
          traced_tps > 0.0 ? untraced_tps / traced_tps - 1.0 : 0.0, "frac");
}

}  // namespace

void RunPipeInproc(const Options& opt, Reference& ref, Results& out) {
  RunTwoPasses(opt, [&](bool traced) { return PipePass(opt, ref, traced, out); },
               out);
}

void RunIngestTcp(const Options& opt, Reference& ref, Results& out) {
  RunTwoPasses(
      opt, [&](bool traced) { return IngestPass<TcpDoor>(opt, ref, traced, out); },
      out);
}

void RunIngestShm(const Options& opt, Reference& ref, Results& out) {
  RunTwoPasses(
      opt, [&](bool traced) { return IngestPass<ShmDoor>(opt, ref, traced, out); },
      out);
}

}  // namespace slickbench
