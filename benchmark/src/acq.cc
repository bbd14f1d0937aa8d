// acq-sum and acq-max: engine::AcqEngine over the paper's shared-plan
// multi-query workload, driven closed-loop by one thread. No runtime,
// ring or network code runs here.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "engine/acq_engine.h"
#include "ops/arith.h"
#include "ops/counting.h"
#include "ops/minmax.h"
#include "plan/shared_plan.h"
#include "timed.h"
#include "trace.h"
#include "workloads.h"

namespace slickbench {
namespace {

using slick::plan::Pat;
using slick::plan::QuerySpec;

// Eight ACQs sharing one Pairs plan: composite slide 1000, a partial per
// tuple (the slide-1 queries cut every tuple), 2.22 answers per tuple.
const std::vector<QuerySpec> kQueries = {
    {100, 1},       {1000, 10},      {6000, 100}, {30000, 100},
    {90000, 1000},  {360000, 1000},  {6000, 1},   {30000, 10}};
constexpr std::size_t kNumQueries = 8;
constexpr uint64_t kPrefill = 360000;  // one full window of the largest range

constexpr uint32_t kLatencyEvery = 64;   // Push calls per latency sample
constexpr uint32_t kTraceEvery = 256;    // blocks per traced block
constexpr uint32_t kCheckEvery = 4096;   // answers per individually checked one
constexpr uint64_t kChunk = 4096;        // tuples between deadline checks
constexpr uint64_t kCountTuples = 1'000'000;
// Answers kept for the individual check: storage is fixed and touched up
// front, so the run's peak RSS does not grow with its throughput.
constexpr std::size_t kMaxSamples = 1 << 16;
constexpr int kSetupReps = 11;

struct Sampled {
  uint32_t query;
  uint64_t n;
  double value;
};

/// The consumer of every answer: a per-query checksum and count (which
/// also keeps the answer reads alive), plus 1 answer in 4096 (the first
/// kMaxSamples of them) kept for an individual check against the
/// reference.
class AnswerSink {
 public:
  AnswerSink(uint64_t seed, bool inject_fault)
      : gaps_(seed ^ 0x5EEDull), until_(gaps_.Next(kCheckEvery)),
        inject_fault_(inject_fault) {}

  void operator()(uint32_t q, double v) {
    if (--until_ == 0) {
      if (fault_) {  // --inject-fault: corrupt exactly one answer
        v += 1.0;
        fault_ = false;
      }
      if (kept_ < samples_.size()) samples_[kept_++] = Sampled{q, n, v};
      until_ = gaps_.Next(kCheckEvery);
    }
    sum_[q] += static_cast<uint64_t>(static_cast<int64_t>(v));
    ++count_[q];
  }

  /// Starts a checked segment at the current stream position; with
  /// --inject-fault, the segment's first sampled answer is corrupted.
  void StartSegment() {
    sum_.fill(0);
    count_.fill(0);
    kept_ = 0;
    segment_start_ = n;
    fault_ = inject_fault_;
  }

  uint64_t n = 0;  // stream position after the tuple being pushed

  uint64_t segment_start() const { return segment_start_; }
  const std::array<uint64_t, kNumQueries>& sums() const { return sum_; }
  const std::array<uint64_t, kNumQueries>& counts() const { return count_; }
  std::span<const Sampled> samples() const { return {samples_.data(), kept_}; }

 private:
  GapSampler gaps_;
  uint32_t until_;
  bool inject_fault_;
  bool fault_ = false;
  uint64_t segment_start_ = 0;
  std::array<uint64_t, kNumQueries> sum_{};
  std::array<uint64_t, kNumQueries> count_{};
  std::vector<Sampled> samples_ = std::vector<Sampled>(kMaxSamples);
  std::size_t kept_ = 0;
};

template <typename Engine>
void Prefill(Engine& engine, const Reference& ref, AnswerSink& sink) {
  while (sink.n < kPrefill) {
    const double v = ref.At(sink.n);
    ++sink.n;
    engine.Push(v, sink);
  }
}

/// Closed loop: pushes the cyclic input back to back until the deadline,
/// timing 1 Push in kLatencyEvery (on average) and marking progress every
/// kChunk tuples. Returns the tuples pushed.
template <typename Engine>
uint64_t Drive(Engine& engine, const Reference& ref, AnswerSink& sink,
               uint64_t deadline_ns, GapSampler& gaps, Latencies& lat,
               RateWindows& rate) {
  const double* x = ref.values().data();
  uint64_t i = sink.n % Reference::kPeriod;
  uint32_t until = gaps.Next(kLatencyEvery);
  uint64_t pushed = 0;
  uint64_t now = NowNs();
  rate.Mark(now, 0);
  do {
    for (uint64_t k = 0; k < kChunk; ++k) {
      const double v = x[i];
      i = i + 1 == Reference::kPeriod ? 0 : i + 1;
      ++sink.n;
      if (--until != 0) {
        engine.Push(v, sink);
      } else {
        const uint64_t s = NowNs();
        engine.Push(v, sink);
        lat.Add(NowNs() - s);
        until = gaps.Next(kLatencyEvery);
      }
    }
    pushed += kChunk;
    now = NowNs();
    rate.Mark(now, pushed);
  } while (now < deadline_ns);
  return pushed;
}

/// Checks a segment's answers: per-query answer counts and (Sum) the
/// closed-form checksum of every answer, plus each sampled answer
/// individually. A query counts at least one failure per mismatch kind.
void Verify(const Reference& ref, const AnswerSink& sink, bool is_sum,
            const char* pass, Results& out) {
  const uint64_t n0 = sink.segment_start();
  const uint64_t n1 = sink.n;
  std::array<uint64_t, kNumQueries> bad_samples{};
  for (const Sampled& s : sink.samples()) {
    const QuerySpec& q = kQueries[s.query];
    const bool ok =
        is_sum ? static_cast<uint64_t>(s.value) == ref.WindowSum(s.n, q.range)
               : s.value == ref.WindowMax(s.n, q.range);
    if (!ok) ++bad_samples[s.query];
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const QuerySpec& spec = kQueries[q];
    const uint64_t expected = n1 / spec.slide - n0 / spec.slide;
    const uint64_t got = sink.counts()[q];
    out.Attempt(got);
    if (got != expected) {
      out.Fail(got > expected ? got - expected : expected - got,
               std::string(pass) + ": query " + std::to_string(q) +
                   " answered " + std::to_string(got) + " times, expected " +
                   std::to_string(expected));
    }
    const bool sum_bad =
        is_sum && sink.sums()[q] != ref.AnswerSum(spec.range, spec.slide, n0, n1);
    const uint64_t bad = std::max<uint64_t>(bad_samples[q], sum_bad ? 1 : 0);
    out.Fail(bad, std::string(pass) + ": query " + std::to_string(q) + " has " +
                      std::to_string(bad) + " answer(s) differing from the " +
                      (is_sum ? "prefix-sum" : "rescan") + " reference");
  }
}

/// Short fixed-length pass with ops::CountingOp: exact ⊕/⊖ counts per
/// tuple, every answer (Sum) or 1 in 4096 (Max) checked, and a checksum
/// of all answers that depends only on the seed. Never timed: the counting
/// wrapper disables the SIMD kernel dispatch.
template <typename CountAgg>
void CountPass(const Reference& ref, bool is_sum, Results& out) {
  using slick::ops::OpCounter;
  slick::engine::AcqEngine<CountAgg> engine(kQueries, Pat::kPairs);
  uint64_t n = 0;
  uint64_t fnv = 14695981039346656037ull;
  uint64_t checked = 0;
  uint64_t wrong = 0;
  GapSampler gaps(0xC0FFEE);
  uint32_t until = gaps.Next(kCheckEvery);
  auto sink = [&](uint32_t q, double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fnv = (fnv ^ q) * 1099511628211ull;
    fnv = (fnv ^ bits) * 1099511628211ull;
    if (n <= kPrefill) return;  // warm-up answers include identity padding
    const uint64_t range = kQueries[q].range;
    if (is_sum) {
      ++checked;
      if (static_cast<uint64_t>(v) != ref.WindowSum(n, range)) ++wrong;
    } else if (--until == 0) {
      ++checked;
      if (v != ref.WindowMax(n, range)) ++wrong;
      until = gaps.Next(kCheckEvery);
    }
  };
  while (n < kPrefill) {
    ++n;
    engine.Push(ref.At(n - 1), sink);
  }
  OpCounter::Reset();
  for (uint64_t k = 0; k < kCountTuples; ++k) {
    ++n;
    engine.Push(ref.At(n - 1), sink);
  }
  const auto per_tuple = [](uint64_t c) {
    return static_cast<double>(c) / static_cast<double>(kCountTuples);
  };
  out.Set("ops.combines_per_tuple", per_tuple(OpCounter::combines), "count/tuple");
  out.Set("ops.inverses_per_tuple", per_tuple(OpCounter::inverses), "count/tuple");
  out.Attempt(checked);
  out.Fail(wrong, "count pass: " + std::to_string(wrong) +
                      " answer(s) differ from the reference");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fnv));
  out.Info("answer_checksum", hex);
}

// The traced pass runs in timed blocks of kBlock tuples. About one block
// in 256 runs with every call traced: engine.push around Push, core.*
// spans inside it. A timer read costs about as much as a whole Push on
// small VMs, so span durations are mostly recording cost. Tracing whole
// blocks keeps the traced path hot, where the tight-loop calibration of
// that cost holds to within tens of percent; one scale factor on it is
// then fitted so that the traced pushes add up to the wall time of the
// untraced block just before each traced block. Blocks that took more
// than twice the median are VM stalls, not work of any layer, and are
// left out of both sides.
constexpr uint64_t kBlock = 256;
constexpr uint64_t kBlocksPerCheck = 16;
constexpr std::size_t kMaxSpansPerTuple = 2 + kNumQueries;

struct TracedBlock {
  uint64_t first_id;  // its pushes carry ids first_id .. first_id + kBlock − 1
  double traced_ns;
  double control_ns;  // the untraced block just before it
};

struct BlockLog {
  std::vector<TracedBlock> traced;
  std::vector<double> untraced_ns;
};

template <typename Engine>
uint64_t DriveBlocks(Engine& engine, const Reference& ref, AnswerSink& sink,
                     uint64_t deadline_ns, GapSampler& gaps, uint32_t gap_mean,
                     BlockLog& log) {
  const double* x = ref.values().data();
  uint64_t i = sink.n % Reference::kPeriod;
  const auto block = [&]<bool kTraced>() {
    for (uint64_t k = 0; k < kBlock; ++k) {
      const double v = x[i];
      i = i + 1 == Reference::kPeriod ? 0 : i + 1;
      ++sink.n;
      if constexpr (kTraced) {
        trace::Scope span(trace::kEnginePush, sink.n);
        engine.Push(v, sink);
      } else {
        engine.Push(v, sink);
      }
    }
  };
  uint32_t until = gaps.Next(gap_mean) + 1;  // block 0 has no control block
  double prev_ns = 0.0;
  uint64_t pushed = 0;
  do {
    for (uint64_t b = 0; b < kBlocksPerCheck; ++b) {
      bool traced = false;
      if (--until == 0) {
        until = gaps.Next(gap_mean);
        traced = trace::Recorded() + kBlock * kMaxSpansPerTuple <=
                 trace::kMaxSpansPerThread;
      }
      if (!traced) {
        const uint64_t t0 = NowNs();
        block.template operator()<false>();
        prev_ns = static_cast<double>(NowNs() - t0);
        log.untraced_ns.push_back(prev_ns);
        continue;
      }
      trace::Prefault(kBlock * kMaxSpansPerTuple);
      const uint64_t first_id = sink.n + 1;
      trace::SetSampling(true);
      const uint64_t t0 = NowNs();
      block.template operator()<true>();
      const uint64_t t1 = NowNs();
      trace::SetSampling(false);
      log.traced.push_back(
          TracedBlock{first_id, static_cast<double>(t1 - t0), prev_ns});
      prev_ns = static_cast<double>(t1 - t0);
    }
    pushed += kBlock * kBlocksPerCheck;
  } while (NowNs() < deadline_ns);
  return pushed;
}

template <typename Agg>
void TracedPass(const Options& opt, Reference& ref, bool is_sum,
                double untraced_ns_per_tuple, double untraced_tuples,
                Results& out) {
  using Engine = slick::engine::AcqEngine<Timed<Agg>>;
  trace::Reset();
  const trace::Overhead calibrated = trace::Calibrate();
  trace::Enable(true);
  trace::SetSampling(false);
  AnswerSink sink(opt.seed, false);
  Engine engine(kQueries, Pat::kPairs);
  Prefill(engine, ref, sink);
  sink.StartSegment();
  // 1 block in 256, or sparser when that would overflow the span store.
  const double blocks = untraced_tuples / static_cast<double>(kBlock);
  const double room = 0.8 * static_cast<double>(trace::kMaxSpansPerThread) /
                      static_cast<double>(kBlock * kMaxSpansPerTuple);
  const auto gap_mean =
      static_cast<uint32_t>(std::max<double>(kTraceEvery, blocks / room));
  const uint64_t slides0 = engine.aggregator().slide_calls();
  const uint64_t reads0 = engine.aggregator().answer_calls();
  GapSampler gaps(opt.seed + 2);
  BlockLog log;
  log.untraced_ns.reserve(static_cast<std::size_t>(blocks * 1.5));
  const uint64_t t0 = NowNs();
  const uint64_t pushed =
      DriveBlocks(engine, ref, sink, t0 + static_cast<uint64_t>(opt.pass_seconds() * 1e9),
                  gaps, gap_mean, log);
  const double wall_ns = static_cast<double>(NowNs() - t0);
  trace::Enable(false);
  trace::SetSampling(true);
  Verify(ref, sink, is_sum, "traced pass", out);
  const double tuples = static_cast<double>(pushed);
  out.Set("bench.trace_overhead_frac",
          wall_ns / tuples / untraced_ns_per_tuple - 1.0, "frac");

  // Stall filter: clean untraced blocks set the wall time per tuple; a
  // traced block counts only when it and its control block are clean.
  const double limit = 2.0 * Median(log.untraced_ns);
  double clean_ns = 0.0, clean_blocks = 0.0;
  for (double ns : log.untraced_ns) {
    if (ns <= limit) {
      clean_ns += ns;
      clean_blocks += 1.0;
    }
  }
  std::vector<double> traced_ns;
  for (const TracedBlock& b : log.traced) traced_ns.push_back(b.traced_ns);
  const double traced_limit = 2.0 * Median(traced_ns);
  std::vector<uint64_t> kept;  // first ids of the clean traced blocks
  double control_ns = 0.0;
  for (const TracedBlock& b : log.traced) {
    if (b.control_ns > 0.0 && b.control_ns <= limit && b.traced_ns <= traced_limit) {
      kept.push_back(b.first_id);
      control_ns += b.control_ns;
    }
  }
  const auto in_kept = [&](const trace::Span& s) {
    const auto it = std::upper_bound(kept.begin(), kept.end(), s.id);
    return it != kept.begin() && s.id < *(it - 1) + kBlock;
  };

  const std::vector<trace::Span> spans = trace::Collect();
  double raw_push_ns = 0.0, roots = 0.0, nested = 0.0;
  for (const trace::Span& s : spans) {
    if (!in_kept(s)) continue;
    if (s.name == trace::kEnginePush) {
      raw_push_ns += s.dur_ns;
      roots += 1.0;
    } else {
      nested += 1.0;
    }
  }
  // A traced push reads its work plus one empty-span reading plus one
  // pair per nested span.
  const double recording = roots * calibrated.empty_ns + nested * calibrated.pair_ns;
  const double scale =
      recording > 0.0 ? (raw_push_ns - control_ns) / recording : 1.0;
  const trace::Overhead overhead{calibrated.empty_ns * scale,
                                 calibrated.pair_ns * scale};
  const trace::Reduced reduced = trace::Reduce(spans, overhead);
  trace::Stage push, slide, answer;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    if (!in_kept(spans[k])) continue;
    trace::Stage* st = spans[k].name == trace::kEnginePush  ? &push
                       : spans[k].name == trace::kCoreSlide ? &slide
                                                            : &answer;
    ++st->spans;
    st->total_ns += reduced.total_ns[k];
    st->self_ns += reduced.self_ns[k];
  }
  const double slide_ns =
      slide.mean_total() *
      static_cast<double>(engine.aggregator().slide_calls() - slides0) / tuples;
  const double answer_ns =
      answer.mean_total() *
      static_cast<double>(engine.aggregator().answer_calls() - reads0) / tuples;
  out.Set("engine.push_ns", push.mean_total(), "ns/tuple");
  out.Set("engine.self_ns", push.mean_self(), "ns/tuple");
  out.Set("core.slide_ns", slide_ns, "ns/tuple");
  out.Set("core.answer_ns", answer_ns, "ns/tuple");
  const double wall = clean_blocks > 0.0 ? clean_ns / clean_blocks / kBlock : 0.0;
  const double stages = push.mean_self() + slide_ns + answer_ns;
  out.Set("bench.traced_wall_ns_per_tuple", wall, "ns/tuple");
  out.Set("bench.stage_sum_ns_per_tuple", stages, "ns/tuple");
  out.Set("bench.reconcile_error_frac",
          wall > 0.0 ? std::fabs(stages - wall) / wall : 1.0, "frac");
  out.Info("trace_overhead",
           "empty_ns=" + std::to_string(overhead.empty_ns) +
               " pair_ns=" + std::to_string(overhead.pair_ns) +
               " scale=" + std::to_string(scale) + " traced_blocks=" +
               std::to_string(log.traced.size()) + " clean=" +
               std::to_string(kept.size()));
  if (!opt.trace_out.empty() && !trace::WriteChrome(opt.trace_out, spans)) {
    out.Fail(1, "cannot write trace file " + opt.trace_out);
  }
}

template <typename Agg, typename CountAgg>
void RunAcq(const Options& opt, Reference& ref, bool is_sum, Results& out) {
  using Engine = slick::engine::AcqEngine<Agg>;
  if (is_sum) {
    for (const QuerySpec& q : kQueries) ref.Prepare(q.slide);
  }
  const uint64_t run_ns = static_cast<uint64_t>(opt.pass_seconds() * 1e9);

  // Set-up: plan + engine construction and the full-window prefill.
  std::vector<double> setup, build;
  std::optional<Engine> engine;
  AnswerSink sink(opt.seed, opt.inject_fault);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    sink.n = 0;
    const uint64_t t0 = NowNs();
    engine.emplace(kQueries, Pat::kPairs);
    Prefill(*engine, ref, sink);
    setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    const uint64_t b0 = NowNs();
    const auto plan = slick::plan::SharedPlan::Build(kQueries, Pat::kPairs);
    build.push_back(static_cast<double>(NowNs() - b0));
    if (plan.composite_slide() == 0) out.Fail(1, "empty plan");
  }
  const slick::plan::SharedPlan& plan = engine->plan();
  out.Set("setup_s", Median(setup), "s");
  out.Set("plan.build_ns", Median(build), "ns");
  out.Set("plan.partials_per_tuple",
          static_cast<double>(plan.partials_per_composite_slide()) /
              static_cast<double>(plan.composite_slide()),
          "count/tuple");

  // Untraced pass: closed loop, 1 Push in 64 timed.
  sink.StartSegment();
  Latencies lat;
  RateWindows rate;
  GapSampler gaps(opt.seed + 1);
  const uint64_t answers0 = engine->answers_produced();
  const Usage u0 = ProcessUsage();
  const uint64_t t0 = NowNs();
  const uint64_t pushed = Drive(*engine, ref, sink, t0 + run_ns, gaps, lat, rate);
  const uint64_t elapsed = NowNs() - t0;
  const Usage used = ProcessUsage() - u0;
  const double tuples = static_cast<double>(pushed);
  out.Attempt(pushed);
  out.Set("throughput_tps", rate.MedianRate(kRateWindowNs), "tuples/s");
  out.Set("latency_p50_ns", lat.Quantile(0.50), "ns");
  out.Set("bench.latency_p99_ns", lat.Quantile(0.99), "ns");
  out.Set("cpu_ns_per_tuple", used.cpu_s * 1e9 / tuples, "ns/tuple");
  out.Set("engine.answers_per_tuple",
          static_cast<double>(engine->answers_produced() - answers0) / tuples,
          "count/tuple");
  out.Set("core.state_bytes", static_cast<double>(engine->aggregator().memory_bytes()),
          "bytes");
  out.Set("sys.ctx_switches_per_ktuple", used.csw * 1e3 / tuples, "count/ktuple");
  out.Set("bench.latency_samples", static_cast<double>(lat.count()), "count");
  Verify(ref, sink, is_sum, "untraced pass", out);
  engine.reset();
  CountPass<CountAgg>(ref, is_sum, out);
  out.Set("rss_peak_mb", PeakRssMb(), "MiB");
  if (opt.trace) {
    TracedPass<Agg>(opt, ref, is_sum,
                    static_cast<double>(elapsed) / tuples, tuples, out);
  }
}

}  // namespace

void RunAcqSum(const Options& opt, Reference& ref, Results& out) {
  using Sum = slick::ops::Sum;
  RunAcq<slick::core::SlickDequeInv<Sum>,
         slick::core::SlickDequeInv<slick::ops::CountingOp<Sum>>>(opt, ref, true,
                                                                  out);
}

void RunAcqMax(const Options& opt, Reference& ref, Results& out) {
  using Max = slick::ops::Max;
  RunAcq<slick::core::SlickDequeNonInv<Max>,
         slick::core::SlickDequeNonInv<slick::ops::CountingOp<Max>>>(
      opt, ref, false, out);
}

}  // namespace slickbench
