// Google-benchmark microbenches: steady-state slide+query cost of every
// final aggregator at a parameterized window size. Complements the
// experiment binaries with statistically managed per-op timings.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "engine/acq_engine.h"
#include "net/frame.h"
#include "ops/arith.h"
#include "ops/kernels.h"
#include "ops/minmax.h"
#include "ops/scan_kernels.h"
#include "telemetry/histogram.h"
#include "telemetry/sink.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/simd_level.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/seq_ring.h"
#include "window/two_stacks.h"

namespace slick::bench {
namespace {

const std::vector<double>& Data() {
  static const std::vector<double>* data =
      new std::vector<double>(EnergySeries(1 << 16, 42));
  return *data;
}

template <typename Agg>
void BM_SlideQuery(benchmark::State& state) {
  using Op = typename Agg::op_type;
  const auto window = static_cast<std::size_t>(state.range(0));
  const std::vector<double>& data = Data();
  Agg agg(window);
  std::size_t di = 0;
  for (std::size_t i = 0; i < window; ++i) {
    agg.slide(Op::lift(data[di]));
    di = di + 1 == data.size() ? 0 : di + 1;
  }
  for (auto _ : state) {
    agg.slide(Op::lift(data[di]));
    di = di + 1 == data.size() ? 0 : di + 1;
    benchmark::DoNotOptimize(agg.query());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

using slick::ops::Max;
using slick::ops::Sum;

BENCHMARK_TEMPLATE(BM_SlideQuery, window::NaiveWindow<Sum>)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, window::FlatFat<Sum>)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, window::BInt<Sum>)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, window::FlatFit<Sum>)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, core::Windowed<window::TwoStacks<Sum>>)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, core::Windowed<window::Daba<Sum>>)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, core::SlickDequeInv<Sum>)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_SlideQuery, core::SlickDequeNonInv<Max>)
    ->Arg(64)
    ->Arg(1024);

void BM_SeqRingPushPop(benchmark::State& state) {
  window::SeqRing<double> q;
  for (int i = 0; i < 1024; ++i) q.push_back(i);
  for (auto _ : state) {
    q.push_back(1.0);
    q.pop_front();
    benchmark::DoNotOptimize(q.front());
  }
}
BENCHMARK(BM_SeqRingPushPop);

// ---------------------------------------------------------------------
// Telemetry overhead: the acceptance bar is that an engine compiled with
// the default NullEngineSink is indistinguishable (±2%) from the
// pre-telemetry baseline — the sink is an empty [[no_unique_address]]
// member and every hook inlines to nothing, so Null vs the other variants
// quantifies exactly what instrumentation costs when switched on.
// ---------------------------------------------------------------------

template <typename Tel>
void BM_AcqEngineTelemetry(benchmark::State& state) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  const std::vector<plan::QuerySpec> queries = {
      {static_cast<std::size_t>(state.range(0)), 1}};
  engine::AcqEngine<Agg, Tel> eng(queries, plan::Pat::kPairs);
  const std::vector<double>& data = Data();
  std::size_t di = 0;
  int64_t sink = 0;
  for (auto _ : state) {
    eng.Push(static_cast<int64_t>(data[di] * 1024.0),
             [&sink](uint32_t, int64_t res) { sink += res; });
    di = di + 1 == data.size() ? 0 : di + 1;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK_TEMPLATE(BM_AcqEngineTelemetry, telemetry::NullEngineSink)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_AcqEngineTelemetry, telemetry::CountingEngineSink)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_AcqEngineTelemetry, telemetry::HistogramEngineSink)
    ->Arg(64)
    ->Arg(1024);

void BM_HistogramRecord(benchmark::State& state) {
  // Cost of one wait-free Record (two relaxed fetch_adds + a clz): the
  // per-sample price the always-on runtime telemetry pays.
  telemetry::LatencyHistogram hist;
  uint64_t v = 0x9E3779B97F4A7C15ull;
  for (auto _ : state) {
    v ^= v >> 33;  // cheap value scrambling, spread across buckets
    hist.Record(v >> (v & 31));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

// ---------------------------------------------------------------------
// CRC32 tiers on one full ingest frame payload (256 tuples = 4112 bytes,
// the ingest front door's frame size): arg 0 pins the slicing-by-8 table
// tier (SimdLevel kScalar), arg 1 runs at the host's detected level, which
// takes the PCLMULQDQ fold where the host has it. Both rows report bytes/s
// and the label names the level that ran.
// ---------------------------------------------------------------------

void BM_Crc32(benchmark::State& state) {
  const util::SimdLevel level = state.range(0) == 0
                                    ? util::SimdLevel::kScalar
                                    : util::DetectSimdLevel();
  const util::SimdLevel saved = util::SetSimdLevel(level);
  std::string payload(net::kBatchHeaderBytes + 256 * sizeof(net::WireTuple),
                      '\0');
  util::SplitMix64 rng(7);
  for (char& c : payload) c = static_cast<char>(rng.NextU64());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = util::Crc32(payload, crc);
    benchmark::DoNotOptimize(crc);
  }
  util::SetSimdLevel(saved);
  state.SetLabel(util::SimdLevelName(level));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------
// Wide fold/scan/survivor kernels (DESIGN.md §16) at n = 4096, one row per
// compiled SIMD level: the arg is the util::SimdLevel value (0 scalar,
// 1 NEON, 2 AVX2, 3 AVX-512) and only levels this host can execute are
// registered. Unlike exp5, which compares the detected level against
// scalar, this pins each wide tier separately, so a regression confined
// to one ISA shows up. Rows report elements/s.
// ---------------------------------------------------------------------

constexpr std::size_t kScanN = 4096;

struct ScanInputs {
  std::size_t n = kScanN;
  std::vector<double> dv, dout;
  std::vector<int64_t> iv, iout;
  std::vector<uint64_t> mask;

  ScanInputs()
      : dv(kScanN), dout(kScanN), iv(kScanN), iout(kScanN),
        mask(kScanN / 64) {
    util::SplitMix64 rng(11);
    for (std::size_t i = 0; i < kScanN; ++i) {
      dv[i] = rng.NextDouble() * 1e3;
      iv[i] = static_cast<int64_t>(rng.NextBounded(1u << 20));
    }
  }
};

void ScanLevelArgs(benchmark::internal::Benchmark* b) {
  const auto best = static_cast<int>(util::DetectSimdLevel());
#if defined(__aarch64__)
  const int levels[] = {0, 1};
#else
  const int levels[] = {0, 2, 3};
#endif
  for (const int l : levels) {
    if (l <= best) b->Arg(l);
  }
}

template <typename Kernel>
void BM_ScanKernels(benchmark::State& state, Kernel kernel) {
  const auto level = static_cast<util::SimdLevel>(state.range(0));
  const util::SimdLevel saved = util::SetSimdLevel(level);
  ScanInputs in;
  benchmark::DoNotOptimize(in.n);  // no kernel call may see a constant size
  for (auto _ : state) {
    kernel(in);
    benchmark::DoNotOptimize(in.dout.data());
    benchmark::DoNotOptimize(in.iout.data());
    benchmark::ClobberMemory();
  }
  util::SetSimdLevel(saved);
  state.SetLabel(util::SimdLevelName(level));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.n));
}

BENCHMARK_CAPTURE(BM_ScanKernels, SuffixMax_f64, [](ScanInputs& in) {
  ops::kernels::SuffixMax(in.dv.data(), in.dout.data(), in.n,
                          Max::identity());
})->Apply(ScanLevelArgs);
BENCHMARK_CAPTURE(BM_ScanKernels, SuffixMax_i64, [](ScanInputs& in) {
  ops::kernels::SuffixMax(in.iv.data(), in.iout.data(), in.n,
                          ops::MaxInt::identity());
})->Apply(ScanLevelArgs);
BENCHMARK_CAPTURE(BM_ScanKernels, PrefixAdd_f64, [](ScanInputs& in) {
  ops::kernels::PrefixAdd(in.dv.data(), in.dout.data(), in.n, 0.0);
})->Apply(ScanLevelArgs);
BENCHMARK_CAPTURE(BM_ScanKernels, PrefixAdd_i64, [](ScanInputs& in) {
  ops::kernels::PrefixAdd(in.iv.data(), in.iout.data(), in.n, int64_t{0});
})->Apply(ScanLevelArgs);
BENCHMARK_CAPTURE(BM_ScanKernels, MaxSurvivors_f64, [](ScanInputs& in) {
  std::fill(in.mask.begin(), in.mask.end(), 0);
  benchmark::DoNotOptimize(
      ops::kernels::MaxSurvivors(in.dv.data(), in.n, in.mask.data()));
})->Apply(ScanLevelArgs);
BENCHMARK_CAPTURE(BM_ScanKernels, FoldAdd_f64, [](ScanInputs& in) {
  benchmark::DoNotOptimize(ops::kernels::FoldAdd(in.dv.data(), in.n));
})->Apply(ScanLevelArgs);

// ---------------------------------------------------------------------
// SlickDeque (Inv) answer lookup: query(range) with k registered ranges
// (the arg) spread evenly over a 65536-partial window, probed in a fixed
// shuffled order that visits every registered range. Nothing slides, so
// the row prices the answers-map lookup alone; the answers' values do not
// affect it.
// ---------------------------------------------------------------------

void BM_InvQueryRange(benchmark::State& state) {
  constexpr std::size_t kWindow = std::size_t{1} << 16;
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> ranges(k);
  for (std::size_t i = 0; i < k; ++i) ranges[i] = (i + 1) * kWindow / k;
  const core::SlickDequeInv<Sum> agg(kWindow, ranges);
  std::vector<std::size_t> probes;
  while (probes.size() < std::max<std::size_t>(k, 4096)) {
    probes.insert(probes.end(), ranges.begin(), ranges.end());
  }
  util::SplitMix64 rng(13);
  for (std::size_t i = probes.size(); i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.NextBounded(i)]);
  }
  std::size_t pi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.query(probes[pi]));
    pi = pi + 1 == probes.size() ? 0 : pi + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InvQueryRange)->Arg(1)->Arg(6)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------
// SlickDeque (Non-Inv) on the acq-max plan shape: a 360000-partial window
// with its six distinct ranges registered, fed the synthetic energy
// series scaled by 1000 and rounded (as the benchmark's reference input).
// Arg 0 prices slide() alone; arg 1 adds one query(range) per ACQ that
// reports at that step (slides 1, 10, 100, 1000, so the schedule repeats
// every 1000 partials), as engine::AcqEngine answers. The difference of
// the two rows is the answer layer's cost per partial.
// ---------------------------------------------------------------------

void BM_NonInvSlide(benchmark::State& state) {
  constexpr std::size_t kWindow = 360000;
  constexpr std::size_t kPeriod = 1000;
  struct Acq {
    std::size_t range, slide;
  };
  constexpr Acq kAcqs[] = {{100, 1},      {1000, 10},     {6000, 100},
                           {30000, 100},  {90000, 1000},  {360000, 1000},
                           {6000, 1},     {30000, 10}};
  const bool answer = state.range(0) != 0;
  static const std::vector<double>* input = [] {
    auto* v = new std::vector<double>(EnergySeries(1 << 20, 1));
    for (double& x : *v) x = std::round(x * 1000.0);
    return v;
  }();
  std::vector<std::vector<std::size_t>> steps(kPeriod);
  std::vector<std::size_t> registered;
  for (const Acq& q : kAcqs) registered.push_back(q.range);
  for (std::size_t s = 0; s < kPeriod; ++s) {
    for (const Acq& q : kAcqs) {
      if ((s + 1) % q.slide == 0) steps[s].push_back(q.range);
    }
  }
  core::SlickDequeNonInv<Max> agg(kWindow, registered);
  std::size_t di = 0;
  for (std::size_t i = 0; i < kWindow; ++i) {
    agg.slide((*input)[di]);
    di = di + 1 == input->size() ? 0 : di + 1;
  }
  std::size_t step = 0;
  for (auto _ : state) {
    agg.slide((*input)[di]);
    di = di + 1 == input->size() ? 0 : di + 1;
    if (answer) {
      for (const std::size_t r : steps[step]) {
        benchmark::DoNotOptimize(agg.query(r));
      }
    }
    step = step + 1 == kPeriod ? 0 : step + 1;
  }
  benchmark::DoNotOptimize(agg.query());
  state.SetLabel(answer ? "slide+query(range)" : "slide");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NonInvSlide)->Arg(0)->Arg(1);

}  // namespace
}  // namespace slick::bench

// Custom main instead of BENCHMARK_MAIN(): translate the repo-wide
// `--json <path>` / `--json=<path>` convention into google-benchmark's
// JSON reporter flags so every bench binary shares one CLI.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string path;
    if (args[i] == "--json" && i + 1 < args.size()) {
      path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i].rfind("--json=", 0) == 0) {
      path = args[i].substr(7);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      continue;
    }
    args.push_back("--benchmark_out=" + path);
    args.push_back("--benchmark_out_format=json");
    break;
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
