// Exp 5 (DESIGN.md §11): ingestion throughput vs batch size.
//
// Single-thread mode drives each aggregator through window::BulkSlide with
// contiguous spans of B pre-lifted tuples (B = 1 runs the plain per-tuple
// slide loop — the true baseline), so the measured ratio is exactly what
// the bulk APIs and vectorized kernels buy. Sharded mode drives the
// parallel runtime with Options.batch = B: the router stages B tuples per
// ring handoff and each worker drains whole claimed spans into BulkSlide.
//
// Rates are best-of-`laps` (like table1_opcounts); each lap runs the full
// tuple budget against the already-warm window and queries once at lap end
// so O(n)-query structures (naive) are not priced on their query path.
//
// Flags: --window=W (default 4096)   --tuples=T (default 2000000)
//        --laps=L   (default 3)      --shards=S (default 4)
//        --ring=R   (default 4096)   --max-batch=B (default 4096)
//        --seed=S   --json=<path>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "core/windowed.h"
#include "ops/arith.h"
#include "ops/kernels.h"
#include "ops/minmax.h"
#include "runtime/parallel_engine.h"
#include "window/aggregator.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick::bench {
namespace {

constexpr std::size_t kBatches[] = {1, 4, 16, 64, 256, 1024, 4096};

struct Config {
  std::size_t window;
  uint64_t tuples;
  uint64_t laps;
  std::size_t shards;
  std::size_t ring;
  std::size_t max_batch;
};

template <typename Op>
std::vector<typename Op::value_type> Lift(const std::vector<double>& data) {
  std::vector<typename Op::value_type> lifted(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    lifted[i] = Op::lift(static_cast<typename Op::input_type>(data[i]));
  }
  return lifted;
}

/// One aggregator across the batch sweep, single-threaded. batch == 1 is
/// the per-tuple slide loop; batch > 1 goes through window::BulkSlide with
/// contiguous spans (shortened only at the data ring's wrap point).
template <typename Agg>
void SweepSingle(const char* algo, const char* opname, const Config& cfg,
                 const std::vector<double>& data, JsonReport& report) {
  using Op = typename Agg::op_type;
  const auto lifted = Lift<Op>(data);
  std::printf("\n== %s (%s), window %zu, single-thread ==\n", algo, opname,
              cfg.window);
  std::printf("%8s %14s %10s\n", "# batch", "Mtuples/s", "vs b=1");
  Checksum sink;
  double base = 0.0;
  for (std::size_t batch : kBatches) {
    if (batch > cfg.max_batch) break;
    Agg agg(cfg.window);
    std::size_t di = 0;
    for (std::size_t i = 0; i < cfg.window; ++i) {
      agg.slide(lifted[di]);
      di = di + 1 == lifted.size() ? 0 : di + 1;
    }
    double best = 0.0;
    for (uint64_t lap = 0; lap < cfg.laps; ++lap) {
      const uint64_t t0 = NowNs();
      if (batch == 1) {
        for (uint64_t i = 0; i < cfg.tuples; ++i) {
          agg.slide(lifted[di]);
          di = di + 1 == lifted.size() ? 0 : di + 1;
        }
      } else {
        uint64_t done = 0;
        while (done < cfg.tuples) {
          const std::size_t n = static_cast<std::size_t>(
              std::min<uint64_t>(std::min<uint64_t>(batch, cfg.tuples - done),
                                 lifted.size() - di));
          window::BulkSlide(agg, lifted.data() + di, n);
          di = di + n == lifted.size() ? 0 : di + n;
          done += n;
        }
      }
      const double elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
      best = std::max(best, static_cast<double>(cfg.tuples) / elapsed_s);
      sink.Add(static_cast<double>(agg.query()));
    }
    if (batch == 1) base = best;
    std::printf("%8zu %14.2f %9.2fx\n", batch, best / 1e6, best / base);
    std::fflush(stdout);
    report.Row({{"algo", algo},
                {"op", opname},
                {"mode", "single"},
                {"window", JsonReport::Num(cfg.window)},
                {"batch", JsonReport::Num(batch)}},
               best);
  }
  sink.Report();
}

/// SweepSingle twice: once at the detected SIMD level and once pinned to
/// the scalar kernels, the latter reported as "<algo>-scalar". The paired
/// rows let CI gate "vectorized never slower than scalar" as a same-run
/// cost ratio (tools/bench_summary.py --best-pair), robust to runner
/// speed, and let the committed snapshot record the SIMD win itself.
template <typename Agg>
void SweepSingleVsScalar(const char* algo, const char* opname,
                         const Config& cfg, const std::vector<double>& data,
                         JsonReport& report) {
  SweepSingle<Agg>(algo, opname, cfg, data, report);
  const auto prev =
      ops::kernels::SetSimdLevel(ops::kernels::SimdLevel::kScalar);
  const std::string twin = std::string(algo) + "-scalar";
  SweepSingle<Agg>(twin.c_str(), opname, cfg, data, report);
  ops::kernels::SetSimdLevel(prev);
}

/// The parallel sharded runtime across the batch sweep: Options.batch is
/// both the router's staging size and the worker's maximum claimed span.
template <typename Agg>
void SweepSharded(const char* algo, const char* opname, const Config& cfg,
                  const std::vector<double>& data, JsonReport& report) {
  using Op = typename Agg::op_type;
  const auto lifted = Lift<Op>(data);
  std::printf("\n== %s (%s), window %zu, %zu shards ==\n", algo, opname,
              cfg.window, cfg.shards);
  std::printf("%8s %14s %10s\n", "# batch", "Mtuples/s", "vs b=1");
  Checksum sink;
  double base = 0.0;
  for (std::size_t batch : kBatches) {
    if (batch > cfg.max_batch || batch > cfg.ring) break;
    runtime::ParallelShardedEngine<Agg> engine(
        cfg.window, cfg.shards,
        {.ring_capacity = cfg.ring, .batch = batch,
         .backpressure = runtime::Backpressure::kBlock});
    std::size_t di = 0;
    auto next = [&] {
      const auto v = lifted[di];
      di = di + 1 == lifted.size() ? 0 : di + 1;
      return v;
    };
    for (std::size_t i = 0; i < cfg.window; ++i) engine.push(next());
    double best = 0.0;
    for (uint64_t lap = 0; lap < cfg.laps; ++lap) {
      const uint64_t t0 = NowNs();
      for (uint64_t i = 0; i < cfg.tuples; ++i) engine.push(next());
      engine.flush();
      const double elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
      best = std::max(best, static_cast<double>(cfg.tuples) / elapsed_s);
      sink.Add(static_cast<double>(engine.query()));
    }
    engine.stop();
    if (batch == 1) base = best;
    std::printf("%8zu %14.2f %9.2fx\n", batch, best / 1e6, best / base);
    std::fflush(stdout);
    report.Row({{"algo", algo},
                {"op", opname},
                {"mode", "sharded"},
                {"shards", JsonReport::Num(cfg.shards)},
                {"window", JsonReport::Num(cfg.window)},
                {"batch", JsonReport::Num(batch)}},
               best);
  }
  sink.Report();
}

}  // namespace
}  // namespace slick::bench

int main(int argc, char** argv) {
  using namespace slick::bench;
  using slick::ops::Max;
  using slick::ops::Sum;
  const Flags flags(argc, argv);
  Config cfg;
  cfg.window = flags.GetU64("window", 4096);
  cfg.tuples = flags.GetU64("tuples", 2'000'000);
  cfg.laps = std::max<uint64_t>(1, flags.GetU64("laps", 3));
  cfg.shards = flags.GetU64("shards", 4);
  cfg.ring = flags.GetU64("ring", 4096);
  cfg.max_batch = flags.GetU64("max-batch", 4096);
  const uint64_t seed = flags.GetU64("seed", 42);

  std::printf(
      "Exp 5: ingestion throughput vs batch size (DESIGN.md §11)\n"
      "# window=%zu tuples=%llu laps=%llu shards=%zu ring=%zu max-batch=%zu "
      "seed=%llu\n",
      cfg.window, (unsigned long long)cfg.tuples,
      (unsigned long long)cfg.laps, cfg.shards, cfg.ring, cfg.max_batch,
      (unsigned long long)seed);

  const std::vector<double> data = BenchSeries(flags, 1 << 20, seed);
  JsonReport report(flags, "exp5_batch");

  // Sum: one invertible op per algorithm family.
  SweepSingle<slick::core::SlickDequeInv<Sum>>("slick-inv", "sum", cfg, data,
                                               report);
  SweepSingle<slick::core::Windowed<slick::core::SubtractOnEvict<Sum>>>(
      "sub-on-evict", "sum", cfg, data, report);
  SweepSingle<slick::core::Windowed<slick::window::Daba<Sum>>>(
      "daba", "sum", cfg, data, report);
  SweepSingle<slick::window::FlatFat<Sum>>("flatfat", "sum", cfg, data,
                                           report);
  SweepSingle<slick::window::FlatFit<Sum>>("flatfit", "sum", cfg, data,
                                           report);
  SweepSingle<slick::window::NaiveWindow<Sum>>("naive", "sum", cfg, data,
                                               report);

  // Max: the non-invertible side. SlickDeque (Non-Inv)'s double staircase
  // is paired with its scalar twin, gated like the int pairs below.
  SweepSingleVsScalar<slick::core::SlickDequeNonInv<Max>>("slick-noninv",
                                                          "max", cfg, data,
                                                          report);
  SweepSingle<slick::core::Windowed<slick::window::Daba<Max>>>(
      "daba", "max", cfg, data, report);
  SweepSingle<slick::window::FlatFat<Max>>("flatfat", "max", cfg, data,
                                           report);

  // Flip-heavy rows for the vectorized structural kernels, each paired
  // with its scalar twin (DESIGN.md §16). TwoStacks exercises the
  // carry-scan flip + prefix-scan BulkInsert (window ≫ batch keeps the
  // amortized flip span at ~window elements), with the Sum row covering
  // the double-add scan; slick-noninv exercises the survivor-mask
  // staircase AppendBatch. CI gates vectorized ≥ scalar on these pairs;
  // EXPERIMENTS.md Exp 8 records the measured speedups.
  {
    using slick::ops::MaxInt;
    using slick::ops::MinInt;
    using slick::core::Windowed;
    using slick::window::TwoStacks;
    SweepSingleVsScalar<Windowed<TwoStacks<MaxInt>>>("twostacks", "max_int",
                                                     cfg, data, report);
    SweepSingleVsScalar<Windowed<TwoStacks<MinInt>>>("twostacks", "min_int",
                                                     cfg, data, report);
    SweepSingleVsScalar<Windowed<TwoStacks<Sum>>>("twostacks", "sum", cfg,
                                                  data, report);
    SweepSingleVsScalar<slick::core::SlickDequeNonInv<MaxInt>>(
        "slick-noninv", "max_int", cfg, data, report);
    SweepSingleVsScalar<slick::core::SlickDequeNonInv<MinInt>>(
        "slick-noninv", "min_int", cfg, data, report);
  }

  // Sharded runtime: the two headline SlickDeque variants.
  SweepSharded<slick::core::SlickDequeInv<Sum>>("slick-inv", "sum", cfg, data,
                                                report);
  SweepSharded<slick::core::SlickDequeNonInv<Max>>("slick-noninv", "max", cfg,
                                                   data, report);

  report.Write();
  return 0;
}
