// Exp 6 (DESIGN.md §13): out-of-order ingestion cost.
//
// The OooTree final aggregator charges O(log d) only for tuples that
// actually arrive out of order (d = displacement from the in-order
// position) and stays amortized O(1) on in-order input. This bench
// quantifies both claims against the in-order SlickDeque baselines:
//
//   * algo=slick-inv / slick-noninv, frac_ooo=0 — the count-based slide
//     loop, the per-tuple floor the paper's Figure 10 measures;
//   * algo=ooo-tree, frac_ooo=0 — the SAME in-order stream through the
//     event-time path at a batched-ingest cadence (BulkInsert spans of
//     `batch`, one watermark BulkEvict per span; no runtime mode drives
//     the tree, so this bench is its caller). CI gates both in-order
//     pairs (see EXPERIMENTS.md Exp 6): against SlickDeque-NonInv the
//     tree lands at ~1.25x (gated 1.5x); against SlickDeque-Inv, whose
//     slide is two arithmetic ops, it pays ~5x (gated 6x).
//   * algo=ooo-tree, frac_ooo in {1,5,10,25,50}%, dist in {16,256,4096}
//     — displaced tuples land up to `dist` ticks behind the front, the
//     degradation curve the OoO design trades for.
//
// Timed streams are pre-generated OUTSIDE the timed loop (the rng and the
// slot fill are not priced — a batched caller hands the tree ready spans),
// each lap rebuilds and re-warms the aggregator outside the timer, and
// rates are best-of-`laps`, so rows are directly comparable.
//
// Flags: --window=W (default 4096)  --tuples=T (default 2000000)
//        --laps=L   (default 3)     --seed=S   --batch=B (default 1024)
//        --json=<path>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "util/rng.h"
#include "window/ooo_tree.h"

namespace slick::bench {
namespace {

constexpr uint64_t kFracs[] = {0, 1, 5, 10, 25, 50};   // percent OoO
constexpr uint64_t kDists[] = {16, 256, 4096};          // max displacement

struct Config {
  std::size_t window;
  uint64_t tuples;
  uint64_t laps;
  uint64_t seed;
  std::size_t batch;
};

template <typename Op>
std::vector<typename Op::value_type> Lift(const std::vector<double>& data) {
  std::vector<typename Op::value_type> lifted(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) lifted[i] = Op::lift(data[i]);
  return lifted;
}

/// The in-order baseline: the plain per-tuple slide loop, identical to
/// exp5's batch=1 lane.
template <typename Agg>
void BaselineRow(const char* algo, const char* opname, const Config& cfg,
                 const std::vector<double>& data, JsonReport& report) {
  using Op = typename Agg::op_type;
  const auto lifted = Lift<Op>(data);
  Checksum sink;
  double best = 0.0;
  for (uint64_t lap = 0; lap < cfg.laps; ++lap) {
    Agg agg(cfg.window);
    std::size_t di = 0;
    for (std::size_t i = 0; i < cfg.window; ++i) {
      agg.slide(lifted[di]);
      di = di + 1 == lifted.size() ? 0 : di + 1;
    }
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < cfg.tuples; ++i) {
      agg.slide(lifted[di]);
      di = di + 1 == lifted.size() ? 0 : di + 1;
    }
    const double elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    best = std::max(best, static_cast<double>(cfg.tuples) / elapsed_s);
    sink.Add(static_cast<double>(agg.query()));
  }
  std::printf("%-12s %4s %8s %6s %14.2f\n", algo, opname, "-", "-",
              best / 1e6);
  std::fflush(stdout);
  // `batch` mirrors the ooo-tree rows so the cost-ratio gate can pair a
  // baseline with each tree row by config-minus-algo; the slide loop
  // itself is per-tuple regardless.
  report.Row({{"algo", algo},
              {"op", opname},
              {"mode", "ingest"},
              {"window", JsonReport::Num(cfg.window)},
              {"batch", JsonReport::Num(cfg.batch)},
              {"frac_ooo", "0"},
              {"dist", "0"}},
             best);
  sink.Report();
}

/// Pre-generated event-time stream: in-order tuples tick the clock by 1;
/// a `frac`% subset is displaced 1..dist ticks behind the front (clamped
/// inside the live window so displaced tuples are never instantly dead).
std::vector<uint64_t> MakeTimestamps(const Config& cfg, uint64_t frac,
                                     uint64_t dist) {
  std::vector<uint64_t> ts(cfg.tuples);
  util::SplitMix64 rng(cfg.seed ^ (frac * 1315423911u) ^ dist);
  const uint64_t max_disp =
      std::min<uint64_t>(dist, static_cast<uint64_t>(cfg.window) - 1);
  uint64_t now = static_cast<uint64_t>(cfg.window);  // warmup filled 1..W
  for (uint64_t i = 0; i < cfg.tuples; ++i) {
    ++now;
    uint64_t t = now;
    if (frac > 0 && rng.NextBounded(100) < frac) {
      t = now - (1 + rng.NextBounded(max_disp));
    }
    ts[i] = t;
  }
  return ts;
}

/// The event-time path at a batched-ingest cadence: spans of `batch` Timed
/// slots go through Agg::BulkInsert, and the watermark advances (one
/// BulkEvict) per span. The timed stream is pre-generated, so only the
/// tree is priced.
template <typename Op>
void OooRow(const char* opname, const Config& cfg,
            const std::vector<double>& data, uint64_t frac, uint64_t dist,
            JsonReport& report) {
  using Tree = window::OooTree<Op>;
  using Slot = typename Tree::timed_type;
  const auto lifted = Lift<Op>(data);
  Checksum sink;
  const std::vector<uint64_t> ts = MakeTimestamps(cfg, frac, dist);
  std::vector<Slot> stream(cfg.tuples);
  for (uint64_t i = 0; i < cfg.tuples; ++i) {
    stream[i] = Slot{ts[i], lifted[i % lifted.size()]};
  }
  double best = 0.0;
  for (uint64_t lap = 0; lap < cfg.laps; ++lap) {
    Tree tree;
    for (std::size_t i = 0; i < cfg.window; ++i) {
      tree.Insert(static_cast<uint64_t>(i) + 1,
                  lifted[i % lifted.size()]);
    }
    uint64_t now = static_cast<uint64_t>(cfg.window);
    const uint64_t t0 = NowNs();
    for (uint64_t done = 0; done < cfg.tuples;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<uint64_t>(cfg.batch, cfg.tuples - done));
      const Slot* span = stream.data() + done;
      tree.BulkInsert(span, n);
      for (std::size_t k = 0; k < n; ++k) {
        if (span[k].t > now) now = span[k].t;
      }
      tree.BulkEvict(now - static_cast<uint64_t>(cfg.window) + 1);
      done += n;
    }
    const double elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    best = std::max(best, static_cast<double>(cfg.tuples) / elapsed_s);
    sink.Add(static_cast<double>(tree.query()));
  }
  if (frac == 0) {
    std::printf("%-12s %4s %8s %6s %14.2f\n", "ooo-tree", opname, "0", "-",
                best / 1e6);
  } else {
    std::printf("%-12s %4s %8llu %6llu %14.2f\n", "ooo-tree", opname,
                (unsigned long long)frac, (unsigned long long)dist,
                best / 1e6);
  }
  std::fflush(stdout);
  report.Row({{"algo", "ooo-tree"},
              {"op", opname},
              {"mode", "ingest"},
              {"window", JsonReport::Num(cfg.window)},
              {"batch", JsonReport::Num(cfg.batch)},
              {"frac_ooo", JsonReport::Num(frac)},
              {"dist", JsonReport::Num(frac == 0 ? 0 : dist)}},
             best);
  sink.Report();
}

template <typename Op>
void Sweep(const char* opname, const Config& cfg,
           const std::vector<double>& data, JsonReport& report) {
  for (uint64_t frac : kFracs) {
    if (frac == 0) {
      // One in-order row; the dist knob is meaningless without OoO.
      OooRow<Op>(opname, cfg, data, 0, 0, report);
      continue;
    }
    for (uint64_t dist : kDists) {
      OooRow<Op>(opname, cfg, data, frac, dist, report);
    }
  }
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
  cfg.seed = flags.GetU64("seed", 42);
  cfg.batch = std::max<std::size_t>(1, flags.GetU64("batch", 1024));

  std::printf(
      "Exp 6: out-of-order ingestion cost (DESIGN.md §13)\n"
      "# window=%zu tuples=%llu laps=%llu seed=%llu batch=%zu\n",
      cfg.window, (unsigned long long)cfg.tuples,
      (unsigned long long)cfg.laps, (unsigned long long)cfg.seed, cfg.batch);
  std::printf("%-12s %4s %8s %6s %14s\n", "# algo", "op", "frac%", "dist",
              "Mtuples/s");

  const std::vector<double> data = BenchSeries(flags, 1 << 20, cfg.seed);
  JsonReport report(flags, "exp6_ooo");

  BaselineRow<slick::core::SlickDequeInv<Sum>>("slick-inv", "sum", cfg, data,
                                               report);
  Sweep<Sum>("sum", cfg, data, report);
  BaselineRow<slick::core::SlickDequeNonInv<Max>>("slick-noninv", "max", cfg,
                                                  data, report);
  Sweep<Max>("max", cfg, data, report);

  report.Write();
  return 0;
}
