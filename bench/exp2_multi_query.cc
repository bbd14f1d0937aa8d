// Exp 2 (paper Figs 12 and 13): max-multi-query throughput vs window size.
//
// After every tuple arrival, queries over ALL ranges 1..window are answered
// (slide 1). Throughput counts shared-plan slides per second; each slide
// produces `window` answers.
//
// Expected shape (paper §5.2): SlickDeque leads from window >= 4 (by up to
// 60% for Sum, up to 345% for Max over the runner-up); Naive collapses
// quadratically, FlatFAT/B-Int as n·log(n). TwoStacks and DABA are absent —
// they do not support multi-query execution (§2.2).
//
// A second sweep fixes the window and varies the query COUNT (ranges
// evenly spaced over 1..window): the shared query_multi answer walk vs one
// query() probe per range.
//
// SlickDeque (Non-Inv) runs unregistered (the paper's head walk) in both
// sweeps, and also with its ranges registered, the face engine::AcqEngine
// drives: `slickdeque-reg` in the window sweep, `slick-noninv-registered`
// in the query-count sweep.
//
// Flags: --max-exp=N (default 12)  --budget-ms=M (default 200)
//        --max-slides=T (default 262144)  --op=sum|max|both  --seed=S
//        --qc-window=W (default 4096; 0 skips the query-count sweep)

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/per_query_adapter.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick::bench {
namespace {

struct Config {
  uint64_t max_exp = 12;
  uint64_t budget_ns = 200'000'000;
  uint64_t max_slides = 1 << 18;
  uint64_t seed = 42;
  std::size_t qc_window = 4096;
};

// Per-algorithm "answer all ranges" strategies, each the idiomatic path.

template <typename Agg>
double AnswerAllRanges(Agg& agg, std::size_t window) {
  // Generic: one range lookup per query, largest first.
  double sink = 0.0;
  for (std::size_t r = window; r >= 1; --r) {
    sink += static_cast<double>(agg.query(r));
  }
  return sink;
}

template <ops::InvertibleOp Op>
double AnswerAllRanges(core::SlickDequeInv<Op>& agg, std::size_t /*window*/) {
  // SlickDeque (Inv): the answers map already holds every result.
  double sink = 0.0;
  agg.for_each_answer([&](std::size_t, const typename Op::result_type& res) {
    sink += static_cast<double>(res);
  });
  return sink;
}

std::vector<std::size_t> AllRanges(std::size_t window) {
  std::vector<std::size_t> ranges(window);
  for (std::size_t r = 1; r <= window; ++r) ranges[r - 1] = r;
  return ranges;
}

/// SlickDeque (Non-Inv) with every range 1..window registered, so each
/// answer reads its range's cursor.
template <typename Op>
struct RegisteredNonInv : core::SlickDequeNonInv<Op> {
  explicit RegisteredNonInv(std::size_t window)
      : core::SlickDequeNonInv<Op>(window, AllRanges(window)) {}
};

template <typename Agg>
struct MultiFactory {
  static Agg Make(std::size_t window) { return Agg(window); }
};
template <ops::InvertibleOp Op>
struct MultiFactory<core::SlickDequeInv<Op>> {
  static core::SlickDequeInv<Op> Make(std::size_t window) {
    return core::SlickDequeInv<Op>(window, AllRanges(window));
  }
};
template <window::FifoAggregator A>
struct MultiFactory<core::PerQueryAdapter<A>> {
  static core::PerQueryAdapter<A> Make(std::size_t window) {
    return core::PerQueryAdapter<A>(window, AllRanges(window));
  }
};

template <typename Agg>
double RunPoint(std::size_t window, const std::vector<double>& data,
                const Config& cfg, Checksum& cs) {
  using Op = typename Agg::op_type;
  Agg agg = MultiFactory<Agg>::Make(window);
  std::size_t di = 0;
  auto next = [&] {
    const double v = data[di];
    di = di + 1 == data.size() ? 0 : di + 1;
    return v;
  };
  for (std::size_t i = 0; i < window; ++i) agg.slide(Op::lift(next()));

  // Ranges buffer for the fused multi-answer path (SlickDeque (Non-Inv)).
  std::vector<std::size_t> ranges_desc;
  std::vector<typename Op::result_type> out;
  if constexpr (requires { agg.query_multi(ranges_desc, out); }) {
    ranges_desc.resize(window);
    for (std::size_t r = 0; r < window; ++r) ranges_desc[r] = window - r;
  }

  const uint64_t batch =
      std::max<uint64_t>(1, std::min<uint64_t>(1024, (1 << 20) / window));
  const uint64_t t0 = NowNs();
  uint64_t slides = 0;
  double sink = 0.0;
  while (slides < cfg.max_slides) {
    for (uint64_t b = 0; b < batch && slides < cfg.max_slides; ++b) {
      agg.slide(Op::lift(next()));
      if constexpr (requires { agg.query_multi(ranges_desc, out); }) {
        out.clear();
        agg.query_multi(ranges_desc, out);
        for (const auto& r : out) sink += static_cast<double>(r);
      } else {
        sink += AnswerAllRanges(agg, window);
      }
      ++slides;
    }
    if (NowNs() - t0 >= cfg.budget_ns) break;
  }
  const uint64_t elapsed = NowNs() - t0;
  cs.Add(sink);
  return static_cast<double>(slides) * 1e3 / static_cast<double>(elapsed);
}

template <typename Op, typename Slick>
void RunSweep(const char* title, const char* opname, const Config& cfg,
              const std::vector<double>& data, JsonReport& report) {
  constexpr bool kRegisteredRow = !ops::InvertibleOp<Op>;
  PrintHeader(title,
              kRegisteredRow
                  ? "# window        naive      flatfat         bint      "
                    "flatfit  twostacks*q      daba*q   slickdeque "
                    "slickdeque-reg   (Mslides/s; each slide answers "
                    "`window` queries; *q = one instance per query, §2.2)"
                  : "# window        naive      flatfat         bint      "
                    "flatfit  twostacks*q      daba*q   slickdeque   "
                    "(Mslides/s; each slide answers `window` queries; *q = "
                    "one instance per query, §2.2)");
  Checksum cs;
  for (uint64_t e = 0; e <= cfg.max_exp; ++e) {
    const std::size_t w = static_cast<std::size_t>(1) << e;
    std::printf("%8zu", w);
    const auto point = [&](const char* algo, double mslides) {
      std::printf(" %12.4f", mslides);
      report.Row({{"algo", algo},
                  {"op", opname},
                  {"window", JsonReport::Num(w)}},
                 mslides * 1e6);
    };
    point("naive", RunPoint<window::NaiveWindow<Op>>(w, data, cfg, cs));
    point("flatfat", RunPoint<window::FlatFat<Op>>(w, data, cfg, cs));
    point("bint", RunPoint<window::BInt<Op>>(w, data, cfg, cs));
    point("flatfit", RunPoint<window::FlatFit<Op>>(w, data, cfg, cs));
    if (w <= 1024) {
      // One aggregator instance per query needs Θ(w²) memory: capped.
      point("twostacks*q",
            RunPoint<core::PerQueryAdapter<window::TwoStacks<Op>>>(w, data,
                                                                   cfg, cs));
      point("daba*q", RunPoint<core::PerQueryAdapter<window::Daba<Op>>>(
                          w, data, cfg, cs));
    } else {
      std::printf(" %12s %12s", "-", "-");
    }
    point("slickdeque", RunPoint<Slick>(w, data, cfg, cs));
    if constexpr (kRegisteredRow) {
      point("slickdeque-reg",
            RunPoint<RegisteredNonInv<Op>>(w, data, cfg, cs));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  cs.Report();
}

// ------------------------- query-count sweep ------------------------------

/// How a query-count point answers: the query_multi walk, one query()
/// probe per range, or one query() per range with the ranges registered.
enum class Answering { kMulti, kSingle, kRegistered };

/// One (query-count, answer-strategy) point: SlickDeque (Non-Inv) at a
/// fixed window answering `nq` evenly spaced ranges after every slide.
/// Returns answers per second.
template <typename Op>
double RunQueryCountPoint(std::size_t window, std::size_t nq, Answering how,
                          const std::vector<double>& data, const Config& cfg,
                          Checksum& cs) {
  // nq ranges evenly spaced over [1, window], descending, r[0] = window.
  std::vector<std::size_t> ranges_desc(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    ranges_desc[i] = window - (i * window) / nq;
  }
  core::SlickDequeNonInv<Op> agg =
      how == Answering::kRegistered
          ? core::SlickDequeNonInv<Op>(window, ranges_desc)
          : core::SlickDequeNonInv<Op>(window);
  std::size_t di = 0;
  auto next = [&] {
    const double v = data[di];
    di = di + 1 == data.size() ? 0 : di + 1;
    return v;
  };
  for (std::size_t i = 0; i < window; ++i) {
    agg.slide(Op::lift(static_cast<typename Op::input_type>(next())));
  }

  std::vector<typename Op::result_type> out;
  out.reserve(nq);

  const uint64_t t0 = NowNs();
  uint64_t slides = 0;
  double sink = 0.0;
  while (slides < cfg.max_slides) {
    for (uint64_t b = 0; b < 512 && slides < cfg.max_slides; ++b) {
      agg.slide(Op::lift(static_cast<typename Op::input_type>(next())));
      if (how == Answering::kMulti) {
        out.clear();
        agg.query_multi(ranges_desc, out);
        for (const auto& r : out) sink += static_cast<double>(r);
      } else {
        for (const std::size_t r : ranges_desc) {
          sink += static_cast<double>(agg.query(r));
        }
      }
      ++slides;
    }
    if (NowNs() - t0 >= cfg.budget_ns) break;
  }
  const uint64_t elapsed = NowNs() - t0;
  cs.Add(sink);
  return static_cast<double>(slides * nq) * 1e9 /
         static_cast<double>(elapsed);
}

template <typename Op>
void RunQueryCountSweep(const char* opname, const Config& cfg,
                        const std::vector<double>& data, JsonReport& report) {
  const std::size_t window = cfg.qc_window;
  std::printf(
      "\nExp2(c) %s: Manswers/s vs query count, window %zu\n"
      "%8s %14s %14s %14s\n",
      opname, window, "# nq", "multi", "per-query", "registered");
  Checksum cs;
  for (std::size_t nq = 1; nq <= window; nq *= 4) {
    std::printf("%8zu", nq);
    const auto point = [&](const char* algo, double aps) {
      std::printf(" %14.2f", aps / 1e6);
      report.Row({{"algo", algo},
                  {"op", opname},
                  {"mode", "qcount"},
                  {"window", JsonReport::Num(window)},
                  {"queries", JsonReport::Num(nq)}},
                 aps);
    };
    point("slick-noninv-multi",
          RunQueryCountPoint<Op>(window, nq, Answering::kMulti, data, cfg,
                                 cs));
    point("slick-noninv-single",
          RunQueryCountPoint<Op>(window, nq, Answering::kSingle, data, cfg,
                                 cs));
    point("slick-noninv-registered",
          RunQueryCountPoint<Op>(window, nq, Answering::kRegistered, data,
                                 cfg, cs));
    std::printf("\n");
    std::fflush(stdout);
  }
  cs.Report();
}

}  // namespace
}  // namespace slick::bench

int main(int argc, char** argv) {
  using namespace slick::bench;
  const Flags flags(argc, argv);
  Config cfg;
  cfg.max_exp = flags.GetU64("max-exp", 12);
  cfg.budget_ns = flags.GetU64("budget-ms", 200) * 1'000'000;
  cfg.max_slides = flags.GetU64("max-slides", 1 << 18);
  cfg.seed = flags.GetU64("seed", 42);
  cfg.qc_window = flags.GetU64("qc-window", 4096);
  const std::string op = flags.GetString("op", "both");

  std::printf("Exp 2: max-multi-query throughput (paper Figs 12, 13)\n");
  std::printf("# max-exp=%llu budget-ms=%llu max-slides=%llu seed=%llu\n",
              (unsigned long long)cfg.max_exp,
              (unsigned long long)(cfg.budget_ns / 1'000'000),
              (unsigned long long)cfg.max_slides,
              (unsigned long long)cfg.seed);

  const std::vector<double> data = BenchSeries(flags, 1 << 20, cfg.seed);

  JsonReport report(flags, "exp2_multi_query");
  if (op == "sum" || op == "both") {
    RunSweep<slick::ops::Sum, slick::core::SlickDequeInv<slick::ops::Sum>>(
        "Exp2(a) Sum over all ranges 1..window, slide 1 (Fig 12)", "sum", cfg,
        data, report);
  }
  if (op == "max" || op == "both") {
    RunSweep<slick::ops::Max,
             slick::core::SlickDequeNonInv<slick::ops::Max>>(
        "Exp2(b) Max over all ranges 1..window, slide 1 (Fig 13)", "max", cfg,
        data, report);
  }
  if (cfg.qc_window > 0 && (op == "max" || op == "both")) {
    RunQueryCountSweep<slick::ops::Max>("max", cfg, data, report);
    RunQueryCountSweep<slick::ops::MaxInt>("max_int", cfg, data, report);
  }
  report.Write();
  return 0;
}
