// Exp 4 (paper Fig 15): memory requirement vs window size.
//
// Each structure is built at the given window size (including sizes that
// are NOT powers of two, where FlatFAT/B-Int round up), filled with real
// synthetic-sensor data, and its exact data-structure footprint reported
// via memory_bytes(). The process peak RSS (the paper's measurement) is
// printed at the end for reference.
//
// Expected shape (paper §4.2/§5.2): SlickDeque (Inv) matches Naive at ~n;
// FlatFIT/TwoStacks/DABA at ~2n; FlatFAT/B-Int at 2·2^ceil(log2 n) (worst
// 3n at n just above a power of two); SlickDeque (Non-Inv) well below 2n on
// ordinary input (the deque holds only the monotone candidate suffix —
// paper: up to 5x less than Naive).
//
// Flags: --max-exp=N (default 20)  --seed=S

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "util/memory.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick::bench {
namespace {

template <typename Agg>
std::size_t Footprint(std::size_t window, const std::vector<double>& data) {
  using Op = typename Agg::op_type;
  Agg agg(window);
  std::size_t di = 0;
  // Fill one full window plus a lap so dynamic structures reach steady
  // state (TwoStacks/DABA flip at least once; the deque sees real data).
  for (std::size_t i = 0; i < 2 * window + 2; ++i) {
    agg.slide(Op::lift(data[di]));
    di = di + 1 == data.size() ? 0 : di + 1;
  }
  return agg.memory_bytes();
}

void Row(std::size_t w, const std::vector<double>& data, JsonReport& report) {
  using slick::ops::Max;
  using slick::ops::Sum;
  std::printf("%9zu", w);
  // Memory bench: the shared schema's tuples_per_sec is not meaningful, so
  // rows carry 0 and the footprint rides in config.bytes.
  const auto point = [&](const char* algo, std::size_t bytes) {
    std::printf(" %12zu", bytes);
    report.Row({{"algo", algo},
                {"window", JsonReport::Num(w)},
                {"bytes", JsonReport::Num(bytes)}},
               0.0);
  };
  point("naive", Footprint<window::NaiveWindow<Sum>>(w, data));
  point("flatfat", Footprint<window::FlatFat<Sum>>(w, data));
  point("bint", Footprint<window::BInt<Sum>>(w, data));
  point("flatfit", Footprint<window::FlatFit<Sum>>(w, data));
  point("twostacks", Footprint<core::Windowed<window::TwoStacks<Sum>>>(w, data));
  point("daba", Footprint<core::Windowed<window::Daba<Sum>>>(w, data));
  point("slick-inv", Footprint<core::SlickDequeInv<Sum>>(w, data));
  point("slick-noninv", Footprint<core::SlickDequeNonInv<Max>>(w, data));
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace slick::bench

int main(int argc, char** argv) {
  using namespace slick::bench;
  const Flags flags(argc, argv);
  const uint64_t max_exp = flags.GetU64("max-exp", 20);
  const uint64_t seed = flags.GetU64("seed", 42);

  std::printf("Exp 4: memory requirement (paper Fig 15)\n");
  std::printf("# max-exp=%llu seed=%llu\n", (unsigned long long)max_exp,
              (unsigned long long)seed);
  PrintHeader("Structure footprint, bytes",
              "#  window        naive      flatfat         bint      flatfit"
              "    twostacks         daba    slick-inv slick-noninv");

  const std::vector<double> data = BenchSeries(flags, 1 << 20, seed);

  JsonReport report(flags, "exp4_memory");
  for (uint64_t e = 0; e <= max_exp; ++e) {
    const std::size_t w = static_cast<std::size_t>(1) << e;
    Row(w, data, report);
    // Non-power-of-two sizes show the tree structures' rounding penalty.
    if (e >= 2 && e + 1 <= max_exp) {
      Row(w + w / 2, data, report);  // 1.5 * 2^e
    }
  }
  report.Write();

  std::printf("\n# peak RSS of this process: %llu bytes\n",
              (unsigned long long)slick::util::PeakRssBytes());
  return 0;
}
