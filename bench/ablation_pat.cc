// Ablation (paper §2.1/§2.3): partial aggregation techniques and sharing.
//
// Part 1 reproduces the Panes -> Pairs -> Cutty partial-count hierarchy
// (Figs 1-3): Pairs halves Panes' partials per window when range % slide
// != 0; Cutty halves Pairs again (at the cost of mid-partial reads that our
// engine — like most systems without punctuation support — cannot execute).
//
// Part 2 quantifies shared-plan savings (Fig 7 / Example 1): partials per
// composite slide with and without sharing, and end-to-end engine
// throughput of a shared multi-ACQ workload under each PAT.
//
// Flags: --tuples=T (default 2000000)  --seed=S

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/slick_deque_inv.h"
#include "engine/acq_engine.h"
#include "ops/arith.h"
#include "plan/pat.h"
#include "plan/shared_plan.h"

namespace slick::bench {
namespace {

using plan::Pat;
using plan::QuerySpec;
using plan::SharedPlan;

void PartialCountTable() {
  std::printf("\n== Partials per window by PAT (paper Figs 1-3) ==\n");
  std::printf("%-24s %8s %8s %8s\n", "# query (range,slide)", "panes",
              "pairs", "cutty");
  const std::vector<QuerySpec> queries = {
      {100, 8}, {100, 7}, {1000, 64}, {1000, 63}, {128, 16}, {7, 3}};
  for (const QuerySpec& q : queries) {
    std::printf("(%llu,%llu)%*s %8llu %8llu %8llu\n",
                (unsigned long long)q.range, (unsigned long long)q.slide,
                static_cast<int>(24 - 4 -
                                 std::to_string(q.range).size() -
                                 std::to_string(q.slide).size()),
                "",
                (unsigned long long)PartialsPerWindow(q, Pat::kPanes),
                (unsigned long long)PartialsPerWindow(q, Pat::kPairs),
                (unsigned long long)PartialsPerWindow(q, Pat::kCutty));
  }
}

void SharingTable() {
  std::printf("\n== Shared-plan edges per composite slide (paper §2.3) ==\n");
  std::printf("%-44s %10s %10s %12s\n", "# workload", "separate", "shared",
              "executable");
  const std::vector<std::pair<const char*, std::vector<QuerySpec>>> workloads =
      {{"example1: (6,2) (8,4)", {{6, 2}, {8, 4}}},
       {"aligned: (12,4) (24,4) (48,4)", {{12, 4}, {24, 4}, {48, 4}}},
       {"harmonics: (64,2) (64,4) (64,8)", {{64, 2}, {64, 4}, {64, 8}}},
       {"coprime: (30,2) (30,3) (30,5)", {{30, 2}, {30, 3}, {30, 5}}},
       {"fragmented: (7,3) (11,4)", {{7, 3}, {11, 4}}}};
  for (const auto& [name, queries] : workloads) {
    const SharedPlan shared = SharedPlan::Build(queries, Pat::kPairs);
    // "Separate" = sum of per-query plans scaled to the composite slide.
    uint64_t separate = 0;
    for (const QuerySpec& q : queries) {
      const SharedPlan solo = SharedPlan::Build({q}, Pat::kPairs);
      separate += solo.partials_per_composite_slide() *
                  (shared.composite_slide() / solo.composite_slide());
    }
    std::printf("%-44s %10llu %10llu %12s\n", name,
                (unsigned long long)separate,
                (unsigned long long)shared.partials_per_composite_slide(),
                shared.executable() ? "yes" : "no");
  }
}

void EngineThroughput(uint64_t tuples, uint64_t seed, JsonReport& report) {
  std::printf(
      "\n== Engine throughput of a shared plan by PAT (Sum, SlickDeque "
      "(Inv)) ==\n");
  std::printf("%-10s %14s %14s %14s\n", "# pat", "Mtuples/s", "answers",
              "partials/comp");
  const std::vector<QuerySpec> queries = {{96, 8}, {100, 8}, {60, 4}, {44, 8}};
  const std::vector<double> data = EnergySeries(1 << 20, seed);
  for (Pat pat : {Pat::kPanes, Pat::kPairs}) {
    engine::AcqEngine<core::SlickDequeInv<ops::Sum>> eng(queries, pat);
    double sink = 0.0;
    std::size_t di = 0;
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < tuples; ++i) {
      eng.Push(data[di], [&](uint32_t, double r) { sink += r; });
      di = di + 1 == data.size() ? 0 : di + 1;
    }
    const double elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    const double rate = static_cast<double>(tuples) / elapsed_s;
    std::printf("%-10s %14.2f %14llu %14llu   # checksum %.6g\n",
                plan::ToString(pat), rate / 1e6,
                (unsigned long long)eng.answers_produced(),
                (unsigned long long)eng.plan().partials_per_composite_slide(),
                sink);
    std::fflush(stdout);
    report.Row({{"algo", "acq-engine"}, {"pat", plan::ToString(pat)}}, rate);
  }
}

}  // namespace
}  // namespace slick::bench

int main(int argc, char** argv) {
  using namespace slick::bench;
  const Flags flags(argc, argv);
  const uint64_t tuples = flags.GetU64("tuples", 2'000'000);
  const uint64_t seed = flags.GetU64("seed", 42);

  std::printf("Ablation: partial aggregation techniques and sharing\n");
  JsonReport report(flags, "ablation_pat");
  PartialCountTable();
  SharingTable();
  EngineThroughput(tuples, seed, report);
  report.Write();
  return 0;
}
