// slick_bench: runs one workload of the end-to-end benchmark and reports
// every metric by name and unit (see benchmark/README.md).
//
//   slick_bench --workload=NAME --seed=N [--seconds=S] [--out=PATH]
//               [--trace [--trace-out=PATH]] [--inject-fault]
//
// Exits 0 when every answer matched the reference and every tuple sent
// was processed, 1 when any did not, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "ops/simd_dispatch.h"
#include "provenance.h"
#include "reference.h"
#include "workloads.h"

namespace slickbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Reference&, Results&);
};

constexpr Workload kWorkloads[] = {
    {"acq-sum", RunAcqSum},
    {"acq-max", RunAcqMax},
    {"pipe-inproc", RunPipeInproc},
    {"ingest-tcp", RunIngestTcp},
    {"ingest-shm", RunIngestShm},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric. A workload that does not run a layer reports 0
// for that layer's metrics: the layer did no work.
constexpr MetricDef kPerLayer[] = {
    {"plan.build_ns", "ns"},
    {"plan.partials_per_tuple", "count/tuple"},
    {"engine.push_ns", "ns/tuple"},
    {"engine.self_ns", "ns/tuple"},
    {"engine.answers_per_tuple", "count/tuple"},
    {"core.slide_ns", "ns/tuple"},
    {"core.answer_ns", "ns/tuple"},
    {"core.state_bytes", "bytes"},
    {"ops.combines_per_tuple", "count/tuple"},
    {"ops.inverses_per_tuple", "count/tuple"},
    {"runtime.push_ns_per_tuple", "ns/tuple"},
    {"runtime.query_ns_p50", "ns"},
    {"runtime.query_ns_p99", "ns"},
    {"runtime.drain_ns_per_tuple", "ns/tuple"},
    {"runtime.worker_busy_frac", "frac"},
    {"runtime.batch_size_mean", "count"},
    {"runtime.idle_polls_per_batch", "count"},
    {"runtime.ring_highwater_frac", "frac"},
    {"runtime.producer_push_ns_per_tuple", "ns/tuple"},
    {"net.send_ns_per_tuple", "ns/tuple"},
    {"net.sink_ns_per_tuple", "ns/tuple"},
    {"net.decode_to_sink_ns_p50", "ns"},
    {"net.decode_to_sink_ns_p99", "ns"},
    {"net.frame_errors", "count"},
    {"net.tuples_dropped", "count"},
    {"shm.trypush_ns_per_tuple", "ns/tuple"},
    {"shm.full_retry_frac", "frac"},
    {"shm.slots_tombstoned", "count"},
    {"shm.leases_reclaimed", "count"},
    {"sys.ctx_switches_per_ktuple", "count/ktuple"},
    {"bench.latency_p99_ns", "ns"},
    {"bench.gen_late_p99_ns", "ns"},
    {"bench.poll_resolution_ns", "ns"},
    {"bench.latency_samples", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.traced_wall_ns_per_tuple", "ns/tuple"},
    {"bench.stage_sum_ns_per_tuple", "ns/tuple"},
    {"bench.reconcile_error_frac", "frac"},
};

int PrintUsage() {
  std::fprintf(stderr,
               "usage: slick_bench --workload=NAME --seed=N [--seconds=S] "
               "[--out=PATH] [--trace [--trace-out=PATH]] [--inject-fault]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(opt->seconds > 0.0) ||
          opt->seconds > 600.0) {
        return false;
      }
    } else if (key == "--out") {
      opt->out = val;
    } else if (key == "--trace" && eq == std::string::npos) {
      opt->trace = true;
    } else if (key == "--trace-out") {
      opt->trace_out = val;
    } else if (key == "--inject-fault" && eq == std::string::npos) {
      opt->inject_fault = true;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace slickbench

int main(int argc, char** argv) {
  using namespace slickbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return PrintUsage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return PrintUsage();

  Results out;
  out.Info("workload", opt.workload);
  out.Info("seed", std::to_string(opt.seed));
  out.Info("seconds", std::to_string(opt.seconds));
  out.Info("traced", opt.trace ? "1" : "0");
  out.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.Info("simd", slick::ops::kernels::SimdLevelName(
                       slick::ops::kernels::ActiveSimdLevel()));
  out.Info("compiler", provenance::kCompiler);
  out.Info("build_type", provenance::kBuildType);
  out.Info("commit", provenance::kCommit);

  // Input generation is not part of any measured phase.
  Reference ref(opt.seed);
  workload->run(opt, ref, out);
  for (const MetricDef& m : kPerLayer) {
    if (!out.Has(m.name)) out.Set(m.name, 0.0, m.unit);
  }

  std::fflush(stdout);
  out.Print(stdout);
  if (!opt.out.empty() && !out.WriteJson(opt.out)) {
    std::fprintf(stderr, "slick_bench: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  return out.failed() == 0 ? 0 : 1;
}
