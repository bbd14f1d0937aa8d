#pragma once

// Umbrella header: the whole public API in one include.
//
//   #include "slickdeque.h"
//   slick::core::WindowAggregatorFor<slick::ops::Max> peak(1024);
//
// Finer-grained headers (listed below) keep compile times down when you
// only need a slice of the library.

#include "core/per_query_adapter.h"    // IWYU pragma: export
#include "core/range_aggregator.h"     // IWYU pragma: export
#include "core/slick_deque_inv.h"      // IWYU pragma: export
#include "core/slick_deque_noninv.h"   // IWYU pragma: export
#include "core/sliding_aggregator.h"   // IWYU pragma: export
#include "core/subtract_on_evict.h"    // IWYU pragma: export
#include "core/time_window.h"          // IWYU pragma: export
#include "core/windowed.h"             // IWYU pragma: export
#include "engine/acq_engine.h"         // IWYU pragma: export
#include "ops/ops.h"                   // IWYU pragma: export
#include "ops/maxcount.h"              // IWYU pragma: export
#include "ops/sketch.h"                // IWYU pragma: export
#include "runtime/parallel_engine.h"   // IWYU pragma: export
#include "runtime/shard_worker.h"      // IWYU pragma: export
#include "runtime/spsc_ring.h"         // IWYU pragma: export
#include "plan/pat.h"                  // IWYU pragma: export
#include "plan/query_spec.h"           // IWYU pragma: export
#include "plan/shared_plan.h"          // IWYU pragma: export
#include "stream/dataset.h"            // IWYU pragma: export
#include "stream/reorder.h"            // IWYU pragma: export
#include "stream/synthetic.h"          // IWYU pragma: export
#include "telemetry/counters.h"        // IWYU pragma: export
#include "telemetry/histogram.h"       // IWYU pragma: export
#include "telemetry/json.h"            // IWYU pragma: export
#include "telemetry/sink.h"            // IWYU pragma: export
#include "telemetry/snapshot.h"        // IWYU pragma: export
#include "window/b_int.h"              // IWYU pragma: export
#include "window/daba.h"               // IWYU pragma: export
#include "window/flat_fat.h"           // IWYU pragma: export
#include "window/flat_fit.h"           // IWYU pragma: export
#include "window/naive.h"              // IWYU pragma: export
#include "window/reference.h"          // IWYU pragma: export
#include "window/two_stacks.h"         // IWYU pragma: export

