// Quickstart: sliding-window aggregation with the dispatching facade.
//
// The facade is the paper's headline idea as an API: declare the aggregate
// operation, and its algebraic traits pick the best algorithm — SlickDeque
// (Inv) for invertible ops, SlickDeque (Non-Inv) for selective ops, DABA
// for anything merely associative.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/sliding_aggregator.h"
#include "ops/ops.h"

int main() {
  using namespace slick;

  // A fixed 4-tuple window over a tiny stream (the paper's Examples 2 & 3
  // use the same flavor of walkthrough).
  core::WindowAggregatorFor<ops::Sum> sum(4);    // -> SlickDeque (Inv)
  core::WindowAggregatorFor<ops::Max> max(4);    // -> SlickDeque (Non-Inv)
  core::WindowAggregatorFor<ops::Average> avg(4);  // -> SlickDeque (Inv)

  const double stream[] = {6, 5, 0, 1, 3, 4, 2, 7};
  std::printf("%6s %18s %18s %18s\n", "tuple", "sum(last 4)", "max(last 4)",
              "avg(last 4)");
  for (double x : stream) {
    sum.slide(ops::Sum::lift(x));
    max.slide(ops::Max::lift(x));
    avg.slide(ops::Average::lift(x));
    std::printf("%6.0f %18.1f %18.1f %18.2f\n", x, sum.query(), max.query(),
                avg.query());
  }

  // Dynamically sized FIFO windows (insert/evict) work the same way:
  core::FifoAggregatorFor<ops::Min> running_min;  // -> Non-Inv FIFO face
  for (double x : stream) running_min.insert(ops::Min::lift(x));
  running_min.evict();  // drop the oldest (6)
  std::printf("\nmin of last %zu tuples: %.1f\n", running_min.size(),
              running_min.query());
  return 0;
}
