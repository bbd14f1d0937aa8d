// Unit test of the span reducer (trace::Reduce) on synthetic spans.
// Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "trace.h"

namespace {

using slickbench::trace::kNoSpan;
using slickbench::trace::Span;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

Span Make(uint16_t name, uint64_t start, uint64_t end, uint32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.dur_ns = static_cast<uint32_t>(end - start);
  s.parent = parent;
  return s;
}

void NestedChildrenAreSubtracted() {
  namespace t = slickbench::trace;
  // root [0,100) with children [10,30) and [50,60); the first child has a
  // grandchild [15,20) that must not be subtracted from the root.
  const std::vector<Span> spans = {
      Make(t::kBenchTick, 0, 100, kNoSpan), Make(t::kEnginePush, 10, 30, 0),
      Make(t::kCoreSlide, 15, 20, 1), Make(t::kEnginePush, 50, 60, 0)};
  const t::Reduced r = t::Reduce(spans, {});
  ExpectNear(r.self_ns[0], 70, "nested: root self");
  ExpectNear(r.self_ns[1], 15, "nested: child self");
  ExpectNear(r.self_ns[2], 5, "nested: leaf self");
  ExpectNear(r.total_ns[0], 100, "nested: root total");
  const t::Stage push = t::Summarize(spans, r, t::kEnginePush);
  Expect(push.spans == 2, "nested: two engine.push spans");
  ExpectNear(push.self_ns, 25, "nested: engine.push self sum");
  ExpectNear(push.mean_total(), 15, "nested: engine.push mean total");
}

void OverlappingChildrenCountOnce() {
  namespace t = slickbench::trace;
  // Children on other threads may overlap each other and run past the
  // parent: [10,40) ∪ [30,50) ∪ [90,130) covers 40 + 10 of [0,100).
  const std::vector<Span> spans = {
      Make(t::kNetSend, 0, 100, kNoSpan), Make(t::kNetSink, 10, 40, 0),
      Make(t::kNetSink, 30, 50, 0), Make(t::kNetSink, 90, 130, 0)};
  const t::Reduced r = t::Reduce(spans, {});
  ExpectNear(r.self_ns[0], 50, "overlap: parent self");
  ExpectNear(r.self_ns[3], 40, "overlap: late child keeps its own time");
  // A child wholly outside its parent covers nothing.
  const std::vector<Span> apart = {Make(t::kNetSend, 0, 10, kNoSpan),
                                   Make(t::kNetSink, 20, 30, 0)};
  ExpectNear(t::Reduce(apart, {}).self_ns[0], 10, "overlap: disjoint child");
}

void OverheadIsTakenOut() {
  namespace t = slickbench::trace;
  // Recording costs: an empty span reads 4 ns, a Begin/End pair adds 10.
  // root (raw 100) holds child (raw 40) holding leaf (raw 14).
  const std::vector<Span> spans = {Make(t::kEnginePush, 0, 100, kNoSpan),
                                   Make(t::kCoreSlide, 20, 60, 0),
                                   Make(t::kCoreAnswer, 30, 44, 1)};
  const t::Overhead oh{4.0, 10.0};
  const t::Reduced r = t::Reduce(spans, oh);
  ExpectNear(r.total_ns[2], 10, "overhead: leaf total");
  ExpectNear(r.total_ns[1], 40 - 4 - 10, "overhead: child total");
  ExpectNear(r.total_ns[0], 100 - 4 - 2 * 10, "overhead: root total");
  // Self times of a subtree add up to its compensated total.
  ExpectNear(r.self_ns[0] + r.self_ns[1] + r.self_ns[2], r.total_ns[0],
             "overhead: self times sum to the root total");
}

void SummarizeFiltersById() {
  namespace t = slickbench::trace;
  std::vector<Span> spans = {Make(t::kBenchTick, 0, 10, kNoSpan),
                             Make(t::kBenchTick, 10, 30, kNoSpan),
                             Make(t::kBenchTick, 30, 60, kNoSpan)};
  for (uint64_t i = 0; i < spans.size(); ++i) spans[i].id = i;
  const t::Reduced r = t::Reduce(spans, {});
  ExpectNear(t::Summarize(spans, r, t::kBenchTick, 1).total_ns, 50,
             "summarize: ids from 1");
  ExpectNear(t::Summarize(spans, r, t::kBenchTick, 0, 1).total_ns, 10,
             "summarize: ids below 1");
}

void ImportRejectsMalformedImages() {
  namespace t = slickbench::trace;
  t::Reset();
  Expect(!t::Import(std::string(3, '\0')), "import: short image");
  std::string bad(8 + sizeof(Span), '\0');
  bad[0] = 2;  // claims two spans, carries one
  Expect(!t::Import(bad), "import: truncated image");
  // A recorded pair round-trips with its parent link.
  t::Enable(true);
  {
    t::Scope outer(t::kBenchTick, 7);
    t::Scope inner(t::kNetSend);
  }
  t::Enable(false);
  const std::string image = t::Serialize();
  t::Reset();
  Expect(t::Import(image), "import: own image");
  const std::vector<Span> spans = t::Collect();
  Expect(spans.size() == 2 && spans[1].parent == 0 && spans[1].id == 7,
         "import: child keeps its parent and inherits the id");
  t::Reset();
}

}  // namespace

int main() {
  NestedChildrenAreSubtracted();
  OverlappingChildrenCountOnce();
  OverheadIsTakenOut();
  SummarizeFiltersById();
  ImportRejectsMalformedImages();
  if (g_failures == 0) std::printf("trace_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
