#pragma once

// In-memory span tracing for the traced pass. Spans are recorded only by
// the benchmark's own code, around its calls into each layer; nothing in
// src/ is instrumented.
//
// A span records its name, start and duration (CLOCK_MONOTONIC ns), the
// tick or tuple it belongs to (`id`, shared by every span of that tick or
// tuple) and the span that caused it (`parent`). Each thread appends to
// its own buffer; Collect() merges them once the threads are quiescent.
// A forked child ships its spans back with Serialize()/Import().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slickbench::trace {

enum Name : uint16_t {
  kEnginePush,
  kCoreSlide,
  kCoreAnswer,
  kBenchTick,
  kRuntimePush,
  kRuntimeQuery,
  kNetSend,
  kNetSink,
  kRuntimeProducerPush,
  kShmTrypush,
  kNameCount,
};
const char* NameOf(uint16_t name);

inline constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  uint64_t start_ns = 0;
  uint64_t id = 0;
  uint32_t dur_ns = 0;
  uint32_t parent = kNoSpan;  // index of the causing span; always < own index
  uint16_t name = 0;
  uint16_t thread = 0;
  uint32_t pid = 0;
  uint64_t end_ns() const { return start_ns + dur_ns; }
};

/// Spans one thread can hold (64 MiB); a pass that would record more
/// keeps its earliest spans.
inline constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline thread_local bool t_sampling = true;
}  // namespace detail

/// Process-wide switch. Off (the untraced pass): Begin/End cost one branch.
inline void Enable(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Per-thread gate for per-tuple paths, which trace only sampled tuples:
/// the caller turns it on around them. On by default.
inline void SetSampling(bool on) { detail::t_sampling = on; }

/// True when this thread records spans right now.
inline bool Sampling() {
  return detail::t_sampling &&
         detail::g_enabled.load(std::memory_order_relaxed);
}

/// Opens a span on this thread, nested under the thread's open span.
/// Returns kNoSpan when nothing is recorded (not Sampling(), or the
/// thread's buffer is full). The id-less form inherits the open span's id.
uint32_t Begin(uint16_t name, uint64_t id);
uint32_t Begin(uint16_t name);
void End(uint32_t span);

class Scope {
 public:
  Scope(uint16_t name, uint64_t id) : span_(Begin(name, id)) {}
  explicit Scope(uint16_t name) : span_(Begin(name)) {}
  ~Scope() { End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint32_t span_;
};

/// Spans recorded so far on this thread.
std::size_t Recorded();
/// Touches the storage of this thread's next `spans` spans, so recording
/// them takes no page faults. Call outside any measured interval.
void Prefault(std::size_t spans);

/// Drops every recorded span (all threads, and imports).
void Reset();

/// Merged spans of every thread plus imports, parents re-indexed. Call
/// only while no thread is recording.
std::vector<Span> Collect();

/// Byte image of Collect(), for a forked child to send to its parent.
std::string Serialize();
/// Adds a child's Serialize() image; false if it is malformed.
bool Import(const std::string& bytes);

/// Cost of recording a span: `empty_ns` is the duration an empty span
/// reads, `pair_ns` the wall time one Begin/End pair adds to the code
/// around it. Calibrate() measures both in a tight loop on this thread.
struct Overhead {
  double empty_ns = 0.0;
  double pair_ns = 0.0;
};
Overhead Calibrate();

/// Per-span durations with the recording overhead taken out:
///   total = dur − empty − descendants · pair
///   self  = dur − |union of children ∩ span| − empty
///           − children · (pair − empty)
/// Children may overlap each other and the parent's edges; the union
/// counts covered time once and only inside the parent.
struct Reduced {
  std::vector<double> total_ns;
  std::vector<double> self_ns;
};
Reduced Reduce(const std::vector<Span>& spans, const Overhead& overhead);

/// Sums over the spans named `name` whose id lies in [id_lo, id_hi).
struct Stage {
  uint64_t spans = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double mean_total() const {
    return spans == 0 ? 0.0 : total_ns / static_cast<double>(spans);
  }
  double mean_self() const {
    return spans == 0 ? 0.0 : self_ns / static_cast<double>(spans);
  }
};
Stage Summarize(const std::vector<Span>& spans, const Reduced& reduced,
                uint16_t name, uint64_t id_lo = 0,
                uint64_t id_hi = ~uint64_t{0});

/// Writes spans as Chrome trace-event JSON ("X" events, µs timestamps
/// relative to the first span): the first 100000, enough to browse a run.
bool WriteChrome(const std::string& path, const std::vector<Span>& spans);

}  // namespace slickbench::trace
