#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "common.h"
#include "util/check.h"

namespace slickbench::trace {
namespace {

struct FreeDeleter {
  void operator()(Span* p) const { std::free(p); }
};

// One thread's spans. The storage is reserved address space; pages become
// resident as spans (or Prefault) reach them.
struct ThreadBuf {
  std::unique_ptr<Span, FreeDeleter> storage;
  std::size_t size = 0;
  uint32_t open = kNoSpan;
  uint32_t pid = 0;
  uint16_t thread = 0;
  Span* data() const { return storage.get(); }
};

std::mutex g_mu;
// Guarded by g_mu: the buffers (owned here so they outlive their threads)
// and the spans imported from children.
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::vector<Span> g_imported;

thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& Buf() {
  if (t_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->storage.reset(
        static_cast<Span*>(std::malloc(kMaxSpansPerThread * sizeof(Span))));
    SLICK_CHECK(buf->storage != nullptr, "cannot reserve span storage");
    buf->pid = static_cast<uint32_t>(::getpid());
    std::lock_guard<std::mutex> lock(g_mu);
    buf->thread = static_cast<uint16_t>(g_bufs.size());
    t_buf = buf.get();
    g_bufs.push_back(std::move(buf));
  }
  return *t_buf;
}

void AppendShifted(const Span* src, std::size_t n, std::vector<Span>* dst) {
  const auto base = static_cast<uint32_t>(dst->size());
  for (std::size_t i = 0; i < n; ++i) {
    Span s = src[i];
    if (s.parent != kNoSpan) s.parent += base;
    dst->push_back(s);
  }
}

uint32_t Open(uint16_t name, uint64_t id, ThreadBuf& b) {
  if (b.size >= kMaxSpansPerThread) return kNoSpan;
  const auto index = static_cast<uint32_t>(b.size++);
  Span& s = b.data()[index];
  s = Span{};
  s.id = id;
  s.parent = b.open;
  s.name = name;
  s.thread = b.thread;
  s.pid = b.pid;
  b.open = index;
  s.start_ns = NowNs();  // last, so the bookkeeping stays outside the span
  return index;
}

}  // namespace

const char* NameOf(uint16_t name) {
  static constexpr const char* kNames[kNameCount] = {
      "engine.push", "core.slide",   "core.answer",
      "bench.tick",  "runtime.push", "runtime.query",
      "net.send",    "net.sink",     "runtime.producer_push",
      "shm.trypush"};
  return name < kNameCount ? kNames[name] : "?";
}

uint32_t Begin(uint16_t name, uint64_t id) {
  if (!Sampling()) return kNoSpan;
  return Open(name, id, Buf());
}

uint32_t Begin(uint16_t name) {
  if (!Sampling()) return kNoSpan;
  ThreadBuf& b = Buf();
  return Open(name, b.open == kNoSpan ? 0 : b.data()[b.open].id, b);
}

void End(uint32_t span) {
  if (span == kNoSpan) return;
  const uint64_t now = NowNs();  // first, for the same reason
  ThreadBuf& b = *t_buf;
  Span& s = b.data()[span];
  s.dur_ns = static_cast<uint32_t>(std::min<uint64_t>(now - s.start_ns, 0xFFFFFFFFu));
  b.open = s.parent;
}

std::size_t Recorded() { return Buf().size; }

void Prefault(std::size_t spans) {
  ThreadBuf& b = Buf();
  constexpr std::size_t kPage = 4096;
  const std::size_t end = std::min(b.size + spans, kMaxSpansPerThread) * sizeof(Span);
  auto* bytes = reinterpret_cast<volatile char*>(b.data());
  for (std::size_t off = b.size * sizeof(Span); off < end; off += kPage) {
    bytes[off] = 0;
  }
}

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_bufs) {
    b->size = 0;
    b->open = kNoSpan;
    b->pid = static_cast<uint32_t>(::getpid());
  }
  g_imported.clear();
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_bufs) AppendShifted(b->data(), b->size, &out);
  AppendShifted(g_imported.data(), g_imported.size(), &out);
  return out;
}

std::string Serialize() {
  const std::vector<Span> spans = Collect();
  const uint64_t n = spans.size();
  std::string out(sizeof(n) + n * sizeof(Span), '\0');
  std::memcpy(out.data(), &n, sizeof(n));
  if (n > 0) std::memcpy(out.data() + sizeof(n), spans.data(), n * sizeof(Span));
  return out;
}

bool Import(const std::string& bytes) {
  uint64_t n = 0;
  if (bytes.size() < sizeof(n)) return false;
  std::memcpy(&n, bytes.data(), sizeof(n));
  if (n > (bytes.size() - sizeof(n)) / sizeof(Span) ||
      bytes.size() != sizeof(n) + n * sizeof(Span)) {
    return false;
  }
  std::vector<Span> spans(n);
  if (n > 0) std::memcpy(spans.data(), bytes.data() + sizeof(n), n * sizeof(Span));
  for (uint64_t i = 0; i < n; ++i) {
    if (spans[i].parent != kNoSpan && spans[i].parent >= i) return false;
    if (spans[i].name >= kNameCount) return false;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  AppendShifted(spans.data(), spans.size(), &g_imported);
  return true;
}

Overhead Calibrate() {
  const bool was_enabled = detail::g_enabled.load(std::memory_order_relaxed);
  const bool was_sampling = detail::t_sampling;
  Enable(true);
  SetSampling(true);
  ThreadBuf& b = Buf();
  constexpr int kReps = 7;
  constexpr int kIters = 20000;
  Prefault(kIters);
  std::vector<double> empty, pair;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::size_t mark = b.size;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) End(Begin(kBenchTick, 0));
    const uint64_t t1 = NowNs();
    const std::size_t recorded = b.size - mark;
    double sum = 0.0;
    for (std::size_t i = mark; i < b.size; ++i) sum += b.data()[i].dur_ns;
    b.size = mark;
    if (recorded == 0) continue;
    empty.push_back(sum / static_cast<double>(recorded));
    pair.push_back(static_cast<double>(t1 - t0) / kIters);
  }
  Enable(was_enabled);
  SetSampling(was_sampling);
  return Overhead{Median(empty), Median(pair)};
}

Reduced Reduce(const std::vector<Span>& spans, const Overhead& overhead) {
  const std::size_t n = spans.size();
  // Children of span i are children[first[i] .. first[i + 1]).
  std::vector<uint32_t> first(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) ++first[s.parent + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<uint32_t> children(first[n]);
  std::vector<uint32_t> next(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent != kNoSpan) {
      children[next[spans[i].parent]++] = static_cast<uint32_t>(i);
    }
  }
  // Parents precede their children, so one backward sweep counts
  // descendants.
  std::vector<double> descendants(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    if (spans[i].parent != kNoSpan) {
      descendants[spans[i].parent] += 1.0 + descendants[i];
    }
  }
  Reduced r;
  r.total_ns.resize(n);
  r.self_ns.resize(n);
  std::vector<std::pair<uint64_t, uint64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (uint32_t k = first[i]; k < first[i + 1]; ++k) {
      const Span& c = spans[children[k]];
      const uint64_t lo = std::max(c.start_ns, s.start_ns);
      const uint64_t hi = std::min(c.end_ns(), s.end_ns());
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const double dur = s.dur_ns;
    const double kids = static_cast<double>(first[i + 1] - first[i]);
    r.total_ns[i] = dur - overhead.empty_ns - descendants[i] * overhead.pair_ns;
    r.self_ns[i] = dur - static_cast<double>(covered) - overhead.empty_ns -
                   kids * (overhead.pair_ns - overhead.empty_ns);
  }
  return r;
}

Stage Summarize(const std::vector<Span>& spans, const Reduced& reduced,
                uint16_t name, uint64_t id_lo, uint64_t id_hi) {
  Stage st;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != name || s.id < id_lo || s.id >= id_hi) continue;
    ++st.spans;
    st.total_ns += reduced.total_ns[i];
    st.self_ns += reduced.self_ns[i];
  }
  return st;
}

bool WriteChrome(const std::string& path, const std::vector<Span>& spans) {
  constexpr std::size_t kMaxFileSpans = 100000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  const std::size_t n = std::min(spans.size(), kMaxFileSpans);
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"otherData\": "
               "{\"spans_total\": %zu, \"spans_written\": %zu},\n"
               "\"traceEvents\": [\n",
               spans.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(
        f,
        "%s{\"name\": \"%s\", \"cat\": \"slick\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, "
        "\"args\": {\"id\": %llu, \"span\": %zu, \"parent\": %lld}}",
        i == 0 ? "" : ",\n", NameOf(s.name),
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3, s.pid,
        static_cast<unsigned>(s.thread), static_cast<unsigned long long>(s.id),
        i, s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace slickbench::trace
