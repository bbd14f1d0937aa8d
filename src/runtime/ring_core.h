#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <thread>
#include <utility>

#include "runtime/fault.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/math.h"

namespace slick::runtime {

/// The eventcount park/wake pair of every ring (DESIGN.md §7, §17): a raw
/// futex on the event word, gated by a count of the sleepers on it, so a
/// publish or release with nobody parked on that ring costs one RMW and no
/// syscall. std::atomic::wait is not used: libstdc++ 12 hashes waiters into
/// 16 buckets by `(addr >> 2) % 16`, every 64-byte-aligned event word lands
/// in bucket 0, and while any thread of the process is parked anywhere,
/// every notify on every ring then makes a FUTEX_WAKE syscall.
///
/// `shared` picks the futex scope: process-shared for the shm ring (its
/// peers are other processes), FUTEX_PRIVATE_FLAG for in-process rings.
/// Shared waits are bounded (kWaitBoundNs), so a wake lost to a crashed
/// peer self-heals into a recheck instead of a hang; in-process peers
/// cannot vanish mid-protocol, so private waits are unbounded.
namespace futex {

inline constexpr long kWaitBoundNs = 50'000'000;  // self-healing recheck

SLICK_REALTIME_ALLOW(
    "idle-only parking: futex wait, entered only when the ring has no work "
    "for this side — never on the per-tuple path")
inline void WaitBounded(std::atomic<uint32_t>* word, uint32_t expected,
                        std::atomic<uint32_t>* waiters, bool shared) {
  timespec ts{};
  ts.tv_sec = 0;
  ts.tv_nsec = kWaitBoundNs;
  // Advertise BEFORE sleeping, seq_cst: pairs with WakeAll's seq_cst
  // RMW. Either the waker's event bump precedes the kernel's
  // word==expected check (we don't sleep), or our increment precedes the
  // waker's waiters RMW (it issues the wake). A shm waiter that dies here
  // leaves the count stuck high — that only costs the fast-path skip,
  // never a hang, and the ring this counter serves is the one built to
  // survive exactly such deaths.
  waiters->fetch_add(1, std::memory_order_seq_cst);
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            shared ? FUTEX_WAIT : FUTEX_WAIT_PRIVATE, expected,
            shared ? &ts : nullptr, nullptr, 0);
  // relaxed: the decrement publishes nothing — a waker that misses it
  // merely issues one spurious FUTEX_WAKE on an empty queue.
  waiters->fetch_sub(1, std::memory_order_relaxed);
}

SLICK_REALTIME_ALLOW(
    "eventcount wake: the common nobody-parked case is one RMW on a line "
    "the waker already owns; the futex syscall fires only for real "
    "sleepers")
inline void WakeAll(std::atomic<uint32_t>* word,
                    std::atomic<uint32_t>* waiters, bool shared) {
  // A seq_cst read-modify-write, not a load: an RMW reads the latest
  // value in the waiters' modification order, where it is ordered against
  // every advertise. Either it follows a waiter's advertise — it reads
  // nonzero and we issue the wake — or it precedes it; then the waiter's
  // seq_cst increment reads from this release RMW and synchronizes with
  // it, so the caller's event-word bump (sequenced before this call)
  // happens-before the waiter's FUTEX_WAIT, whose word==expected check
  // fails: the waiter does not sleep. Unlike a fence, ThreadSanitizer
  // models this pairing.
  if (waiters->fetch_add(0, std::memory_order_seq_cst) == 0) return;
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            shared ? FUTEX_WAKE : FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
            nullptr, 0);
}

}  // namespace futex

/// How a batch publish signals the consumer (DESIGN.md §12). Every publish
/// bumps tail_event; kCoalesced skips the futex wake while the unconsumed
/// backlog after the publish stays below half the ring — for a producer
/// whose own thread drains the shard (the engine's router at its next
/// epoch barrier, or a producer handle right after the publish), so a wake
/// would only buy a context switch.
enum class DataWake : uint8_t {
  kEager,      ///< wake a parked consumer on every publish
  kCoalesced,  ///< wake only once the backlog reaches half the ring
};

/// The cursor/eventcount block RingCore works on (DESIGN.md §7), as
/// MpmcRing lays it out. RingCore reaches a ring's block by field name, so
/// SpscRing keeps its cached cursors interleaved in its own block and
/// ShmControl adds the reaper words in the shared segment; each names these
/// nine fields the same way.
struct RingCursors {
  /// Release cursor (slots at [0, head) are reusable by producers).
  alignas(64) std::atomic<uint64_t> head{0};
  /// Producer cursor: the published prefix (SPSC) or the reserved prefix
  /// the producers CAS forward (MPMC, shm).
  alignas(64) std::atomic<uint64_t> tail{0};
  /// Consumer claim cursor, with head <= claim <= tail.
  alignas(64) std::atomic<uint64_t> claim{0};
  /// Eventcounts for parking (bumped per batch, and by close()), each
  /// sharing its line with the count of sleepers on it: the waker reads
  /// both together (futex::WakeAll).
  alignas(64) std::atomic<uint32_t> tail_event{0};
  std::atomic<uint32_t> tail_waiters{0};  // slick-lint: allow(atomic-alignas)
  alignas(64) std::atomic<uint32_t> head_event{0};
  std::atomic<uint32_t> head_waiters{0};  // slick-lint: allow(atomic-alignas)
  /// Written once at shutdown but polled by all sides; its own line keeps
  /// the poll from false-sharing with the head_event bump traffic.
  alignas(64) std::atomic<uint32_t> closed{0};
  /// Occupancy high-water (telemetry; CAS-max, publishes race).
  alignas(64) std::atomic<uint64_t> highwater{0};
};

/// The skeleton of SpscRing, MpmcRing and ShmRing (DESIGN.md §7): a
/// power-of-two slot array indexed by free-running 64-bit cursors, with a
/// consumer-side claim cursor between release and publish. Everything
/// that does not depend on how a slot is published lives here, once: the
/// copying and blocking loops, settle-on-close, the backlog views, the
/// spin-then-park waits and the eventcount signalling.
///
/// `Derived` supplies only what differs between the rings:
///  * storage — `cursors()` (a block with RingCursors' field names) and
///    `slots()`;
///  * the four primitives — TryClaimPush, PublishPush(span, count),
///    TryClaimPop, ReleasePop; the in-process rings also expose
///    CommitPush(span, count), a publish that leaves the signal to the
///    caller, which is what DataWake::kCoalesced needs;
///  * `PopReady()` — "the slot at the claim cursor can be claimed";
///  * `kShared` when its peers live in other processes (futex scope).
///
/// Close and shutdown: close() sets `closed` and signals both
/// eventcounts, so a parked peer always observes shutdown. ClaimPop
/// returns nullptr only once the ring is closed AND settled — every
/// reserved slot published and claimed — so a publish racing close()
/// still lands.
template <typename Derived, typename T>
class RingCore {
 public:
  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy: reserved (published or in flight) minus
  /// released. Exact only at quiescence.
  std::size_t size() const {
    // Trailing cursor FIRST (the acquire orders the pair): head can only
    // lag its true value by the time tail is read, so the difference can
    // only over-count. Reading tail first lets a concurrent ReleasePop
    // advance head past the stale tail and wrap the unsigned subtraction
    // to ~2^64.
    const uint64_t h = cur().head.load(std::memory_order_acquire);
    const uint64_t t = cur().tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }
  bool empty() const { return size() == 0; }

  /// Highest occupancy observed at any publish point (an upper bound).
  /// Readable from any thread; feeds the ring_highwater telemetry gauge.
  std::size_t occupancy_highwater() const {
    // relaxed: monotonic telemetry gauge, no data published through it.
    return static_cast<std::size_t>(
        cur().highwater.load(std::memory_order_relaxed));
  }

  // ------------------------------------------------------------------
  // Producer side.
  // ------------------------------------------------------------------

  /// Copies up to `n` elements from `src` into the ring without blocking.
  /// Returns the number accepted (0 when full or closed). Built on the
  /// claim/publish primitives — at most two segments when the span wraps.
  /// `wake` picks how each segment's publish signals the consumer; a ring
  /// without CommitPush (shm) always wakes eagerly.
  SLICK_NODISCARD SLICK_REALTIME std::size_t try_push_n(
      const T* src, std::size_t n, DataWake wake = DataWake::kEager) {
    std::size_t done = 0;
    while (done < n) {
      std::size_t k = 0;
      T* span = self().TryClaimPush(n - done, &k);
      if (span == nullptr) break;
      for (std::size_t i = 0; i < k; ++i) span[i] = src[done + i];
      if (!PublishCoalesced(span, k, wake)) self().PublishPush(span, k);
      done += k;
      // A claim is capped at the array wrap; continue only when this one
      // ended exactly there (a second segment may be free at the front).
      if (span + k != self().slots() + capacity()) break;
    }
    return done;
  }

  SLICK_NODISCARD SLICK_REALTIME bool try_push(const T& v) {
    return try_push_n(&v, 1) == 1;
  }

  /// Blocking push: copies all `n` elements, parking when the ring is full
  /// (the runtime's backpressure). Returns the number accepted, which is
  /// `n` unless the ring is closed mid-wait. A coalesced producer never
  /// parks on a full ring whose consumer was not woken: a full ring holds
  /// more than half a ring of backlog, and the publish that crossed half
  /// woke the consumer.
  std::size_t push_n(const T* src, std::size_t n,
                     DataWake wake = DataWake::kEager) {
    std::size_t done = 0;
    while (done < n) {
      const std::size_t k = try_push_n(src + done, n - done, wake);
      done += k;
      if (done == n) break;
      if (k == 0) {
        // relaxed: only decides when to give up; WaitForSpace() re-checks
        // closed with acquire before parking, and close() bumps
        // head_event, so a stale `false` here can cost one extra loop
        // iteration but never a lost wakeup or a missed shutdown.
        if (cur().closed.load(std::memory_order_relaxed) != 0) break;
        WaitForSpace();
      }
    }
    return done;
  }

  /// Producers are done: wakes everyone; the consumer settles outstanding
  /// reservations, drains, then sees ClaimPop return nullptr. Idempotent;
  /// callable from any side during shutdown.
  void close() {
    cur().closed.store(1, std::memory_order_release);
    SignalData();
    SignalSpace();
  }

  bool closed() const {
    return cur().closed.load(std::memory_order_acquire) != 0;
  }

  /// Names this ring's lane for the fault-injection schedule (the owning
  /// shard index). Set before threads start; unused unless the build
  /// defines SLICK_FAULT_INJECTION.
  void set_fault_lane(std::size_t lane) { fault_lane_ = lane; }

  /// Read-only views of the eventcount words the wait paths snapshot, and
  /// the exact wake predicates they recheck before parking — introspection
  /// for the deterministic model checker (tests/model/), whose step
  /// machines replay the snapshot/recheck/park protocol against these
  /// instead of approximating the conditions.
  uint32_t tail_event_word() const {
    return cur().tail_event.load(std::memory_order_acquire);
  }
  uint32_t head_event_word() const {
    return cur().head_event.load(std::memory_order_acquire);
  }

  /// The consumer wake condition: an unclaimed slot is ready, or shutdown
  /// has settled (closed and every reservation claimed). "Closed with
  /// reservations in flight" deliberately does NOT wake: the waiter stays
  /// parked until the in-flight publish bumps tail_event — the condition
  /// ClaimPop's settle check mirrors.
  bool pop_ready_or_settled() const {
    if (self().PopReady()) return true;
    if (!closed()) return false;
    // relaxed: claim is the consumer's own cursor; a stale value only
    // makes the wake conservative.
    return cur().tail.load(std::memory_order_acquire) ==
           cur().claim.load(std::memory_order_relaxed);
  }

  /// DataWake::kCoalesced's wake predicate, evaluated right after a
  /// publish: the unconsumed backlog has reached half the ring. It bounds
  /// what an epoch barrier may have to drain on the calling thread.
  bool coalesced_wake_due() const {
    return unconsumed() >= capacity() / 2;
  }

  /// True when the ring has a signal-free publish (CommitPush): only then
  /// does DataWake::kCoalesced skip a wake, and only then may a producer
  /// leave the consumer's signal to a later WakeConsumer(). The shm ring
  /// has none.
  static constexpr bool signal_free_publish() {
    return requires(Derived& d, T* s, std::size_t c) { d.CommitPush(s, c); };
  }

  /// The futex half of a data signal, for a producer that published
  /// coalesced and then decided to wake after all: wakes every thread
  /// parked on tail_event, behind futex::WakeAll's seq_cst gate (no
  /// syscall when nobody sleeps). It bumps nothing — the publish already
  /// did: a consumer that snapshotted the word before that bump fails its
  /// FUTEX_WAIT, one that snapshotted it after sees the data on its
  /// recheck, and one asleep is woken here.
  SLICK_REALTIME void WakeConsumer() {
    futex::WakeAll(&cur().tail_event, &cur().tail_waiters, ProcessShared());
  }

  /// Threads currently parked (or about to park) on the data and space
  /// eventcounts — the sleeper counts futex::WakeAll gates on.
  uint32_t data_waiters() const {
    return cur().tail_waiters.load(std::memory_order_acquire);
  }
  uint32_t space_waiters() const {
    return cur().head_waiters.load(std::memory_order_acquire);
  }

  /// The producer wake condition: a slot below head + capacity is free,
  /// or the ring is closed.
  bool push_space_or_closed() const {
    // relaxed: tail here only gates a retry; every claim path re-validates
    // it, so a stale read costs one loop, nothing more.
    return static_cast<std::size_t>(
               cur().tail.load(std::memory_order_relaxed) -
               cur().head.load(std::memory_order_acquire)) < capacity() ||
           closed();
  }

  // ------------------------------------------------------------------
  // Consumer side (one logical consumer: the shard worker).
  // ------------------------------------------------------------------

  /// Rewinds the claim cursor to the release cursor, so every unreleased
  /// element is claimable again — the recovery primitive: after a worker
  /// dies mid-drain, the supervisor restores the aggregator from its last
  /// checkpoint (which covers exactly [0, head)) and replays [head, tail)
  /// by rewinding the claims. Releases never reset slot state, so the
  /// replayed span re-reads still-published slots untouched. MUST only be
  /// called when no consumer thread is live (after join, before respawn):
  /// the joins/spawns order this store against both the dead consumer's
  /// and the successor's accesses.
  void ResetClaims() {
    // relaxed: see the thread-lifecycle contract above — the caller owns
    // the consumer role here, and thread join/spawn provide the ordering.
    cur().claim.store(cur().head.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }

  /// Elements reserved but not yet claimed — the backlog still to
  /// aggregate (exact from the consumer thread once every producer has
  /// published; an upper bound elsewhere). On the shm ring both views also
  /// count tombstoned positions not yet skipped or released.
  std::size_t unconsumed() const {
    // Trailing cursor FIRST, as in size(): every claim advance is a
    // release made after the consumer acquired the publishes it claims,
    // so a tail read after an acquire of claim is at least that claim. A
    // claim landing between the loads then only inflates the backlog;
    // tail-first could wrap the subtraction to ~2^64.
    const uint64_t c = cur().claim.load(std::memory_order_acquire);
    const uint64_t t = cur().tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - c);
  }

  /// Elements claimed (aggregated or in flight) but not yet released — the
  /// replay span a recovery would re-drain. Telemetry view only; never
  /// used to index slots.
  std::size_t unreleased() const {
    // Trailing cursor (head) FIRST, for the same reason: the releaser
    // advanced claim before releasing, so a release landing between the
    // loads only inflates the span instead of wrapping it.
    const uint64_t h = cur().head.load(std::memory_order_acquire);
    const uint64_t c = cur().claim.load(std::memory_order_acquire);
    return static_cast<std::size_t>(c - h);
  }

  /// Blocking claim: returns a non-empty span (and its length in *count)
  /// unless the ring is closed AND settled, in which case it returns
  /// nullptr — the consumer's shutdown signal. A reservation in flight at
  /// close() is waited for, never stranded: its publisher will publish (or,
  /// on the shm ring, the reaper will repair it) and bump tail_event.
  /// Callers process the span in place and then ReleasePop(*count).
  SLICK_NODISCARD T* ClaimPop(std::size_t max, std::size_t* count) {
    Derived& ring = self();
    for (;;) {
      T* span = ring.TryClaimPop(max, count);
      if (span != nullptr) return span;
      // Elements published before close() still drain; reserved-but-
      // unpublished slots keep AwaitPop parked until their publish.
      if (!AwaitPop()) return nullptr;
    }
  }

  /// Non-claiming wait: blocks (spin, then park) until an unclaimed element
  /// is ready, and returns true; returns false once the ring is closed and
  /// settled (every reservation published and claimed). Claims nothing, so
  /// a consumer may wait here without holding the right to claim — another
  /// claimer may take what woke it, and the caller then simply waits again
  /// (ShardWorker's ownership protocol).
  bool AwaitPop() {
    for (;;) {
      if (self().PopReady()) return true;
      // relaxed: the consumer's own cursor; a stale value only delays the
      // settle verdict by one wait.
      if (closed() && cur().tail.load(std::memory_order_acquire) ==
                          cur().claim.load(std::memory_order_relaxed)) {
        return false;
      }
      WaitForData();
    }
  }

  /// Moves up to `max` elements into `dst` without blocking. Returns the
  /// number popped (0 when nothing is ready). Built on the claim/release
  /// primitives — at most two segments when the span wraps.
  SLICK_NODISCARD SLICK_REALTIME std::size_t try_pop_n(T* dst,
                                                       std::size_t max) {
    std::size_t done = 0;
    while (done < max) {
      std::size_t k = 0;
      T* span = self().TryClaimPop(max - done, &k);
      if (span == nullptr) break;
      for (std::size_t i = 0; i < k; ++i) dst[done + i] = std::move(span[i]);
      self().ReleasePop(k);
      done += k;
      // A claim is capped at the array wrap; continue only when this one
      // ended exactly there (a second segment may be ready at the front).
      if (span + k != self().slots() + capacity()) break;
    }
    return done;
  }

  /// Blocking pop: returns at least one element unless the ring is closed
  /// and settled, in which case it returns 0 — the consumer's shutdown
  /// signal.
  std::size_t pop_n(T* dst, std::size_t max) {
    std::size_t k = 0;
    T* span = ClaimPop(max, &k);
    if (span == nullptr) return 0;
    for (std::size_t i = 0; i < k; ++i) dst[i] = std::move(span[i]);
    self().ReleasePop(k);
    return k;
  }

 protected:
  explicit RingCore(std::size_t mask = 0) : mask_(mask) {}

  /// Index mask for at least `min_capacity` slots, rounded up to a power of
  /// two (shift/mask addressing).
  static std::size_t MaskFor(std::size_t min_capacity) {
    return (std::size_t{1} << util::CeilLog2(
                min_capacity < 2 ? 2 : min_capacity)) -
           1;
  }

  /// Admission gate of every claim path: a closed ring, or an injected
  /// spurious "full", refuses the claim.
  SLICK_REALTIME bool PushRefused() const {
    // relaxed: closed is a monotonic go/no-go flag here — no data is read
    // on the strength of this load, and a stale `false` only admits one
    // more element the consumer still drains after close() (ClaimPop
    // settles). Promptness, not correctness.
    if (cur().closed.load(std::memory_order_relaxed) != 0) return true;
    // Chaos hook (no-op unless SLICK_FAULT_INJECTION): a spurious "full"
    // exercises every caller's full-ring handling on an arbitrary claim.
    return fault::Fire(fault::Point::kRingSpuriousFull, fault_lane_);
  }

  /// Caps a span of `n` slots starting at free-running position `pos` at
  /// the array wrap (so a full claim may take two calls).
  std::size_t ClampToWrap(uint64_t pos, std::size_t n) const {
    const std::size_t to_wrap =
        capacity() - (static_cast<std::size_t>(pos) & mask_);
    return n < to_wrap ? n : to_wrap;
  }

  /// The head-bounded reservation bound of the CAS producers (MPMC, shm,
  /// shm leases): sets *n to the span of up to `max` slots starting at
  /// *tail that stays below head + capacity and before the array wrap.
  /// Returns false (with *n == 0) when the ring is full at a stable *tail;
  /// a stale *tail — another producer moved it past the head just read,
  /// making the ring look overfull — is refreshed and the bound redone.
  SLICK_REALTIME bool HeadBoundedSpan(uint64_t* tail, std::size_t max,
                                      std::size_t* n) const {
    for (;;) {
      // acquire: pairs with ReleasePop's head release store, so slots the
      // consumer has released are safe to overwrite. Every reservation is
      // bounded by head + capacity, which is what makes per-slot free
      // checks unnecessary on the producer side.
      const uint64_t head = cur().head.load(std::memory_order_acquire);
      const uint64_t used = *tail - head;
      if (used < capacity()) {
        const std::size_t free = capacity() - static_cast<std::size_t>(used);
        *n = ClampToWrap(*tail, max < free ? max : free);
        return true;
      }
      // Full — unless our tail view is stale. Re-read once: a genuinely
      // full ring shows a stable tail. relaxed: the caller's CAS
      // re-validates tail; a stale value costs one retry.
      const uint64_t fresh = cur().tail.load(std::memory_order_relaxed);
      if (fresh == *tail) {
        *n = 0;
        return false;
      }
      *tail = fresh;
    }
  }

  /// The CAS reservation of the lease-less multi-producer rings: moves
  /// tail forward over a head-bounded span, exclusively ours the moment
  /// the CAS lands. Returns false when the ring is full; otherwise *pos and
  /// *n name the reserved span. May spuriously report full under a stale
  /// cursor race — callers already retry (try-semantics) or wait (push_n).
  SLICK_REALTIME bool ReserveSpan(std::size_t max, uint64_t* pos,
                                  std::size_t* n) {
    // relaxed: the CAS below re-validates tail; this is only the first
    // guess, and a stale value costs one retry, never a torn reservation.
    uint64_t tail = cur().tail.load(std::memory_order_relaxed);
    for (;;) {
      if (!HeadBoundedSpan(&tail, max, n)) return false;
      // relaxed: the reservation itself carries no payload — overwrite
      // safety came from the head acquire above (sequenced before every
      // later slot store), and publication is the per-slot seq release in
      // PublishPush. Failure reloads tail for the retry.
      if (cur().tail.compare_exchange_weak(tail, tail + *n,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
        *pos = tail;
        return true;
      }
    }
  }

  /// Chaos hook (no-op unless SLICK_FAULT_INJECTION): stall a publish to
  /// widen the window where the consumer sees a stale cursor or an
  /// unpublished reservation.
  SLICK_REALTIME void InjectPublishDelay() const {
    if (fault::Fire(fault::Point::kPublishDelay, fault_lane_)) {
      fault::InjectDelay();
    }
  }

  /// Publish prologue of the per-slot publishers (MPMC, shm): the chaos
  /// delay, then the span's free-running position, recovered from its slot
  /// index, with the high-water raised to the occupancy right after this
  /// publish (an upper bound). Every live reservation lies within one lap
  /// of head (the claim bound), and head cannot pass an unpublished
  /// reservation, so the position is the unique value in
  /// [head, head + capacity) congruent to the index.
  SLICK_REALTIME uint64_t BeginSlotPublish(const T* span, std::size_t count) {
    InjectPublishDelay();
    const auto idx = static_cast<std::size_t>(span - self().slots());
    SLICK_DCHECK(idx <= mask_, "publish span outside the slot array");
    // relaxed: any head value between claim time and now yields the same
    // position (the lap-uniqueness argument above); no data rides on it.
    const uint64_t head = cur().head.load(std::memory_order_relaxed);
    const uint64_t pos = head + ((static_cast<uint64_t>(idx) - head) & mask_);
    RaiseHighwater(pos + count - head);
    return pos;
  }

  SLICK_REALTIME void RaiseHighwater(uint64_t occupancy) {
    // relaxed CAS-max: monotonic gauge, reporting only; publishes race.
    uint64_t hw = cur().highwater.load(std::memory_order_relaxed);
    while (occupancy > hw &&
           !cur().highwater.compare_exchange_weak(hw, occupancy,
                                                  std::memory_order_relaxed,
                                                  std::memory_order_relaxed)) {
    }
  }

  /// Hands `count` claimed slots back to the producers, oldest first.
  /// Single releaser, in claim order (the shard worker); releases may lag
  /// claims and batch several claimed spans into one call.
  SLICK_REALTIME void AdvanceHead(uint64_t count) {
    // relaxed: head is the releaser's own cursor (single releaser).
    const uint64_t head = cur().head.load(std::memory_order_relaxed);
    // relaxed: own cursor, DCHECK only — never release past the claim.
    SLICK_DCHECK(head + count <= cur().claim.load(std::memory_order_relaxed),
                 "ReleasePop past the claim cursor");
    // release: hands the drained slots back; pairs with the producers'
    // head acquire so no producer overwrites a slot still being read.
    cur().head.store(head + count, std::memory_order_release);
    SignalSpace();
  }

  /// Eventcount signals: bump, then wake whoever parked on the word. Once
  /// per publish (data) or release (space) batch, never per element; also
  /// by close() and by shm repair. release: orders the caller's cursor or
  /// seq stores before the bump a waiter snapshots. `wake == false` (a
  /// coalesced publish) bumps only: a waiter between its snapshot and its
  /// futex wait still sees the bump and does not sleep, and a sleeper
  /// stays asleep until a later publish, close() or its own barrier.
  SLICK_REALTIME void SignalData(bool wake = true) {
    cur().tail_event.fetch_add(1, std::memory_order_release);
    if (wake) {
      futex::WakeAll(&cur().tail_event, &cur().tail_waiters, ProcessShared());
    }
  }
  SLICK_REALTIME void SignalSpace() {
    cur().head_event.fetch_add(1, std::memory_order_release);
    futex::WakeAll(&cur().head_event, &cur().head_waiters, ProcessShared());
  }

  std::size_t mask_;
  // Fault-injection lane id (shard index); written once before threads
  // start, read only inside fault::Fire hooks.
  std::size_t fault_lane_ = 0;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
  decltype(auto) cur() const { return self().cursors(); }

  // Futex scope: process-shared only for a ring whose peers are other
  // processes (ShmRing declares kShared). A function, so it is evaluated
  // where Derived is complete.
  static constexpr bool ProcessShared() {
    return requires { Derived::kShared; };
  }

  // Publishes one segment coalesced when `wake` asks for it and the ring
  // has a signal-free publish primitive; returns false, publishing nothing,
  // otherwise (the caller then publishes eagerly). The shm ring has none:
  // its producers are other processes, and they always wake.
  SLICK_REALTIME bool PublishCoalesced(T* span, std::size_t k,
                                       DataWake wake) {
    if constexpr (signal_free_publish()) {
      if (wake == DataWake::kCoalesced) {
        self().CommitPush(span, k);
        SignalData(coalesced_wake_due());
        return true;
      }
    }
    return false;
  }

  // Briefly spin/yield, then park on the eventcount. The snapshot/recheck
  // ordering makes the park race-free: if the peer publishes (or releases)
  // after our recheck, its event bump differs from the snapshot and the
  // park returns at once.
  SLICK_REALTIME_ALLOW(
      "idle-only parking: spin-then-eventcount wait, entered only when the "
      "ring has nothing claimable — never on the per-tuple path")
  void WaitForData() {
    for (int i = 0; i < kSpinYields; ++i) {
      if (pop_ready_or_settled()) return;
      std::this_thread::yield();
    }
    const uint32_t e = cur().tail_event.load(std::memory_order_acquire);
    if (pop_ready_or_settled()) return;
    futex::WaitBounded(&cur().tail_event, e, &cur().tail_waiters,
                       ProcessShared());
  }

  SLICK_REALTIME_ALLOW(
      "idle-only parking: spin-then-eventcount wait, entered only when the "
      "ring is full — backpressure by design, never on the per-tuple path")
  void WaitForSpace() {
    for (int i = 0; i < kSpinYields; ++i) {
      if (push_space_or_closed()) return;
      std::this_thread::yield();
    }
    const uint32_t e = cur().head_event.load(std::memory_order_acquire);
    if (push_space_or_closed()) return;
    futex::WaitBounded(&cur().head_event, e, &cur().head_waiters,
                       ProcessShared());
  }

  // On an oversubscribed host a yield hands the core to the peer almost for
  // free, so only a few attempts before parking (parking costs a futex
  // round trip but never burns the peer's quantum).
  static constexpr int kSpinYields = 4;
};

}  // namespace slick::runtime
