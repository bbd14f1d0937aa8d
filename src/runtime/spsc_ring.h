#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/ring_core.h"
#include "util/annotations.h"
#include "util/check.h"

namespace slick::runtime {

/// Bounded lock-free single-producer/single-consumer ring — the inter-thread
/// channel of the parallel sharded runtime (modeled on SlickQuant's
/// slick_queue: power-of-two slot array indexed by free-running 64-bit
/// counters, acquire/release publication).
///
/// Layout: the head (consumer) and tail (producer) cursors live on
/// separate cache lines so the two threads never false-share; each side also
/// keeps a cached copy of the *other* side's cursor so the hot path
/// (TryClaimPush / TryClaimPop, which the copying try_push_n / try_pop_n
/// wrap) usually runs on thread-local state and touches the shared counter
/// only when the cached view says the ring looks full (producer) or empty
/// (consumer). The claim primitives hand out contiguous in-place spans —
/// one acquire/release pair per batch, zero per element — which is what
/// lets the shard workers bulk-slide straight out of the ring.
///
/// Claims vs releases: the consumer side keeps a third cursor, `claim`,
/// with head <= claim <= tail. TryClaimPop hands out [claim, claim+n)
/// and advances claim immediately, so sequential claims return *disjoint*
/// spans even when nothing has been released yet — a consumer holding an
/// unreleased span when the producer closes still drains the remainder
/// exactly once. ReleasePop advances head, returning slots to the
/// producer; releases may be deferred and batched across several claims,
/// which turns the span [head, claim) into a replay log: the supervised
/// runtime releases only up to its last durable checkpoint, and recovery
/// rewinds claim to head (ResetClaims) to replay the unreleased suffix.
///
/// Everything above the four primitives — the copying and blocking loops,
/// close/settle, the backlog views and the spin-then-park waits — is
/// RingCore's. Parking is RingCore's waiter-counted private futex on the
/// eventcount words; the other side bumps once per *batch*, not per
/// element, and makes the wake syscall only when a sleeper is counted.
template <typename T>
class SpscRing : public RingCore<SpscRing<T>, T> {
  using Core = RingCore<SpscRing<T>, T>;
  friend Core;
  using Core::mask_;

 public:
  /// Trait the engine keys producer-handle support on (MpmcRing is true):
  /// this ring admits exactly one producer thread at a time.
  static constexpr bool kMultiProducer = false;

  /// Capacity is rounded up to a power of two (shift/mask addressing).
  explicit SpscRing(std::size_t min_capacity)
      : Core(Core::MaskFor(min_capacity)),
        slots_(std::make_unique<T[]>(mask_ + 1)) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ------------------------------------------------------------------
  // Producer side.
  // ------------------------------------------------------------------

  /// Claims a contiguous span of up to `max` free slots for in-place
  /// writing, without blocking: returns the span start and sets *count to
  /// its length (capped at the array wrap, so a full claim may take two
  /// calls). Returns nullptr with *count == 0 when the ring is full or
  /// closed. Nothing is visible to the consumer until PublishPush —
  /// one acquire refresh at most per claim, zero per element.
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPush(std::size_t max,
                                                 std::size_t* count) {
    *count = 0;
    if (this->PushRefused()) return nullptr;
    // relaxed: tail is this thread's own cursor (single producer).
    const uint64_t tail = cursors_.tail.load(std::memory_order_relaxed);
    std::size_t free = this->capacity() -
                       static_cast<std::size_t>(tail - cursors_.head_cache);
    if (free < max) {
      // acquire: pairs with ReleasePop's head release store, so slots the
      // consumer has drained are safe to overwrite.
      cursors_.head_cache = cursors_.head.load(std::memory_order_acquire);
      free = this->capacity() -
             static_cast<std::size_t>(tail - cursors_.head_cache);
      if (free == 0) return nullptr;
    }
    *count = this->ClampToWrap(tail, max < free ? max : free);
    return slots_.get() + (static_cast<std::size_t>(tail) & mask_);
  }

  /// Publishes `count` slots previously claimed with TryClaimPush (count
  /// may be less than the claim; unpublished slots are simply re-claimed
  /// next time). One cursor store and one event bump per batch. The span
  /// names the claim in the shared producer API with MpmcRing (where
  /// concurrent claims make the pointer the claim's only name); here the
  /// count alone suffices and the span is only sanity-checked.
  SLICK_REALTIME void PublishPush(T* span, std::size_t count) {
    CommitPush(span, count);
    this->SignalData();
  }

  // ------------------------------------------------------------------
  // Consumer side.
  // ------------------------------------------------------------------

  /// Claims a contiguous span of up to `max` ready elements for in-place
  /// reading, without blocking: returns the span start and sets *count to
  /// its length (capped at the array wrap). Returns nullptr with *count ==
  /// 0 when no *unclaimed* element is ready. Sequential claims return
  /// disjoint spans (the claim cursor advances immediately); the producer
  /// cannot overwrite a span until ReleasePop hands its slots back — one
  /// acquire refresh at most per claim, zero per element.
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPop(std::size_t max,
                                                std::size_t* count) {
    *count = 0;
    // relaxed: claim is the consumer's own cursor (one claimer at a time —
    // ShardWorker's ownership word orders successive claimers); other
    // threads only read it through the backlog views and wait predicates.
    const uint64_t claim = cursors_.claim.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cursors_.tail_cache - claim);
    if (avail == 0) {
      // acquire: pairs with PublishPush's tail release store, so the
      // published slots' contents are visible before we read them.
      cursors_.tail_cache = cursors_.tail.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cursors_.tail_cache - claim);
      if (avail == 0) return nullptr;
    }
    const std::size_t n = this->ClampToWrap(claim, max < avail ? max : avail);
    *count = n;
    // release: carries the tail acquire above to a backlog reader that
    // acquires claim, so its later tail load is never behind this claim
    // (RingCore::unconsumed).
    cursors_.claim.store(claim + n, std::memory_order_release);
    return slots_.get() + (static_cast<std::size_t>(claim) & mask_);
  }

  /// Returns `count` claimed slots to the producer, oldest first. Releases
  /// may lag claims (head <= claim) and may batch several claimed spans
  /// into one call. One cursor store and one event bump per batch.
  SLICK_REALTIME void ReleasePop(std::size_t count) {
    this->AdvanceHead(count);
  }

 private:
  // The publish itself, leaving the signal to the caller (RingCore's
  // coalesced publish bumps the eventcount without always waking).
  SLICK_REALTIME void CommitPush([[maybe_unused]] T* span,
                                 std::size_t count) {
    this->InjectPublishDelay();
    // relaxed: tail is this thread's own cursor (single producer).
    const uint64_t tail = cursors_.tail.load(std::memory_order_relaxed);
    SLICK_DCHECK(
        span == slots_.get() + (static_cast<std::size_t>(tail) & mask_),
        "span-addressed publish must start at the claim cursor");
    // Telemetry: occupancy right after this publish, measured against the
    // producer's (possibly stale) view of head — an upper bound, so the
    // high-water mark never under-reports.
    this->RaiseHighwater(tail + count - cursors_.head_cache);
    // release: publishes the claimed slots' contents; pairs with the
    // consumer's acquire refresh of tail in TryClaimPop.
    cursors_.tail.store(tail + count, std::memory_order_release);
  }

  // Wake condition "unclaimed data exists" (tail != claim), not tail !=
  // head: with releases deferred past a claim, head can lag while
  // everything published is already claimed — waiting on head would spin
  // forever without a single claimable element.
  bool PopReady() const {
    // acquire: pairs with PublishPush's tail release. relaxed: claim is
    // the consumer's own cursor; a stale value (another claimer moved it)
    // can only report ready early, and the claim itself re-checks.
    return cursors_.tail.load(std::memory_order_acquire) !=
           cursors_.claim.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kCacheLine = 64;

  // RingCursors' fields with each side's cache of the other's cursor
  // placed beside what that side writes.
  struct Cursors {
    alignas(kCacheLine) std::atomic<uint64_t> head{0};
    alignas(kCacheLine) std::atomic<uint64_t> tail{0};
    // Producer-local cache of head (no sharing: only the producer
    // touches it).
    alignas(kCacheLine) uint64_t head_cache = 0;
    // Consumer-local cache of tail, and the claim cursor (written only by
    // the consumer; atomic so the backlog views may read it cross-thread).
    alignas(kCacheLine) uint64_t tail_cache = 0;
    // Deliberately shares the consumer-owned cache line with tail_cache:
    // only the consumer writes either. slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> claim{0};
    // Each eventcount shares its line with its sleeper count (RingCursors).
    alignas(kCacheLine) std::atomic<uint32_t> tail_event{0};
    std::atomic<uint32_t> tail_waiters{0};  // slick-lint: allow(atomic-alignas)
    alignas(kCacheLine) std::atomic<uint32_t> head_event{0};
    std::atomic<uint32_t> head_waiters{0};  // slick-lint: allow(atomic-alignas)
    alignas(kCacheLine) std::atomic<uint32_t> closed{0};
    alignas(kCacheLine) std::atomic<uint64_t> highwater{0};
  };

  Cursors& cursors() const { return cursors_; }
  T* slots() const { return slots_.get(); }

  const std::unique_ptr<T[]> slots_;
  // mutable: RingCore reaches the block through one const accessor; every
  // access is an atomic operation or a single-side cache.
  mutable Cursors cursors_;
};

}  // namespace slick::runtime

