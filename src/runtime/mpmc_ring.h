#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/ring_core.h"
#include "util/annotations.h"

namespace slick::runtime {

/// Bounded lock-free multi-producer ring — the ingress channel that lets N
/// producer threads (or the TCP front door's event loops) feed a shard
/// directly, with no router hop. Same slick_queue lineage as SpscRing
/// (power-of-two slot array, free-running 64-bit cursors) extended with the
/// reserve/publish protocol of Vyukov's bounded MPMC queue: producers CAS a
/// shared tail cursor to *reserve* a contiguous claim range, write the
/// slots, then *publish* each slot by storing its per-slot sequence number
/// — so slot visibility is per-slot, not implied by the cursor, and
/// concurrent claims publish independently in any order.
///
/// Per-slot sequence protocol: `seq_[pos & mask] == pos + 1` means "the
/// element at free-running position `pos` is published". A slot never
/// needs resetting on release: positions for one index differ by a full
/// lap (capacity), so a stale previous-lap value can never equal the
/// current lap's expected number, and replay after ResetClaims re-reads
/// still-published slots untouched. Producers never read `seq_` at all —
/// slot-reuse safety rides on the claim window being bounded by head
/// (tail - head <= capacity), exactly like the SPSC ring.
///
/// API parity with SpscRing — by design, so `ShardWorker` zero-copy drains
/// and the supervised-recovery ResetClaims replay run unchanged over
/// either ring (the conformance suite in tests/ring_conformance_test.cc
/// pins this), and everything above the four primitives is RingCore's:
///  * Producer: TryClaimPush(max, *count) hands out a contiguous reserved
///    span; PublishPush(span, count) publishes it (the span pointer names
///    the claim — with concurrent producers a bare count cannot). Every
///    reserved slot MUST eventually be published (piecewise is fine:
///    publish [span, span+k) then [span+k, ...)); an abandoned reservation
///    wedges the consumer at that position by design, the same contract as
///    a producer dying inside SpscRing::push_n.
///  * Consumer: TryClaimPop / ReleasePop keep the SPSC shape: the claim
///    cursor advances immediately (disjoint spans), releases may lag and
///    batch (the [head, claim) span is the crash replay log). Claim
///    handout is CAS-based, so concurrent consumers receive disjoint
///    spans; releases remain single-releaser-in-claim-order (the shard
///    worker), as with deferred releases under supervision.
///
/// Parking is RingCore's waiter-counted private futex; a wake wakes every
/// sleeper, because several producers may park on one full ring.
template <typename T>
class MpmcRing : public RingCore<MpmcRing<T>, T> {
  using Core = RingCore<MpmcRing<T>, T>;
  friend Core;
  using Core::mask_;

 public:
  /// Trait the engine keys producer-handle support on (SpscRing is false).
  static constexpr bool kMultiProducer = true;

  /// Capacity is rounded up to a power of two (shift/mask addressing).
  explicit MpmcRing(std::size_t min_capacity)
      : Core(Core::MaskFor(min_capacity)),
        slots_(std::make_unique<T[]>(mask_ + 1)),
        seq_(std::make_unique<std::atomic<uint64_t>[]>(mask_ + 1)) {
    // Value-initialized seq words (all zero) are correct as-is: the
    // published test is the exact equality seq == pos + 1, and zero never
    // matches any pos + 1 a consumer can be waiting on.
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  // ------------------------------------------------------------------
  // Producer side (any number of threads).
  // ------------------------------------------------------------------

  /// Reserves a contiguous span of up to `max` free slots for in-place
  /// writing, without blocking: returns the span start and sets *count to
  /// its length (capped at the array wrap, so a full claim may take two
  /// calls). Returns nullptr with *count == 0 when the ring is full or
  /// closed. The reservation is exclusive the moment the CAS lands; nothing
  /// is visible to consumers until PublishPush(span, count).
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPush(std::size_t max,
                                                 std::size_t* count) {
    *count = 0;
    uint64_t pos = 0;
    if (this->PushRefused() || !this->ReserveSpan(max, &pos, count)) {
      return nullptr;
    }
    return slots_.get() + (static_cast<std::size_t>(pos) & mask_);
  }

  /// Publishes slots previously reserved with TryClaimPush. `span` must be
  /// (a suffix-aligned piece of) the pointer that claim returned — with
  /// concurrent producers the pointer is what names the claim. Partial
  /// publication is allowed only as a split (every reserved slot must be
  /// published exactly once, in any per-piece order).
  SLICK_REALTIME void PublishPush(T* span, std::size_t count) {
    if (count == 0) return;
    CommitPush(span, count);
    this->SignalData();
  }

  // ------------------------------------------------------------------
  // Consumer side (one logical consumer, as with SpscRing: the shard
  // worker — claim handout is CAS-guarded, so concurrent claimers get
  // disjoint spans, but ReleasePop must stay single-releaser-in-order).
  // ------------------------------------------------------------------

  /// Claims a contiguous span of up to `max` *published* elements for
  /// in-place reading, without blocking: returns the span start and sets
  /// *count to its length (capped at the array wrap and at the published
  /// prefix — a reserved-but-unpublished slot ends the span). Returns
  /// nullptr with *count == 0 when no unclaimed published element is ready.
  /// Sequential claims return disjoint spans; producers cannot overwrite a
  /// span until ReleasePop hands its slots back.
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPop(std::size_t max,
                                                std::size_t* count) {
    *count = 0;
    // relaxed: the CAS below re-validates claim; a stale first guess
    // costs one rescan. Data visibility rides on the seq acquires.
    uint64_t claim = cursors_.claim.load(std::memory_order_relaxed);
    for (;;) {
      const std::size_t idx = static_cast<std::size_t>(claim) & mask_;
      const std::size_t limit = this->ClampToWrap(claim, max);
      std::size_t n = 0;
      // Walk the published prefix: seq == pos + 1 is the per-slot
      // publication mark. acquire: pairs with PublishPush's seq release
      // store, making the slot's contents visible before we hand it out.
      while (n < limit && seq_[idx + n].load(std::memory_order_acquire) ==
                              claim + n + 1) {
        ++n;
      }
      if (n == 0) return nullptr;
      // release on success: carries the seq acquires above to a backlog
      // reader that acquires claim (RingCore::unconsumed). relaxed on
      // failure: another claimer won — rescan from its cursor.
      if (cursors_.claim.compare_exchange_weak(claim, claim + n,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
        *count = n;
        return slots_.get() + idx;
      }
    }
  }

  /// Returns `count` claimed slots to the producers, oldest first. Releases
  /// may lag claims (head <= claim) and may batch several claimed spans
  /// into one call. Single releaser, in claim order — the shard worker's
  /// contract, identical to the SPSC ring.
  SLICK_REALTIME void ReleasePop(std::size_t count) {
    this->AdvanceHead(count);
  }

 private:
  // The per-slot publish itself, leaving the signal to the caller
  // (RingCore's coalesced publish bumps the eventcount without always
  // waking).
  SLICK_REALTIME void CommitPush(T* span, std::size_t count) {
    const uint64_t pos = this->BeginSlotPublish(span, count);
    for (std::size_t i = 0; i < count; ++i) {
      // release: publishes the slot's contents; pairs with the consumer's
      // acquire load of the same seq word in TryClaimPop.
      seq_[(pos + i) & mask_].store(pos + i + 1, std::memory_order_release);
    }
  }

  bool PopReady() const {
    // relaxed: claim is effectively the consumer's own cursor here (one
    // claimer at a time); a stale value only makes the wake conservative.
    const uint64_t claim = cursors_.claim.load(std::memory_order_relaxed);
    // acquire: pairs with PublishPush's seq release (the data-ready edge).
    return seq_[static_cast<std::size_t>(claim) & mask_].load(
               std::memory_order_acquire) == claim + 1;
  }

  RingCursors& cursors() const { return cursors_; }
  T* slots() const { return slots_.get(); }

  const std::unique_ptr<T[]> slots_;
  // Per-slot publication sequence words (see class comment). Deliberately
  // a dense array, not one-per-cache-line: values stay contiguous for the
  // zero-copy drains, and adjacent-seq sharing only costs on publishes of
  // neighbouring claims. slick-lint: allow(atomic-alignas)
  const std::unique_ptr<std::atomic<uint64_t>[]> seq_;
  // mutable: RingCore reaches the block through one const accessor; every
  // access is an atomic operation.
  mutable RingCursors cursors_;
};

}  // namespace slick::runtime
