#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/fault.h"
#include "runtime/ring_core.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/serde.h"
#include "util/shm.h"

namespace slick::runtime {

/// In-flight claim state a lease record advertises (DESIGN.md §17 lease
/// state machine). The distinction carries *crash attribution*: kOwned
/// means the producer's tail CAS landed, so the recorded span is certainly
/// and exclusively its property and the reaper may repair it immediately;
/// kIntent means the producer recorded the span it was *about* to CAS for
/// — the CAS may have lost (the span could belong to someone else) or
/// never executed, so the reaper grants a grace period and skips positions
/// claimed by other live leases before repairing.
enum class LeaseSpan : uint64_t {
  kIdle = 0,    ///< no claim in flight
  kIntent = 1,  ///< span recorded, tail CAS outcome unknown
  kOwned = 2,   ///< tail CAS landed: span is exclusively this lease's
};

/// One producer's lease record, resident in the shared segment. pid == 0
/// means the row is free. The epoch counter is the fence: a producer
/// caches it at attach and re-validates before every publish CAS; the
/// reaper bumps it before repairing, so a zombie resuming after a reap
/// observes the mismatch and stands down (and its per-slot publish CASes
/// lose to the reaper's tombstone sequencing even inside the re-validation
/// window). Heartbeats are CLOCK_MONOTONIC nanoseconds — comparable
/// system-wide across processes, immune to wall-clock steps.
struct alignas(64) ShmLease {
  std::atomic<uint64_t> pid;           ///< 0 = free row
  std::atomic<uint64_t> epoch;         ///< fence counter; bumped at reap
  std::atomic<uint64_t> heartbeat_ns;  ///< last refresh (monotonic ns)
  std::atomic<uint64_t> span_begin;    ///< in-flight claim [begin, end)
  std::atomic<uint64_t> span_end;
  std::atomic<uint64_t> span_state;    ///< LeaseSpan
  std::atomic<uint64_t> fenced_at_ns;  ///< 0 = not fenced; set by reaper
};
static_assert(sizeof(ShmLease) == 64, "one lease per cache line");

/// The segment's shared cursor/eventcount block. Same roles as MpmcRing's
/// members; hoisted into a POD so both processes address the one copy.
struct ShmControl {
  /// Release cursor (slots at [0, head) are reusable by producers).
  alignas(64) std::atomic<uint64_t> head;
  /// Shared reservation cursor — the producers' CAS target.
  alignas(64) std::atomic<uint64_t> tail;
  /// Consumer claim cursor, with head <= claim <= tail.
  alignas(64) std::atomic<uint64_t> claim;
  /// Eventcounts for parking (bumped per batch, by close(), by the
  /// reaper), each sharing its cache line with the count of sleepers on
  /// it: the waker reads both together, and the nobody-parked fast path
  /// (the steady state) skips the futex syscall entirely.
  alignas(64) std::atomic<uint32_t> tail_event;
  std::atomic<uint32_t> tail_waiters;  // slick-lint: allow(atomic-alignas)
  alignas(64) std::atomic<uint32_t> head_event;
  std::atomic<uint32_t> head_waiters;  // slick-lint: allow(atomic-alignas)
  /// Written once at shutdown but polled by all sides.
  alignas(64) std::atomic<uint32_t> closed;
  /// Occupancy high-water (telemetry; CAS-max, publishes race).
  alignas(64) std::atomic<uint64_t> highwater;
  /// Reaper telemetry trio — reaper-written, snapshot-read; they share one
  /// padded line because only the (rare) reap path writes them.
  alignas(64) std::atomic<uint64_t> leases_reclaimed;
  std::atomic<uint64_t> slots_tombstoned;  // slick-lint: allow(atomic-alignas)
  std::atomic<uint64_t> zombie_fences;     // slick-lint: allow(atomic-alignas)
};

/// Versioned, CRC'd segment header. layout_hash folds in every quantity
/// the compiled-in ring geometry depends on (slot size/alignment, struct
/// sizes, counts), so an attacher built against a different slot type or
/// struct revision is rejected instead of silently reinterpreting memory.
struct ShmHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t layout_hash;
  uint64_t capacity;
  uint64_t max_producers;
  uint64_t slot_size;
  uint64_t slot_align;
  uint64_t total_bytes;
  uint32_t header_crc;  ///< CRC-32 over the fields above, in order
  /// 0 while the creator initializes; 1 (release) once every cursor, seq
  /// word and lease row is constructed. Attachers acquire-spin on it.
  std::atomic<uint32_t> ready;  // slick-lint: allow(atomic-alignas)
};

inline constexpr uint32_t kShmMagic = 0x4D485353u;  // "SSHM"
inline constexpr uint32_t kShmVersion = 2;

/// Dead-slot marker, ORed into a slot's seq word when the slot is
/// sequenced by tombstone repair instead of a producer publish. Folding
/// the mark into the seq word (rather than a second word array) makes the
/// seq CAS the ONE arbitration point for a slot's fate: whoever sequences
/// the slot decides — atomically — whether it is live (pos + 1) or dead
/// ((pos + 1) | kSeqDead), and the loser's CAS observes that verdict.
/// There is no window where a slot is published-then-retroactively-killed,
/// which is what makes LeaseProducer's `landed` count exact. Positions are
/// free-running counters that cannot plausibly reach 2^62, so the top bit
/// is free.
inline constexpr uint64_t kSeqDead = uint64_t{1} << 63;

/// Byte offsets of the segment's regions. Header, control and lease
/// offsets are independent of the slot type, which is what lets the
/// non-template InspectShmSegment() read cursors and leases from any
/// slick segment without knowing T.
struct ShmLayout {
  std::size_t control_off;
  std::size_t lease_off;
  std::size_t seq_off;
  std::size_t slot_off;
  std::size_t total_bytes;
};

inline constexpr std::size_t ShmAlignUp(std::size_t x, std::size_t a) {
  return (x + a - 1) & ~(a - 1);
}

inline constexpr ShmLayout ComputeShmLayout(std::size_t capacity,
                                            std::size_t max_producers,
                                            std::size_t slot_size,
                                            std::size_t slot_align) {
  ShmLayout l{};
  l.control_off = ShmAlignUp(sizeof(ShmHeader), 64);
  l.lease_off = ShmAlignUp(l.control_off + sizeof(ShmControl), 64);
  l.seq_off =
      ShmAlignUp(l.lease_off + max_producers * sizeof(ShmLease), 64);
  l.slot_off = ShmAlignUp(
      l.seq_off + capacity * sizeof(std::atomic<uint64_t>),
      slot_align > 64 ? slot_align : 64);
  l.total_bytes = ShmAlignUp(l.slot_off + capacity * slot_size, 4096);
  return l;
}

/// FNV-style fold of the geometry quantities into the header's layout
/// hash. Not cryptographic — it only needs to make accidental mismatches
/// (different T, different struct revision) collide with ~zero odds.
inline constexpr uint64_t ShmLayoutHash(std::size_t capacity,
                                        std::size_t max_producers,
                                        std::size_t slot_size,
                                        std::size_t slot_align) {
  uint64_t h = 0xCBF29CE484222325ull ^ (uint64_t{kShmVersion} << 32);
  const uint64_t parts[] = {capacity,  max_producers,      slot_size,
                            slot_align, sizeof(ShmControl), sizeof(ShmLease)};
  for (const uint64_t v : parts) {
    h ^= v;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// CRC of the header's plain fields, computed over a packed serialization
/// so it never depends on struct padding (and needs no offsetof on a type
/// holding an atomic).
inline uint32_t ShmHeaderCrc(const ShmHeader& h) {
  char buf[2 * sizeof(uint32_t) + 6 * sizeof(uint64_t)];
  char* p = buf;
  auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(h.magic);
  put(h.version);
  put(h.layout_hash);
  put(h.capacity);
  put(h.max_producers);
  put(h.slot_size);
  put(h.slot_align);
  put(h.total_bytes);
  return util::Crc32(std::string_view(buf, sizeof(buf)));
}

/// Per-reap-pass repair counts (also accumulated into the segment's
/// telemetry words); what Supervise() folds into RuntimeSnapshot.
struct ShmReapStats {
  uint64_t leases_reclaimed = 0;
  uint64_t slots_tombstoned = 0;
  uint64_t zombie_fences = 0;
};

/// Lifetime telemetry counters read from the segment.
struct ShmLeaseStats {
  uint64_t leases_reclaimed = 0;
  uint64_t slots_tombstoned = 0;
  uint64_t zombie_fences = 0;
};

/// Crash-robust shared-memory MPMC ring (DESIGN.md §17): the MpmcRing
/// reserve/publish protocol relocated into a POSIX shm segment, plus the
/// machinery that makes "a producer is a separate process that can be
/// SIGKILL'd mid-claim" survivable instead of a consumer wedge:
///
///  * **Sequencing is a CAS, not a store.** A slot's seq word moves from
///    its previous-lap value (pos + 1 - capacity, possibly dead-marked,
///    or 0 on the first lap) to its this-lap value by compare-exchange,
///    from exactly one of two writers: the owning producer publishing it
///    live (pos + 1), or tombstone repair marking it dead
///    ((pos + 1) | kSeqDead). Whichever CAS lands first decides the
///    slot's fate — atomically and finally; the loser's CAS fails
///    harmlessly and its failure-order acquire shows it the verdict. A
///    lap-late zombie can never regress a seq word.
///  * **Tombstones ARE seq values.** Because live/dead is a property of
///    the one seq word, a published slot can never be retroactively
///    killed: a producer whose publish CAS won KNOWS the slot will be
///    consumed, which is what makes LeaseProducer::PublishClaimed's
///    `landed` count exact. The consumer skips dead slots — claim
///    advances past them, release accounting folds them into head —
///    instead of wedging on a hole. Like live seq values, dead marks are
///    lap-unique and never need clearing.
///  * **Leases + reaper** (ShmLease above, ReapExpiredLeases below) give
///    the consumer side the authority to decide a producer is gone and
///    repair its in-flight span.
///
/// API parity with MpmcRing is deliberate and pinned by the conformance
/// suite: ShardWorker drains, supervised-recovery ResetClaims replay, and
/// lease-less in-process producer threads all run unchanged over this
/// ring. The consumer side stays single-logical-consumer (the shard
/// worker), same as MpmcRing.
template <typename T>
class ShmRing : public RingCore<ShmRing<T>, T> {
  static_assert(std::is_trivially_copyable_v<T>,
                "shm slots cross process boundaries as raw bytes");
  using Core = RingCore<ShmRing<T>, T>;
  friend Core;
  using Core::mask_;

 public:
  /// Trait the engine keys producer-handle support on.
  static constexpr bool kMultiProducer = true;
  /// Trait marking cross-process residency (conformance suite naming,
  /// engine reaper detection, and RingCore's process-shared futex scope).
  static constexpr bool kShared = true;

  static constexpr std::size_t kDefaultMaxProducers = 16;

  using Core::capacity;

  /// Engine-owned ring: a fresh anonymous segment (unlinked at birth, see
  /// util::ShmMapping::CreateAnonymous) sized for `min_capacity` slots
  /// rounded up to a power of two. fork() children inherit the mapping,
  /// which is how the chaos suite's producer processes reach it.
  explicit ShmRing(std::size_t min_capacity,
                   std::size_t max_producers = kDefaultMaxProducers)
      : ShmRing(util::ShmMapping::CreateAnonymous(BytesFor(
                    min_capacity, max_producers)),
                min_capacity, max_producers) {}

  /// Named ring: linked in /dev/shm until this (owning) ring is destroyed,
  /// so unrelated processes can attach by name.
  ShmRing(const std::string& name, std::size_t min_capacity,
          std::size_t max_producers = kDefaultMaxProducers)
      : ShmRing(util::ShmMapping::CreateNamed(
                    name, BytesFor(min_capacity, max_producers)),
                min_capacity, max_producers) {}

  /// Attaches to an existing named segment created by another process.
  /// Validates magic, version, CRC and the layout hash against THIS
  /// compiled slot type before touching anything else.
  explicit ShmRing(const std::string& name)
      : map_(util::ShmMapping::OpenNamed(name, /*read_only=*/false)) {
    SLICK_CHECK(map_.valid(), "shm attach failed");
    auto* hdr = static_cast<ShmHeader*>(map_.data());
    SLICK_CHECK(map_.size() >= sizeof(ShmHeader), "shm segment truncated");
    // Bounded acquire-spin on the creator's ready flag: pairs with the
    // release store at the end of Init(), after which every field below
    // is immutable (header) or a constructed atomic.
    for (int spin = 0;
         hdr->ready.load(std::memory_order_acquire) == 0; ++spin) {
      SLICK_CHECK(spin < 100000, "shm segment never became ready");
      std::this_thread::yield();
    }
    SLICK_CHECK(hdr->magic == kShmMagic, "shm segment: bad magic");
    SLICK_CHECK(hdr->version == kShmVersion, "shm segment: bad version");
    SLICK_CHECK(hdr->header_crc == ShmHeaderCrc(*hdr),
                "shm segment: header CRC mismatch");
    SLICK_CHECK(hdr->layout_hash ==
                    ShmLayoutHash(static_cast<std::size_t>(hdr->capacity),
                                  static_cast<std::size_t>(hdr->max_producers),
                                  sizeof(T), alignof(T)),
                "shm segment: layout hash mismatch (different slot type "
                "or struct revision)");
    SLICK_CHECK(hdr->total_bytes <= map_.size(), "shm segment truncated");
    mask_ = static_cast<std::size_t>(hdr->capacity) - 1;
    BindPointers();
  }

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  ShmRing(ShmRing&& other) noexcept
      : Core(other),
        map_(std::move(other.map_)),
        hdr_(std::exchange(other.hdr_, nullptr)),
        ctl_(std::exchange(other.ctl_, nullptr)),
        leases_(std::exchange(other.leases_, nullptr)),
        seq_(std::exchange(other.seq_, nullptr)),
        slots_(std::exchange(other.slots_, nullptr)),
        pending_(std::move(other.pending_)) {}

  std::size_t max_producers() const {
    return static_cast<std::size_t>(hdr_->max_producers);
  }
  /// The /dev/shm name for named segments; empty for anonymous ones.
  const std::string& name() const { return map_.name(); }

  /// Lifetime reaper telemetry (leases reclaimed, slots tombstoned,
  /// zombie fences) accumulated in the segment.
  ShmLeaseStats lease_stats() const {
    // relaxed: reporting counters, read at sampling points.
    return ShmLeaseStats{
        ctl_->leases_reclaimed.load(std::memory_order_relaxed),
        ctl_->slots_tombstoned.load(std::memory_order_relaxed),
        ctl_->zombie_fences.load(std::memory_order_relaxed)};
  }

  // ------------------------------------------------------------------
  // Producer side — lease-less (in-process threads: the router, the
  // conformance suite). Cross-process producers layer a lease on top via
  // AttachProducer()/LeaseProducer below, which reuse these primitives.
  // ------------------------------------------------------------------

  /// Reserves a contiguous span of up to `max` free slots for in-place
  /// writing; same contract as MpmcRing::TryClaimPush (nullptr when full
  /// or closed, span capped at the array wrap, bounded by head+capacity).
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPush(std::size_t max,
                                                 std::size_t* count) {
    *count = 0;
    uint64_t pos = 0;
    if (this->PushRefused() || !this->ReserveSpan(max, &pos, count)) {
      return nullptr;
    }
    return slots_ + (static_cast<std::size_t>(pos) & mask_);
  }

  /// Publishes slots previously reserved with TryClaimPush (same span /
  /// piecewise rules as MpmcRing::PublishPush). Publication is per-slot
  /// CAS from the previous-lap seq value — see the class comment; for a
  /// lease-less producer the CAS can only lose to a reaper repairing a
  /// kIntent lease whose recorded span overlapped this claim (a blind
  /// spot DESIGN.md §17 documents; the grace period makes it require a
  /// claim held unpublished for a full lease period).
  SLICK_REALTIME void PublishPush(T* span, std::size_t count) {
    if (count == 0) return;
    const uint64_t pos = this->BeginSlotPublish(span, count);
    for (std::size_t i = 0; i < count; ++i) {
      PublishSlot(pos + i);
    }
    this->SignalData();
  }

  // ------------------------------------------------------------------
  // Consumer side (one logical consumer: the shard worker).
  // ------------------------------------------------------------------

  /// Claims a contiguous span of up to `max` published *live* elements.
  /// Differs from MpmcRing only in tombstone handling: a leading run of
  /// dead slots (seq dead-marked by repair) is skipped — claim advances
  /// past it and the skip is folded into release accounting — and a dead
  /// slot inside the window ends the returned span (the next claim skips
  /// it).
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPop(std::size_t max,
                                                std::size_t* count) {
    *count = 0;
    for (;;) {
      // relaxed: effectively the consumer's own cursor; data visibility
      // rides on the per-slot seq acquires.
      uint64_t claim = ctl_->claim.load(std::memory_order_relaxed);
      // Skip the leading dead run, if any.
      std::size_t skip = 0;
      while (skip < capacity()) {
        const uint64_t pos = claim + skip;
        const std::size_t idx = static_cast<std::size_t>(pos) & mask_;
        // acquire: pairs with the publish/tombstone CAS release stores.
        if (seq_[idx].load(std::memory_order_acquire) !=
            ((pos + 1) | kSeqDead)) {
          break;
        }
        ++skip;
      }
      if (skip > 0) {
        // release/relaxed: cursor handout, same orders as the live-claim
        // CAS below.
        if (!ctl_->claim.compare_exchange_strong(claim, claim + skip,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed)) {
          continue;  // another claimer moved the cursor — rescan
        }
        AccountTombstones(skip);
        claim += skip;
      }
      const std::size_t idx = static_cast<std::size_t>(claim) & mask_;
      const std::size_t limit = this->ClampToWrap(claim, max);
      std::size_t n = 0;
      while (n < limit) {
        const uint64_t pos = claim + n;
        // acquire: pairs with PublishSlot's seq CAS release — the slot's
        // contents are visible before we hand it out. A dead-marked slot
        // fails the equality too, ending the live span at the hole.
        if (seq_[idx + n].load(std::memory_order_acquire) != pos + 1) break;
        ++n;
      }
      if (n == 0) {
        if (skip > 0) continue;  // progressed past a dead run — rescan
        return nullptr;
      }
      uint64_t expect = claim;
      // release on success: carries the seq acquires above to a backlog
      // reader that acquires claim (RingCore::unconsumed). relaxed on
      // failure: another claimer won — rescan.
      if (ctl_->claim.compare_exchange_strong(expect, claim + n,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
        pending_.push_back(Pending{0, n});
        *count = n;
        return slots_ + idx;
      }
    }
  }

  /// Returns `count` claimed *live* slots, oldest first; may batch spans.
  /// Tombstoned positions the claim cursor skipped are folded in here —
  /// the head advance covers them the moment every live slot claimed
  /// before them is released, preserving MpmcRing's releases-lag-claims
  /// replay contract over a ring with holes. Single releaser, in claim
  /// order (the shard worker).
  SLICK_REALTIME void ReleasePop(std::size_t count) {
    uint64_t advance = 0;
    std::size_t remaining = count;
    while (!pending_.empty()) {
      Pending& front = pending_.front();
      if (front.live == 0) {  // dead run: absorb into the head advance
        advance += front.dead;
        pending_.pop_front();
        continue;
      }
      if (remaining == 0) break;
      const std::size_t take =
          remaining < front.live ? remaining : front.live;
      front.live -= take;
      remaining -= take;
      advance += take;
      if (front.live != 0) break;
      pending_.pop_front();  // loop absorbs a trailing dead run, if any
    }
    SLICK_DCHECK(remaining == 0, "ReleasePop past the claimed span");
    advance += remaining;  // defensive: keep cursors consistent anyway
    if (advance == 0) return;
    this->AdvanceHead(advance);
  }

  /// Rewinds the claim cursor to the release cursor — the recovery
  /// primitive (RingCore::ResetClaims; seq words survive releases, so the
  /// replayed span re-reads published slots and re-skips dead-marked
  /// ones). MUST only run with no consumer thread live; the pending skip
  /// accounting resets with the cursor.
  void ResetClaims() {
    pending_.clear();
    Core::ResetClaims();
  }

  // ------------------------------------------------------------------
  // Lease layer — cross-process producers. A LeaseProducer wraps the
  // claim/publish primitives with the lease protocol: record intent,
  // CAS, mark owned, heartbeat, epoch-gate every publish. Its fault
  // hooks are where the chaos suite SIGKILLs the producer process.
  // ------------------------------------------------------------------

  class LeaseProducer {
   public:
    enum class Result : uint8_t { kOk, kFull, kFenced, kClosed };

    LeaseProducer() = default;
    LeaseProducer(const LeaseProducer&) = delete;
    LeaseProducer& operator=(const LeaseProducer&) = delete;
    LeaseProducer(LeaseProducer&& other) noexcept
        : ring_(std::exchange(other.ring_, nullptr)),
          lease_(std::exchange(other.lease_, nullptr)),
          my_pid_(other.my_pid_),
          epoch_at_attach_(other.epoch_at_attach_),
          claim_pos_(other.claim_pos_),
          claim_len_(other.claim_len_),
          stalled_(other.stalled_) {}
    ~LeaseProducer() { Detach(); }

    bool valid() const { return ring_ != nullptr; }

    /// Whether the reaper has fenced this lease (or handed the row to a
    /// new holder). A fenced producer must stop publishing and re-attach.
    bool Fenced() const {
      // seq_cst (a plain load on x86): pairs with the reaper's seq_cst
      // epoch fetch_add — a bumped epoch means repair may already be
      // underway — and is the epoch half of TryBeginClaim's post-CAS
      // Dekker check.
      return lease_->epoch.load(std::memory_order_seq_cst) !=
                 epoch_at_attach_ ||
             lease_->pid.load(std::memory_order_acquire) != my_pid_;
    }

    /// Reserves up to `max` slots, recording the claim in the lease
    /// BEFORE the tail CAS so a crash at any instruction is attributable:
    /// kIntent while the CAS outcome is unknown, kOwned once it landed.
    SLICK_NODISCARD Result TryBeginClaim(std::size_t max,
                                         std::size_t* claimed) {
      *claimed = 0;
      SLICK_DCHECK(claim_len_ == 0, "previous claim not yet published");
      ShmControl* ctl = ring_->ctl_;
      // relaxed: monotonic go/no-go, promptness only (as TryClaimPush).
      if (ctl->closed.load(std::memory_order_relaxed) != 0) {
        return Result::kClosed;
      }
      // relaxed: tail is only a CAS seed — staleness costs one retry.
      uint64_t tail = ctl->tail.load(std::memory_order_relaxed);
      bool first_attempt = true;
      for (;;) {
        // Re-checked on EVERY iteration, before the intent stores below:
        // a producer that stalled long enough to be fenced mid-loop must
        // not rewrite span state into a lease row the reaper may already
        // have reclaimed (and a new holder re-taken).
        if (Fenced()) return Result::kFenced;
        // The head bound every CAS producer shares (RingCore).
        std::size_t n = 0;
        if (!ring_->HeadBoundedSpan(&tail, max, &n)) return Result::kFull;
        // Record intent before the CAS. relaxed stores sequenced before
        // the span_state release: the reaper reads state first (acquire)
        // and only then trusts the span bounds.
        lease_->span_begin.store(tail, std::memory_order_relaxed);
        lease_->span_end.store(tail + n, std::memory_order_relaxed);
        lease_->span_state.store(
            static_cast<uint64_t>(LeaseSpan::kIntent),
            std::memory_order_release);
        if (first_attempt) {
          first_attempt = false;
          // Crash with intent recorded but the CAS outcome unknown — the
          // reaper must take the grace-wait branch for this lease. Fired
          // once per claim attempt so chaos kill ordinals stay stable
          // across CAS retries.
          if (fault::Fire(fault::Point::kShmDieBeforeClaim,
                          ring_->fault_lane_)) {
            fault::DieHard();
          }
        }
        // seq_cst on success: this CAS and the Fenced() epoch load below
        // are this side of the Dekker pairing with the reaper, whose
        // seq_cst epoch bump precedes its seq_cst tail load. All four sit
        // in one total order, so if the reaper's tail load missed this
        // CAS — and so skips [tail, tail + n) as never-claimed — the
        // epoch load below comes after the bump and observes it: the span
        // is never stranded outside every repair. The success order's
        // release also hands the intent stores above to a reaper whose
        // tail load reads this CAS or a later one. relaxed on failure:
        // the retry reloads tail and re-checks everything.
        if (ctl->tail.compare_exchange_weak(tail, tail + n,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          if (Fenced()) {
            // The tail CAS landed, so the span is exclusively ours —
            // but the lease row no longer is: the reaper fenced us
            // between the intent record and here, and may already have
            // reclaimed the row (a stalled kIntent holder) or handed it
            // to a new producer. Publishing is forbidden and the span
            // can be recorded in no lease, so repair it ourselves,
            // exactly as the reaper would, and wake the consumer off
            // the hole. Without this, the reservation would be a
            // permanently unsequenced hole no reap pass can see — the
            // wedge this ring exists to eliminate.
            uint64_t dead = 0;
            for (uint64_t pos = tail; pos < tail + n; ++pos) {
              if (ring_->TombstoneSlot(pos)) ++dead;
            }
            if (dead != 0) {
              // relaxed: monotonic telemetry counter.
              ctl->slots_tombstoned.fetch_add(dead,
                                              std::memory_order_relaxed);
            }
            ring_->SignalData();
            return Result::kFenced;
          }
          // The span is now certainly ours: upgrade the attribution. No
          // heartbeat here: attach seeded one and every publish refreshes
          // it, so claim-time staleness is already bounded by the last
          // publish — and clock_gettime is a third of the whole lease
          // overhead at batch 64. A holder that claims and then stalls
          // past lease_ns is fenced either way; only the measuring point
          // moves, by at most one claim-to-publish gap.
          lease_->span_state.store(
              static_cast<uint64_t>(LeaseSpan::kOwned),
              std::memory_order_release);
          claim_pos_ = tail;
          claim_len_ = n;
          *claimed = n;
          return Result::kOk;
        }
      }
    }

    T* claim_data() const {
      return ring_->slots_ +
             (static_cast<std::size_t>(claim_pos_) & ring_->mask_);
    }
    std::size_t claim_len() const { return claim_len_; }

    /// Publishes the slots of the current claim, epoch-gated: a fenced
    /// producer publishes nothing (and a fence landing mid-span stops the
    /// remainder — each slot's CAS independently loses to the reaper's
    /// tombstone sequencing anyway). Returns the number of slots that
    /// actually landed; clears the claim either way.
    ///
    /// `landed` is EXACT, not advisory: live/dead is decided by the one
    /// seq-word CAS per slot, so a slot this walk won is live and will be
    /// consumed, and a slot it lost (or never attempted after a loss) was
    /// — or is about to be — dead-marked by the repair that beat it.
    /// Callers can treat kOk/`landed` as an at-least-once delivery fact.
    std::size_t PublishClaimed() {
      if (claim_len_ == 0) return 0;
      if (fault::Fire(fault::Point::kShmZombieResume, ring_->fault_lane_)) {
        // Stall far past the (test-sized) lease period, then fall through
        // and try to publish — the zombie-resume schedule. The reaper
        // must have fenced us by the time we wake; the gates below and
        // the per-slot CAS protocol are what make the zombie lose.
        fault::InjectLongStall();
      }
      if (fault::Fire(fault::Point::kShmDieBeforePublish,
                      ring_->fault_lane_)) {
        fault::DieHard();
      }
      const uint64_t pos0 = claim_pos_;
      const std::size_t n = claim_len_;
      std::size_t landed = 0;
      // One fence check gates the whole walk: each slot's CAS arbitrates
      // exactly (a reaper that fenced mid-walk wins per slot regardless),
      // so the per-slot check would buy nothing but a load per slot on
      // the hot path. A lost CAS can only mean tombstone repair is
      // walking this same span — its failure-order acquire synchronizes
      // with the repair CAS, making the (program-order earlier) epoch
      // bump visible — so stop: the repair pass covers every remaining
      // unpublished position, and burning CASes that lose changes
      // nothing.
      if (!Fenced()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (fault::Fire(fault::Point::kShmDieMidSpan,
                          ring_->fault_lane_)) {
            fault::DieHard();
          }
          if (!ring_->PublishSlot(pos0 + i)) {
            SLICK_DCHECK(Fenced(), "publish CAS lost to a non-repair writer");
            break;
          }
          ++landed;
        }
      }
      if (landed > 0) {
        // relaxed: highwater is advisory telemetry; a stale head only
        // under-reports occupancy for one sample.
        ring_->RaiseHighwater(
            pos0 + n - ring_->ctl_->head.load(std::memory_order_relaxed));
      }
      if (!Fenced()) {
        // Still ours (the reaper bumps the epoch before ever freeing or
        // reusing the row, so not-fenced implies the row is still this
        // producer's): retire the span and refresh the heartbeat.
        lease_->span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                                 std::memory_order_release);
        Heartbeat();
      }
      claim_len_ = 0;
      // Wake the consumer even when landed < n: the reaper's tombstones
      // cover the rest, and an extra bump is harmless.
      ring_->SignalData();
      return landed;
    }

    /// Claim + copy + publish in one call. *pushed counts slots that
    /// landed; kOk only when all `n` did.
    SLICK_NODISCARD Result TryPush(const T* src, std::size_t n,
                                   std::size_t* pushed) {
      *pushed = 0;
      while (*pushed < n) {
        std::size_t k = 0;
        const Result r = TryBeginClaim(n - *pushed, &k);
        if (r != Result::kOk) return *pushed == n ? Result::kOk : r;
        T* span = claim_data();
        for (std::size_t i = 0; i < k; ++i) span[i] = src[*pushed + i];
        const std::size_t landed = PublishClaimed();
        *pushed += landed;
        if (landed < k) return Result::kFenced;
      }
      return Result::kOk;
    }

    /// Timer-path heartbeat refresh (the publish path refreshes
    /// implicitly). Once the stalled-heartbeat fault fires, refreshes
    /// stop permanently — simulating a producer wedged outside the
    /// publish path.
    void RefreshLease() {
      if (stalled_) return;
      if (fault::Fire(fault::Point::kShmStallHeartbeat,
                      ring_->fault_lane_)) {
        stalled_ = true;
        return;
      }
      if (!Fenced()) Heartbeat();
    }

    /// Graceful detach: frees the lease row (never touches a row the
    /// reaper already fenced away from us).
    void Detach() {
      if (ring_ == nullptr) return;
      if (!Fenced()) {
        lease_->span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                                 std::memory_order_release);
        lease_->heartbeat_ns.store(0, std::memory_order_release);
        uint64_t expect = my_pid_;
        // CAS, not store: the reaper may have freed (and a new producer
        // re-taken) the row between the Fenced() check and here. relaxed
        // failure order: on loss we touch nothing and read nothing back.
        lease_->pid.compare_exchange_strong(expect, 0,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed);
      }
      ring_ = nullptr;
      lease_ = nullptr;
    }

   private:
    friend class ShmRing;
    LeaseProducer(ShmRing* ring, ShmLease* lease, uint64_t pid,
                  uint64_t epoch)
        : ring_(ring), lease_(lease), my_pid_(pid), epoch_at_attach_(epoch) {}

    void Heartbeat() {
      // release: a reaper that reads a fresh heartbeat also sees the
      // span/state stores that preceded it.
      lease_->heartbeat_ns.store(util::MonotonicNanos(),
                                 std::memory_order_release);
    }

    ShmRing* ring_ = nullptr;
    ShmLease* lease_ = nullptr;
    uint64_t my_pid_ = 0;
    uint64_t epoch_at_attach_ = 0;
    uint64_t claim_pos_ = 0;
    std::size_t claim_len_ = 0;
    bool stalled_ = false;
  };

  /// Attaches the calling process as a lease-holding producer: claims a
  /// free lease row (pid CAS), stamps the first heartbeat, caches the
  /// fence epoch. CHECK-fails when the table is full — table sizing is a
  /// deployment decision, not a runtime condition to retry.
  SLICK_NODISCARD LeaseProducer AttachProducer() {
    const auto me = static_cast<uint64_t>(::getpid());
    for (std::size_t i = 0; i < max_producers(); ++i) {
      ShmLease& lease = leases_[i];
      uint64_t expect = 0;
      // acq_rel: acquire the row's final state from its previous holder
      // (or the reaper's free), release our ownership claim. relaxed
      // failure order: an occupied row is just skipped, nothing is read.
      if (!lease.pid.compare_exchange_strong(expect, me,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
        continue;
      }
      // Row is exclusively ours; relaxed scrub stores suffice because the
      // heartbeat's release below publishes them to the reaper as a unit.
      lease.span_begin.store(0, std::memory_order_relaxed);
      lease.span_end.store(0, std::memory_order_relaxed);
      lease.span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                             std::memory_order_relaxed);
      lease.fenced_at_ns.store(0, std::memory_order_relaxed);
      lease.heartbeat_ns.store(util::MonotonicNanos(),
                               std::memory_order_release);
      const uint64_t epoch = lease.epoch.load(std::memory_order_acquire);
      return LeaseProducer(this, &lease, me, epoch);
    }
    SLICK_CHECK(false, "shm lease table full");
    return LeaseProducer();
  }

  /// The consumer-side reaper (DESIGN.md §17): fences and repairs leases
  /// whose holder is dead (pid gone) or expired (heartbeat stale past
  /// `lease_ns`). Single caller at a time (the engine's Supervise path,
  /// or a test thread); safe against concurrent producers and consumer.
  ///
  /// Per expired lease, in order:
  ///  1. FENCE (once): bump the epoch, stamp fenced_at. From here the
  ///     holder's Fenced() gate trips, and every slot the repair
  ///     sequences is CAS-protected against the holder's late publishes.
  ///     A fence applied to a still-running process is a zombie fence.
  ///  2. REPAIR: tombstone the unpublished positions of the recorded
  ///     span. kOwned spans repair immediately (ownership is certain);
  ///     kIntent spans wait one further lease period after the fence
  ///     (the recorded CAS may have lost or never run) and skip
  ///     positions beyond tail or covered by another live lease's span.
  ///  3. RECLAIM: free the row (pid CAS to 0) and count it.
  ShmReapStats ReapExpiredLeases(uint64_t now_ns, uint64_t lease_ns) {
    ShmReapStats out;
    for (std::size_t li = 0; li < max_producers(); ++li) {
      ShmLease& lease = leases_[li];
      // acquire: everything we read about this row below was published
      // by heartbeat/attach release stores.
      const uint64_t pid = lease.pid.load(std::memory_order_acquire);
      if (pid == 0) continue;
      const bool dead =
          ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
      const uint64_t beat =
          lease.heartbeat_ns.load(std::memory_order_acquire);
      const bool stale =
          beat != 0 && now_ns > beat && now_ns - beat > lease_ns;
      if (!dead && !stale) continue;

      // 1. Fence (idempotent across reap passes via fenced_at).
      if (lease.fenced_at_ns.load(std::memory_order_acquire) == 0) {
        // seq_cst: the bump both observes the holder's last stores and
        // publishes the fence to its next Fenced() check, and it is this
        // side's store in the Dekker pairing below.
        lease.epoch.fetch_add(1, std::memory_order_seq_cst);
        lease.fenced_at_ns.store(now_ns == 0 ? 1 : now_ns,
                                 std::memory_order_release);
        if (!dead) {
          ++out.zombie_fences;
          // relaxed: monotonic telemetry counter; readers tolerate skew.
          ctl_->zombie_fences.fetch_add(1, std::memory_order_relaxed);
        }
      }

      // Dekker pairing with TryBeginClaim: the holder CASes tail
      // (seq_cst) then re-reads the epoch (seq_cst); we bumped the epoch
      // (seq_cst, this pass or an earlier one) and now read tail
      // (seq_cst). All four sit in one total order, so at least one side
      // sees the other: either this load observes the holder's CAS (so
      // its span is inside [.., tail) and repairable), or the holder's
      // re-read observes the bump and it self-repairs. No interleaving
      // leaves a reserved span that neither side tombstones. tail is read
      // BEFORE span_state: reading the holder's release CAS (or any later
      // RMW of tail) synchronizes with it, so the state load below also
      // sees the intent the holder recorded before that CAS. Reading it
      // early is conservative — positions reserved after it are
      // skipped as never-claimed here and, per the pairing, self-repaired.
      const uint64_t tail = ctl_->tail.load(std::memory_order_seq_cst);

      // 2. Repair the recorded span, if attribution allows it yet.
      const auto state = static_cast<LeaseSpan>(
          lease.span_state.load(std::memory_order_acquire));
      if (state != LeaseSpan::kIdle) {
        // relaxed: fenced_at was stored by THIS reaper (single-threaded),
        // and the span words are ordered by the span_state acquire above
        // (they precede the holder's kIntent release store).
        const uint64_t fenced_at =
            lease.fenced_at_ns.load(std::memory_order_relaxed);
        if (state == LeaseSpan::kIntent &&
            now_ns - fenced_at < lease_ns) {
          continue;  // grace period: revisit on a later reap pass
        }
        // relaxed span words: ordered by the span_state acquire above.
        const uint64_t begin =
            lease.span_begin.load(std::memory_order_relaxed);
        const uint64_t end = lease.span_end.load(std::memory_order_relaxed);
        if (begin < end && end - begin <= capacity()) {
          for (uint64_t pos = begin; pos < end; ++pos) {
            if (pos >= tail) continue;  // never claimed by anyone
            if (state == LeaseSpan::kIntent &&
                CoveredByOtherLease(li, pos)) {
              continue;  // the CAS lost; the span belongs to someone live
            }
            // One CAS decides the slot's fate: win => dead-marked, the
            // consumer skips it atomically (it can never read the slot
            // as live garbage, because live requires the exact value
            // pos + 1). Lose => the holder's publish squeaked in after
            // our fence — the slot is LIVE with real data, stays
            // consumable, and the holder rightly counted it as landed.
            if (TombstoneSlot(pos)) {
              ++out.slots_tombstoned;
            }
          }
        }
      }

      // 3. Reclaim the row. Scrub, then CAS pid — the CAS (not a store)
      // keeps a racing graceful Detach from double-counting. relaxed span
      // scrubs ride the pid CAS's release; relaxed failure order because
      // a lost CAS (graceful Detach won) reads nothing back; the
      // reclaimed counter is monotonic telemetry tolerant of skew.
      lease.span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                             std::memory_order_release);
      lease.span_begin.store(0, std::memory_order_relaxed);
      lease.span_end.store(0, std::memory_order_relaxed);
      lease.heartbeat_ns.store(0, std::memory_order_release);
      lease.fenced_at_ns.store(0, std::memory_order_release);
      uint64_t expect = pid;
      // relaxed failure order: a lost CAS (graceful Detach won) reads
      // nothing back; the counter is relaxed monotonic telemetry.
      if (lease.pid.compare_exchange_strong(expect, 0,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        ++out.leases_reclaimed;
        ctl_->leases_reclaimed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (out.slots_tombstoned != 0) {
      // relaxed: monotonic telemetry counter; readers tolerate skew.
      ctl_->slots_tombstoned.fetch_add(out.slots_tombstoned,
                                       std::memory_order_relaxed);
    }
    if (out.slots_tombstoned != 0 || out.leases_reclaimed != 0) {
      // The consumer may be parked on a hole we just repaired: bump the
      // eventcount so it rescans (and skips) the tombstoned run.
      this->SignalData();
    }
    return out;
  }

 private:
  /// White-box access for tests (tests/shm_chaos_test.cc): the kIntent
  /// grace path is reachable only through a crash between the intent
  /// store and the tail CAS, which a single tier-1 process cannot produce
  /// organically — the test forges the lease row instead.
  friend struct ShmRingTestPeer;

  /// Whether `pos` lies inside the in-flight span of any live lease other
  /// than `self` — the kIntent repair guard. Racy by nature (advisory
  /// reads of other rows); a false positive just defers the position to
  /// that lease's own eventual publish or reap.
  bool CoveredByOtherLease(std::size_t self, uint64_t pos) const {
    for (std::size_t i = 0; i < max_producers(); ++i) {
      if (i == self) continue;
      const ShmLease& lease = leases_[i];
      if (lease.pid.load(std::memory_order_acquire) == 0) continue;
      if (lease.span_state.load(std::memory_order_acquire) ==
          static_cast<uint64_t>(LeaseSpan::kIdle)) {
        continue;
      }
      // relaxed: ordered by the span_state acquire above; a torn view at
      // worst defers this row's repair to the next reap pass.
      const uint64_t b = lease.span_begin.load(std::memory_order_relaxed);
      const uint64_t e = lease.span_end.load(std::memory_order_relaxed);
      if (b <= pos && pos < e) return true;
    }
    return false;
  }
  /// Claim-order skip accounting (consumer-thread private): each entry is
  /// either a run of live claimed slots awaiting release ({0, n}) or a
  /// run of tombstoned slots the claim cursor skipped ({n, 0}). Invariant:
  /// a dead run is queued only while a live run precedes it unreleased
  /// (otherwise the head advances immediately in AccountTombstones), so
  /// draining releases always retires every queued entry.
  struct Pending {
    std::size_t dead;
    std::size_t live;
  };

  static std::size_t BytesFor(std::size_t min_capacity,
                              std::size_t max_producers) {
    return ComputeShmLayout(Core::MaskFor(min_capacity) + 1, max_producers,
                            sizeof(T), alignof(T))
        .total_bytes;
  }

  /// Create-path delegate: takes the freshly created mapping, constructs
  /// every shared object in place, then flips the header's ready flag.
  ShmRing(util::ShmMapping map, std::size_t min_capacity,
          std::size_t max_producers)
      : Core(Core::MaskFor(min_capacity)), map_(std::move(map)) {
    SLICK_CHECK(map_.valid(), "shm segment creation failed");
    SLICK_CHECK(max_producers >= 1, "shm ring needs at least one lease row");
    const ShmLayout l =
        ComputeShmLayout(capacity(), max_producers, sizeof(T), alignof(T));
    SLICK_CHECK(map_.size() >= l.total_bytes, "shm segment undersized");
    auto* base = static_cast<char*>(map_.data());
    auto* hdr = new (base) ShmHeader{};
    new (base + l.control_off) ShmControl{};
    for (std::size_t i = 0; i < max_producers; ++i) {
      new (base + l.lease_off + i * sizeof(ShmLease)) ShmLease{};
    }
    for (std::size_t i = 0; i < capacity(); ++i) {
      // Zero-valued seq words are correct as-is: the sequenced test is
      // the exact equality against pos + 1 (live) or its dead-marked
      // variant. The per-slot words are deliberately dense — padding
      // each to a cache line would multiply the segment footprint 8x;
      // neighbouring-slot sharing is the same trade MpmcRing makes.
      new (base + l.seq_off + i * sizeof(std::atomic<uint64_t>))
          std::atomic<uint64_t>(0);  // slick-lint: allow(atomic-alignas)
    }
    hdr->magic = kShmMagic;
    hdr->version = kShmVersion;
    hdr->capacity = capacity();
    hdr->max_producers = max_producers;
    hdr->slot_size = sizeof(T);
    hdr->slot_align = alignof(T);
    hdr->total_bytes = l.total_bytes;
    hdr->layout_hash =
        ShmLayoutHash(capacity(), max_producers, sizeof(T), alignof(T));
    hdr->header_crc = ShmHeaderCrc(*hdr);
    BindPointers();
    // release: publishes every in-place construction above to attachers
    // acquire-spinning on ready.
    hdr->ready.store(1, std::memory_order_release);
  }

  void BindPointers() {
    auto* base = static_cast<char*>(map_.data());
    hdr_ = reinterpret_cast<ShmHeader*>(base);
    const ShmLayout l = ComputeShmLayout(
        capacity(), static_cast<std::size_t>(hdr_->max_producers), sizeof(T),
        alignof(T));
    ctl_ = reinterpret_cast<ShmControl*>(base + l.control_off);
    leases_ = reinterpret_cast<ShmLease*>(base + l.lease_off);
    seq_ = reinterpret_cast<std::atomic<uint64_t>*>(base + l.seq_off);
    slots_ = reinterpret_cast<T*>(base + l.slot_off);
  }

  /// The one slot-sequencing primitive (class comment): CAS the seq word
  /// from its previous-lap value to `desired`. Exactly one of {producer
  /// publishing pos + 1, repair writing (pos + 1) | kSeqDead} wins each
  /// slot; returns whether WE did.
  SLICK_REALTIME bool SequenceSlot(uint64_t pos, uint64_t desired) {
    const std::size_t idx = static_cast<std::size_t>(pos) & mask_;
    uint64_t expected = pos >= capacity() ? pos + 1 - capacity() : 0;
    // release on success: publishes the slot's contents (or the dead
    // verdict); pairs with the consumer's seq acquire. acquire on
    // failure: see who beat us (for a producer, the failure proves the
    // fence: the repair CAS release-published the epoch bump before it).
    if (seq_[idx].compare_exchange_strong(expected, desired,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
      return true;
    }
    // The previous lap may have ended tombstoned: its seq value then
    // carries the dead mark. Retry against that variant once.
    if (pos < capacity() ||
        expected != ((pos + 1 - capacity()) | kSeqDead)) {
      return false;
    }
    return seq_[idx].compare_exchange_strong(expected, desired,
                                             std::memory_order_release,
                                             std::memory_order_acquire);
  }

  SLICK_REALTIME bool PublishSlot(uint64_t pos) {
    return SequenceSlot(pos, pos + 1);
  }

  SLICK_REALTIME bool TombstoneSlot(uint64_t pos) {
    return SequenceSlot(pos, (pos + 1) | kSeqDead);
  }

  /// Claim cursor moved past `skip` tombstoned slots: either advance head
  /// immediately (nothing live awaits release — the common case when the
  /// consumer is caught up) or queue the skip behind the unreleased live
  /// runs so the eventual release folds it in, in claim order.
  SLICK_REALTIME void AccountTombstones(std::size_t skip) {
    if (pending_.empty()) {
      this->AdvanceHead(skip);
    } else if (pending_.back().live == 0) {
      pending_.back().dead += skip;
    } else {
      pending_.push_back(Pending{skip, 0});
    }
  }

  /// Pop-ready predicate: the slot at the claim cursor is sequenced —
  /// live OR tombstoned, either way TryClaimPop makes progress.
  bool PopReady() const {
    // relaxed: effectively the consumer's own cursor.
    const uint64_t claim = ctl_->claim.load(std::memory_order_relaxed);
    // acquire: pairs with the publish/tombstone seq CAS release. The
    // dead mark is progress too (TryClaimPop skips it), so mask it.
    return (seq_[static_cast<std::size_t>(claim) & mask_].load(
                std::memory_order_acquire) &
            ~kSeqDead) == claim + 1;
  }

  ShmControl& cursors() const { return *ctl_; }
  T* slots() const { return slots_; }

  util::ShmMapping map_;
  ShmHeader* hdr_ = nullptr;
  ShmControl* ctl_ = nullptr;
  ShmLease* leases_ = nullptr;
  // Shared-segment atomics are placement-constructed at their layout
  // offsets; these are plain pointers into the mapping, not owners.
  std::atomic<uint64_t>* seq_ = nullptr;  // slick-lint: allow(atomic-alignas)
  T* slots_ = nullptr;
  // Consumer-thread-private skip accounting (see Pending). Lives in THIS
  // process, not the segment: only the consumer process pops.
  std::deque<Pending> pending_;
};

/// One lease row as read by the inspector.
struct ShmLeaseInfo {
  std::size_t row = 0;
  uint64_t pid = 0;
  uint64_t epoch = 0;
  uint64_t heartbeat_ns = 0;
  uint64_t span_begin = 0;
  uint64_t span_end = 0;
  uint64_t span_state = 0;
  uint64_t fenced_at_ns = 0;
};

/// Read-only snapshot of a live segment's cursors, telemetry and lease
/// table, taken without knowing the slot type (the header/control/lease
/// offsets are T-independent by layout construction). Maps PROT_READ, so
/// inspection can never corrupt a live ring. The layout hash is NOT
/// checked (the inspector has no T to check against) — magic, version and
/// header CRC are.
struct ShmSegmentInfo {
  bool ok = false;
  std::string error;
  uint64_t capacity = 0;
  uint64_t max_producers = 0;
  uint64_t slot_size = 0;
  uint64_t head = 0;
  uint64_t tail = 0;
  uint64_t claim = 0;
  bool closed = false;
  uint64_t highwater = 0;
  uint64_t leases_reclaimed = 0;
  uint64_t slots_tombstoned = 0;
  uint64_t zombie_fences = 0;
  std::vector<ShmLeaseInfo> leases;
};

inline ShmSegmentInfo InspectShmSegment(const std::string& name) {
  ShmSegmentInfo info;
  util::ShmMapping map = util::ShmMapping::OpenNamed(name, /*read_only=*/true);
  if (!map.valid()) {
    info.error = std::string("cannot open shm segment: ") +
                 std::strerror(map.error());
    return info;
  }
  if (map.size() < sizeof(ShmHeader)) {
    info.error = "segment smaller than a slick header";
    return info;
  }
  const auto* base = static_cast<const char*>(map.data());
  const auto* hdr = reinterpret_cast<const ShmHeader*>(base);
  if (hdr->ready.load(std::memory_order_acquire) == 0) {
    info.error = "segment exists but is not initialized";
    return info;
  }
  if (hdr->magic != kShmMagic) {
    info.error = "bad magic: not a slick shm ring";
    return info;
  }
  if (hdr->version != kShmVersion) {
    info.error = "unsupported segment version";
    return info;
  }
  if (hdr->header_crc != ShmHeaderCrc(*hdr)) {
    info.error = "header CRC mismatch: segment corrupt";
    return info;
  }
  const std::size_t control_off = ShmAlignUp(sizeof(ShmHeader), 64);
  const std::size_t lease_off =
      ShmAlignUp(control_off + sizeof(ShmControl), 64);
  const std::size_t lease_end =
      lease_off + static_cast<std::size_t>(hdr->max_producers) *
                      sizeof(ShmLease);
  if (lease_end > map.size()) {
    info.error = "segment truncated: lease table out of bounds";
    return info;
  }
  const auto* ctl = reinterpret_cast<const ShmControl*>(base + control_off);
  const auto* leases = reinterpret_cast<const ShmLease*>(base + lease_off);
  info.capacity = hdr->capacity;
  info.max_producers = hdr->max_producers;
  info.slot_size = hdr->slot_size;
  // acquire on the cursors so the point-in-time view is internally
  // consistent enough for triage (it is still a racing sample).
  info.head = ctl->head.load(std::memory_order_acquire);
  info.tail = ctl->tail.load(std::memory_order_acquire);
  info.claim = ctl->claim.load(std::memory_order_acquire);
  info.closed = ctl->closed.load(std::memory_order_acquire) != 0;
  // relaxed: read-only diagnostic snapshot of live counters — every value
  // is a racing sample by design, staleness is expected and harmless.
  info.highwater = ctl->highwater.load(std::memory_order_relaxed);
  info.leases_reclaimed =
      ctl->leases_reclaimed.load(std::memory_order_relaxed);
  info.slots_tombstoned =
      ctl->slots_tombstoned.load(std::memory_order_relaxed);
  info.zombie_fences = ctl->zombie_fences.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < hdr->max_producers; ++i) {
    const ShmLease& lease = leases[i];
    ShmLeaseInfo li;
    li.row = i;
    li.pid = lease.pid.load(std::memory_order_acquire);
    // relaxed: same racing-sample contract as the counters above — the
    // printer labels rows best-effort; only pid gets acquire so a freed
    // row's residue is not misattributed to a live holder.
    li.epoch = lease.epoch.load(std::memory_order_relaxed);
    li.heartbeat_ns = lease.heartbeat_ns.load(std::memory_order_relaxed);
    li.span_begin = lease.span_begin.load(std::memory_order_relaxed);
    li.span_end = lease.span_end.load(std::memory_order_relaxed);
    li.span_state = lease.span_state.load(std::memory_order_relaxed);
    li.fenced_at_ns = lease.fenced_at_ns.load(std::memory_order_relaxed);
    info.leases.push_back(li);
  }
  info.ok = true;
  return info;
}

}  // namespace slick::runtime
