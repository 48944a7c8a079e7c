// Time-ordered event queue with stable FIFO ordering and cancellation.
//
// Determinism contract: events scheduled at the same timestamp fire in
// schedule order (FIFO). The tie-break is an explicit monotonically
// increasing sequence number stamped on every schedule — NOT the EventId,
// which packs a pooled slot index and its reuse generation and is therefore
// not ordered. Protocol code relies on this "signal then observe" sequencing
// within a timestep; it is also what makes whole runs bit-reproducible.
//
// A Simulation owns exactly one EventQueue, so this counter is the global
// sequence of the whole run.
//
// Storage is pooled: event bodies live in a slab of reusable nodes (a free
// list recycles slots), and a monotone radix bucket queue orders small POD
// keys (at, seq, slot). The queue keeps a base time, the time of the last
// popped event; no pending key is below it. Bucket b holds the keys whose
// time first differs from the base at bit b (a 64-bit mask finds the lowest
// non-empty one with one countr_zero). Each slot records its key's bucket
// and position, so cancel() moves the bucket's last key into the hole and
// retime() does that and pushes the new key, or, when the new time falls in
// the same bucket, rewrites the key where it sits: nothing sifts, and a
// bucket never holds a stale key. When the lane below runs dry, pop_due() scans
// the lowest non-empty bucket for its minimum time, makes that the base and
// redistributes the bucket's keys (each move takes a key to a strictly
// lower bucket, or to the lane). Only a pop moves the base, so it never
// passes the simulation's clock. A bucket is a stack of fixed-size chunks
// drawn from one pool that grows with the slab (a new queue holds none), so
// steady-state scheduling performs no per-event heap allocation, however
// late a bucket is first used.
//
// Same-time lane: the keys whose time equals the base wait in a vector
// sorted by seq. A push at the base time with a seq above the lane's last
// one is appended; a reserved key below the lane's back is inserted in
// place. Defers, deferred resumes, spawns and wakes all take this path.
// Every bucketed key is later than the base, so pop() takes the lane front
// whenever the lane is not empty, and the pop order is exactly (at, seq). A
// cancelled (or re-timed) lane entry stays in the vector and is skipped by
// its generation.
//
// An event's body is one Continuation, 16 bytes of plain data: a coroutine
// handle to resume, or `obj->f()` via `Continuation::member<&T::f>(obj)`. No
// body costs a heap block. A seq taken by `reserve_seq()` before the push
// orders the event where one pushed at reservation time would have.
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"

namespace pagoda::sim {

/// Handle to a scheduled event, usable for cancellation. Packs
/// (slot+1) << 32 | generation; id 0 is never issued.
using EventId = std::uint64_t;

/// An event body: runs `fn(arg)`. Plain data (no initializers, to stay
/// trivial); copying it copies two words.
struct Continuation {
  void (*fn)(void*);
  void* arg;

  Continuation() = default;
  Continuation(void (*f)(void*), void* a) : fn(f), arg(a) {}
  /// Resumes `h` (implicit: an awaiter passes its handle straight through).
  template <typename P>
  Continuation(std::coroutine_handle<P> h)  // NOLINT(*-explicit-constructor)
      : fn(&resume), arg(h.address()) {}

  /// Runs `(obj->*F)()`.
  template <auto F, typename T>
  static Continuation member(T* obj) {
    return {[](void* p) { (static_cast<T*>(p)->*F)(); }, obj};
  }

  void operator()() const { fn(arg); }
  explicit operator bool() const { return fn != nullptr; }  // false if {}

 private:
  static void resume(void* address) {
    std::coroutine_handle<>::from_address(address).resume();
  }
};
static_assert(sizeof(Continuation) == 16 && std::is_trivial_v<Continuation>);

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `body` at key (at, seq); `seq` comes from reserve_seq()
  /// (just now, for a plain schedule). `at` must not be below the time of
  /// the last popped event.
  EventId schedule(Time at, std::uint64_t seq, Continuation body);

  /// Consumes the next sequence number without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Cancels a pending event. Returns true if the event was still pending;
  /// cancelling an already-fired, already-cancelled or unknown id is a
  /// harmless no-op returning false (the convenient semantics for timeout
  /// races). Robust against slab reuse: the id carries the generation the
  /// slot had when the event was scheduled, and a slot's generation is
  /// bumped on every release, so a stale id can never cancel the unrelated
  /// event that now occupies the recycled slot (pinned by
  /// EventCancelSlabReuse in tests/sim_test.cpp).
  bool cancel(EventId id);

  /// Moves a pending event to `at` with a fresh seq: the key that cancel
  /// followed by schedule would give it, without releasing its body. The
  /// old id is retired (a cancel of it returns false); returns the new id.
  /// CHECK-fails unless `id` is pending.
  EventId retime(EventId id, Time at);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; kTimeMax when empty.
  Time next_time() const {
    if (!lane_.empty()) return base_;
    return mask_ == 0 ? kTimeMax : bucket_min(lowest_bucket());
  }

  struct Popped {
    Time at;
    std::uint64_t seq;
    Continuation body;

    void run() const { body(); }
  };

  /// Pops the earliest event into `out` without running it, if its time is
  /// at most `until`; otherwise returns false and leaves the queue as it
  /// was. The caller advances the clock first so the callback observes the
  /// correct current time.
  bool pop_due(Time until, Popped& out);

  /// Pops the earliest event. Precondition: !empty().
  Popped pop() {
    Popped p{};
    const bool popped = pop_due(kTimeMax, p);
    PAGODA_CHECK_MSG(popped, "pop on empty queue");
    return p;
  }

 private:
  /// Number of buckets: a key later than the base differs from it at one of
  /// the 63 value bits of a non-negative Time.
  static constexpr std::uint32_t kBuckets = 63;
  /// Keys per chunk of `keys_`.
  static constexpr std::uint32_t kChunk = 8;
  /// Where a slot's key lives (`Node::bucket`): a bucket, or one of these.
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInLane = 0xFFFFFFFEu;

  /// Pooled event body. `gen` counts slot reuses and re-times; an EventId
  /// or lane entry whose generation mismatches its slot's is stale. A key
  /// in a bucket sits at `keys_[pos]`.
  struct Node {
    Continuation body;
    std::uint32_t gen = 0;
    std::uint32_t bucket = kFree;
    std::uint32_t pos = 0;
  };

  /// POD bucket key; events pop in (at, seq) order.
  struct Key {
    Time at;
    std::uint64_t seq;   // explicit FIFO tie-break (see file comment)
    std::uint32_t slot;
  };

  /// A stack of chunks; every chunk below the top one is full.
  struct Bucket {
    std::uint32_t top = 0;
    std::uint32_t size = 0;
  };

  /// Same-time lane entry; its time is `base_`.
  struct LaneEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Grows the chunk pool to cover the slab (see event_queue.cpp).
  void add_chunks();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Slot of a pending event's id, or kFree when the id is not pending.
  std::uint32_t pending_slot(EventId id) const;
  EventId push(Time at, std::uint64_t seq, std::uint32_t slot);
  /// The bucket of a time later than the base: the highest bit at which it
  /// differs from the base (set in `at`, clear in `base_`).
  std::uint32_t bucket_of(Time at) const {
    return static_cast<std::uint32_t>(
        std::bit_width(static_cast<std::uint64_t>(at ^ base_)) - 1);
  }
  void bucket_push(const Key& key);
  /// Takes `slot`'s key out of its bucket, moving the bucket's last key
  /// into the hole.
  void bucket_remove(std::uint32_t slot);
  /// Returns `bucket`'s top chunk to the free list.
  void pop_chunk(Bucket& bucket);
  std::uint32_t lowest_bucket() const {
    return static_cast<std::uint32_t>(std::countr_zero(mask_));
  }
  Time bucket_min(std::uint32_t b) const;
  /// Makes `at`, the minimum of the lowest bucket `b`, the base and moves
  /// that bucket's keys to the lane and lower buckets. The lane is empty.
  void refill(std::uint32_t b, Time at);
  bool lane_live(const LaneEntry& e) const {
    return nodes_[e.slot].gen == e.gen;
  }
  /// Drops stale entries off the lane front (the front is always live).
  void trim_lane();

  // Bucket keys live in chunks of one pool that grows with the slab, so a
  // bucket's first use late in a run takes no heap block.
  Bucket buckets_[kBuckets];
  std::uint64_t mask_ = 0;  // bit b set: bucket b is not empty
  Time base_ = 0;           // time of the last popped event
  std::vector<Key> keys_;   // kChunk keys per chunk
  std::vector<std::uint32_t> below_;  // by chunk: the chunk under it, or
                                      // the next free one
  std::uint32_t free_chunk_ = kFree;  // head of the free chunks
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace pagoda::sim
