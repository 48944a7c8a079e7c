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
// list recycles slots), and an indexed 4-ary heap orders small POD keys
// (at, seq, slot). Each slot records its key's heap position (`pos_`, kept
// apart from the bodies so a sift touches only 4-byte entries), so cancel()
// removes the key at once (the last key fills the hole and sifts up or
// down) and retime() re-keys it in place: the heap never holds a stale key,
// and an event costs at most one sift in and one out. Steady-state
// scheduling performs no per-event heap allocation.
//
// Same-time lane: a push whose time equals that of the last popped event,
// and whose seq is above the lane's last one, is appended to a FIFO vector
// instead of the heap — defers, deferred resumes, spawns and wakes all take
// this path and never sift. pop() takes whichever of the lane front and the
// heap top has the lower (at, seq), so the pop order is exactly the heap's.
// Reserved keys below the lane's back go to the heap. A cancelled (or
// re-timed) lane entry stays in the vector and is skipped by its generation.
//
// An event's body is one Continuation, 16 bytes of plain data: a coroutine
// handle to resume, or `obj->f()` via `Continuation::member<&T::f>(obj)`. No
// body costs a heap block. A seq taken by `reserve_seq()` before the push
// orders the event where one pushed at reservation time would have.
#pragma once

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

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
  /// Schedules `body` at key (at, seq); `seq` comes from reserve_seq()
  /// (just now, for a plain schedule).
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
  Time next_time() const;

  struct Popped {
    Time at;
    std::uint64_t seq;
    Continuation body;

    void run() const { body(); }
  };

  /// Pops the earliest event without running it — the caller advances the
  /// clock first so the callback observes the correct current time.
  /// Precondition: !empty().
  Popped pop();

 private:
  /// Where a slot's key lives (`pos_`): a heap index, or one of these.
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInLane = 0xFFFFFFFEu;

  /// Pooled event body. `gen` counts slot reuses and re-times; an EventId
  /// or lane entry whose generation mismatches its slot's is stale.
  struct Node {
    Continuation body;
    std::uint32_t gen = 0;
  };

  /// POD heap key, ordered by (at, seq).
  struct HeapKey {
    Time at;
    std::uint64_t seq;   // explicit FIFO tie-break (see file comment)
    std::uint32_t slot;
    bool operator<(const HeapKey& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  /// Same-time lane entry; its time is `lane_at_`.
  struct LaneEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Slot of a pending event's id, or kFree when the id is not pending.
  std::uint32_t pending_slot(EventId id) const;
  EventId push(Time at, std::uint64_t seq, std::uint32_t slot);
  void heap_remove(std::uint32_t pos);
  /// Fills hole `pos` with `key`, sifting it up or else down.
  void sift(std::uint32_t pos, HeapKey key);
  void place(std::uint32_t pos, const HeapKey& key) {
    heap_[pos] = key;
    pos_[key.slot] = pos;
  }
  bool lane_live(const LaneEntry& e) const {
    return nodes_[e.slot].gen == e.gen;
  }
  HeapKey lane_front() const {
    const LaneEntry& e = lane_[lane_head_];
    return HeapKey{lane_at_, e.seq, e.slot};
  }
  /// Drops stale entries off the lane front (the front is always live).
  void trim_lane();

  std::vector<HeapKey> heap_;
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  Time lane_at_ = 0;
  Time last_at_ = 0;  // time of the last popped event
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pos_;  // by slot: heap index, kInLane or kFree
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace pagoda::sim
