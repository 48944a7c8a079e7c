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
// list recycles slots), and the heap orders small POD keys. Steady-state
// scheduling therefore performs no per-event heap allocation — the
// pre-pool implementation paid one hash-set node per event for the
// cancellation index alone. Cancellation is O(1): the slot is released
// immediately (bumping its generation) and the stale heap key is dropped
// when it reaches the top.
//
// The resume fast path (`schedule_resume`) stores a bare coroutine handle
// instead of a std::function — the simulator's hottest events (delays,
// deferred wakeups) carry no closure at all. It takes its sequence number
// from `reserve_seq()`, so it orders where an event pushed at reservation
// time would have: a skipped no-op resume keeps later events' numbers.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/time_types.h"

namespace pagoda::sim {

/// Handle to a scheduled event, usable for cancellation. Packs
/// (slot+1) << 32 | generation; id 0 is never issued.
using EventId = std::uint64_t;

class EventQueue {
 public:
  EventId schedule(Time at, std::function<void()> fn);
  /// Fast path for "resume this coroutine at t": no callable is stored.
  /// `seq` comes from reserve_seq() (just now, for a plain schedule).
  EventId schedule_resume(Time at, std::uint64_t seq,
                          std::coroutine_handle<> h);

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

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; kTimeMax when empty.
  Time next_time() const;

  struct Popped {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;        // empty for resume events
    std::coroutine_handle<> resume;  // null for callback events

    /// Runs whichever body this event carries.
    void run() {
      if (resume) {
        resume.resume();
      } else {
        fn();
      }
    }
  };

  /// Pops the earliest event without running it — the caller advances the
  /// clock first so the callback observes the correct current time.
  /// Precondition: !empty().
  Popped pop();

 private:
  /// Pooled event body. `gen` counts slot reuses; a heap key whose
  /// generation mismatches its slot's is stale (cancelled or already fired)
  /// and is skimmed off the top.
  struct Node {
    std::function<void()> fn;
    std::coroutine_handle<> resume = nullptr;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// POD heap key: 24 bytes, ordered by (at, seq).
  struct HeapItem {
    Time at;
    std::uint64_t seq;   // explicit FIFO tie-break (see file comment)
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const HeapItem& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  EventId push(Time at, std::uint64_t seq, std::uint32_t slot);

  /// Drops stale (cancelled/fired) keys from the top of the heap.
  void skim();

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace pagoda::sim
