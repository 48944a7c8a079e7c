#include "sim/event_queue.h"

#include "common/check.h"

namespace pagoda::sim {

namespace {

/// Explicit EventId decomposition for the cancel path. An id encodes
/// (slot+1, generation); both halves must check out against the live slab
/// state before a cancel may touch anything.
struct DecodedId {
  std::uint32_t slot;
  std::uint32_t gen;
};

DecodedId decode(EventId id) {
  return DecodedId{
      static_cast<std::uint32_t>((id >> 32) - 1),
      static_cast<std::uint32_t>(id & 0xFFFFFFFFu),
  };
}

EventId encode(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(slot) + 1) << 32 | gen;
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  PAGODA_CHECK_MSG(nodes_.size() < kInLane,
                   "event slab exceeded the 32-bit slot range");
  nodes_.emplace_back();
  pos_.push_back(kFree);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Node& n = nodes_[slot];
  pos_[slot] = kFree;
  n.gen += 1;  // invalidates any lane entry AND any EventId still referencing
               // this slot — the cornerstone of double-cancel safety
  free_slots_.push_back(slot);
  live_ -= 1;
}

std::uint32_t EventQueue::pending_slot(EventId id) const {
  if (id == 0) return kFree;
  const DecodedId d = decode(id);
  // Reject ids that never came from this queue (or predate a slab reset).
  if (d.slot >= nodes_.size()) return kFree;
  const Node& n = nodes_[d.slot];
  // Generation check, explicitly spelled out:
  //  * kFree          — the slot is on the free list; the event this id
  //                     referred to already fired or was already cancelled.
  //  * gen mismatch   — the slot was RELEASED AND REUSED (or the event was
  //                     re-timed) since this id was issued; a live event
  //                     occupies it, but under another id. Cancelling it
  //                     here would be the classic double-cancel-across-
  //                     slab-reuse bug.
  // Only a live slot whose current generation equals the id's generation
  // still refers to the event the caller scheduled.
  if (pos_[d.slot] == kFree || n.gen != d.gen) return kFree;
  return d.slot;
}

void EventQueue::sift(std::uint32_t pos, HeapKey key) {
  const std::uint32_t start = pos;
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!(key < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  if (pos == start) {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first = 4 * pos + 1;
      if (first >= n) break;
      std::uint32_t best = first;
      const std::uint32_t last = first + 4 < n ? first + 4 : n;
      for (std::uint32_t c = first + 1; c < last; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < key)) break;
      place(pos, heap_[best]);
      pos = best;
    }
  }
  place(pos, key);
}

void EventQueue::heap_remove(std::uint32_t pos) {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) sift(pos, last);
}

void EventQueue::trim_lane() {
  while (lane_head_ < lane_.size() && !lane_live(lane_[lane_head_])) {
    ++lane_head_;
  }
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

EventId EventQueue::push(Time at, std::uint64_t seq, std::uint32_t slot) {
  Node& n = nodes_[slot];
  live_ += 1;
  if (at == last_at_ &&
      (lane_.empty() || (at == lane_at_ && seq > lane_.back().seq))) {
    lane_at_ = at;
    lane_.push_back(LaneEntry{seq, slot, n.gen});
    pos_[slot] = kInLane;
  } else {
    heap_.emplace_back();
    sift(static_cast<std::uint32_t>(heap_.size() - 1), HeapKey{at, seq, slot});
  }
  return encode(slot, n.gen);
}

EventId EventQueue::schedule(Time at, std::uint64_t seq, Continuation body) {
  const std::uint32_t slot = acquire_slot();
  nodes_[slot].body = body;
  return push(at, seq, slot);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kFree) return false;
  const std::uint32_t pos = pos_[slot];
  if (pos != kInLane) heap_remove(pos);
  release_slot(slot);
  if (pos == kInLane) trim_lane();
  return true;
}

EventId EventQueue::retime(EventId id, Time at) {
  const std::uint32_t slot = pending_slot(id);
  PAGODA_CHECK_MSG(slot != kFree, "retime of an event that is not pending");
  Node& n = nodes_[slot];
  n.gen += 1;  // retires `id` (and the lane entry, if it sat in the lane)
  const std::uint64_t seq = next_seq_++;
  if (pos_[slot] == kInLane) {
    trim_lane();
    live_ -= 1;
    return push(at, seq, slot);
  }
  sift(pos_[slot], HeapKey{at, seq, slot});
  return encode(slot, n.gen);
}

Time EventQueue::next_time() const {
  const Time heap_at = heap_.empty() ? kTimeMax : heap_.front().at;
  return !lane_.empty() && lane_at_ < heap_at ? lane_at_ : heap_at;
}

EventQueue::Popped EventQueue::pop() {
  PAGODA_CHECK_MSG(live_ > 0, "pop on empty queue");
  const bool from_lane =
      !lane_.empty() && (heap_.empty() || lane_front() < heap_.front());
  const HeapKey top = from_lane ? lane_front() : heap_.front();
  if (from_lane) {
    ++lane_head_;
  } else {
    heap_remove(0);
  }
  const Popped p{top.at, top.seq, nodes_[top.slot].body};
  release_slot(top.slot);
  if (from_lane) trim_lane();
  last_at_ = top.at;
  return p;
}

}  // namespace pagoda::sim
