#include "sim/event_queue.h"

#include <utility>

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

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  PAGODA_CHECK_MSG(nodes_.size() < 0xFFFFFFFFu,
                   "event slab exceeded the 32-bit slot range");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.live = false;
  n.gen += 1;  // invalidates any heap key AND any EventId still referencing
               // this slot — the cornerstone of double-cancel safety
  n.fn = nullptr;
  n.resume = nullptr;
  free_slots_.push_back(slot);
}

EventId EventQueue::push(Time at, std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.live = true;
  heap_.push(HeapItem{at, next_seq_++, slot, n.gen});
  live_ += 1;
  return (static_cast<EventId>(slot) + 1) << 32 | n.gen;
}

EventId EventQueue::schedule(Time at, std::function<void()> fn) {
  const std::uint32_t slot = acquire_slot();
  nodes_[slot].fn = std::move(fn);
  return push(at, slot);
}

EventId EventQueue::schedule_resume(Time at, std::coroutine_handle<> h) {
  const std::uint32_t slot = acquire_slot();
  nodes_[slot].resume = h;
  return push(at, slot);
}

bool EventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const DecodedId d = decode(id);
  // Reject ids that never came from this queue (or predate a slab reset).
  if (d.slot >= nodes_.size()) return false;
  Node& n = nodes_[d.slot];
  // Generation check, explicitly spelled out:
  //  * !live          — the slot is on the free list; the event this id
  //                     referred to already fired or was already cancelled.
  //  * gen mismatch   — the slot was RELEASED AND REUSED since this id was
  //                     issued; a live event occupies it, but it is someone
  //                     else's. Cancelling it here would be the classic
  //                     double-cancel-across-slab-reuse bug.
  // Only a live slot whose current generation equals the id's generation
  // still refers to the event the caller scheduled.
  if (!n.live) return false;
  if (n.gen != d.gen) return false;
  release_slot(d.slot);  // the stale heap key is skimmed later
  live_ -= 1;
  return true;
}

void EventQueue::skim() {
  while (!heap_.empty()) {
    const HeapItem& top = heap_.top();
    const Node& n = nodes_[top.slot];
    if (n.live && n.gen == top.gen) return;
    heap_.pop();
  }
}

Time EventQueue::next_time() const {
  auto* self = const_cast<EventQueue*>(this);
  self->skim();
  return heap_.empty() ? kTimeMax : heap_.top().at;
}

EventQueue::Popped EventQueue::pop() {
  skim();
  PAGODA_CHECK_MSG(!heap_.empty(), "pop on empty queue");
  const HeapItem top = heap_.top();
  heap_.pop();
  Node& n = nodes_[top.slot];
  Popped p{top.at, std::move(n.fn), n.resume};
  release_slot(top.slot);
  live_ -= 1;
  return p;
}

}  // namespace pagoda::sim
