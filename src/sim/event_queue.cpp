#include "sim/event_queue.h"

#include <algorithm>

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

EventQueue::EventQueue() { add_chunks(); }

void EventQueue::add_chunks() {
  // A bucket's chunks hold its keys with less than one chunk to spare, and a
  // refill holds one more chunk while it empties a bucket: this many chunks
  // never run out while the slab holds every pending event.
  const std::size_t chunks = nodes_.size() / kChunk + kBuckets + 2;
  while (below_.size() < chunks) {
    below_.push_back(free_chunk_);
    free_chunk_ = static_cast<std::uint32_t>(below_.size() - 1);
  }
  keys_.resize(below_.size() * kChunk);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  PAGODA_CHECK_MSG(nodes_.size() < kInLane,
                   "event slab exceeded the 32-bit slot range");
  nodes_.emplace_back();
  add_chunks();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.bucket = kFree;
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
  if (n.bucket == kFree || n.gen != d.gen) return kFree;
  return d.slot;
}

void EventQueue::bucket_push(const Key& key) {
  // The highest bit at which the key's time differs from the base; the key
  // is later than the base, so that bit is set in `at` and clear in `base_`.
  const auto b = static_cast<std::uint32_t>(
      std::bit_width(static_cast<std::uint64_t>(key.at ^ base_)) - 1);
  Bucket& bucket = buckets_[b];
  const std::uint32_t off = bucket.size % kChunk;
  if (off == 0) {  // the top chunk is full, or there is none: stack one
    const std::uint32_t c = free_chunk_;
    free_chunk_ = below_[c];
    below_[c] = bucket.top;
    bucket.top = c;
  }
  Node& n = nodes_[key.slot];
  n.bucket = b;
  n.pos = bucket.top * kChunk + off;
  keys_[n.pos] = key;
  bucket.size += 1;
  mask_ |= std::uint64_t{1} << b;
}

void EventQueue::pop_chunk(Bucket& bucket) {
  const std::uint32_t c = bucket.top;
  bucket.top = below_[c];
  below_[c] = free_chunk_;
  free_chunk_ = c;
}

void EventQueue::bucket_remove(std::uint32_t slot) {
  const Node& n = nodes_[slot];
  Bucket& bucket = buckets_[n.bucket];
  bucket.size -= 1;
  const std::uint32_t last = bucket.top * kChunk + bucket.size % kChunk;
  if (last != n.pos) {
    keys_[n.pos] = keys_[last];
    nodes_[keys_[n.pos].slot].pos = n.pos;
  }
  if (bucket.size % kChunk == 0) pop_chunk(bucket);
  if (bucket.size == 0) mask_ &= ~(std::uint64_t{1} << n.bucket);
}

Time EventQueue::bucket_min(std::uint32_t b) const {
  const Bucket& bucket = buckets_[b];
  Time lo = kTimeMax;
  std::uint32_t c = bucket.top;
  std::uint32_t n = (bucket.size - 1) % kChunk + 1;  // keys in the top chunk
  for (std::uint32_t left = bucket.size; left > 0; left -= n, n = kChunk) {
    const Key* chunk = &keys_[c * kChunk];
    for (std::uint32_t i = 0; i < n; ++i) lo = std::min(lo, chunk[i].at);
    c = below_[c];
  }
  return lo;
}

void EventQueue::refill(std::uint32_t b, Time at) {
  base_ = at;
  Bucket bucket = buckets_[b];
  buckets_[b].size = 0;
  mask_ &= ~(std::uint64_t{1} << b);
  bool sorted = true;
  std::uint32_t n = (bucket.size - 1) % kChunk + 1;  // keys in the top chunk
  for (; bucket.size > 0; bucket.size -= n, n = kChunk) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const Key k = keys_[bucket.top * kChunk + i];
      if (k.at != at) {
        bucket_push(k);  // to a bucket below b: k agrees with the base above
        continue;
      }
      sorted = sorted && (lane_.empty() || lane_.back().seq < k.seq);
      Node& node = nodes_[k.slot];
      node.bucket = kInLane;
      lane_.push_back(LaneEntry{k.seq, k.slot, node.gen});
    }
    pop_chunk(bucket);
  }
  if (!sorted) {
    std::sort(lane_.begin(), lane_.end(),
              [](const LaneEntry& x, const LaneEntry& y) {
                return x.seq < y.seq;
              });
  }
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
  PAGODA_CHECK_MSG(at >= base_, "event scheduled before the last popped one");
  Node& n = nodes_[slot];
  live_ += 1;
  if (at != base_) {
    bucket_push(Key{at, seq, slot});
  } else {
    n.bucket = kInLane;
    const LaneEntry e{seq, slot, n.gen};
    if (lane_.empty() || lane_.back().seq < seq) {
      lane_.push_back(e);
    } else {
      lane_.insert(std::upper_bound(lane_.begin() +
                                        static_cast<std::ptrdiff_t>(lane_head_),
                                    lane_.end(), seq,
                                    [](std::uint64_t s, const LaneEntry& x) {
                                      return s < x.seq;
                                    }),
                   e);
    }
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
  const bool in_lane = nodes_[slot].bucket == kInLane;
  if (!in_lane) bucket_remove(slot);
  release_slot(slot);
  if (in_lane) trim_lane();
  return true;
}

EventId EventQueue::retime(EventId id, Time at) {
  const std::uint32_t slot = pending_slot(id);
  PAGODA_CHECK_MSG(slot != kFree, "retime of an event that is not pending");
  Node& n = nodes_[slot];
  n.gen += 1;  // retires `id` (and the lane entry, if it sat in the lane)
  if (n.bucket == kInLane) {
    trim_lane();
  } else {
    bucket_remove(slot);
  }
  live_ -= 1;
  return push(at, next_seq_++, slot);
}

bool EventQueue::pop_due(Time until, Popped& out) {
  if (lane_.empty()) {
    if (mask_ == 0) return false;
    const std::uint32_t b = lowest_bucket();
    const Time at = bucket_min(b);
    if (at > until) return false;
    refill(b, at);
  } else if (base_ > until) {
    return false;
  }
  const LaneEntry e = lane_[lane_head_++];
  out = Popped{base_, e.seq, nodes_[e.slot].body};
  release_slot(e.slot);
  trim_lane();
  return true;
}

}  // namespace pagoda::sim
