// Runtime tracing: a per-task event timeline recorded from the host and
// GPU sides of the Pagoda runtime.
//
// Tracing serves two purposes in this repository: observability for users
// of the runtime (the pagoda_cli tool dumps timelines as CSV), and
// verification — the protocol's per-task lifecycle
//
//   Spawned -> EntryCopied -> Released -> Scheduled -> Completed
//
// is a strict temporal order that tests assert over randomized runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/time_types.h"
#include "pagoda/task_table.h"

namespace pagoda::runtime {

enum class TraceKind : std::uint8_t {
  kSpawned,       // host: taskSpawn filled a TaskTable entry
  kEntryCopied,   // the entry's H2D copy landed on the GPU
  kReleased,      // scheduler warp set the entry to (1,1) via the chain,
                  // or the host flushed it
  kScheduled,     // scheduler warp claimed the sched flag (Algo 1 line 14)
  kWarpDispatched,  // pSched placed one warp (aux = executor slot)
  kCompleted,     // last warp cleared the ready field
  kCopyBack,      // host copy-back observed the entry free
  kFlushed,       // host flush released the last task
  kRevoked,       // host revoked a spawned-but-unclaimed entry (migration)
};

std::string_view trace_kind_name(TraceKind kind);

struct TraceEvent {
  sim::Time time = 0;
  TraceKind kind = TraceKind::kSpawned;
  TaskId task = 0;
  std::int32_t aux = 0;  // kind-specific (e.g. executor slot, MTB column)
};

/// Append-only event sink. Not thread-safe (the simulator is
/// single-threaded); cheap enough to leave enabled for moderate task counts.
class TraceRecorder {
 public:
  void record(sim::Time time, TraceKind kind, TaskId task,
              std::int32_t aux = 0) {
    events_.push_back(TraceEvent{time, kind, task, aux});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// CSV dump: time_us,kind,task,aux
  void write_csv(std::ostream& os) const;

  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto):
  /// each task becomes a duration slice from spawn to completion on a
  /// per-MTB-column row, with instant events for the protocol steps.
  void write_chrome_trace(std::ostream& os) const;

  /// Per-task lifecycle summary: spawn-to-completion and phase breakdown.
  /// Optional phases (warp dispatch, flush, copy-back) are -1 when the
  /// corresponding event was not recorded for this task instance.
  struct TaskTimeline {
    TaskId task = 0;
    sim::Time spawned = -1;
    sim::Time entry_copied = -1;
    sim::Time released = -1;
    sim::Time scheduled = -1;
    sim::Time completed = -1;
    sim::Time first_warp_dispatch = -1;  // first pSched placement
    sim::Time last_warp_dispatch = -1;   // last pSched placement
    sim::Time flushed = -1;     // host flush released this task (not chain)
    sim::Time copy_back = -1;   // host copy-back first observed entry free
    int warps_dispatched = 0;   // pSched placements recorded for this task
    bool complete() const {
      return spawned >= 0 && entry_copied >= 0 && released >= 0 &&
             scheduled >= 0 && completed >= 0;
    }
    bool was_flushed() const { return flushed >= 0; }
    bool ordered() const {
      if (!(spawned <= entry_copied && entry_copied <= released &&
            released <= scheduled && scheduled <= completed)) {
        return false;
      }
      // Warp dispatch happens while the entry is claimed by the scheduler.
      if (first_warp_dispatch >= 0 &&
          !(scheduled <= first_warp_dispatch &&
            first_warp_dispatch <= last_warp_dispatch &&
            last_warp_dispatch <= completed)) {
        return false;
      }
      // A flush can only release an entry the GPU already holds.
      if (flushed >= 0 && !(entry_copied <= flushed && flushed <= scheduled)) {
        return false;
      }
      // The host can observe the entry free only after the GPU freed it.
      if (copy_back >= 0 && !(completed <= copy_back)) return false;
      return true;
    }
  };

  /// Builds timelines for every spawned task instance, in spawn order.
  /// (A recycled TaskTable entry produces a new timeline per generation.)
  std::vector<TaskTimeline> timelines() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace pagoda::runtime
