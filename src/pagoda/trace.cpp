#include "pagoda/trace.h"

#include <ostream>
#include <unordered_map>

namespace pagoda::runtime {

std::string_view trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSpawned: return "spawned";
    case TraceKind::kEntryCopied: return "entry_copied";
    case TraceKind::kReleased: return "released";
    case TraceKind::kScheduled: return "scheduled";
    case TraceKind::kWarpDispatched: return "warp_dispatched";
    case TraceKind::kCompleted: return "completed";
    case TraceKind::kCopyBack: return "copy_back";
    case TraceKind::kFlushed: return "flushed";
    case TraceKind::kRevoked: return "revoked";
  }
  return "?";
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "time_us,kind,task,aux\n";
  for (const TraceEvent& e : events_) {
    os << sim::to_microseconds(e.time) << ',' << trace_kind_name(e.kind)
       << ',' << e.task << ',' << e.aux << '\n';
  }
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  // Chrome trace-event format: JSON array of events. Durations ("X") for
  // task lifetimes; instants ("i") for protocol steps. Timestamps in us.
  os << "[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const TaskTimeline& t : timelines()) {
    if (!t.complete()) continue;
    comma();
    os << R"({"name":"task )" << t.task << R"(","ph":"X","ts":)"
       << sim::to_microseconds(t.spawned) << R"(,"dur":)"
       << sim::to_microseconds(t.completed - t.spawned)
       << R"(,"pid":0,"tid":)" << t.task << "}";
  }
  for (const TraceEvent& e : events_) {
    comma();
    os << R"({"name":")" << trace_kind_name(e.kind)
       << R"(","ph":"i","s":"t","ts":)" << sim::to_microseconds(e.time)
       << R"(,"pid":0,"tid":)" << e.task << "}";
  }
  os << "]\n";
}

std::vector<TraceRecorder::TaskTimeline> TraceRecorder::timelines() const {
  std::vector<TaskTimeline> out;
  // Entry reuse: a new kSpawned on the same TaskId starts a new timeline.
  std::unordered_map<TaskId, std::size_t> open;
  // Copy-backs land after completion closed the timeline; route them to the
  // most recently completed instance of the id.
  std::unordered_map<TaskId, std::size_t> last_completed;
  for (const TraceEvent& e : events_) {
    if (e.kind == TraceKind::kSpawned) {
      TaskTimeline t;
      t.task = e.task;
      t.spawned = e.time;
      open[e.task] = out.size();
      out.push_back(t);
      continue;
    }
    if (e.kind == TraceKind::kCopyBack) {
      const auto done = last_completed.find(e.task);
      if (done != last_completed.end()) {
        TaskTimeline& t = out[done->second];
        if (t.copy_back < 0) t.copy_back = e.time;
      }
      continue;
    }
    const auto it = open.find(e.task);
    if (it == open.end()) continue;
    TaskTimeline& t = out[it->second];
    switch (e.kind) {
      case TraceKind::kEntryCopied:
        if (t.entry_copied < 0) t.entry_copied = e.time;
        break;
      case TraceKind::kFlushed:
        if (t.flushed < 0) t.flushed = e.time;
        [[fallthrough]];  // a flush IS the release of the last task
      case TraceKind::kReleased:
        if (t.released < 0) t.released = e.time;
        break;
      case TraceKind::kScheduled:
        if (t.scheduled < 0) t.scheduled = e.time;
        break;
      case TraceKind::kWarpDispatched:
        if (t.first_warp_dispatch < 0) t.first_warp_dispatch = e.time;
        t.last_warp_dispatch = e.time;
        t.warps_dispatched += 1;
        break;
      case TraceKind::kCompleted:
        t.completed = e.time;
        last_completed[e.task] = it->second;
        open.erase(it);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace pagoda::runtime
