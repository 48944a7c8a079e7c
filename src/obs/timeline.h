// Generic runtime timeline: duration spans, instant events and counter
// tracks, emitted by *every* runtime (not just Pagoda) and exported as
// Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev).
//
// The timeline is a passive append-only sink, like pagoda::runtime's
// TraceRecorder but runtime-agnostic:
//   * spans   — named intervals on named tracks (task execution, kernel
//               grids, memcpys, scheduler activity). Tracks map to Chrome
//               "threads"; a metadata event names each one.
//   * instants — point events on a track (protocol steps).
//   * counters — named time series rendered by Perfetto as counter tracks
//               (occupancy per SMM, PCIe bandwidth, TaskTable fill,
//               shared-memory usage).
//
// Everything is keyed by interned ids and recorded in insertion order; with
// a deterministic simulation the serialized output is byte-stable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_types.h"

namespace pagoda::obs {

class Timeline {
 public:
  using TrackId = int;

  /// Interns a track (Chrome "thread") by name; same name, same id.
  TrackId track(std::string_view name);

  /// A named interval [start, end] on a track.
  void span(TrackId track, std::string_view name, sim::Time start,
            sim::Time end);

  /// A point event on a track.
  void instant(TrackId track, std::string_view name, sim::Time time);

  /// One sample of a counter series. Values must be non-negative and sample
  /// times non-decreasing per series (the samplers ride the virtual clock,
  /// so this holds by construction; the writer asserts it).
  void counter(std::string_view series, sim::Time time, double value);

  /// One endpoint of a flow arrow (Chrome "s"/"f" events) bound to the
  /// slice enclosing `time` on `track`. `start` emits the arrow tail.
  void flow(TrackId track, std::string_view name, std::uint64_t id,
            sim::Time time, bool start);

  /// A named interval on its own async row, grouped by `id` (Chrome
  /// nestable "b"/"e" events). `args_json` is a pre-rendered JSON object
  /// attached to the begin event ("" for none).
  void async_span(std::string_view name, std::uint64_t id, sim::Time start,
                  sim::Time end, std::string_view args_json = {});

  std::size_t num_spans() const { return spans_.size(); }
  std::size_t num_instants() const { return instants_.size(); }
  std::size_t num_counter_samples() const { return counter_samples_.size(); }
  std::size_t num_flows() const { return flows_.size(); }
  std::size_t num_async_spans() const { return async_spans_.size(); }
  std::size_t num_tracks() const { return track_names_.size(); }
  bool empty() const {
    return spans_.empty() && instants_.empty() && counter_samples_.empty() &&
           flows_.empty() && async_spans_.empty();
  }

  /// Hard cap on buffered events (spans + instants + counter samples +
  /// flows + async spans) so long cluster runs can't grow the trace buffer
  /// unboundedly. Events past the cap are dropped AND counted — never
  /// silently lost; the Collector exports the count as
  /// `timeline.dropped_events`.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 21;  // ~2M events
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::int64_t dropped_events() const { return dropped_events_; }
  std::size_t num_events() const {
    return spans_.size() + instants_.size() + counter_samples_.size() +
           flows_.size() + async_spans_.size();
  }

  /// Chrome trace-event JSON: thread-name metadata, "X" duration slices,
  /// "i" instants and "C" counter events. Timestamps in microseconds.
  void write_chrome_trace(std::ostream& os) const;

  /// CSV dump: time_us,kind(span|instant|counter),track,name,dur_us|value
  void write_csv(std::ostream& os) const;

  // --- introspection for tests --------------------------------------------
  struct Span {
    TrackId track;
    int name;  // interned
    sim::Time start;
    sim::Time end;
  };
  struct Instant {
    TrackId track;
    int name;
    sim::Time time;
  };
  struct CounterSample {
    int series;  // interned counter-series name
    sim::Time time;
    double value;
  };
  struct Flow {
    TrackId track;
    int name;  // interned
    std::uint64_t id;
    sim::Time time;
    bool start;
  };
  struct AsyncSpan {
    int name;  // interned
    int args;  // interned args JSON; -1 = none
    std::uint64_t id;
    sim::Time start;
    sim::Time end;
  };
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<CounterSample>& counter_samples() const {
    return counter_samples_;
  }
  std::string_view name_of(int interned) const { return names_[static_cast<std::size_t>(interned)]; }
  std::string_view track_name(TrackId t) const {
    return track_names_[static_cast<std::size_t>(t)];
  }
  std::string_view series_name(int interned) const {
    return name_of(interned);
  }

 private:
  int intern(std::string_view name);
  /// True when there is room for one more event; counts the drop otherwise.
  bool admit();

  std::vector<std::string> track_names_;
  std::map<std::string, TrackId, std::less<>> track_index_;
  std::vector<std::string> names_;  // interned span/instant/series names
  std::map<std::string, int, std::less<>> name_index_;
  /// Last sample time per counter series, for the monotonicity check.
  std::map<int, sim::Time> counter_last_time_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<CounterSample> counter_samples_;
  std::vector<Flow> flows_;
  std::vector<AsyncSpan> async_spans_;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::int64_t dropped_events_ = 0;
};

}  // namespace pagoda::obs
