#include "obs/timeline.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "obs/metrics.h"

namespace pagoda::obs {

Timeline::TrackId Timeline::track(std::string_view name) {
  if (const auto it = track_index_.find(name); it != track_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  track_index_.emplace(std::string(name), id);
  return id;
}

int Timeline::intern(std::string_view name) {
  if (const auto it = name_index_.find(name); it != name_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(std::string(name), id);
  return id;
}

bool Timeline::admit() {
  if (num_events() < max_events_) return true;
  dropped_events_ += 1;
  return false;
}

void Timeline::span(TrackId t, std::string_view name, sim::Time start,
                    sim::Time end) {
  PAGODA_CHECK_MSG(end >= start, "timeline span with negative duration");
  if (!admit()) return;
  spans_.push_back(Span{t, intern(name), start, end});
}

void Timeline::instant(TrackId t, std::string_view name, sim::Time time) {
  if (!admit()) return;
  instants_.push_back(Instant{t, intern(name), time});
}

void Timeline::counter(std::string_view series, sim::Time time, double value) {
  PAGODA_CHECK_MSG(value >= 0.0, "counter-track values must be non-negative");
  if (!admit()) return;
  const int id = intern(series);
  // Samples of one series must ride the virtual clock forward.
  auto [it, inserted] = counter_last_time_.try_emplace(id, time);
  if (!inserted) {
    PAGODA_CHECK_MSG(time >= it->second,
                     "counter samples must be monotone in time");
    it->second = time;
  }
  counter_samples_.push_back(CounterSample{id, time, value});
}

void Timeline::flow(TrackId t, std::string_view name, std::uint64_t id,
                    sim::Time time, bool start) {
  if (!admit()) return;
  flows_.push_back(Flow{t, intern(name), id, time, start});
}

void Timeline::async_span(std::string_view name, std::uint64_t id,
                          sim::Time start, sim::Time end,
                          std::string_view args_json) {
  PAGODA_CHECK_MSG(end >= start, "timeline async span with negative duration");
  if (!admit()) return;
  async_spans_.push_back(AsyncSpan{
      intern(name), args_json.empty() ? -1 : intern(args_json), id, start,
      end});
}

void Timeline::write_chrome_trace(std::ostream& os) const {
  os << "[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Thread-name metadata so tracks render with their names.
  for (std::size_t t = 0; t < track_names_.size(); ++t) {
    comma();
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << t
       << R"(,"args":{"name":)";
    write_json_string(os, track_names_[t]);
    os << "}}";
  }
  for (const Span& s : spans_) {
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(s.name));
    os << R"(,"ph":"X","ts":)" << format_metric_double(sim::to_microseconds(s.start))
       << R"(,"dur":)" << format_metric_double(sim::to_microseconds(s.end - s.start))
       << R"(,"pid":0,"tid":)" << s.track << "}";
  }
  for (const Instant& i : instants_) {
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(i.name));
    os << R"(,"ph":"i","s":"t","ts":)"
       << format_metric_double(sim::to_microseconds(i.time)) << R"(,"pid":0,"tid":)"
       << i.track << "}";
  }
  for (const CounterSample& c : counter_samples_) {
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(c.series));
    os << R"(,"ph":"C","ts":)" << format_metric_double(sim::to_microseconds(c.time))
       << R"(,"pid":0,"args":{"value":)" << format_metric_double(c.value) << "}}";
  }
  for (const Flow& f : flows_) {
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(f.name));
    os << R"(,"cat":"flow","ph":")" << (f.start ? 's' : 'f') << '"';
    if (!f.start) os << R"(,"bp":"e")";
    os << R"(,"id":)" << f.id << R"(,"ts":)"
       << format_metric_double(sim::to_microseconds(f.time))
       << R"(,"pid":0,"tid":)" << f.track << "}";
  }
  for (const AsyncSpan& a : async_spans_) {
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(a.name));
    os << R"(,"cat":"request","ph":"b","id":)" << a.id << R"(,"ts":)"
       << format_metric_double(sim::to_microseconds(a.start))
       << R"(,"pid":0,"tid":0)";
    if (a.args >= 0) os << R"(,"args":)" << name_of(a.args);
    os << "}";
    comma();
    os << R"({"name":)";
    write_json_string(os, name_of(a.name));
    os << R"(,"cat":"request","ph":"e","id":)" << a.id << R"(,"ts":)"
       << format_metric_double(sim::to_microseconds(a.end))
       << R"(,"pid":0,"tid":0})";
  }
  os << "]\n";
}

void Timeline::write_csv(std::ostream& os) const {
  os << "time_us,kind,track,name,value\n";
  for (const Span& s : spans_) {
    os << sim::to_microseconds(s.start) << ",span,"
       << track_names_[static_cast<std::size_t>(s.track)] << ','
       << name_of(s.name) << ',' << sim::to_microseconds(s.end - s.start)
       << '\n';
  }
  for (const Instant& i : instants_) {
    os << sim::to_microseconds(i.time) << ",instant,"
       << track_names_[static_cast<std::size_t>(i.track)] << ','
       << name_of(i.name) << ",\n";
  }
  for (const CounterSample& c : counter_samples_) {
    os << sim::to_microseconds(c.time) << ",counter,," << name_of(c.series)
       << ',' << format_metric_double(c.value) << '\n';
  }
}

}  // namespace pagoda::obs
