#include "obs/trace_span.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace pagoda::obs {

RequestTracer::Live* RequestTracer::find(std::uint64_t uid) {
  const auto it = live_.find(uid);
  return it == live_.end() ? nullptr : &it->second;
}

void RequestTracer::mark(Live& l, Phase p, sim::Time now) {
  const sim::Duration d = now - l.last;
  PAGODA_CHECK_MSG(d >= 0, "request tracer hooks must ride the clock forward");
  l.rec.buckets[static_cast<std::size_t>(p)] += d;
  if (d > 0) {
    l.rec.spans.push_back(PhaseSpan{l.rec.attempts, p, l.node, l.last, now});
  }
  l.last = now;
}

void RequestTracer::on_offered(std::uint64_t uid, sched::Class cls,
                               sim::Duration slo, sim::Time now) {
  offer_ordinal_ += 1;
  Live l;
  l.rec.uid = uid;
  l.rec.cls = cls;
  l.rec.slo = slo;
  l.rec.arrival = now;
  l.last = now;
  l.next = Phase::kQueueWait;
  const auto [it, inserted] = live_.emplace(uid, std::move(l));
  PAGODA_CHECK_MSG(inserted, "duplicate request uid offered to the tracer");
  (void)it;
}

void RequestTracer::on_dropped(sched::Class cls, sim::Duration slo,
                               sim::Time now) {
  dropped_.push_back(Drop{offer_ordinal_, cls, slo, now});
  offer_ordinal_ += 1;
}

void RequestTracer::on_serve(std::uint64_t uid, int node, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  // The gap since the previous mark is queue wait (or backoff wait when the
  // hop follows a budget-charged retry); the new hop starts here.
  mark(*l, l->next, now);
  l->rec.attempts += 1;
  l->node = node;
  l->next = Phase::kSchedWait;
}

void RequestTracer::on_admission_block(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, Phase::kAdmissionBlock, now);
  l->next = Phase::kQueueWait;
}

void RequestTracer::on_granted(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, Phase::kSchedWait, now);
  l->next = Phase::kH2d;
}

void RequestTracer::on_power_wake(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  // The grant already closed kSchedWait; the wait since then was the serving
  // node finishing its S-state wake. H2D starts after it, tiling preserved.
  mark(*l, Phase::kPowerWakeup, now);
  l->next = Phase::kH2d;
}

void RequestTracer::on_h2d_done(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, Phase::kH2d, now);
  l->next = Phase::kTableWait;
}

void RequestTracer::on_spawned(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, Phase::kTableWait, now);
  l->next = Phase::kWarpWait;
}

void RequestTracer::on_claimed(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  // Defensive: a recovered node can replay a claim for a TaskTable entry
  // whose record has moved on; only a hop actually awaiting its claim marks.
  if (l->next != Phase::kWarpWait) return;
  mark(*l, Phase::kWarpWait, now);
  l->next = Phase::kExec;
}

void RequestTracer::on_exec_done(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, Phase::kExec, now);
  l->next = Phase::kD2h;
}

void RequestTracer::mark_progress(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, l->next, now);
}

void RequestTracer::on_retry(std::uint64_t uid) {
  Live* l = find(uid);
  if (l == nullptr) return;
  l->next = Phase::kRetryBackoff;
}

void RequestTracer::on_redispatch(std::uint64_t uid) {
  Live* l = find(uid);
  if (l == nullptr) return;
  l->next = Phase::kQueueWait;
}

void RequestTracer::on_migrated(std::uint64_t uid, sim::Time now) {
  Live* l = find(uid);
  if (l == nullptr) return;
  mark(*l, l->next, now);
  l->next = Phase::kMigrateXfer;
}

void RequestTracer::on_terminal(std::uint64_t uid, Terminal t,
                                std::string_view cause, sim::Time now,
                                bool slo_late) {
  const auto it = live_.find(uid);
  if (it == live_.end()) return;
  Live& l = it->second;
  mark(l, l.next, now);  // residual of the in-progress phase
  l.rec.done = now;
  l.rec.terminal = t;
  l.rec.cause = std::string(cause);
  l.rec.slo_late = slo_late;
  sim::Duration sum = 0;
  for (const sim::Duration b : l.rec.buckets) sum += b;
  PAGODA_CHECK_MSG(sum == l.rec.done - l.rec.arrival,
                   "phase buckets must tile the request's e2e latency");
  done_.push_back(std::move(l.rec));
  live_.erase(it);
}

// --- JSON dump --------------------------------------------------------------

namespace {

std::string us(sim::Time t) {
  return format_metric_double(sim::to_microseconds(t));
}

void write_record(std::ostream& os, const RequestTracer::Record& r) {
  os << "{\"uid\":" << r.uid << ",\"class\":\"" << sched::to_string(r.cls)
     << "\",\"terminal\":\"" << to_string(r.terminal) << "\",\"cause\":\""
     << r.cause << "\",\"arrival_us\":" << us(r.arrival)
     << ",\"done_us\":" << us(r.done)
     << ",\"e2e_us\":" << us(r.done - r.arrival)
     << ",\"slo_us\":" << us(r.slo)
     << ",\"slo_late\":" << (r.slo_late ? 1 : 0)
     << ",\"attempts\":" << r.attempts << ",\"buckets_us\":{";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p > 0) os << ',';
    os << '"' << to_string(static_cast<Phase>(p)) << "\":"
       << us(r.buckets[static_cast<std::size_t>(p)]);
  }
  os << "},\"critical_path\":[";
  const auto path = critical_path(r);
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) os << ',';
    os << "[\"" << to_string(path[i].first) << "\"," << us(path[i].second)
       << ']';
  }
  os << "],\"spans\":[";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const RequestTracer::PhaseSpan& s = r.spans[i];
    if (i > 0) os << ',';
    os << "{\"id\":"
       << span_id(r.uid, s.attempt, 1 + static_cast<int>(s.phase))
       << ",\"attempt\":" << s.attempt << ",\"phase\":\""
       << to_string(s.phase) << "\",\"node\":" << s.node
       << ",\"start_us\":" << us(s.start)
       << ",\"dur_us\":" << us(s.end - s.start) << '}';
  }
  os << "]}";
}

}  // namespace

void RequestTracer::write_json(std::ostream& os) const {
  std::vector<const Record*> order;
  order.reserve(done_.size());
  for (const Record& r : done_) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const Record* a, const Record* b) { return a->uid < b->uid; });
  std::int64_t completed = 0, shed = 0, evicted = 0, slo_late = 0;
  os << "{\n\"format\":\"pagoda-trace-spans-v1\",\n\"requests\":[";
  for (std::size_t i = 0; i < order.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_record(os, *order[i]);
    switch (order[i]->terminal) {
      case Terminal::kCompleted: completed += 1; break;
      case Terminal::kShed: shed += 1; break;
      case Terminal::kEvicted: evicted += 1; break;
    }
    if (order[i]->slo_late) slo_late += 1;
  }
  os << "\n],\n\"dropped\":[";
  for (std::size_t i = 0; i < dropped_.size(); ++i) {
    const Drop& d = dropped_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"ordinal\":" << d.ordinal << ",\"class\":\""
       << sched::to_string(d.cls) << "\",\"slo_us\":" << us(d.slo)
       << ",\"at_us\":" << us(d.at) << '}';
  }
  os << "\n],\n\"summary\":{\"requests\":" << done_.size()
     << ",\"completed\":" << completed << ",\"shed\":" << shed
     << ",\"evicted\":" << evicted
     << ",\"dropped\":" << dropped_.size()
     << ",\"slo_late\":" << slo_late
     << ",\"unresolved\":" << live_.size() << "}\n}\n";
}

// --- Perfetto export --------------------------------------------------------

void RequestTracer::export_to_timeline(Timeline& tl) const {
  // Stable track set: one per node seen, in node order, interned up front so
  // track ids don't depend on which request resolved first.
  int max_node = -1;
  for (const Record& r : done_) {
    for (const PhaseSpan& s : r.spans) max_node = std::max(max_node, s.node);
  }
  std::vector<Timeline::TrackId> node_track;
  for (int n = 0; n <= max_node; ++n) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "req.dev%02d", n);
    node_track.push_back(tl.track(buf));
  }
  const Timeline::TrackId pre_track = tl.track("req.unplaced");
  const auto track_of = [&](int node) {
    return node < 0 ? pre_track : node_track[static_cast<std::size_t>(node)];
  };

  std::vector<const Record*> order;
  order.reserve(done_.size());
  for (const Record& r : done_) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const Record* a, const Record* b) { return a->uid < b->uid; });

  char name[64];
  for (const Record* rp : order) {
    const Record& r = *rp;
    // Request-level async span with attribution args.
    std::snprintf(name, sizeof(name), "req %llu",
                  static_cast<unsigned long long>(r.uid));
    std::string args = "{\"class\":\"";
    args += sched::to_string(r.cls);
    args += "\",\"terminal\":\"";
    args += to_string(r.terminal);
    args += "\",\"slo_us\":" + us(r.slo) + ",\"attempts\":" +
            std::to_string(r.attempts) + "}";
    tl.async_span(name, r.uid, r.arrival, r.done, args);

    // Per-hop root slices with nested phase children; flow arrows join the
    // end of one hop to the start of the next (possibly on another node).
    std::size_t i = 0;
    std::int32_t prev_attempt = 0;
    sim::Time prev_end = 0;
    int prev_node = -1;
    while (i < r.spans.size()) {
      const std::int32_t attempt = r.spans[i].attempt;
      const int node = r.spans[i].node;
      std::size_t j = i;
      while (j < r.spans.size() && r.spans[j].attempt == attempt &&
             r.spans[j].node == node) {
        ++j;
      }
      const sim::Time start = r.spans[i].start;
      const sim::Time end = r.spans[j - 1].end;
      std::snprintf(name, sizeof(name), "req %llu #%d",
                    static_cast<unsigned long long>(r.uid), attempt);
      tl.span(track_of(node), name, start, end);
      for (std::size_t k = i; k < j; ++k) {
        tl.span(track_of(node), to_string(r.spans[k].phase), r.spans[k].start,
                r.spans[k].end);
      }
      if (prev_attempt != 0) {
        const std::uint64_t id = span_id(r.uid, prev_attempt, 0);
        tl.flow(track_of(prev_node), "req", id, prev_end, /*start=*/true);
        tl.flow(track_of(node), "req", id, start, /*start=*/false);
      }
      prev_attempt = attempt;
      prev_end = end;
      prev_node = node;
      i = j;
    }
  }
}

}  // namespace pagoda::obs
