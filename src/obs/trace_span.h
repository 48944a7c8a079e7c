// Causal request tracing: one span tree per cluster request, carried from
// Dispatcher admission through ReadyQueue wait, placement, PCIe H2D,
// TaskTable residency, warp claim, execution, D2H and every fault
// retry/eviction/shed.
//
// The tracer is a PASSIVE recorder, like the rest of obs: every hook only
// copies simulation state (virtual timestamps, uids, class tags) into plain
// vectors — it never signals, allocates simulated resources or advances a
// process, so an armed run is event-for-event identical to a disarmed one
// and the dump is byte-stable across reruns.
//
// Phase accounting is a tiling state machine: each hook charges the interval
// since the previous hook to exactly one Phase bucket, in integer
// picoseconds, so for every terminal request
//
//     sum(buckets) == done - arrival        (checked at resolution)
//
// holds EXACTLY — attribution can never leak or double-count time.
//
// Span identity is structural, never wall clock:
//
//     span_id(uid, attempt, code) == uid<<16 | attempt<<8 | code
//
// where `attempt` is the 1-based placement hop (retries AND budget-free
// redispatches each start a new hop) and `code` is 0 for the hop's root span
// or 1+Phase for a phase child. The request-level flow id is the uid itself.
// Two identically seeded runs therefore emit identical ids.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_types.h"
#include "sched/policy.h"

namespace pagoda::obs {

class Timeline;

/// Where a request's latency can go. Bucket order is the wire order of the
/// JSON dump and the column order of trace_report tables.
enum class Phase : std::uint8_t {
  kQueueWait = 0,    // offer/redispatch accepted -> serving process runs
  kAdmissionBlock,   // slot park that ended WITHOUT a grant (evict/refusal)
  kSchedWait,        // slot park that ended in a grant (policy queue wait)
  kH2d,              // input staging: memcpy setup + wire (0 on cache hit)
  kTableWait,        // task_spawn: TaskTable entry wait + spawn protocol
  kWarpWait,         // spawn returned -> scheduler warp claimed the entry
  kExec,             // claim -> host-visible completion (or fault detection)
  kD2h,              // output drain
  kRetryBackoff,     // deterministic backoff before a budget-charged retry
  kPowerWakeup,      // node was asleep at grant time: S-state wake latency
  kMigrateXfer,      // drain-migration: checkpoint transfer + re-placement
  // Always zero: oversubscription is admission-only and never spills. The
  // two buckets stay so the JSON bucket order and the benchmark's per-layer
  // key list keep their shape; they go with the next benchmark change.
  kVresSpill,
  kVresReclaim,
};
inline constexpr int kNumPhases = 13;

constexpr std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kAdmissionBlock: return "admission_block";
    case Phase::kSchedWait: return "sched_wait";
    case Phase::kH2d: return "h2d";
    case Phase::kTableWait: return "table_wait";
    case Phase::kWarpWait: return "warp_wait";
    case Phase::kExec: return "exec";
    case Phase::kD2h: return "d2h";
    case Phase::kRetryBackoff: return "retry_backoff";
    case Phase::kPowerWakeup: return "power_wakeup";
    case Phase::kMigrateXfer: return "migrate_xfer";
    case Phase::kVresSpill: return "vres_spill";
    case Phase::kVresReclaim: return "vres_reclaim";
  }
  return "?";
}

/// Terminal state of an admitted request (drops are refused before
/// admission and recorded separately — they never owned a span tree).
enum class Terminal : std::uint8_t { kCompleted = 0, kShed, kEvicted };

constexpr std::string_view to_string(Terminal t) {
  switch (t) {
    case Terminal::kCompleted: return "completed";
    case Terminal::kShed: return "shed";
    case Terminal::kEvicted: return "evicted";
  }
  return "?";
}

/// Deterministic span id; see the header comment. code 0 = hop root,
/// 1+static_cast<int>(Phase) = phase child.
constexpr std::uint64_t span_id(std::uint64_t uid, int attempt, int code) {
  return (uid << 16) |
         (static_cast<std::uint64_t>(attempt & 0xFF) << 8) |
         static_cast<std::uint64_t>(code & 0xFF);
}

class RequestTracer {
 public:
  /// One phase interval of one placement hop. Zero-duration intervals add
  /// 0 to their bucket and emit no span.
  struct PhaseSpan {
    std::int32_t attempt = 0;  // 1-based placement hop
    Phase phase = Phase::kQueueWait;
    std::int32_t node = -1;    // node serving the hop (-1 before placement)
    sim::Time start = 0;
    sim::Time end = 0;
  };

  /// A resolved request: the complete causal record.
  struct Record {
    std::uint64_t uid = 0;
    sched::Class cls = sched::Class::kStandard;
    sim::Duration slo = 0;  // 0 = no deadline
    sim::Time arrival = 0;
    sim::Time done = 0;
    Terminal terminal = Terminal::kCompleted;
    std::string cause;       // fault cause label for shed/evicted, else ""
    bool slo_late = false;   // completed past its deadline
    std::int32_t attempts = 0;  // placement hops (retries + redispatches)
    std::array<sim::Duration, kNumPhases> buckets{};
    std::vector<PhaseSpan> spans;  // in start order (the hooks ride the clock)
  };

  /// A request refused at offer(): no uid was ever assigned (assigning one
  /// would shift the uid stream of admitted requests and change seeded
  /// fault/backoff decisions), so drops are keyed by their offer ordinal.
  struct Drop {
    std::int64_t ordinal = 0;  // 0-based index in the offer stream
    sched::Class cls = sched::Class::kStandard;
    sim::Duration slo = 0;
    sim::Time at = 0;
  };

  // --- dispatcher hooks (all passive; see dispatcher.cpp call sites) -------
  void on_offered(std::uint64_t uid, sched::Class cls, sim::Duration slo,
                  sim::Time now);
  void on_dropped(sched::Class cls, sim::Duration slo, sim::Time now);
  /// A serving process started running on `node`: a new placement hop.
  void on_serve(std::uint64_t uid, int node, sim::Time now);
  /// The slot park ended without a grant (eviction or closed-queue refusal).
  void on_admission_block(std::uint64_t uid, sim::Time now);
  void on_granted(std::uint64_t uid, sim::Time now);
  /// The interval since the grant was spent waiting for the serving node to
  /// finish an S-state wake (power plane). Charged to kPowerWakeup; the
  /// request then proceeds to H2D as usual, so the tiling stays exact.
  void on_power_wake(std::uint64_t uid, sim::Time now);
  void on_h2d_done(std::uint64_t uid, sim::Time now);
  void on_spawned(std::uint64_t uid, sim::Time now);
  /// GPU-side scheduler warp claimed the entry (via the claim observer).
  void on_claimed(std::uint64_t uid, sim::Time now);
  /// Host-visible GPU completion (before the D2H drain).
  void on_exec_done(std::uint64_t uid, sim::Time now);
  /// Charges the in-progress phase up to `now` without advancing the state
  /// machine: failure detection and node-death sweeps use this, so e.g. a
  /// timeout's wait lands in the phase the attempt was actually stuck in.
  void mark_progress(std::uint64_t uid, sim::Time now);
  /// The next interval is a budget-charged backoff.
  void on_retry(std::uint64_t uid);
  /// The next interval is a budget-free re-placement queue wait.
  void on_redispatch(std::uint64_t uid);
  /// The attempt is being migrated off a draining node: charges the
  /// in-progress phase up to `now`, then attributes everything until the
  /// next hop's on_serve (checkpoint transfer + re-placement) to
  /// migrate_xfer. The tiling invariant is untouched — migration inserts a
  /// phase interval, never a gap.
  void on_migrated(std::uint64_t uid, sim::Time now);
  /// Exactly-once resolution; moves the record to the terminal set and
  /// checks the bucket-sum invariant.
  void on_terminal(std::uint64_t uid, Terminal t, std::string_view cause,
                   sim::Time now, bool slo_late);

  // --- results -------------------------------------------------------------
  /// Terminal records in resolution order.
  const std::vector<Record>& records() const { return done_; }
  const std::vector<Drop>& drops() const { return dropped_; }
  /// Admitted requests not yet resolved (0 after a drained run).
  std::size_t live() const { return live_.size(); }

  /// Byte-stable JSON dump (--trace-spans=FILE): requests sorted by uid,
  /// all doubles through format_metric_double, times in microseconds.
  void write_json(std::ostream& os) const;

  /// Perfetto export: per-node tracks of nested hop/phase slices, flow
  /// arrows joining consecutive hops of one request across node tracks, and
  /// one request-level async span per record carrying class/SLO args.
  void export_to_timeline(Timeline& tl) const;

 private:
  struct Live {
    Record rec;
    sim::Time last = 0;   // previous mark: the open interval's start
    Phase next = Phase::kQueueWait;  // phase the open interval belongs to
    std::int32_t node = -1;
  };

  Live* find(std::uint64_t uid);
  void mark(Live& l, Phase p, sim::Time now);

  std::map<std::uint64_t, Live> live_;
  std::vector<Record> done_;
  std::vector<Drop> dropped_;
  std::int64_t offer_ordinal_ = 0;
};

}  // namespace pagoda::obs
