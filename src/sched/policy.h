// QoS scheduling policy layer: the single owner of every ordering decision.
//
// Each queue in the stack (cluster admission, host spawn batches, MasterKernel
// scheduler-warp claims) used to bake in its own FIFO order. This layer
// extracts the decision into a pluggable Policy so one flag switches the
// whole stack:
//
//   fifo      arrival order (default; reproduces the legacy queues exactly)
//   priority  strict classes: interactive > standard > batch, FIFO within
//   edf       earliest absolute deadline first; no deadline ranks last
//   wfq       deterministic weighted-fair across classes (start-time fair
//             queueing: virtual start tags, lowest tag served first)
//
// Determinism: policies are pure functions of (key fields, admission order).
// Ties always break on SchedKey::seq — a caller-supplied monotonic sequence —
// so no policy ever depends on pointer values, wall clock, or hash order.
// WFQ's virtual-time state advances only in admit()/served(), both of which
// are invoked at deterministic simulation points.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/time_types.h"

namespace pagoda::sched {

/// Service class of a request/task. Lower enum value = more latency
/// sensitive. The numeric values are the on-descriptor encoding
/// (TaskParams::sched_class), so they are part of the spawn ABI: do not
/// renumber.
enum class Class : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,  // default for untagged work
  kBatch = 2,
};

inline constexpr int kNumClasses = 3;

constexpr int index(Class c) { return static_cast<int>(c); }

constexpr std::string_view to_string(Class c) {
  switch (c) {
    case Class::kInteractive: return "interactive";
    case Class::kStandard: return "standard";
    case Class::kBatch: return "batch";
  }
  return "?";
}

/// Decodes a raw descriptor byte; out-of-range values clamp to kBatch so a
/// corrupted tag degrades service instead of escalating it.
constexpr Class class_from_raw(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(kNumClasses)
             ? Class::kBatch
             : static_cast<Class>(raw);
}

std::optional<Class> parse_class(std::string_view name);

enum class PolicyKind : std::uint8_t { kFifo, kPriority, kEdf, kWfq };

constexpr std::string_view to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kPriority: return "priority";
    case PolicyKind::kEdf: return "edf";
    case PolicyKind::kWfq: return "wfq";
  }
  return "?";
}

std::optional<PolicyKind> parse_policy_kind(std::string_view name);

/// WFQ weights "A,B,C" (interactive,standard,batch): three positive finite
/// numbers. nullopt on anything else.
std::optional<std::array<double, kNumClasses>> parse_weights(
    std::string_view spec);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kFifo;
  /// WFQ per-class weights, indexed by Class. Share of service is
  /// weight[c] / sum(weights) when every class is backlogged.
  std::array<double, kNumClasses> weights{4.0, 2.0, 1.0};
};

/// Everything a policy may order on. Callers fill the fields they know;
/// unknown fields keep their defaults and the policy degrades gracefully
/// (e.g. edf with deadline == 0 ranks after every dated key).
struct SchedKey {
  Class cls = Class::kStandard;
  /// Absolute deadline (sim::Time); 0 = none.
  sim::Time deadline = 0;
  /// Service demand estimate in arbitrary-but-consistent units (WFQ only).
  double cost = 1.0;
  /// Monotonic admission sequence; the final tie-break under every policy.
  std::uint64_t seq = 0;
  /// WFQ virtual start tag, stamped by Policy::admit(). Not caller-set.
  double vtag = 0.0;
};

/// A scheduling policy instance. Stateless for fifo/priority/edf; WFQ keeps
/// per-class virtual-finish times, so give each independent queue domain its
/// own Policy (the dispatcher holds one, each MTB holds one).
class Policy {
 public:
  Policy() = default;
  explicit Policy(const PolicyConfig& cfg);

  /// True when the policy is arrival-order: callers may keep their legacy
  /// fast path (and byte-identical event order) without consulting before().
  bool fifo() const { return cfg_.kind == PolicyKind::kFifo; }

  /// Stamps the key's WFQ virtual start tag (no-op for other policies).
  /// Call once per key, in arrival order, before any before() comparison.
  void admit(SchedKey& key);

  /// Advances WFQ virtual time past the served key (no-op otherwise).
  /// Call when a key is actually granted service.
  void served(const SchedKey& key);

  /// Strict weak order: true when `a` must be served before `b`.
  bool before(const SchedKey& a, const SchedKey& b) const;

  /// The WFQ start tag a key of class `cls` would receive if admitted now;
  /// lets callers compare a prospective arrival against parked keys without
  /// mutating state. Returns 0 for non-WFQ policies.
  double peek_tag(Class cls) const;

  /// Serve order for a batch: admits each key in index order, then writes
  /// into `out` (sized like `keys`, owned by the caller) the indices
  /// stable-sorted by before(). The caller claims in that order and reports
  /// each claim via served(). Allocates nothing.
  void order(std::span<SchedKey> keys, std::span<int> out);

 private:
  PolicyConfig cfg_{};
  // WFQ (start-time fair queueing) state.
  double vtime_ = 0.0;
  std::array<double, kNumClasses> last_finish_{};
};

/// Encodes an absolute sim-time deadline into the 32-bit microsecond field
/// carried on TaskParams (saturating; 0 stays "no deadline").
std::uint32_t deadline_to_us(sim::Time deadline);

/// Decodes TaskParams::deadline_us back to an absolute sim::Time (0 -> 0).
sim::Time deadline_from_us(std::uint32_t us);

}  // namespace pagoda::sched
