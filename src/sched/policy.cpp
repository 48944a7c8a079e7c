#include "sched/policy.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>

#include "common/check.h"

namespace pagoda::sched {

namespace {

/// EDF rank: a missing deadline (0) sorts after every dated key.
constexpr sim::Time edf_rank(sim::Time deadline) {
  return deadline == 0 ? std::numeric_limits<sim::Time>::max() : deadline;
}

}  // namespace

std::optional<Class> parse_class(std::string_view name) {
  for (int i = 0; i < kNumClasses; ++i) {
    const Class c = static_cast<Class>(i);
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

std::optional<PolicyKind> parse_policy_kind(std::string_view name) {
  for (const PolicyKind k : {PolicyKind::kFifo, PolicyKind::kPriority,
                             PolicyKind::kEdf, PolicyKind::kWfq}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<std::array<double, kNumClasses>> parse_weights(
    std::string_view spec) {
  std::array<double, kNumClasses> w{};
  for (std::size_t i = 0; i < w.size(); ++i) {
    const std::size_t comma = spec.find(',');
    if ((i + 1 == w.size()) != (comma == std::string_view::npos)) {
      return std::nullopt;
    }
    const std::string part(spec.substr(0, comma));
    spec.remove_prefix(comma == std::string_view::npos ? spec.size()
                                                       : comma + 1);
    errno = 0;
    char* end = nullptr;
    w[i] = std::strtod(part.c_str(), &end);
    if (errno != 0 || part.empty() || end != part.c_str() + part.size() ||
        !(w[i] > 0.0) || !std::isfinite(w[i])) {
      return std::nullopt;
    }
  }
  return w;
}

Policy::Policy(const PolicyConfig& cfg) : cfg_(cfg) {
  for (const double w : cfg_.weights) {
    PAGODA_CHECK_MSG(w > 0.0 && std::isfinite(w),
                     "sched weights must be positive finite");
  }
}

void Policy::admit(SchedKey& key) {
  if (cfg_.kind != PolicyKind::kWfq) return;
  // Start-time fair queueing: start tag = max(virtual time, the class's last
  // finish tag); the class's next finish tag advances by cost / weight.
  const int c = index(key.cls);
  key.vtag = std::max(vtime_, last_finish_[c]);
  last_finish_[c] = key.vtag + key.cost / cfg_.weights[c];
}

void Policy::served(const SchedKey& key) {
  if (cfg_.kind != PolicyKind::kWfq) return;
  vtime_ = std::max(vtime_, key.vtag);
}

bool Policy::before(const SchedKey& a, const SchedKey& b) const {
  switch (cfg_.kind) {
    case PolicyKind::kFifo:
      return a.seq < b.seq;
    case PolicyKind::kPriority:
      if (a.cls != b.cls) return index(a.cls) < index(b.cls);
      return a.seq < b.seq;
    case PolicyKind::kEdf: {
      const sim::Time ra = edf_rank(a.deadline);
      const sim::Time rb = edf_rank(b.deadline);
      if (ra != rb) return ra < rb;
      return a.seq < b.seq;
    }
    case PolicyKind::kWfq:
      if (a.vtag != b.vtag) return a.vtag < b.vtag;
      return a.seq < b.seq;
  }
  return a.seq < b.seq;
}

double Policy::peek_tag(Class cls) const {
  if (cfg_.kind != PolicyKind::kWfq) return 0.0;
  return std::max(vtime_, last_finish_[index(cls)]);
}

void Policy::order(std::span<SchedKey> keys, std::span<int> out) {
  PAGODA_CHECK(out.size() == keys.size());
  std::iota(out.begin(), out.end(), 0);
  if (fifo()) return;  // arrival order, no tag churn
  for (SchedKey& k : keys) admit(k);
  // Ties under before() break on the index: a total order whose sort is the
  // stable one, without std::stable_sort's temporary buffer.
  std::sort(out.begin(), out.end(), [&](int a, int b) {
    const SchedKey& ka = keys[static_cast<std::size_t>(a)];
    const SchedKey& kb = keys[static_cast<std::size_t>(b)];
    if (before(ka, kb)) return true;
    return !before(kb, ka) && a < b;
  });
}

std::uint32_t deadline_to_us(sim::Time deadline) {
  if (deadline <= 0) return 0;
  const double us = sim::to_microseconds(deadline);
  const double max32 = static_cast<double>(
      std::numeric_limits<std::uint32_t>::max());
  if (us >= max32) return std::numeric_limits<std::uint32_t>::max();
  // Round up so an encoded deadline is never earlier than the real one, and
  // never collides with the 0 = "none" encoding.
  const auto enc = static_cast<std::uint32_t>(std::ceil(us));
  return enc == 0 ? 1 : enc;
}

sim::Time deadline_from_us(std::uint32_t us) {
  if (us == 0) return 0;
  return sim::microseconds(static_cast<double>(us));
}

}  // namespace pagoda::sched
