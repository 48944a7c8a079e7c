#include "cluster/open_loop.h"

#include <utility>

#include "common/check.h"

namespace pagoda::cluster {

namespace {

engine::SessionConfig clock_only() {
  engine::SessionConfig c;
  c.device = false;  // each GpuNode brings up its own device sub-session
  return c;
}

}  // namespace

OpenLoopRunner::OpenLoopRunner(const std::vector<NodeConfig>& nodes,
                               std::unique_ptr<PlacementPolicy> policy,
                               DispatcherConfig cfg)
    : session_(clock_only()),
      fleet_(session_.sim(), nodes),
      disp_(fleet_, std::move(policy), std::move(cfg)) {}

OpenLoopRunner::~OpenLoopRunner() { fleet_.shutdown(); }

bool OpenLoopRunner::run(std::vector<ArrivalSource> sources,
                         sim::Duration cap) {
  PAGODA_CHECK_MSG(sources_.empty() && !sources.empty(),
                   "OpenLoopRunner::run takes at least one source, once");
  sources_ = std::move(sources);
  open_sources_ = static_cast<int>(sources_.size());
  fleet_.start();
  for (const ArrivalSource& s : sources_) sim().spawn(source(s));
  sim().spawn(drainer());
  sim().run_until(cap);
  return done_;
}

sim::Process OpenLoopRunner::source(const ArrivalSource& s) {
  ArrivalSequence seq(s.arrival, s.seed);
  for (int i = 0; i < s.requests; ++i) {
    const sim::Duration gap = seq.next_gap();
    if (gap > 0) co_await sim().delay(gap);
    disp_.offer(s.make(i));
  }
  if (--open_sources_ == 0) disp_.close();
}

sim::Process OpenLoopRunner::drainer() {
  co_await disp_.drain();
  end_time_ = sim().now();
  done_ = true;
}

}  // namespace pagoda::cluster
