// The open-loop run loop shared by every cluster caller: a clock-only
// engine::Session, the Cluster of GpuNodes on it, the Dispatcher in front,
// one paced arrival process per source and a drainer.
//
//   OpenLoopRunner run(nodes, make_policy("least-loaded"), dc);
//   run.dispatcher().set_tracer(&tracer);          // optional, before run()
//   run.run({arrival, seed, requests,
//            [&](int i) { return synth_request(profile, seed, i); }},
//           sim::seconds(60.0));
//   if (run.done()) ... run.dispatcher().stats() ... run.end_time() ...
//
// run() fixes the order every caller used to hand-copy: fleet.start(), then
// the sources (in the order given), then the drainer, then run_until(cap).
// That order is part of the determinism contract — the spawn order sets the
// sequence numbers of same-instant events — so goldens and BENCH_*.json stay
// byte-identical across the port. Samplers, tracers and timed administrative
// actions are armed on sim()/dispatcher() between construction and run().
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/placement.h"
#include "cluster/request.h"
#include "cluster/traffic.h"
#include "engine/session.h"
#include "sim/process.h"

namespace pagoda::cluster {

/// One open-loop request stream: `requests` arrivals paced by `arrival`
/// (seeded by `seed`); request i is built by make(i) at its arrival instant.
struct ArrivalSource {
  ArrivalConfig arrival{};
  std::uint64_t seed = 1;
  int requests = 0;
  std::function<Request(int)> make;
};

class OpenLoopRunner {
 public:
  OpenLoopRunner(const std::vector<NodeConfig>& nodes,
                 std::unique_ptr<PlacementPolicy> policy,
                 DispatcherConfig cfg = {});
  OpenLoopRunner(const OpenLoopRunner&) = delete;
  OpenLoopRunner& operator=(const OpenLoopRunner&) = delete;
  /// Shuts the fleet down before the dispatcher goes away.
  ~OpenLoopRunner();

  sim::Simulation& sim() { return session_.sim(); }
  Cluster& fleet() { return fleet_; }
  Dispatcher& dispatcher() { return disp_; }

  /// Starts the fleet, spawns one arrival process per source and then the
  /// drainer, and runs the clock to `cap`. The last source to finish closes
  /// the dispatcher. Call once. Returns done().
  bool run(std::vector<ArrivalSource> sources, sim::Duration cap);
  bool run(ArrivalSource source, sim::Duration cap) {
    std::vector<ArrivalSource> one;
    one.push_back(std::move(source));
    return run(std::move(one), cap);
  }

  /// Every admitted request reached DONE or SHED before the cap.
  bool done() const { return done_; }
  /// Virtual instant the dispatcher drained (0 until done()).
  sim::Time end_time() const { return end_time_; }

 private:
  sim::Process source(const ArrivalSource& s);
  sim::Process drainer();

  engine::Session session_;
  Cluster fleet_;
  Dispatcher disp_;
  std::vector<ArrivalSource> sources_;  // outlives the source processes
  int open_sources_ = 0;
  bool done_ = false;
  sim::Time end_time_ = 0;
};

}  // namespace pagoda::cluster
