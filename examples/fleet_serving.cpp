// Example: a heterogeneous serving fleet with two tenants.
//
// One Dispatcher fronts a mixed cluster — a Maxwell Titan X and a Kepler
// Tesla K40, each with its own PCIe link and Pagoda runtime — using the
// data-affinity placement policy. Two tenants share it:
//
//   * "interactive": latency-sensitive lookups, Poisson arrivals, a tight
//     2 ms deadline, and keyed input data (requests for the same shard hit
//     the node already holding it, skipping the H2D copy);
//   * "batch": wider analytics requests in ON/OFF bursts with a loose
//     50 ms deadline and unkeyed (always-copied) inputs.
//
// The example self-verifies the serving invariants and exits nonzero on any
// violation: every offered request completes, no deadline is missed at this
// load, the affinity cache absorbs repeat-shard copies, both devices do
// work, and backpressure slots balance exactly.
//
//   $ ./fleet_serving [requests_per_tenant]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cluster/open_loop.h"
#include "common/stats.h"

using namespace pagoda;

namespace {

struct Tenant {
  const char* name;
  cluster::ArrivalConfig arrival;
  cluster::RequestProfile profile;
  std::uint64_t seed;
};

/// One open-loop stream per tenant; the dispatcher closes after the last.
cluster::ArrivalSource tenant_source(const Tenant& t, int requests) {
  return {t.arrival, t.seed, requests,
          [&t](int i) { return cluster::synth_request(t.profile, t.seed, i); }};
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 512;
  if (requests <= 0) {
    std::fprintf(stderr, "usage: fleet_serving [requests_per_tenant]\n");
    return 2;
  }

  cluster::NodeConfig titan;
  cluster::NodeConfig k40 = titan;
  k40.spec = gpu::GpuSpec::tesla_k40();
  cluster::OpenLoopRunner runner({titan, k40},
                                 cluster::make_policy("data-affinity"));
  const cluster::Cluster& fleet = runner.fleet();

  Tenant interactive;
  interactive.name = "interactive";
  interactive.arrival.kind = cluster::ArrivalKind::Poisson;
  interactive.arrival.rate_per_sec = 100.0e3;
  interactive.profile.threads_per_task = 64;
  interactive.profile.h2d_bytes = 8192;
  interactive.profile.num_keys = 32;  // shards; repeats hit the node cache
  interactive.profile.slo = sim::milliseconds(2.0);
  interactive.seed = 0x1E7A;

  Tenant batch;
  batch.name = "batch";
  batch.arrival.kind = cluster::ArrivalKind::Bursty;
  batch.arrival.rate_per_sec = 40.0e3;
  batch.arrival.burst_factor = 4.0;
  batch.profile.threads_per_task = 256;
  batch.profile.compute_cycles = 24000.0;
  batch.profile.stall_cycles = 48000.0;
  batch.profile.h2d_bytes = 65536;
  batch.profile.d2h_bytes = 16384;
  batch.profile.slo = sim::milliseconds(50.0);
  batch.seed = 0xBA7C;

  const bool done = runner.run({tenant_source(interactive, requests),
                                tenant_source(batch, requests)},
                               sim::seconds(60.0));

  const cluster::Dispatcher::Stats& st = runner.dispatcher().stats();
  const std::span<const double> lat = runner.dispatcher().latencies_us();
  std::printf("fleet_serving: %d requests x 2 tenants on titan_x + k40\n",
              requests);
  std::printf("  completed %lld/%lld, slo violations %lld, affinity hits "
              "%lld\n",
              static_cast<long long>(st.completed),
              static_cast<long long>(st.offered),
              static_cast<long long>(st.slo_violations),
              static_cast<long long>(st.affinity_hits));
  std::printf("  latency p50 %.1f us, p99 %.1f us; per-node completed:",
              percentile(lat, 50), percentile(lat, 99));
  for (int i = 0; i < fleet.size(); ++i) {
    std::printf(" %lld", static_cast<long long>(fleet.node(i).completed()));
  }
  std::printf("\n");

  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  expect(done, "dispatcher drained before the simulation horizon");
  expect(st.offered == 2LL * requests, "every request was offered");
  expect(st.completed == st.offered, "every offered request completed");
  expect(st.dropped == 0, "no drops at this load");
  expect(st.slo_violations == 0, "both tenants met their deadlines");
  expect(st.affinity_hits > 0, "shard cache absorbed repeat copies");
  expect(st.slot_releases == st.admitted, "backpressure slots balanced");
  for (int i = 0; i < fleet.size(); ++i) {
    expect(fleet.node(i).completed() > 0, "both devices served requests");
  }
  std::printf("fleet_serving: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
