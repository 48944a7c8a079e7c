// Host-memory footprint guards: a node backs only the TaskTable rows its
// spawns reached, and an MTB costs a bounded heap at MasterKernel::start().
// Both read the allocator (row counts are exact; the start-up heap comes
// from mallinfo2), so sanitizer builds, which keep their own allocator,
// skip them.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>

#include "cluster/open_loop.h"
#include "cluster/traffic.h"
#include "gpu/device.h"
#include "pagoda/master_kernel.h"
#include "sim/frame_pool.h"
#include "sim/simulation.h"

namespace pagoda {
namespace {

// Everything MasterKernel::start() allocates for one MTB: its record, its
// executor slots' keys and its scheduler warp's frame. First in the file, so
// a whole-binary run measures it with a cold frame pool too.
TEST(Footprint, MasterKernelStartHeapPerMtbIsBounded) {
#ifdef PAGODA_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds keep their own allocator";
#else
  sim::Simulation sim;
  gpu::Device dev(sim, gpu::GpuSpec::titan_x());
  runtime::PagodaConfig cfg;
  runtime::TaskTable table(dev.num_smms() * runtime::MasterKernel::kMtbsPerSmm,
                           cfg.rows_per_column);
  runtime::MasterKernel mk(dev, table, cfg);
  const std::size_t before = mallinfo2().uordblks;
  mk.start();
  const std::size_t after = mallinfo2().uordblks;
  const double per_mtb = static_cast<double>(after - before) / mk.num_mtbs();
  RecordProperty("start_heap_bytes_per_mtb", static_cast<int>(per_mtb));
  EXPECT_LE(per_mtb, 2400.0);
  mk.shutdown();
#endif
}

// 64 round-robin requests per node: each node spawns 64 tasks, which fill
// search positions 0-63 of its 48-column table, i.e. rows 0 and 1.
TEST(Footprint, LightFleetBacksTwoRowsOfEveryPerEntryArray) {
#ifdef PAGODA_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds keep their own allocator";
#else
  constexpr int kNodes = 16;
  constexpr int kPerNode = 64;
  cluster::RequestProfile profile;
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = 200.0e3 * kNodes;
  src.seed = 1;
  src.requests = kNodes * kPerNode;
  src.make = [&](int i) { return cluster::synth_request(profile, 1, i); };
  cluster::OpenLoopRunner runner(
      cluster::Cluster::homogeneous(kNodes, cluster::NodeConfig{}),
      cluster::make_policy("round-robin"));
  ASSERT_TRUE(runner.run(std::move(src), sim::seconds(120.0)));
  ASSERT_EQ(runner.dispatcher().stats().completed, kNodes * kPerNode);
  for (int n = 0; n < kNodes; ++n) {
    SCOPED_TRACE(n);
    const runtime::Runtime& rt = runner.fleet().node(n).rt();
    ASSERT_EQ(rt.cpu_table().columns(), 48);
    EXPECT_EQ(rt.cpu_table().rows_backed(), 2);
    EXPECT_EQ(rt.gpu_table().rows_backed(), 2);
    EXPECT_EQ(rt.cpu_table().status_rows_backed(), 2);
    EXPECT_EQ(rt.gpu_table().status_rows_backed(), 2);
    EXPECT_EQ(rt.stamp_rows_backed(), 2);
    EXPECT_EQ(runner.dispatcher().record_rows_backed(n), 2);
  }
#endif
}

}  // namespace
}  // namespace pagoda
