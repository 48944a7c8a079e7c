// The virtual resource plane (DESIGN.md §16): VirtualShmem passthrough
// byte-identity and admission-only virtual charging, virtual occupancy
// arithmetic, and an end-to-end oversubscribed run in compute mode
// (run_experiment aborts unless the CPU reference matches).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "gpu/occupancy.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "pagoda/shmem_allocator.h"
#include "vres/virtual_shmem.h"

namespace pagoda {
namespace {

// ---------------------------------------------------------------------------
// VirtualShmem at oversub == 1.0 is a pure passthrough: identical offsets,
// identical failures, identical sweep behavior as the raw buddy allocator.
// ---------------------------------------------------------------------------

TEST(VirtualShmem, PassthroughMatchesRawBuddy) {
  constexpr std::int32_t kArena = 32 * 1024;
  vres::VirtualShmem virt(kArena, /*oversub=*/1.0);
  runtime::ShmemAllocator raw(kArena);
  ASSERT_FALSE(virt.virtualized());

  SplitMix64 rng(0xBEEFULL);
  struct Live {
    std::int32_t offset;
    std::int32_t bytes;
  };
  std::vector<Live> live;
  for (int i = 0; i < 500; ++i) {
    const double roll = rng.next_double();
    if (roll < 0.6) {
      const auto bytes =
          static_cast<std::int32_t>(256 + rng.next_double() * 8192.0);
      // The passthrough must ignore the used hint entirely.
      const auto got = virt.allocate(bytes, bytes / 2);
      const auto want = raw.allocate(bytes);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << i;
      if (got.has_value()) {
        ASSERT_EQ(*got, *want) << "step " << i;
        live.push_back({*got, bytes});
      }
    } else if (roll < 0.9 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(rng.next_double() *
                                                static_cast<double>(live.size()));
      virt.mark_for_deallocation(live[idx].offset, live[idx].bytes);
      raw.mark_for_deallocation(live[idx].offset);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ASSERT_EQ(virt.sweep_deferred(), raw.sweep_deferred()) << "step " << i;
    }
    ASSERT_EQ(virt.allocated_bytes(), raw.allocated_bytes()) << "step " << i;
    ASSERT_EQ(virt.has_deferred(), raw.has_deferred()) << "step " << i;
    ASSERT_EQ(virt.virtual_bytes_in_use(), 0) << "step " << i;
  }
  EXPECT_EQ(virt.alloc_failures(), raw.alloc_failures());
  EXPECT_EQ(virt.sweeps(), raw.sweeps());
  EXPECT_EQ(virt.blocks_swept(), raw.blocks_swept());
}

// ---------------------------------------------------------------------------
// Virtualized mode: the virtual charge is pow2(declared), the physical
// backing pow2(used) — more blocks co-reside than the declared footprints
// could ever pack physically.
// ---------------------------------------------------------------------------

TEST(VirtualShmem, UsedFootprintPacksDenserThanDeclared) {
  constexpr std::int32_t kArena = 8 * 1024;
  vres::VirtualShmem virt(kArena, /*oversub=*/2.0);
  ASSERT_TRUE(virt.virtualized());
  // Four blocks declaring 4 KB each (16 KB total — only the virtual arena
  // holds them) while using 2 KB each (8 KB — exactly the physical arena).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(virt.allocate(4 * 1024, 2 * 1024).has_value())
        << "block " << i;
  }
  EXPECT_EQ(virt.virtual_bytes_in_use(), 16 * 1024);
  EXPECT_EQ(virt.allocated_bytes(), 8 * 1024);
  // A fifth 4 KB declaration no longer fits virtually (20 KB > 16 KB), and
  // is refused before the buddy is asked: no physical failure is counted.
  EXPECT_FALSE(virt.allocate(4 * 1024, 2 * 1024).has_value());
  EXPECT_EQ(virt.alloc_failures(), 0);
}

// A full physical arena refuses the block (nothing is evicted), and a
// deferred free returns the virtual charge only when the scheduler sweeps.
TEST(VirtualShmem, PhysicalPressureWaitsForTheSweep) {
  constexpr std::int32_t kArena = 4 * 1024;
  constexpr std::int32_t kBlock = 2 * 1024;
  vres::VirtualShmem virt(kArena, /*oversub=*/2.0);
  // A declares 1.5 KB: charged and backed as its 2 KB buddy block.
  const auto a = virt.allocate(1536, 1536);
  const auto b = virt.allocate(kBlock, kBlock);
  ASSERT_TRUE(a.has_value() && b.has_value());
  // Virtually half used, physically full: the third block waits.
  EXPECT_FALSE(virt.allocate(kBlock, kBlock).has_value());
  EXPECT_EQ(virt.alloc_failures(), 1);
  EXPECT_EQ(virt.virtual_bytes_in_use(), 2 * kBlock);

  // The last warp marks A with its declared size; until the sweep, both
  // the bytes and the charge stay held.
  virt.mark_for_deallocation(*a, 1536);
  EXPECT_TRUE(virt.has_deferred());
  EXPECT_EQ(virt.virtual_bytes_in_use(), 2 * kBlock);
  EXPECT_FALSE(virt.allocate(kBlock, kBlock).has_value());
  EXPECT_EQ(virt.sweep_deferred(), 1);
  EXPECT_FALSE(virt.has_deferred());
  EXPECT_EQ(virt.virtual_bytes_in_use(), kBlock);
  EXPECT_EQ(virt.sweeps(), 1);
  EXPECT_EQ(virt.blocks_swept(), 1);
  const auto c = virt.allocate(kBlock, kBlock);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);  // the buddy hands back the freed block
}

// ---------------------------------------------------------------------------
// Virtual occupancy arithmetic (gpu/occupancy.h).
// ---------------------------------------------------------------------------

TEST(OccupancyVirtual, ReducesToPhysicalAtOversubOne) {
  const gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  const gpu::BlockFootprint f = gpu::BlockFootprint::of(128, 33, 8 * 1024);
  const gpu::OccupancyResult plain = gpu::max_residency(spec, f);
  const gpu::OccupancyResult virt =
      gpu::max_residency_virtual(spec, f, f, 1.0);
  EXPECT_EQ(virt.blocks_per_smm, plain.blocks_per_smm);
  EXPECT_EQ(virt.warps_per_smm, plain.warps_per_smm);
  EXPECT_DOUBLE_EQ(virt.occupancy, plain.occupancy);
}

TEST(OccupancyVirtual, OversubLiftsShmemBoundResidency) {
  gpu::GpuSpec spec;
  spec.shared_mem_per_smm = 32 * 1024;
  gpu::BlockFootprint declared = gpu::BlockFootprint::of(32, 0, 8 * 1024);
  gpu::BlockFootprint used = declared;
  used.shared_mem_bytes = 4 * 1024;
  // Physically shmem-bound at 4 blocks; 1.5x oversubscription admits 6
  // declared footprints and the used footprints still fit (32K/4K = 8).
  EXPECT_EQ(gpu::max_residency(spec, declared).blocks_per_smm, 4);
  const gpu::OccupancyResult virt =
      gpu::max_residency_virtual(spec, declared, used, 1.5);
  EXPECT_EQ(virt.blocks_per_smm, 6);
  // The physical used-footprint limit still binds: an oversub big enough to
  // admit 16 declared blocks is capped by 32K/4K = 8 physical backings.
  const gpu::OccupancyResult capped =
      gpu::max_residency_virtual(spec, declared, used, 4.0);
  EXPECT_EQ(capped.blocks_per_smm, 8);
}

// ---------------------------------------------------------------------------
// End to end: irregular DCT under --oversub=1.5 in Compute mode.
// run_experiment() aborts unless every task's output matches the CPU
// reference, so passing this test IS the correctness gate for oversubscribed
// execution. The fragmentation keys must appear iff oversub > 1.
// ---------------------------------------------------------------------------

std::string run_dct(double oversub) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 48;
  wcfg.threads_per_task = 64;
  wcfg.irregular_sizes = true;
  wcfg.seed = 0x5EED5ULL;

  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = gpu::ExecMode::Compute;
  rcfg.pagoda.oversub = oversub;

  obs::CollectorConfig ccfg;
  ccfg.sample_period = sim::microseconds(50.0);
  obs::Collector collector(ccfg);
  rcfg.collector = &collector;

  const harness::Measurement m =
      harness::run_experiment("DCT", "Pagoda", wcfg, rcfg);
  std::ostringstream os;
  m.metrics.write_json(os);
  return os.str();
}

TEST(VresEndToEnd, OversubComputeVerifiesAndExportsMetrics) {
  const std::string metrics = run_dct(1.5);
  EXPECT_NE(metrics.find("pagoda.shmem.internal_frag_bytes"),
            std::string::npos);
  EXPECT_NE(metrics.find("pagoda.shmem.external_frag"), std::string::npos);
}

TEST(VresEndToEnd, OversubOneEmitsNoVresKeys) {
  const std::string metrics = run_dct(1.0);
  EXPECT_EQ(metrics.find("pagoda.shmem.internal_frag_bytes"),
            std::string::npos);
  EXPECT_EQ(metrics.find("pagoda.shmem.external_frag"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Virtual slot admission in a cluster: shallow TaskTables (2 rows, so 96
// entries per Titan X) at 2x oversubscription. The closed batch fills each
// node's 192 virtual slots before any spawn lands, so every grant past the
// first 96 per node rides virtual headroom.
// ---------------------------------------------------------------------------

TEST(VresCluster, ShallowTableOverAdmissionCounters) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 2048;
  wcfg.seed = 0x9A60DA;

  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = gpu::ExecMode::Model;
  rcfg.pagoda.rows_per_column = 2;
  rcfg.pagoda.oversub = 2.0;
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x()};
  rcfg.cluster.seed = wcfg.seed;

  obs::Collector collector(obs::CollectorConfig{});
  rcfg.collector = &collector;
  harness::Measurement m =
      harness::run_experiment("CONV", "Cluster", wcfg, rcfg);
  EXPECT_EQ(m.metrics.counter("cluster.requests.completed").value(), 2048);
  EXPECT_EQ(m.metrics.counter("vres.slots.virtual").value(), 384);
  EXPECT_EQ(m.metrics.counter("vres.slots.physical").value(), 192);
  EXPECT_EQ(m.metrics.counter("vres.slots.over_admissions").value(), 1856);
  EXPECT_EQ(m.metrics.counter("vres.slots.overadmission_peak").value(), 192);
}

}  // namespace
}  // namespace pagoda
