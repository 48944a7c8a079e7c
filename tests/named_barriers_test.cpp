// Unit tests for the named-barrier pool (paper §5.2): 16 PTX bar.sync ids
// per MTB, leased per synchronizing threadblock and recycled.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pagoda/named_barriers.h"
#include "sim/process.h"

namespace pagoda::runtime {
namespace {

TEST(NamedBarrierPool, SixteenIdsLeasedUniquely) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  EXPECT_EQ(pool.free_count(), NamedBarrierPool::kNumBarriers);
  std::set<int> ids;
  for (int i = 0; i < NamedBarrierPool::kNumBarriers; ++i) {
    const int id = pool.acquire(/*participants=*/4);
    EXPECT_GE(id, 0);
    EXPECT_LT(id, NamedBarrierPool::kNumBarriers);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate lease of id " << id;
  }
  EXPECT_FALSE(pool.has_free());
  EXPECT_EQ(pool.free_count(), 0);
}

TEST(NamedBarrierPool, ReleaseRecyclesIds) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  std::vector<int> first;
  for (int i = 0; i < NamedBarrierPool::kNumBarriers; ++i) {
    first.push_back(pool.acquire(2));
  }
  pool.release(first[5]);
  pool.release(first[11]);
  EXPECT_EQ(pool.free_count(), 2);
  // Recycled ids come back (in some order) without exhausting the pool.
  const int a = pool.acquire(2);
  const int b = pool.acquire(2);
  const std::set<int> got{a, b};
  EXPECT_TRUE(got.count(first[5]) == 1 || got.count(first[11]) == 1);
  EXPECT_FALSE(pool.has_free());
}

TEST(NamedBarrierPool, BuildsABarrierOnItsFirstLeaseAndLeasesLifo) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  EXPECT_EQ(pool.barriers_built(), 0);
  EXPECT_EQ(pool.acquire(2), 0);
  EXPECT_EQ(pool.barriers_built(), 1);
  EXPECT_EQ(pool.acquire(2), 1);
  EXPECT_EQ(pool.acquire(2), 2);
  EXPECT_EQ(pool.barriers_built(), 3);
  // Released ids come back last-in, first-out; reuse builds nothing.
  pool.release(0);
  pool.release(2);
  EXPECT_EQ(pool.acquire(2), 2);
  EXPECT_EQ(pool.acquire(2), 0);
  EXPECT_EQ(pool.acquire(2), 3);
  EXPECT_EQ(pool.barriers_built(), 4);
}

TEST(NamedBarrierPool, OverfilledFreeStackAborts) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  EXPECT_DEATH(pool.release(0), "released more often than leased");
}

TEST(NamedBarrierPool, ExhaustedPoolAborts) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  for (int i = 0; i < NamedBarrierPool::kNumBarriers; ++i) pool.acquire(1);
  EXPECT_DEATH(pool.acquire(1), "exhausted");
}

sim::Process barrier_user(NamedBarrierPool& pool, int id, int& met,
                          sim::Simulation& sim, sim::Duration delay) {
  co_await sim.delay(delay);
  co_await pool.barrier(id).arrive_and_wait();
  ++met;
}

TEST(NamedBarrierPool, LeasedBarrierSynchronizesItsParticipants) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  const int id = pool.acquire(/*participants=*/3);
  int met = 0;
  sim.spawn(barrier_user(pool, id, met, sim, 10));
  sim.spawn(barrier_user(pool, id, met, sim, 200));
  sim.run_until(100);
  EXPECT_EQ(met, 0);  // two of three arrived: nobody released
  sim.spawn(barrier_user(pool, id, met, sim, 50));
  sim.run();
  EXPECT_EQ(met, 3);
  pool.release(id);
  EXPECT_EQ(pool.free_count(), NamedBarrierPool::kNumBarriers);
}

TEST(NamedBarrierPool, ResetReconfiguresParticipants) {
  sim::Simulation sim;
  NamedBarrierPool pool(sim);
  const int id = pool.acquire(2);
  int met = 0;
  sim.spawn(barrier_user(pool, id, met, sim, 1));
  sim.spawn(barrier_user(pool, id, met, sim, 2));
  sim.run();
  EXPECT_EQ(met, 2);
  pool.release(id);
  // Re-acquire with a different width: the barrier re-arms cleanly.
  const int id2 = pool.acquire(1);
  sim.spawn(barrier_user(pool, id2, met, sim, 1));
  sim.run();
  EXPECT_EQ(met, 3);
}

}  // namespace
}  // namespace pagoda::runtime
