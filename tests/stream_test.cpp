// Stream semantics tests: same-direction memcpy pipelining, cross-engine
// ordering on direction changes, kernel/event ordering — the behaviors the
// Pagoda spawn path and the HyperQ baseline depend on.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "closure_events.h"
#include "gpu/device.h"
#include "gpu/stream.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/task.h"

#ifndef PAGODA_FRAME_POOL_DISABLED
// Counts heap blocks so the allocation guard below can bound what one copy
// costs. This binary holds only stream tests, so the count is theirs alone.
// Sanitizer builds keep their own allocator and skip the guard.
namespace {
long g_heap_blocks = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_blocks += 1;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace pagoda::gpu {
namespace {

pcie::PcieConfig test_pcie() {
  pcie::PcieConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;  // 1 GB/s: 1us per KB
  cfg.latency = sim::microseconds(2.0);
  cfg.transaction_gap = sim::nanoseconds(500.0);
  return cfg;
}

TEST(Stream, SameDirectionCopiesPipeline) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  std::vector<sim::Time> done;
  for (int i = 0; i < 3; ++i) {
    s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                   fn([&] { done.push_back(sim.now()); }));
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  // Wire slots at 1us spacing, each landing 2us later: 3, 4, 5 us.
  // Crucially NOT 3, 6, 9 us (no per-copy completion wait).
  EXPECT_EQ(done[0], sim::microseconds(3));
  EXPECT_EQ(done[1], sim::microseconds(4));
  EXPECT_EQ(done[2], sim::microseconds(5));
}

TEST(Stream, DirectionChangeWaitsForPriorCopies) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  sim::Time h2d_done = -1;
  sim::Time d2h_done = -1;
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] { h2d_done = sim.now(); }));
  s.memcpy_async(pcie::Direction::DeviceToHost, nullptr, nullptr, 1000,
                 fn([&] { d2h_done = sim.now(); }));
  sim.run();
  // The D2H copy starts only after the H2D completed (cross-engine stream
  // order): completion at 3us + (1us wire + 2us latency) = 6us.
  EXPECT_EQ(h2d_done, sim::microseconds(3));
  EXPECT_EQ(d2h_done, sim::microseconds(6));
}

KernelCoro tiny_kernel(WarpCtx& ctx) {
  ctx.charge(1000.0);  // 1us at 1GHz
  co_return;
}

TEST(Stream, KernelWaitsForCopiesAndBlocksFollowingOnes) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  sim::Time copy1_done = -1;
  sim::Time copy2_done = -1;
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] { copy1_done = sim.now(); }));
  KernelLaunchParams p;
  p.fn = tiny_kernel;
  p.threads_per_block = 32;
  auto kernel_trig = s.kernel_async(std::move(p));
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] { copy2_done = sim.now(); }));
  sim.run();
  EXPECT_EQ(copy1_done, sim::microseconds(3));
  EXPECT_TRUE(kernel_trig->fired());
  // Kernel runs 3..4us; the trailing copy starts after: wire 4..5, +2 -> 7.
  EXPECT_EQ(copy2_done, sim::microseconds(7));
}

sim::Process sync_user(Device& dev, Stream& s, sim::Time& synced_at) {
  co_await s.synchronize();
  synced_at = dev.sim().now();
}

TEST(Stream, SynchronizeWaitsForEverything) {
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  for (int i = 0; i < 4; ++i) {
    s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000);
  }
  sim::Time synced_at = -1;
  sim.spawn(sync_user(dev, s, synced_at));
  sim.run();
  // Last copy lands at 4 wire slots + 2us latency = 6us.
  EXPECT_EQ(synced_at, sim::microseconds(6));
  EXPECT_TRUE(s.idle());
}

TEST(Stream, SynchronizeOnIdleStreamIsImmediate) {
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  sim::Time synced_at = -1;
  sim.spawn(sync_user(dev, s, synced_at));
  sim.run();
  EXPECT_EQ(synced_at, 0);
}

TEST(Stream, IndependentStreamsShareTheEngineFifo) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream a(dev);
  Stream b(dev);
  sim::Time a_done = -1;
  sim::Time b_done = -1;
  a.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] { a_done = sim.now(); }));
  b.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] { b_done = sim.now(); }));
  sim.run();
  // One DMA engine per direction: b's copy waits for a's wire slot.
  EXPECT_EQ(a_done, sim::microseconds(3));
  EXPECT_EQ(b_done, sim::microseconds(4));
}

// Awaits one copy on `s` from a coroutine; yields the transfer verdict
// (always true for an unchecked copy).
sim::Task<bool> await_copy(Stream& s, pcie::Direction dir, void* dst,
                           const void* src, std::size_t bytes, bool checked) {
  if (checked) co_return co_await s.memcpy_checked(dir, dst, src, bytes);
  co_await s.memcpy(dir, dst, src, bytes);
  co_return true;
}

struct ScriptLog {
  std::vector<std::string> order;   // what landed or fired, in order
  std::vector<sim::Time> at;        // when
  std::vector<std::int64_t> links;  // both links' counters at the end
};

sim::Process script_copier(sim::Simulation& sim, Stream& s, ScriptLog& log,
                           int i, bool checked) {
  co_await sim.delay(sim::nanoseconds(700.0 * i));
  const pcie::Direction dir = (i % 3 == 2) ? pcie::Direction::DeviceToHost
                                           : pcie::Direction::HostToDevice;
  const bool ok = co_await await_copy(
      s, dir, nullptr, nullptr, static_cast<std::size_t>(500 + 300 * i),
      checked);
  log.order.push_back("copy" + std::to_string(i) + (ok ? "" : "!"));
  log.at.push_back(sim.now());
}

// One H2D/D2H/kernel/event script; only the copies' checked-ness varies.
ScriptLog run_mixed_script(bool checked) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  ScriptLog log;
  auto note = [&log, &sim](std::string what) {
    log.order.push_back(std::move(what));
    log.at.push_back(sim.now());
  };
  for (int i = 0; i < 6; ++i) {
    sim.spawn(script_copier(sim, s, log, i, checked));
  }
  sim.after(sim::nanoseconds(300.0), fn([&] {
    s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 800,
                   fn([&] { note("callback"); }));
  }));
  sim.after(sim::nanoseconds(1200.0), fn([&] {
    KernelLaunchParams p;
    p.fn = tiny_kernel;
    p.threads_per_block = 32;
    s.kernel_async(std::move(p))->call_on_fire(fn([&] { note("kernel"); }));
  }));
  sim.after(sim::nanoseconds(2500.0), fn([&] {
    s.record_event()->call_on_fire(fn([&] { note("event"); }));
  }));
  sim.run();
  for (const pcie::Direction d :
       {pcie::Direction::HostToDevice, pcie::Direction::DeviceToHost}) {
    const sim::Link& l = dev.pcie().link(d);
    log.links.push_back(l.transfers_started());
    log.links.push_back(l.transfers_completed());
    log.links.push_back(l.bytes_transferred());
    log.links.push_back(l.busy_time());
  }
  return log;
}

TEST(Stream, CheckedCopiesMatchUncheckedWithNoHookArmed) {
  const ScriptLog plain = run_mixed_script(false);
  const ScriptLog checked = run_mixed_script(true);
  // Six awaited copies, one callback copy, the kernel and the event.
  ASSERT_EQ(plain.order.size(), 9u);
  EXPECT_EQ(checked.order, plain.order);
  EXPECT_EQ(checked.at, plain.at);
  EXPECT_EQ(checked.links, plain.links);
  EXPECT_EQ(plain.links[0], 5);  // H2D transfers started: 4 awaited + callback
  EXPECT_EQ(plain.links[4], 2);  // D2H
}

sim::Process faulted_copier(sim::Simulation& sim, Stream& s, void* dst,
                            const void* src, bool& ok, sim::Time& at) {
  ok = co_await await_copy(s, pcie::Direction::HostToDevice, dst, src, 1000,
                           /*checked=*/true);
  at = sim.now();
}

TEST(Stream, FaultedCopyHoldsItsWireSlotAndLandsNothing) {
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  int asked = 0;
  dev.pcie().set_transfer_fault_fn(
      [&asked](pcie::Direction, std::int64_t) { return asked++ == 0; });
  const std::vector<std::byte> src(1000, std::byte{7});
  std::vector<std::byte> faulted(1000);
  std::vector<std::byte> clean(1000);
  bool faulted_ok = true;
  bool clean_ok = false;
  sim::Time faulted_at = -1;
  sim::Time clean_at = -1;
  sim.spawn(faulted_copier(sim, s, faulted.data(), src.data(), faulted_ok,
                           faulted_at));
  sim.spawn(
      faulted_copier(sim, s, clean.data(), src.data(), clean_ok, clean_at));
  sim.run();
  EXPECT_EQ(asked, 2);
  EXPECT_FALSE(faulted_ok);
  EXPECT_TRUE(clean_ok);
  // The corrupt copy kept its full slot: wire 0..1us, landing at 3us; the
  // clean one queued behind it on the wire and lands at 4us.
  EXPECT_EQ(faulted_at, sim::microseconds(3));
  EXPECT_EQ(clean_at, sim::microseconds(4));
  EXPECT_EQ(faulted, std::vector<std::byte>(1000));
  EXPECT_EQ(clean, src);
  const sim::Link& h2d = dev.pcie().link(pcie::Direction::HostToDevice);
  EXPECT_EQ(h2d.busy_time(), sim::microseconds(2));
  EXPECT_EQ(h2d.bytes_transferred(), 2000);
  EXPECT_EQ(h2d.transfers_completed(), 2);
  EXPECT_EQ(dev.pcie().transfer_faults(), 1);
}

TEST(Stream, CopyPushedFromALandingCallbackWaitsForThatCopy) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  sim::Link& d2h = dev.pcie().link(pcie::Direction::DeviceToHost);
  sim::Time d2h_wire_start = -1;
  d2h.set_observer([&](const sim::Link::TransferRecord& r) {
    d2h_wire_start = r.wire_start;
  });
  sim::Time h2d_done = -1;
  sim::Time d2h_done = -1;
  std::int64_t d2h_started_in_callback = -1;
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] {
                   h2d_done = sim.now();
                   s.memcpy_async(pcie::Direction::DeviceToHost, nullptr,
                                  nullptr, 1000,
                                  fn([&] { d2h_done = sim.now(); }));
                   d2h_started_in_callback = d2h.transfers_started();
                 }));
  sim.run();
  EXPECT_EQ(h2d_done, sim::microseconds(3));
  // Inside the callback the H2D still counts as in flight, so the D2H waits;
  // it goes on the wire at the H2D's landing instant, once it has retired.
  EXPECT_EQ(d2h_started_in_callback, 0);
  EXPECT_EQ(d2h_wire_start, sim::microseconds(3));
  EXPECT_EQ(d2h_done, sim::microseconds(6));
}

sim::Process await_and_note(sim::Simulation& sim, Stream& s,
                            std::vector<std::string>& order,
                            std::vector<sim::Time>& at) {
  co_await s.memcpy(pcie::Direction::HostToDevice, nullptr, nullptr, 1000);
  order.emplace_back("resumed");
  at.push_back(sim.now());
}

// A callback copy and an awaited copy land back to back on one stream; the
// first landing pushes a second callback copy and schedules an event at the
// second landing instant. A landing action runs inside the link's landing
// event; an awaited copy's caller is deferred from it, so it resumes after
// every event already keyed at that instant.
TEST(Stream, LandingCallbacksEventsAndResumedCallerKeepTheirOrder) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  std::vector<std::string> order;
  std::vector<sim::Time> at;
  auto note = [&](const char* what) {
    return fn([&order, &at, &sim, what] {
      order.emplace_back(what);
      at.push_back(sim.now());
    });
  };
  const sim::Continuation second_done = note("second");
  const sim::Continuation event2 = note("event2");
  const sim::Continuation first_note = note("first");
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 1000,
                 fn([&] {
                   first_note();
                   s.memcpy_async(pcie::Direction::HostToDevice, nullptr,
                                  nullptr, 1000, second_done);
                   sim.at(sim::microseconds(4), event2);
                 }));
  sim.spawn(await_and_note(sim, s, order, at));
  sim.at(sim::microseconds(3), note("event"));
  sim.run();
  // Wire 0..1us and 1..2us, landing at 3 and 4us; the pushed copy joins the
  // wire at 3us behind them and lands at 6us.
  EXPECT_EQ(order, (std::vector<std::string>{"first", "event", "event2",
                                             "resumed", "second"}));
  EXPECT_EQ(at, (std::vector<sim::Time>{
                    sim::microseconds(3), sim::microseconds(3),
                    sim::microseconds(4), sim::microseconds(4),
                    sim::microseconds(6)}));
  EXPECT_TRUE(s.idle());
}

// A landing continuation pushes copies that grow the queue while its own op
// is the front record: the stream must not read that record again (ASan
// reports the reuse).
TEST(Stream, LandingCallbackMayGrowTheQueue) {
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  int landed = 0;
  const sim::Continuation count = fn([&landed] { ++landed; });
  s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 64,
                 fn([&s, &landed, count] {
                   for (int i = 0; i < 4; ++i) {
                     s.memcpy_async(pcie::Direction::HostToDevice, nullptr,
                                    nullptr, 64, count);
                   }
                   ++landed;
                 }));
  sim.run();
  EXPECT_EQ(landed, 5);
  EXPECT_TRUE(s.idle());
}

sim::Process await_copies(Stream& s, int n, sim::Continuation landed) {
  for (int i = 0; i < n; ++i) {
    co_await s.memcpy(pcie::Direction::HostToDevice, nullptr, nullptr, 64,
                      landed);
  }
}

TEST(Stream, SteadyStateCopyAllocatesNothing) {
#ifdef PAGODA_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds keep their own allocator";
#else
  sim::Closures fn;
  sim::Simulation sim;
  Device dev(sim, GpuSpec::titan_x(), test_pcie());
  Stream s(dev);
  int landed = 0;
  const sim::Continuation count = fn([&landed] { ++landed; });
  // 100 callback copies, then 100 awaited copies, each with a landing
  // action, per batch.
  auto batch = [&] {
    for (int i = 0; i < 100; ++i) {
      s.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 64,
                     count);
    }
    sim.spawn(await_copies(s, 100, count));
    sim.run();
  };
  for (int b = 0; b < 10; ++b) batch();  // warm the pools and buffers
  const long before = g_heap_blocks;
  for (int b = 0; b < 100; ++b) batch();
  const long blocks = g_heap_blocks - before;
  RecordProperty("heap_blocks_per_20000_copies", static_cast<int>(blocks));
  EXPECT_EQ(landed, 22000);
  EXPECT_EQ(blocks, 0);
#endif
}

}  // namespace
}  // namespace pagoda::gpu
