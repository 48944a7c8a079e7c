// Trace subsystem tests: the recorded per-task lifecycle respects the
// protocol's strict temporal order Spawned -> EntryCopied -> Released ->
// Scheduled -> Completed, across entry recycling and randomized task shapes.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "gpu/device.h"
#include "pagoda/runtime.h"
#include "pagoda/trace.h"
#include "sim/process.h"

namespace pagoda::runtime {
namespace {

gpu::KernelCoro noop_kernel(gpu::WarpCtx& ctx) {
  ctx.charge(20.0);
  ctx.charge_stall(40.0);
  co_return;
}

sim::Process spawn_n(sim::Simulation& sim, Runtime& rt, int n,
                     SplitMix64& rng, bool& done) {
  for (int t = 0; t < n; ++t) {
    TaskParams p;
    p.fn = noop_kernel;
    p.threads_per_block = static_cast<int>(rng.next_in(1, 8)) * 32;
    p.num_blocks = 1;
    co_await rt.task_spawn(p);
    if (rng.next() % 8 == 0) {
      co_await sim.delay(sim::microseconds(rng.next_double() * 10.0));
    }
  }
  co_await rt.wait_all();
  done = true;
}

TEST(Trace, LifecycleOrderHoldsForEveryTask) {
  sim::Simulation sim;
  gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  spec.num_smms = 2;  // small table -> recycling
  gpu::Device dev(sim, spec);
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(11);
  bool done = false;
  constexpr int kTasks = 400;
  sim.spawn(spawn_n(sim, rt, kTasks, rng, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);

  const auto timelines = trace.timelines();
  ASSERT_EQ(timelines.size(), static_cast<std::size_t>(kTasks));
  for (const auto& t : timelines) {
    ASSERT_TRUE(t.complete()) << "task at entry " << t.task
                              << " missing lifecycle events";
    ASSERT_TRUE(t.ordered()) << "task at entry " << t.task
                             << " violated lifecycle order";
  }
  rt.shutdown();
}

TEST(Trace, WarpDispatchWindowSitsInsideScheduledToCompleted) {
  sim::Simulation sim;
  gpu::Device dev(sim, gpu::GpuSpec::titan_x());
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(21);
  bool done = false;
  constexpr int kTasks = 200;
  sim.spawn(spawn_n(sim, rt, kTasks, rng, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);

  int total_dispatched = 0;
  for (const auto& t : trace.timelines()) {
    // Every executed task had at least one warp placed by pSched, and the
    // placement window is bracketed by scheduling and completion (the
    // ordered() predicate enforces the bracketing; re-check the endpoints
    // explicitly so a silent -1 cannot slip through complete()).
    ASSERT_TRUE(t.complete());
    ASSERT_TRUE(t.ordered());
    EXPECT_GE(t.warps_dispatched, 1) << "entry " << t.task;
    EXPECT_GE(t.first_warp_dispatch, t.scheduled);
    EXPECT_LE(t.last_warp_dispatch, t.completed);
    EXPECT_LE(t.first_warp_dispatch, t.last_warp_dispatch);
    total_dispatched += t.warps_dispatched;
  }
  // The per-task attribution must not lose or invent placements.
  EXPECT_EQ(total_dispatched,
            static_cast<int>(rt.master_kernel().warps_dispatched()));
  rt.shutdown();
}

TEST(Trace, FlushAndCopyBackEventsAreOrderedAndAttributed) {
  sim::Simulation sim;
  gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  spec.num_smms = 2;  // small table -> recycling exercises copy-back paths
  gpu::Device dev(sim, spec);
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(17);
  bool done = false;
  constexpr int kTasks = 300;
  sim.spawn(spawn_n(sim, rt, kTasks, rng, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);

  int flushed = 0;
  int copied_back = 0;
  for (const auto& t : trace.timelines()) {
    ASSERT_TRUE(t.ordered()) << "entry " << t.task;
    if (t.was_flushed()) {
      ++flushed;
      // A flush releases an entry the GPU already holds but the scheduler
      // has not claimed yet.
      EXPECT_GE(t.flushed, t.entry_copied);
      EXPECT_LE(t.flushed, t.scheduled);
      // A flushed task has no successor, so its release came from the host
      // flush itself, never earlier than the flush.
      EXPECT_GE(t.released, t.flushed);
    }
    if (t.copy_back >= 0) {
      ++copied_back;
      EXPECT_GE(t.copy_back, t.completed);
    }
  }
  // The stop-start spawner (random inter-spawn gaps + the final wait_all)
  // must strand at least one chain tail for the host to flush, and the
  // host copy-back must observe at least one freed entry.
  EXPECT_GE(flushed, 1);
  EXPECT_GE(copied_back, 1);
  EXPECT_EQ(flushed, static_cast<int>(rt.stats().flushes));
  rt.shutdown();
}

TEST(Trace, WarpDispatchCountMatchesTaskWarps) {
  sim::Simulation sim;
  gpu::Device dev(sim, gpu::GpuSpec::titan_x());
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(3);
  bool done = false;
  sim.spawn(spawn_n(sim, rt, 50, rng, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  int dispatched = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceKind::kWarpDispatched) ++dispatched;
  }
  EXPECT_EQ(dispatched,
            static_cast<int>(rt.master_kernel().warps_dispatched()));
  rt.shutdown();
}

TEST(Trace, CsvDumpIsWellFormed) {
  sim::Simulation sim;
  gpu::Device dev(sim, gpu::GpuSpec::titan_x());
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(5);
  bool done = false;
  sim.spawn(spawn_n(sim, rt, 5, rng, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  std::ostringstream os;
  trace.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_us,kind,task,aux"), std::string::npos);
  EXPECT_NE(csv.find("spawned"), std::string::npos);
  EXPECT_NE(csv.find("completed"), std::string::npos);
  // One line per event plus the header.
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, trace.events().size() + 1);
  rt.shutdown();
}

TEST(Trace, ChromeTraceExportIsValidJson) {
  sim::Simulation sim;
  gpu::Device dev(sim, gpu::GpuSpec::titan_x());
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  SplitMix64 rng(13);
  bool done = false;
  sim.spawn(spawn_n(sim, rt, 10, rng, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // Balanced braces and one duration slice per task.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  std::size_t slices = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, 10u);
  rt.shutdown();
}

TEST(Trace, ForTaskFiltersAndKindNamesAreStable) {
  TraceRecorder trace;
  trace.record(10, TraceKind::kSpawned, 2);
  trace.record(20, TraceKind::kSpawned, 3);
  trace.record(30, TraceKind::kCompleted, 2);
  // Events stay in record order, each with its task.
  const std::vector<TraceEvent>& ev = trace.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].task, 2);
  EXPECT_EQ(ev[0].kind, TraceKind::kSpawned);
  EXPECT_EQ(ev[1].task, 3);
  EXPECT_EQ(ev[2].task, 2);
  EXPECT_EQ(ev[2].kind, TraceKind::kCompleted);
  EXPECT_EQ(trace_kind_name(TraceKind::kWarpDispatched), "warp_dispatched");
  EXPECT_EQ(trace_kind_name(TraceKind::kCopyBack), "copy_back");
}

}  // namespace
}  // namespace pagoda::runtime
