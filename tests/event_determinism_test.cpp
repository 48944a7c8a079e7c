// Determinism contract of the pooled event queue (see sim/event_queue.h).
//
// The queue pops in (time, schedule-sequence) order: events at the same
// timestamp fire in the order schedule() was called. Since the EventId now
// packs a pooled slot index and its reuse generation, the id is NOT ordered
// — these tests pin that slot reuse after cancel/fire can never change pop
// order, that the coroutine-resume fast path interleaves with callback
// events in call order, and (via a randomized soak against a reference
// model) that the property holds under arbitrary schedule/cancel mixes.
// golden_metrics_test.cpp extends the same guarantee end-to-end: full-run
// metrics JSON is pinned byte-for-byte to pre-refactor golden files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "closure_events.h"
#include "common/rng.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pagoda {
namespace {

TEST(EventDeterminism, SameTimestampPopsInScheduleOrder) {
  sim::Closures fn;
  sim::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.at(100, fn([&order, i] { order.push_back(i); }));
  }
  sim.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Cancelling early events frees their pool slots; later same-timestamp
// events reuse those slots but must still fire in schedule order (the
// tie-break is the schedule sequence, not the slot index).
TEST(EventDeterminism, SlotReuseAfterCancelKeepsFifo) {
  sim::Closures fn;
  sim::Simulation sim;
  std::vector<int> order;
  std::vector<sim::EventId> doomed;
  for (int i = 0; i < 16; ++i) {
    doomed.push_back(sim.at(50, fn([&order] { order.push_back(-1); })));
  }
  for (const sim::EventId id : doomed) EXPECT_TRUE(sim.cancel(id));
  // These reuse the 16 freed slots (in some pool order); their pop order
  // must still be schedule order.
  for (int i = 0; i < 32; ++i) {
    sim.at(50, fn([&order, i] { order.push_back(i); }));
  }
  sim.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Slots recycled by *fired* events must not reorder later ties either: run
// several generations of same-timestamp batches through the queue.
TEST(EventDeterminism, SlotReuseAcrossGenerationsKeepsFifo) {
  sim::Closures fn;
  sim::Simulation sim;
  std::vector<std::pair<int, int>> order;  // (generation, index)
  for (int gen = 0; gen < 8; ++gen) {
    for (int i = 0; i < 24; ++i) {
      sim.at(10 * (gen + 1),
             fn([&order, gen, i] { order.emplace_back(gen, i); }));
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 8u * 24u);
  for (int gen = 0; gen < 8; ++gen) {
    for (int i = 0; i < 24; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(gen * 24 + i)],
                std::make_pair(gen, i));
    }
  }
}

// The coroutine-resume fast path (schedule_resume) shares the same sequence
// counter as callback events: a process wake and a callback scheduled for
// the same instant fire in the order they were scheduled. The controller
// alternates trigger fires (resume events) with defers (callback events).
TEST(EventDeterminism, ResumeAndCallbackEventsInterleaveInScheduleOrder) {
  sim::Closures fn;
  sim::Simulation sim;
  std::vector<int> order;
  std::vector<std::unique_ptr<sim::Trigger>> triggers;
  for (int i = 0; i < 10; ++i) {
    triggers.push_back(std::make_unique<sim::Trigger>(sim));
  }
  auto waiter = [](sim::Trigger& t, std::vector<int>& ord,
                   int tag) -> sim::Process {
    co_await t.wait();
    ord.push_back(tag);
  };
  for (int i = 0; i < 10; ++i) {
    sim.spawn(waiter(*triggers[i], order, 2 * i));
  }
  auto controller = [](sim::Simulation& s,
                       std::vector<std::unique_ptr<sim::Trigger>>& trig,
                       std::vector<int>& ord,
                       sim::Closures& fn) -> sim::Process {
    co_await s.delay(100);
    for (int i = 0; i < 10; ++i) {
      trig[static_cast<size_t>(i)]->fire();  // resume event, tag 2i
      s.defer(fn([&ord, i] { ord.push_back(2 * i + 1); }));
    }
  };
  sim.spawn(controller(sim, triggers, order, fn));
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Randomized soak against a reference model: arbitrary mixes of schedule
// (with heavy timestamp collisions) and cancel must fire in exactly the
// (time, schedule-sequence) order of the surviving events.
TEST(EventDeterminism, RandomizedSoakMatchesReferenceModel) {
  sim::Closures fn;
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    sim::Simulation sim;
    SplitMix64 rng(seed);
    struct Ref {
      sim::Time at;
      int tag;
      sim::EventId id;
      bool cancelled = false;
    };
    std::vector<Ref> model;
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
      if (!model.empty() && rng.next() % 4 == 0) {
        // Cancel a random not-yet-cancelled entry (may already have fired
        // by schedule order; cancel() then returns false — mirror that).
        Ref& r = model[rng.next() % model.size()];
        if (!r.cancelled) r.cancelled = sim.cancel(r.id);
      } else {
        // 16 distinct timestamps over 2000 events: long FIFO chains.
        const auto at = static_cast<sim::Time>(rng.next() % 16 + 1);
        const int tag = i;
        const sim::EventId id =
            sim.at(at, fn([&fired, tag] { fired.push_back(tag); }));
        model.push_back(Ref{at, tag, id});
      }
    }
    sim.run();
    std::vector<int> want;
    std::stable_sort(model.begin(), model.end(),
                     [](const Ref& a, const Ref& b) { return a.at < b.at; });
    for (const Ref& r : model) {
      if (!r.cancelled) want.push_back(r.tag);
    }
    EXPECT_EQ(fired, want) << "seed " << seed;
  }
}

// End-to-end determinism: three back-to-back Pagoda MM runs in one process
// (so later runs inherit warmed event/frame pools) must produce
// byte-identical metrics JSON.
TEST(EventDeterminism, RepeatedRunsProduceIdenticalMetricsJson) {
  auto run_once = []() -> std::string {
    workloads::WorkloadConfig wcfg;
    wcfg.num_tasks = 256;
    wcfg.threads_per_task = 128;
    wcfg.seed = 0x9A60DAULL;
    obs::CollectorConfig ccfg;
    ccfg.sample_period = sim::microseconds(20.0);
    obs::Collector collector(ccfg);
    baselines::RunConfig rcfg = harness::paper_platform();
    rcfg.mode = gpu::ExecMode::Model;
    rcfg.collect_latencies = true;
    rcfg.collector = &collector;
    const harness::Measurement m =
        harness::run_experiment("MM", "Pagoda", wcfg, rcfg);
    std::ostringstream out;
    m.metrics.write_json(out);
    return out.str();
  };
  const std::string first = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_once());
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace pagoda
