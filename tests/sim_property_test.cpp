// Property tests for the simulation core: conservation laws of the
// processor-sharing resource, FIFO ordering laws of the DMA link, event
// queue stress with random cancellation, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "closure_events.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/process.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"

namespace pagoda::sim {
namespace {

// Runs `work` units on `res`, then calls `on_done` at the completion time.
template <typename F>
Process ps_job(PsResource& res, double work, F on_done) {
  co_await res.execute(work);
  on_done();
}

class PsResourceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsResourceProperty, WorkConservationAndMonotoneCompletion) {
  Closures fn;
  SplitMix64 rng(GetParam());
  Simulation sim;
  const double capacity = 1.0 + static_cast<double>(rng.next_below(8));
  PsResource res(sim, capacity, 1.0);

  struct Job {
    double work;
    Time submit;
    Time done = -1;
  };
  std::vector<Job> jobs(64);
  double total_work = 0.0;
  for (auto& j : jobs) {
    j.work = 0.5 + rng.next_double() * 4.0;
    j.submit = static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(
        seconds(2.0))));
    total_work += j.work;
  }
  for (auto& j : jobs) {
    sim.at(j.submit, fn([&res, &j, &sim] {
      sim.spawn(ps_job(res, j.work, [&j, &sim] { j.done = sim.now(); }));
    }));
  }
  sim.run();

  Time last_done = 0;
  for (const Job& j : jobs) {
    ASSERT_GE(j.done, 0) << "job never completed";
    // No job can finish faster than its work at the per-job cap.
    EXPECT_GE(j.done - j.submit,
              static_cast<Duration>(j.work * 1e12) - 2);
    last_done = std::max(last_done, j.done);
  }
  // Work conservation: the busy integral equals the total work (the server
  // never idles while jobs are active, and serves exactly what was asked).
  EXPECT_NEAR(res.busy_work_seconds(), total_work, total_work * 1e-6);
  // Makespan lower bound: total work can't be served faster than capacity.
  EXPECT_GE(to_seconds(last_done), total_work / capacity * 0.999 -
                                       to_seconds(seconds(2.0)));
  EXPECT_EQ(res.active_jobs(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsResourceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(PsResourceProperty, EqualJobsCompleteTogetherRegardlessOfCount) {
  for (const int n : {1, 2, 5, 17, 64}) {
    Simulation sim;
    PsResource res(sim, 4.0, 1.0);
    std::vector<Time> done;
    for (int i = 0; i < n; ++i) {
      sim.spawn(ps_job(res, 2.0, [&] { done.push_back(sim.now()); }));
    }
    sim.run();
    ASSERT_EQ(static_cast<int>(done.size()), n);
    for (const Time t : done) EXPECT_EQ(t, done.front());
    // n <= 4: rate capped at 1 -> 2s. n > 4: shared -> 2n/4 seconds.
    const double expected = n <= 4 ? 2.0 : 2.0 * n / 4.0;
    EXPECT_NEAR(to_seconds(done.front()), expected, 1e-6);
  }
}

class LinkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkProperty, CompletionsAreFifoAndWireConserving) {
  Closures fn;
  SplitMix64 rng(GetParam());
  Simulation sim;
  Link link(sim, 1e9, microseconds(2.0), nanoseconds(500.0));
  std::vector<int> completion_order;
  std::int64_t total_bytes = 0;
  constexpr int kTransfers = 100;
  Duration expected_busy = 0;
  for (int i = 0; i < kTransfers; ++i) {
    const auto bytes = static_cast<std::int64_t>(rng.next_in(1, 8000));
    total_bytes += bytes;
    // At 1e9 B/s one byte occupies the wire for 1 ns = 1000 ps.
    expected_busy += std::max<Duration>(nanoseconds(500.0),
                                        static_cast<Duration>(bytes) * 1000);
    const Duration jitter =
        static_cast<Duration>(rng.next_below(static_cast<std::uint64_t>(
            microseconds(50.0))));
    sim.after(jitter, fn([&fn, &link, &completion_order, i, bytes] {
      link.transfer(bytes, fn([&completion_order, i] {
                      completion_order.push_back(i);
                    }));
    }));
  }
  sim.run();
  ASSERT_EQ(completion_order.size(), static_cast<std::size_t>(kTransfers));
  // FIFO within equal issue times is guaranteed; across different issue
  // times the engine is still non-overtaking: completion order must be
  // sorted by (service start), which equals issue order here because the
  // engine is work-conserving and single-served. Weak check: the busy time
  // matches the sum of wire slots exactly.
  EXPECT_EQ(link.busy_time(), expected_busy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkProperty, ::testing::Values(3, 9, 27));

TEST(EventQueueStress, RandomScheduleAndCancel) {
  Closures fn;
  SplitMix64 rng(99);
  Simulation sim;
  std::vector<Time> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const auto t = static_cast<Time>(rng.next_below(1000000));
    ids.push_back(
        sim.at(t, fn([&fired, &sim] { fired.push_back(sim.now()); })));
  }
  // Cancel a random third; a second cancel of the same id must return
  // false and not disturb the accounting.
  int cancelled = 0;
  for (const EventId id : ids) {
    if (rng.next() % 3 == 0 && sim.cancel(id)) {
      ++cancelled;
      EXPECT_FALSE(sim.cancel(id));
    }
  }
  sim.run();
  EXPECT_EQ(fired.size(), ids.size() - static_cast<std::size_t>(cancelled));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// The indexed heap plus same-time lane against an ordered reference: random
// future and same-time schedules, resumes at reserved keys (which must sort
// ahead of later same-time pushes), cancels of live, fired and recycled-slot
// ids, retimes earlier, later and to the same time, and pops. Every pop must
// be the reference's minimum (at, seq), and size() must match throughout.
TEST(EventQueueStress, MatchesAnOrderedReference) {
  using Key = std::pair<Time, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SplitMix64 rng(seed);
    EventQueue q;
    std::set<Key> model;
    std::map<EventId, Key> live;
    std::vector<EventId> dead;  // fired, cancelled or retired
    std::vector<Key> reserved;  // keys taken by reserve_seq(), not yet used
    std::uint64_t next_seq = 1;
    Key last{0, 0};  // key of the last pop
    auto pick_live = [&] {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      return it;
    };
    auto random_time = [&] {
      return rng.next() % 2 == 0
                 ? last.first
                 : last.first + static_cast<Time>(rng.next_below(50));
    };
    for (int op = 0; op < 5000; ++op) {
      const std::uint64_t r = rng.next_below(100);
      if (r < 30) {
        const Time at = random_time();
        const Key key{at, next_seq++};
        const EventId id =
            q.schedule(at, q.reserve_seq(), std::noop_coroutine());
        model.insert(key);
        live[id] = key;
      } else if (r < 38) {
        reserved.push_back(Key{last.first, q.reserve_seq()});
        ASSERT_EQ(reserved.back().second, next_seq++);
      } else if (r < 45 && !reserved.empty()) {
        // A reservation is usable until the run passes its key.
        const Key key = reserved.front();
        reserved.erase(reserved.begin());
        if (key < last) continue;
        const EventId id =
            q.schedule(key.first, key.second, std::noop_coroutine());
        model.insert(key);
        live[id] = key;
      } else if (r < 55) {
        if (rng.next() % 2 == 0 && !live.empty()) {
          const auto it = pick_live();
          ASSERT_TRUE(q.cancel(it->first));
          model.erase(it->second);
          dead.push_back(it->first);
          live.erase(it);
        } else if (!dead.empty()) {
          ASSERT_FALSE(q.cancel(dead[rng.next_below(dead.size())]));
        }
      } else if (r < 70 && !live.empty()) {
        const auto it = pick_live();
        const Time old_at = it->second.first;
        const std::uint64_t how = rng.next_below(3);
        const Time at =
            how == 0   ? last.first + static_cast<Time>(rng.next_below(
                                         static_cast<std::uint64_t>(
                                             old_at - last.first) + 1))
            : how == 1 ? old_at + static_cast<Time>(rng.next_below(50))
                       : old_at;
        const Key key{at, next_seq++};
        const EventId id = q.retime(it->first, at);
        model.erase(it->second);
        model.insert(key);
        dead.push_back(it->first);
        live.erase(it);
        live[id] = key;
      } else if (!model.empty()) {
        const EventQueue::Popped p = q.pop();
        const Key want = *model.begin();
        ASSERT_EQ(Key(p.at, p.seq), want) << "seed " << seed << " op " << op;
        model.erase(model.begin());
        for (auto it = live.begin(); it != live.end(); ++it) {
          if (it->second == want) {
            dead.push_back(it->first);
            live.erase(it);
            break;
          }
        }
        last = want;
      }
      ASSERT_EQ(q.size(), model.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(q.next_time(), model.empty() ? kTimeMax : model.begin()->first);
    }
  }
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Closures fn;
    SplitMix64 rng(seed);
    Simulation sim;
    PsResource res(sim, 3.0, 1.0);
    std::vector<Time> done;
    for (int i = 0; i < 50; ++i) {
      sim.after(static_cast<Duration>(rng.next_below(10000)),
                fn([&res, &rng, &done, &sim] {
                  sim.spawn(ps_job(res, 1.0 + rng.next_double(), [&done, &sim] {
                    done.push_back(sim.now());
                  }));
                }));
    }
    sim.run();
    return done;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

}  // namespace
}  // namespace pagoda::sim
