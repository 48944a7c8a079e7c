// Unit tests for the discrete-event core: event ordering, cancellation,
// processes, synchronization primitives, processor sharing, links.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "closure_events.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/process.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"

#ifndef PAGODA_FRAME_POOL_DISABLED
// Counts heap blocks so the allocation guard below can bound what an event
// costs. Sanitizer builds keep their own allocator and skip the guard.
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

namespace pagoda::sim {
namespace {

/// A suspended coroutine that logs `name` when resumed, then frees itself:
/// a fire callback that logs.
struct LogOnResume {
  struct promise_type {
    LogOnResume get_return_object() {
      return LogOnResume{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<> h;
};

LogOnResume log_on_resume(std::vector<std::string>& log, std::string name) {
  log.push_back(std::move(name));
  co_return;
}

/// A member-continuation event body that logs its tag.
struct PushTag {
  std::vector<int>* order;
  int tag;
  void run() { order->push_back(tag); }
};

LogOnResume push_on_resume(std::vector<int>& order, int tag) {
  order.push_back(tag);
  co_return;
}

TEST(EventQueue, FiresInTimeOrder) {
  Closures fn;
  Simulation sim;
  std::vector<int> order;
  sim.after(30, fn([&] { order.push_back(3); }));
  sim.after(10, fn([&] { order.push_back(1); }));
  sim.after(20, fn([&] { order.push_back(2); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(EventQueue, SameTimeIsFifo) {
  Closures fn;
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.after(5, fn([&order, i] { order.push_back(i); }));
  }
  sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);

  // Closure, member and resume events mixed with events at keys reserved in
  // between but scheduled last: each runs at its seq. At delay 0 the events
  // go to the same-time lane and the reserved keys behind its back.
  for (const Duration d : {Duration{0}, Duration{5}}) {
    order.clear();
    std::vector<PushTag> tags;
    tags.reserve(16);
    std::vector<std::pair<EventKey, int>> reserved;
    for (int i = 0; i < 16; ++i) {
      switch (i % 4) {
        case 0: sim.after(d, fn([&order, i] { order.push_back(i); })); break;
        case 1:
          tags.push_back(PushTag{&order, i});
          sim.after(d, Continuation::member<&PushTag::run>(&tags.back()));
          break;
        case 2: sim.after(d, push_on_resume(order, i).h); break;
        default:
          reserved.emplace_back(sim.reserve_event(sim.now() + d), i);
          break;
      }
    }
    for (const auto& [k, i] : reserved) {
      sim.at(k, fn([&order, i = i] { order.push_back(i); }));
    }
    sim.run();
    ASSERT_EQ(order.size(), 16u) << "delay " << d;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i) << "delay " << d;
    }
  }
}

/// Re-arms itself `left` times, one tick apart.
struct Ticker {
  Simulation* sim;
  int left;
  void tick() {
    if (--left > 0) sim->after(1, Continuation::member<&Ticker::tick>(this));
  }
};

Process resume_loop(Simulation& sim, int n) {
  for (int i = 0; i < n; ++i) co_await sim.delay(1);
}

TEST(EventQueue, SteadyStateEventsAllocateNothing) {
#ifdef PAGODA_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds keep their own allocator";
#else
  Simulation sim;
  Ticker t{&sim, 0};
  auto batch = [&](int n) {
    t.left = n;
    sim.after(1, Continuation::member<&Ticker::tick>(&t));
    sim.spawn(resume_loop(sim, n));
    sim.run();
  };
  batch(100);  // warm the slab, the lane and the frame pool
  const long before = g_heap_blocks;
  const Time start = sim.now();
  batch(10000);  // 10,000 member events and 10,000 resumes
  const long blocks = g_heap_blocks - before;
  RecordProperty("heap_blocks_per_20000_events", static_cast<int>(blocks));
  EXPECT_EQ(t.left, 0);
  EXPECT_EQ(sim.now() - start, 10000);
  EXPECT_EQ(blocks, 0);
#endif
}

TEST(EventQueue, CancelPreventsFiring) {
  Closures fn;
  Simulation sim;
  bool fired = false;
  const EventId id = sim.after(10, fn([&] { fired = true; }));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  Closures fn;
  Simulation sim;
  const EventId id = sim.after(1, fn([] {}));
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  Closures fn;
  Simulation sim;
  int hits = 0;
  sim.after(1, fn([&] {
    ++hits;
    sim.after(1, fn([&] { ++hits; }));
  }));
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 2);
}

// --- EventQueue cancel hardening ------------------------------------------

/// A cancelled id whose slot was since reused by a NEW event must not cancel
/// the new event: the generation stamped into the id has moved on. This is
/// the double-cancel-across-slab-reuse regression pinned by the explicit
/// generation check in EventQueue::cancel.
TEST(EventCancelSlabReuse, StaleIdDoesNotCancelReusedSlot) {
  Closures fn;
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(10, q.reserve_seq(), fn([&] { fired += 1; }));
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled (LIFO free list): b lands in a's slab slot
  // with a bumped generation.
  const EventId b = q.schedule(20, q.reserve_seq(), fn([&] { fired += 10; }));
  EXPECT_FALSE(q.cancel(a)) << "stale id cancelled a reused slot";
  EXPECT_FALSE(q.cancel(a)) << "double-cancel of a stale id succeeded";
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(fired, 10) << "the reused slot's event must still fire";
  (void)b;
}

TEST(EventCancelSlabReuse, CancelAfterFireIsRejected) {
  Closures fn;
  EventQueue q;
  const EventId a = q.schedule(5, q.reserve_seq(), fn([] {}));
  q.pop().run();
  EXPECT_FALSE(q.cancel(a));
  // And the slot reuse after a natural pop is likewise protected.
  const EventId b = q.schedule(7, q.reserve_seq(), fn([] {}));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventCancelSlabReuse, ZeroAndForeignIdsAreRejected) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(static_cast<EventId>(1) << 32));  // slot never used
}

TEST(Simulation, RunUntilStopsAtTime) {
  Closures fn;
  Simulation sim;
  int hits = 0;
  sim.after(10, fn([&] { ++hits; }));
  sim.after(20, fn([&] { ++hits; }));
  sim.run_until(15);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), 15);
  sim.run();
  EXPECT_EQ(hits, 2);
}

TEST(EventQueue, PoppedCarriesItsSeqAndReservationsSkipOne) {
  Closures fn;
  EventQueue q;
  q.schedule(10, q.reserve_seq(), fn([] {}));
  const std::uint64_t reserved = q.reserve_seq();
  q.schedule(10, q.reserve_seq(), fn([] {}));
  EXPECT_EQ(q.pop().seq, reserved - 1);
  EXPECT_EQ(q.pop().seq, reserved + 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RetimeTakesAFreshSeqAndRetiresTheOldId) {
  Closures fn;
  EventQueue q;
  std::vector<int> order;
  const EventId a =
      q.schedule(10, q.reserve_seq(), fn([&] { order.push_back(1); }));
  q.schedule(10, q.reserve_seq(), fn([&] { order.push_back(2); }));
  const EventId moved = q.retime(a, 10);
  EXPECT_NE(moved, a);
  EXPECT_FALSE(q.cancel(a)) << "the retired id still cancels";
  EXPECT_EQ(q.size(), 2u);
  // Same time, fresh seq: the re-timed event now fires after the one that
  // was scheduled at 10 before the retime.
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_FALSE(q.cancel(moved));
}

Process record_key(Simulation& sim, std::vector<int>& order,
                   EventKey& ran_at) {
  order.push_back(2);
  ran_at = sim.current_event();
  co_return;
}

// A reserved key orders exactly where an event deferred at reservation time
// would have, however late the event is pushed.
TEST(Simulation, ReservedKeyOrdersWhereADeferWould) {
  Closures fn;
  Simulation sim;
  std::vector<int> order;
  EventKey reserved{};
  EventKey ran_at{};
  sim.after(5, fn([&] {
    sim.defer(fn([&] {
      order.push_back(1);
      // Pushed after events 3 and 4, yet it runs ahead of them.
      sim.spawn(record_key(sim, order, ran_at), reserved);
    }));
    reserved = sim.reserve_event();
    sim.defer(fn([&] { order.push_back(3); }));
    sim.defer(fn([&] { order.push_back(4); }));
  }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(ran_at, reserved);
  EXPECT_EQ(ran_at.at, 5);
}

Process delayer(Simulation& sim, std::vector<Time>& trace) {
  trace.push_back(sim.now());
  co_await sim.delay(microseconds(1));
  trace.push_back(sim.now());
  co_await sim.delay(microseconds(2));
  trace.push_back(sim.now());
}

TEST(Process, DelaysAdvanceClock) {
  Simulation sim;
  std::vector<Time> trace;
  sim.spawn(delayer(sim, trace));
  sim.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], 0);
  EXPECT_EQ(trace[1], microseconds(1));
  EXPECT_EQ(trace[2], microseconds(3));
}

Process joiner_child(Simulation& sim, int& state) {
  co_await sim.delay(100);
  state = 1;
}

Process joiner_parent(Simulation& sim, Joinable child, int& state,
                      int& observed) {
  co_await child.join();
  observed = state;
  co_await sim.delay(1);
}

TEST(Process, JoinWaitsForCompletion) {
  Simulation sim;
  int state = 0;
  int observed = -1;
  Joinable child = sim.spawn(joiner_child(sim, state));
  sim.spawn(joiner_parent(sim, child, state, observed));
  sim.run();
  EXPECT_EQ(observed, 1);
}

Process join_after_done(Simulation& sim, Joinable child, Time& joined_at) {
  co_await sim.delay(microseconds(1));  // well past child's completion
  co_await child.join();
  joined_at = sim.now();
}

TEST(Process, JoinOnFinishedProcessReturnsImmediately) {
  Simulation sim;
  int state = 0;
  Joinable child = sim.spawn(joiner_child(sim, state));
  Time joined_at = -1;
  sim.spawn(join_after_done(sim, child, joined_at));
  sim.run();
  EXPECT_EQ(state, 1);
  EXPECT_TRUE(child.done());
  EXPECT_EQ(joined_at, microseconds(1));
}

TEST(Process, UnspawnedProcessDoesNotLeak) {
  Simulation sim;
  int state = 0;
  {
    Process p = joiner_child(sim, state);
    (void)p;
  }  // destroyed without spawn; ASAN would flag a leak if mishandled
  sim.run();
  EXPECT_EQ(state, 0);
}

Process cv_waiter(Condition& cv, int& wakeups) {
  co_await cv.wait();
  ++wakeups;
}

TEST(Condition, NotifyAllWakesEveryWaiter) {
  Closures fn;
  Simulation sim;
  Condition cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 3; ++i) sim.spawn(cv_waiter(cv, wakeups));
  sim.after(10, fn([&] { cv.notify_all(); }));
  sim.run();
  EXPECT_EQ(wakeups, 3);
}

TEST(Condition, NotifyOneWakesSingleWaiter) {
  Closures fn;
  Simulation sim;
  Condition cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 3; ++i) sim.spawn(cv_waiter(cv, wakeups));
  sim.after(10, fn([&] { cv.notify_one(); }));
  sim.run_until(20);
  EXPECT_EQ(wakeups, 1);
  EXPECT_EQ(cv.waiter_count(), 2u);
  cv.notify_all();
  sim.run();
  EXPECT_EQ(wakeups, 3);
}

// --- SlotCondition ------------------------------------------------------------

// A pool of workers, one per slot, each running the work handed to its slot.
// The reference parks them all on one broadcast Condition and has every woken
// worker re-check its own flag; the other retires them on a SlotCondition,
// which starts a new worker per hand-off. The same scripted driver hands off
// work and broadcasts in both.
struct WorkerPool {
  // (time, seq, slot) of every resume that found its slot handed work.
  using Found = std::tuple<Time, std::uint64_t, int>;

  WorkerPool(Simulation& s, int slots, bool use_slots, std::uint64_t seed)
      : sim(s),
        pipe(s, 2e12, 1e12),
        cv(s),
        sc(s, slots),
        slotted(use_slots),
        flag(static_cast<std::size_t>(slots), false),
        rng(seed) {}

  Process worker(int s) {
    const auto i = static_cast<std::size_t>(s);
    while (true) {
      if (!flag[i]) {
        if (slotted) {
          sc.retire(s);
          co_return;
        }
        co_await cv.wait();
        continue;
      }
      const EventKey k = sim.current_event();
      found.emplace_back(k.at, k.seq, s);
      // Scripted work: none, a delay, or a slice of a shared pipe, where
      // workers started together finish (and park) in one event.
      switch (found.size() % 3) {
        case 0: co_await sim.delay(0); break;
        case 1: co_await sim.delay(3); break;
        default: co_await pipe.execute(4.0); break;
      }
      flag[i] = false;
    }
  }

  void hand_off_idle() {
    std::vector<int> idle;
    for (std::size_t i = 0; i < flag.size(); ++i) {
      if (!flag[i]) idle.push_back(static_cast<int>(i));
    }
    if (idle.empty()) return;
    const int s = idle[rng.next_below(idle.size())];
    flag[static_cast<std::size_t>(s)] = true;
    if (slotted) sc.hand_off(s);
  }

  void broadcast() {
    if (slotted) {
      sc.notify_all();
    } else {
      cv.notify_all();
    }
  }

  Process script(int steps) {
    for (int n = 0; n < steps; ++n) {
      switch (rng.next_below(6)) {
        case 0:
          co_await sim.delay(static_cast<Duration>(rng.next_below(4)));
          break;
        case 1: hand_off_idle(); break;
        case 2: broadcast(); break;
        case 3:
          // Runs after this event, so after any broadcast it makes next:
          // inside the window where the woken workers have not run yet.
          sim.defer(Continuation::member<&WorkerPool::hand_off_idle>(this));
          break;
        case 4:
          // A broadcast inside another broadcast's window.
          sim.defer(Continuation::member<&WorkerPool::broadcast>(this));
          break;
        default:
          hand_off_idle();
          broadcast();
          break;
      }
    }
  }

  Simulation& sim;
  PsResource pipe;
  Condition cv;
  SlotCondition sc;
  bool slotted;
  std::vector<bool> flag;
  SplitMix64 rng;
  std::vector<Found> found;
};

std::vector<WorkerPool::Found> run_pool(std::uint64_t seed, bool slotted) {
  constexpr int kSlots = 8;
  Simulation sim;
  WorkerPool pool(sim, kSlots, slotted, seed);
  // Lands before any worker's first run.
  sim.defer(Continuation::member<&WorkerPool::hand_off_idle>(&pool));
  if (slotted) {
    pool.sc.spawn_deferred([&pool](int s) { return pool.worker(s); });
  } else {
    for (int s = 0; s < kSlots; ++s) sim.spawn(pool.worker(s));
  }
  sim.spawn(pool.script(400));
  sim.run();
  return pool.found;
}

TEST(SlotCondition, ResumesExactlyLikeABroadcastCondition) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::vector<WorkerPool::Found> want = run_pool(seed, false);
    const std::vector<WorkerPool::Found> got = run_pool(seed, true);
    ASSERT_GT(want.size(), 30u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

// Made only on a hand-off, so its slot always holds work: run it, retire.
Process slot_worker(SlotCondition& sc, std::vector<bool>& flag, int s,
                    std::vector<int>& ran) {
  EXPECT_TRUE(flag[static_cast<std::size_t>(s)]);
  ran.push_back(s);
  flag[static_cast<std::size_t>(s)] = false;
  sc.retire(s);
  co_return;
}

TEST(SlotCondition, CreatesAWorkerOnlyOnItsFirstHandOff) {
  Closures fn;
  Simulation sim;
  SlotCondition sc(sim, 4);
  std::vector<bool> flag(4, false);
  std::vector<int> ran;
  int made = 0;
  sc.spawn_deferred([&](int s) {
    made += 1;
    return slot_worker(sc, flag, s, ran);
  });
  sim.run();
  EXPECT_EQ(made, 0);
  sim.after(1, fn([&] {
    flag[2] = true;
    sc.hand_off(2);
    sc.notify_all();
  }));
  sim.run();
  EXPECT_EQ(made, 1);
  EXPECT_EQ(ran, (std::vector<int>{2}));
  // The worker retired: the slot's next hand-off makes a new one.
  sim.after(1, fn([&] {
    flag[2] = true;
    sc.hand_off(2);
    sc.notify_all();
  }));
  sim.run();
  EXPECT_EQ(made, 2);
  EXPECT_EQ(ran, (std::vector<int>{2, 2}));
}

Process trigger_waiter(Trigger& t, int& wakeups) {
  co_await t.wait();
  ++wakeups;
}

TEST(Trigger, ReleasesCurrentAndFutureWaiters) {
  Closures fn;
  Simulation sim;
  Trigger t(sim);
  int wakeups = 0;
  sim.spawn(trigger_waiter(t, wakeups));
  sim.after(10, fn([&] { t.fire(); }));
  sim.run();
  EXPECT_EQ(wakeups, 1);
  EXPECT_TRUE(t.fired());
  sim.spawn(trigger_waiter(t, wakeups));  // already fired: immediate
  sim.run();
  EXPECT_EQ(wakeups, 2);
}

Process trigger_logger(Trigger& t, std::vector<std::string>& log,
                       std::string name) {
  co_await t.wait();
  log.push_back(std::move(name));
}

Process trigger_script(Simulation& sim, Trigger& t,
                       std::vector<std::string>& log) {
  sim.spawn(trigger_logger(t, log, "w0"));
  co_await sim.delay(1);  // w0 is parked
  t.call_on_fire(log_on_resume(log, "c0").h);
  sim.spawn(trigger_logger(t, log, "w1"));
  t.call_on_fire(log_on_resume(log, "c1").h);  // before w1 parks
  co_await sim.delay(1);
  sim.spawn(trigger_logger(t, log, "w2"));
  co_await sim.delay(1);
  t.fire();
  t.call_on_fire(log_on_resume(log, "c2").h);  // fired: runs next
  sim.spawn(trigger_logger(t, log, "w3"));     // fired: never parks
  log.push_back("fired");
}

// Parked processes and fire callbacks registered interleaved: fire() resumes
// the processes in park order, then runs the callbacks in registration
// order; a callback registered once fired runs after them.
TEST(Trigger, ResumesWaitersThenCallbacksInRegistrationOrder) {
  Simulation sim;
  Trigger t(sim);
  std::vector<std::string> log;
  sim.spawn(trigger_script(sim, t, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"fired", "w0", "w1", "w2", "c0",
                                           "c1", "c2", "w3"}));
  EXPECT_EQ(sim.now(), 3);
}

Process sem_user(Simulation& sim, Semaphore& s, int& active, int& peak) {
  co_await s.acquire();
  ++active;
  peak = std::max(peak, active);
  co_await sim.delay(microseconds(1));
  --active;
  s.release();
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) sim.spawn(sem_user(sim, sem, active, peak));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 jobs, 2 at a time, 1us each => 3us total.
  EXPECT_EQ(sim.now(), microseconds(3));
}

// --- Processor sharing ------------------------------------------------------

// Runs `work` units on `res`, then calls `on_done` at the completion time.
template <typename F>
Process ps_job(PsResource& res, double work, F on_done) {
  co_await res.execute(work);
  on_done();
}

TEST(PsResource, SingleJobRunsAtCappedRate) {
  Simulation sim;
  // Capacity 4 units/s, per-job cap 1 unit/s: a lone job gets rate 1.
  PsResource res(sim, 4.0, 1.0);
  Time done_at = -1;
  sim.spawn(ps_job(res, 2.0, [&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_EQ(done_at, seconds(2.0));
}

TEST(PsResource, JobsBelowCapacityDontInterfere) {
  Simulation sim;
  PsResource res(sim, 4.0, 1.0);
  std::vector<Time> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    sim.spawn(ps_job(res, 1.0, [&done, i, &sim] {
      done[static_cast<size_t>(i)] = sim.now();
    }));
  }
  sim.run();
  // 3 jobs <= 4 capacity: each runs at its cap of 1 unit/s.
  for (Time t : done) EXPECT_EQ(t, seconds(1.0));
}

TEST(PsResource, OversubscriptionSharesEqually) {
  Simulation sim;
  PsResource res(sim, 4.0, 1.0);
  int completions = 0;
  Time done_at = -1;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(ps_job(res, 1.0, [&] {
      ++completions;
      done_at = sim.now();
    }));
  }
  sim.run();
  EXPECT_EQ(completions, 8);
  // 8 equal jobs on capacity 4: each served at 0.5 units/s -> 2 seconds.
  EXPECT_NEAR(to_seconds(done_at), 2.0, 1e-9);
}

TEST(PsResource, LateArrivalSlowsEveryone) {
  Closures fn;
  Simulation sim;
  PsResource res(sim, 1.0, 1.0);  // pure PS, capacity 1
  Time first_done = -1;
  Time second_done = -1;
  sim.spawn(ps_job(res, 1.0, [&] { first_done = sim.now(); }));
  sim.after(seconds(0.5), fn([&] {
    sim.spawn(ps_job(res, 0.25, [&] { second_done = sim.now(); }));
  }));
  sim.run();
  // Job A alone for 0.5s (0.5 done). Then shares: both at rate 0.5.
  // Job B needs 0.25 units -> done at 0.5 + 0.5 = 1.0s.
  // Job A then has 0.25 left alone at rate 1 -> done at 1.25s.
  EXPECT_NEAR(to_seconds(second_done), 1.0, 1e-9);
  EXPECT_NEAR(to_seconds(first_done), 1.25, 1e-9);
}

TEST(PsResource, ZeroWorkCompletesImmediately) {
  Closures fn;
  Simulation sim;
  PsResource res(sim, 1.0, 1.0);
  Time done_at = -1;
  sim.after(10, fn([&] {
    sim.spawn(ps_job(res, 0.0, [&] { done_at = sim.now(); }));
  }));
  sim.run();
  EXPECT_EQ(done_at, 10);
}

TEST(PsResource, BusyIntegralTracksUtilizedCapacity) {
  Simulation sim;
  PsResource res(sim, 4.0, 1.0);
  // 2 jobs of 1 unit: utilized capacity = 2 for 1s => 2 work-unit-seconds.
  sim.spawn(ps_job(res, 1.0, [] {}));
  sim.spawn(ps_job(res, 1.0, [] {}));
  sim.run();
  EXPECT_NEAR(res.busy_work_seconds(), 2.0, 1e-9);
  EXPECT_NEAR(res.job_seconds(), 2.0, 1e-9);
}

TEST(PsResource, ManyJobsCompleteExactly) {
  Simulation sim;
  PsResource res(sim, 4.0, 1.0);
  int completions = 0;
  constexpr int kJobs = 1000;
  for (int i = 0; i < kJobs; ++i) {
    sim.spawn(ps_job(res, 1.0 + (i % 7), [&] { ++completions; }));
  }
  sim.run();
  EXPECT_EQ(completions, kJobs);
  EXPECT_EQ(res.active_jobs(), 0);
}

Process ps_logged_job(Simulation& sim, PsResource& res, Duration arrive,
                      double work, int id,
                      std::vector<std::pair<Time, int>>& log) {
  co_await sim.delay(arrive);
  log.emplace_back(sim.now(), -1 - id);  // the arrival, in the same log
  co_await res.execute(work);
  log.emplace_back(sim.now(), id);
}

// FNV-1a over each entry's time and id, eight little-endian bytes apiece.
std::uint64_t log_digest(const std::vector<std::pair<Time, int>>& log) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [t, id] : log) {
    mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  return h;
}

// A seeded 200-job script (zero-work jobs, ties, arrivals that re-time a
// pending completion) logs its arrivals and completions at the same times
// and in the same order as the recorded reference, pinned by its digest.
TEST(PsResource, SeededScriptCompletesAsRecorded) {
  SplitMix64 rng(17);
  Simulation sim;
  PsResource res(sim, 4.0, 1.0);
  std::vector<std::pair<Time, int>> log;
  for (int i = 0; i < 200; ++i) {
    const auto arrive =
        static_cast<Duration>(rng.next_below(40)) * microseconds(1);
    const double work =
        i % 5 == 0 ? 0.0 : 1e-6 * static_cast<double>(rng.next_in(1, 12));
    sim.spawn(ps_logged_job(sim, res, arrive, work, i, log));
  }
  sim.run();
  EXPECT_EQ(res.active_jobs(), 0);
  ASSERT_EQ(log.size(), 400u);
  EXPECT_EQ(log_digest(log), 0x0c555ef3fd187537ull);
}

// --- Link -------------------------------------------------------------------

TEST(Link, LatencyPlusBandwidth) {
  Closures fn;
  Simulation sim;
  Link link(sim, /*bandwidth=*/1e9, /*latency=*/microseconds(8));
  Time done_at = -1;
  link.transfer(1000, fn([&] { done_at = sim.now(); }));
  sim.run();
  // 8us latency + 1000B / 1GB/s = 1us.
  EXPECT_EQ(done_at, microseconds(9));
}

TEST(Link, TransfersServiceInFifoOrder) {
  Closures fn;
  Simulation sim;
  Link link(sim, 1e9, 0);
  std::vector<Time> done(2, -1);
  link.transfer(1000, fn([&] { done[0] = sim.now(); }));
  link.transfer(1000, fn([&] { done[1] = sim.now(); }));
  sim.run();
  // One DMA engine: the second transfer waits for the first's wire slot.
  EXPECT_EQ(done[0], microseconds(1));
  EXPECT_EQ(done[1], microseconds(2));
}

TEST(Link, LatencyPipelinesAcrossSmallTransfers) {
  Closures fn;
  Simulation sim;
  // 1 GB/s, 8us completion latency, 0.5us per-transaction gap.
  Link link(sim, 1e9, microseconds(8), nanoseconds(500));
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    link.transfer(100, fn([&] { done.push_back(sim.now()); }));
  }
  sim.run();
  // Wire slots at 0.5us spacing (gap > 100B/1GBps); each lands 8us after
  // its slot ends: completions at 8.5, 9.0, 9.5, 10.0 us — NOT at 8us
  // intervals. This pipelining is what sustains Pagoda's spawn rate.
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], nanoseconds(8500));
  EXPECT_EQ(done[1], nanoseconds(9000));
  EXPECT_EQ(done[2], nanoseconds(9500));
  EXPECT_EQ(done[3], nanoseconds(10000));
}

TEST(Link, BusyTimeTracksWireOccupancy) {
  Simulation sim;
  Link link(sim, 1e9, 0);
  link.transfer(2000, {});
  link.transfer(3000, {});
  sim.run();
  EXPECT_EQ(link.busy_time(), microseconds(5));
}

TEST(Link, LoneTransferUsesFullBandwidth) {
  Closures fn;
  Simulation sim;
  Link link(sim, 12e9, microseconds(8));
  Time done_at = -1;
  link.transfer(12'000'000, fn([&] { done_at = sim.now(); }));  // 12MB
  sim.run();
  EXPECT_EQ(done_at, microseconds(8) + milliseconds(1));
}

}  // namespace
}  // namespace pagoda::sim
