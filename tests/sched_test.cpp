// Tests for the QoS scheduling layer (src/sched): the on-descriptor ABI,
// policy comparators (priority / edf / wfq weighted shares), batch ordering,
// the policy-ordered ReadyQueue (grant order, eviction, close semantics),
// and the end-to-end invariant that switching policies never perturbs the
// Model-vs-Compute timing identity.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "pagoda/task_table.h"
#include "sched/policy.h"
#include "sched/ready_queue.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace pagoda::sched {
namespace {

// The QoS tags (sched_class, deadline_us) must live in the descriptor's
// padding holes: growing TaskParams would change kEntryCopyBytes and with
// it every PCIe copy charge, shifting all golden timings.
static_assert(sizeof(runtime::TaskParams) == 224,
              "QoS tags must not grow the spawn descriptor");
static_assert(sizeof(runtime::TaskEntry) == 240,
              "QoS tags must not grow the TaskTable entry");
static_assert(runtime::kEntryCopyBytes == sizeof(runtime::TaskEntry));

SchedKey key(Class c, std::uint64_t seq, sim::Time deadline = 0,
             double cost = 1.0) {
  SchedKey k;
  k.cls = c;
  k.seq = seq;
  k.deadline = deadline;
  k.cost = cost;
  return k;
}

// --- parsing and the class ABI ------------------------------------------------

TEST(SchedClass, ParseRoundTripsAndClamps) {
  for (const Class c :
       {Class::kInteractive, Class::kStandard, Class::kBatch}) {
    const auto parsed = parse_class(to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
    EXPECT_EQ(class_from_raw(static_cast<std::uint8_t>(c)), c);
  }
  EXPECT_FALSE(parse_class("premium").has_value());
  // A corrupted tag degrades service instead of escalating it.
  EXPECT_EQ(class_from_raw(3), Class::kBatch);
  EXPECT_EQ(class_from_raw(255), Class::kBatch);
}

TEST(SchedPolicyKind, ParseRoundTrips) {
  for (const PolicyKind k : {PolicyKind::kFifo, PolicyKind::kPriority,
                             PolicyKind::kEdf, PolicyKind::kWfq}) {
    const auto parsed = parse_policy_kind(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_policy_kind("sjf").has_value());
}

TEST(SchedDeadline, MicrosecondEncodingRoundTrips) {
  EXPECT_EQ(deadline_to_us(0), 0u);
  EXPECT_EQ(deadline_from_us(0), 0);
  // A real deadline never encodes to 0 ("no deadline"), however small.
  EXPECT_GE(deadline_to_us(1), 1u);
  const sim::Time t = sim::microseconds(1500.0);
  EXPECT_EQ(deadline_from_us(deadline_to_us(t)), t);
}

// --- comparators --------------------------------------------------------------

TEST(SchedPolicy, FifoOrdersBySequenceOnly) {
  Policy p;  // default config = fifo
  EXPECT_TRUE(p.fifo());
  EXPECT_TRUE(p.before(key(Class::kBatch, 0), key(Class::kInteractive, 1)));
  EXPECT_FALSE(p.before(key(Class::kInteractive, 2), key(Class::kBatch, 1)));
}

TEST(SchedPolicy, PriorityOrdersByClassThenSequence) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kPriority;
  Policy p(cfg);
  EXPECT_TRUE(p.before(key(Class::kInteractive, 9), key(Class::kBatch, 0)));
  EXPECT_TRUE(p.before(key(Class::kStandard, 9), key(Class::kBatch, 0)));
  EXPECT_FALSE(p.before(key(Class::kBatch, 0), key(Class::kStandard, 9)));
  // Same class: FIFO within.
  EXPECT_TRUE(p.before(key(Class::kBatch, 3), key(Class::kBatch, 4)));
}

TEST(SchedPolicy, EdfOrdersByDeadlineAndRanksUndatedLast) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kEdf;
  Policy p(cfg);
  EXPECT_TRUE(p.before(key(Class::kBatch, 9, sim::microseconds(10.0)),
                       key(Class::kInteractive, 0, sim::microseconds(20.0))));
  // deadline == 0 means none: ranks after every dated key.
  EXPECT_TRUE(p.before(key(Class::kBatch, 9, sim::microseconds(10.0)),
                       key(Class::kInteractive, 0, 0)));
  // Both undated: sequence decides.
  EXPECT_TRUE(p.before(key(Class::kBatch, 1, 0), key(Class::kBatch, 2, 0)));
}

TEST(SchedPolicy, WfqDeliversWeightedSharesUnderSaturation) {
  // Saturated server, one backlogged flow per class, unit cost: the served
  // counts must track the configured 4:2:1 shares.
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kWfq;
  cfg.weights = {4.0, 2.0, 1.0};
  Policy p(cfg);
  std::array<SchedKey, kNumClasses> head;
  std::uint64_t seq = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    head[static_cast<std::size_t>(c)] = key(static_cast<Class>(c), seq++);
    p.admit(head[static_cast<std::size_t>(c)]);
  }
  std::array<int, kNumClasses> served{};
  constexpr int kRounds = 700;
  for (int i = 0; i < kRounds; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < head.size(); ++c) {
      if (p.before(head[c], head[best])) best = c;
    }
    served[best] += 1;
    p.served(head[best]);
    head[best] = key(static_cast<Class>(best), seq++);
    p.admit(head[best]);
  }
  EXPECT_NEAR(static_cast<double>(served[0]) / kRounds, 4.0 / 7.0, 0.01);
  EXPECT_NEAR(static_cast<double>(served[1]) / kRounds, 2.0 / 7.0, 0.01);
  EXPECT_NEAR(static_cast<double>(served[2]) / kRounds, 1.0 / 7.0, 0.01);
}

TEST(SchedPolicy, OrderIsStableAndPolicyDriven) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kPriority;
  Policy p(cfg);
  std::vector<SchedKey> keys = {
      key(Class::kBatch, 0), key(Class::kInteractive, 1),
      key(Class::kBatch, 2), key(Class::kInteractive, 3)};
  std::vector<int> order(keys.size());
  p.order(keys, order);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));

  Policy fifo;
  fifo.order(keys, order);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- ReadyQueue ---------------------------------------------------------------

struct QueueProbe {
  std::vector<int> granted;   // ids in grant order
  std::vector<int> evicted;   // ids woken by evict_worst
  std::vector<int> ungranted; // ids woken by close()
};

sim::Process acquirer(ReadyQueue& q, SchedKey k, int id, QueueProbe& probe) {
  const ReadyQueue::Grant g = co_await q.acquire(k);
  if (g.granted) {
    probe.granted.push_back(id);
  } else if (g.evicted) {
    probe.evicted.push_back(id);
  } else {
    probe.ungranted.push_back(id);
  }
}

sim::Process releaser(sim::Simulation& sim, ReadyQueue& q, int times) {
  for (int i = 0; i < times; ++i) {
    co_await sim.delay(10);
    q.release();
  }
}

TEST(ReadyQueue, GrantsParkedWaitersInPolicyOrder) {
  sim::Simulation sim;
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kPriority;
  Policy policy(cfg);
  ReadyQueue q(sim, 1, policy);
  QueueProbe probe;
  sim.spawn(acquirer(q, key(Class::kBatch, 0), 0, probe));  // takes the slot
  sim.spawn(acquirer(q, key(Class::kBatch, 1), 1, probe));
  sim.spawn(acquirer(q, key(Class::kStandard, 2), 2, probe));
  sim.spawn(acquirer(q, key(Class::kInteractive, 3), 3, probe));
  sim.spawn(releaser(sim, q, 3));
  sim.run();
  // Slot 0 granted synchronously; releases then pick interactive first,
  // standard next, batch last — not arrival order.
  EXPECT_EQ(probe.granted, (std::vector<int>{0, 3, 2, 1}));
}

TEST(ReadyQueue, FifoGrantsInArrivalOrder) {
  sim::Simulation sim;
  Policy policy;
  ReadyQueue q(sim, 1, policy);
  QueueProbe probe;
  sim.spawn(acquirer(q, key(Class::kBatch, 0), 0, probe));
  sim.spawn(acquirer(q, key(Class::kInteractive, 1), 1, probe));
  sim.spawn(acquirer(q, key(Class::kInteractive, 2), 2, probe));
  sim.spawn(releaser(sim, q, 2));
  sim.run();
  EXPECT_EQ(probe.granted, (std::vector<int>{0, 1, 2}));
}

TEST(ReadyQueue, EvictWorstWakesThePolicyWorstWaiter) {
  sim::Simulation sim;
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kPriority;
  Policy policy(cfg);
  ReadyQueue q(sim, 0, policy);  // nothing ever granted
  QueueProbe probe;
  sim.spawn(acquirer(q, key(Class::kInteractive, 0), 0, probe));
  sim.spawn(acquirer(q, key(Class::kBatch, 1), 1, probe));
  sim.spawn(acquirer(q, key(Class::kBatch, 2), 2, probe));
  sim.run_until(1);
  ASSERT_EQ(q.waiting(), 3u);
  ASSERT_NE(q.worst(), nullptr);
  EXPECT_EQ(q.worst()->seq, 2u);  // latest batch arrival loses
  q.evict_worst();
  q.evict_worst();
  sim.run();
  EXPECT_EQ(probe.evicted, (std::vector<int>{2, 1}));
  EXPECT_TRUE(probe.granted.empty());
  EXPECT_EQ(q.waiting(), 1u);  // the interactive waiter stays parked
  q.close();
  sim.run();
  EXPECT_EQ(probe.ungranted, (std::vector<int>{0}));
}

TEST(ReadyQueue, CloseWakesEveryWaiterUngrantedInArrivalOrder) {
  sim::Simulation sim;
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kEdf;
  Policy policy(cfg);
  ReadyQueue q(sim, 0, policy);
  QueueProbe probe;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(acquirer(q, key(Class::kStandard, static_cast<std::uint64_t>(i),
                              sim::microseconds(100.0 - i)),
                       i, probe));
  }
  sim.run_until(1);
  q.close();
  sim.run();
  // close() wakes in deque (arrival) order, not policy order.
  EXPECT_EQ(probe.ungranted, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(probe.granted.empty());
  q.reopen();
  EXPECT_FALSE(q.closed());
}

// --- end-to-end: timing is mode- and policy-consistent ------------------------

TEST(SchedEndToEnd, ModelComputeTimingIdenticalUnderEveryPolicy) {
  // The claim pass charges the same scheduler-warp cycles whichever order
  // it claims in, so Model and Compute runs must agree on elapsed time
  // under every policy — the same invariant the fifo goldens pin.
  for (const PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kPriority,
                                PolicyKind::kEdf, PolicyKind::kWfq}) {
    workloads::WorkloadConfig wcfg;
    wcfg.num_tasks = 96;
    baselines::RunConfig rcfg;
    rcfg.pagoda.sched.kind = kind;
    rcfg.mode = gpu::ExecMode::Model;
    const harness::Measurement model =
        harness::run_experiment("MM", "Pagoda", wcfg, rcfg);
    rcfg.mode = gpu::ExecMode::Compute;
    const harness::Measurement compute =
        harness::run_experiment("MM", "Pagoda", wcfg, rcfg);
    EXPECT_EQ(model.result.elapsed, compute.result.elapsed)
        << to_string(kind);
  }
}

TEST(SchedEndToEnd, NonFifoPoliciesStillCompleteEveryTask) {
  for (const PolicyKind kind :
       {PolicyKind::kPriority, PolicyKind::kEdf, PolicyKind::kWfq}) {
    workloads::WorkloadConfig wcfg;
    wcfg.num_tasks = 64;
    baselines::RunConfig rcfg;
    rcfg.pagoda.sched.kind = kind;
    rcfg.task_class = Class::kInteractive;
    const harness::Measurement m =
        harness::run_experiment("CONV", "Pagoda", wcfg, rcfg);
    EXPECT_TRUE(m.result.completed) << to_string(kind);
    EXPECT_EQ(m.result.tasks, 64) << to_string(kind);
  }
}

}  // namespace
}  // namespace pagoda::sched
