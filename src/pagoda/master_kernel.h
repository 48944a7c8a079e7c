// The MasterKernel (paper §4.1): the OS-like daemon kernel that virtualizes
// the GPU.
//
// On the Titan X the MasterKernel launches 48 MTBs (two 32-warp threadblocks
// per SMM), capping registers at 32/thread and statically allocating 32 KB
// of shared memory per MTB, so the daemon itself reaches 100% occupancy and
// owns every warp slot. Warp 0 of each MTB is the *scheduler warp*; the
// other 31 are *executor warps*.
//
// Each MTB owns one TaskTable column, a 31-slot WarpTable, a buddy-managed
// 32 KB shared-memory arena and a pool of 16 named barriers. The scheduler
// warp runs Algorithm 1 (lines 2–28): it releases predecessor tasks named by
// incoming ready fields, claims entries whose sched flag is set, leases
// barriers/shared memory per threadblock, and places warps onto free
// executor slots via the parallel pSched routine (Algorithm 2) — blocking,
// as the paper does, until enough executor warps free up. Executor warps run
// lines 29–43: execute the task warp (treating the task kernel as a
// subroutine), mark shared memory for deferred deallocation, release the
// named barrier, decrement the task's done counter and clear the entry's
// ready field when the whole task has finished.
//
// Simulation notes: the scheduler warp's polling is event-driven — it parks
// when it has no work and is woken by entry copies, warp frees, deferred
// deallocations and barrier releases. Its scheduling work *is* charged to
// the SMM pipeline (contending with executor warps, as on silicon); the idle
// spin of parked warps is not modeled and its issue-bandwidth cost is folded
// into the per-pass scan charges. Executor warps watch only their own
// WarpTable slot (Algorithm 1, lines 29-30): a warp's coroutine lives only
// while its slot holds work. When the slot is clear it retires on its MTB's
// sim::SlotCondition and ends; the next hand-off starts a new one at the
// (time, seq) an MTB-wide broadcast would have resumed a parked warp at. So
// an MTB holds executor frames only for the warps running on it, and its
// named barriers are built on their first lease.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/device.h"
#include "gpu/kernel.h"
#include "pagoda/named_barriers.h"
#include "pagoda/task_table.h"
#include "pagoda/trace.h"
#include "pagoda/warp_table.h"
#include "sched/policy.h"
#include "sim/process.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "vres/virtual_shmem.h"

namespace pagoda::runtime {

/// Tunables for the Pagoda runtime.
struct PagodaConfig {
  int rows_per_column = 32;              // paper: 32 TaskTable rows per MTB
  gpu::ExecMode mode = gpu::ExecMode::Compute;

  /// Ablation of §6.4: dispatch at threadblock granularity — pSched places a
  /// threadblock's warps only when enough executor warps are free for ALL of
  /// them at once (CUDA's hardware rule), instead of streaming warps onto
  /// executors as they free (Pagoda's warp-granularity scheduling).
  bool threadblock_granularity = false;

  /// Ablation of §4.2.1: instead of the pipelined single-copy protocol
  /// (ready field carries the previous task's id), spawn with TWO memcpys —
  /// one for the parameters, a second for the ready/sched flags once the
  /// first completes. Doubles the per-task copy overhead, as the paper
  /// argues.
  bool two_copy_spawn = false;

  /// Claim-order policy for the scheduler warps (see sched/policy.h): which
  /// pending TaskTable entry a scheduler warp claims first within a scan.
  /// fifo keeps the paper's raw column-scan order on the legacy code path
  /// (byte-identical event stream); other policies defer claims to a
  /// comparator-ordered pass charged MasterKernel::kClaimSelectCycles.
  sched::PolicyConfig sched{};

  /// Virtual-resource oversubscription factor (DESIGN.md §16). 1.0 (the
  /// default) keeps every shmem/register/slot decision on the physical
  /// capacities — byte-identical to the pre-vres runtime by construction.
  /// F > 1 virtualizes each MTB arena to F x its bytes, each MTB register
  /// budget to F x its share, and each node's TaskTable admission to
  /// F x its entries. Oversubscription is admission-only: nothing spills;
  /// a claim that does not fit waits, as it does at F == 1.
  double oversub = 1.0;

  /// Factor on every scheduler-warp cycle cost (MasterKernel::k*Cycles);
  /// the scheduler-cost sensitivity ablation sweeps it.
  double sched_cost_scale = 1.0;
};

class MasterKernel {
 public:
  static constexpr int kWarpsPerMtb = 32;      // 1 scheduler + 31 executors
  static constexpr int kExecutorWarps = 31;
  static constexpr int kMtbsPerSmm = 2;
  /// The per-MTB shared-memory arena on the Titan X (96 KB SMM: 2 x 32 KB
  /// arenas + the remainder for scheduling structures, per §4.1).
  static constexpr std::int32_t kArenaBytes = 32 * 1024;

  // Scheduler-warp costs in GPU cycles on the MTB's SMM pipeline, each
  // scaled by PagodaConfig::sched_cost_scale when charged.
  static constexpr double kScanPassCycles = 16.0;        // one column scan
  static constexpr double kReleaseChainCycles = 8.0;     // lines 6-13
  static constexpr double kClaimSelectCycles = 8.0;      // non-fifo order
  static constexpr double kDispatchCyclesPerWarp = 8.0;  // pSched claim+fill
  static constexpr double kShmemAllocCycles = 24.0;      // buddy search+mark
  static constexpr double kShmemSweepCycles = 16.0;      // deferred dealloc
  static constexpr double kBarrierMgmtCycles = 6.0;      // named barrier lease

  /// Arena size for an arbitrary architecture: the largest power of two
  /// that leaves ~1/3 of the SMM's shared memory for the two MTBs' own
  /// scheduling structures (Titan X 96 KB -> 32 KB; Tesla K40 48 KB ->
  /// 16 KB).
  static std::int32_t arena_bytes_for(const gpu::GpuSpec& spec);

  MasterKernel(gpu::Device& dev, TaskTable& gpu_table,
               const PagodaConfig& cfg);
  ~MasterKernel();
  MasterKernel(const MasterKernel&) = delete;
  MasterKernel& operator=(const MasterKernel&) = delete;

  /// Reserves the whole GPU (two 32-warp, 32 KB, 32-reg MTBs per SMM) and
  /// starts the scheduler warps (executor warps start on first hand-off).
  void start();

  /// Stops all warp processes and releases the GPU.
  void shutdown();

  bool running() const { return running_; }
  int num_mtbs() const { return static_cast<int>(mtbs_.size()); }

  /// Signaled by the host runtime when the H2D copy of task `id`'s entry
  /// lands; wakes that column's scheduler warp (and any scheduler waiting on
  /// this task as a release predecessor).
  void on_entry_copied(TaskId id);

  /// Per-MTB shared-memory arena on this device.
  std::int32_t arena_bytes() const { return arena_bytes_; }

  // --- statistics ---------------------------------------------------------
  std::int64_t tasks_scheduled() const { return tasks_scheduled_; }
  std::int64_t tasks_completed() const { return tasks_completed_; }
  /// Liveness signature for host-side watchdogs: bumps whenever a scheduler
  /// warp makes a pass or a task completes. A wedged/crashed device's
  /// heartbeat freezes, which is exactly what the fault layer's watchdog
  /// samples for. Pure counter — reading or incrementing it emits no events.
  std::int64_t heartbeats() const { return heartbeats_; }
  std::int64_t warps_dispatched() const { return warps_dispatched_; }
  std::int64_t shmem_blocks_swept() const { return shmem_blocks_swept_; }
  /// Registers held against the MTBs' virtual register budgets (charged
  /// only at oversub > 1; back to 0 once every scheduled task completed).
  std::int64_t registers_in_use() const;
  /// Claims that waited on an exhausted register budget.
  std::int64_t register_waits() const { return register_waits_; }

  // --- observability ------------------------------------------------------
  /// Executor warps currently running task work (all MTBs).
  int busy_executor_warps() const { return busy_warps_; }
  /// Executor warp processes alive now: one per slot running a task warp
  /// (a warp's process ends when its slot clears, so 0 once drained).
  int executor_warps_live() const { return executor_warps_live_; }
  /// Issue-pipeline time the scheduler warps have consumed, in seconds
  /// (scans, release chains, leases, pSched dispatches). The busy fraction
  /// is this / (elapsed * num_mtbs).
  double scheduler_busy_seconds() const;
  /// Executor-warp busy integral of one MTB (warp*seconds); utilization per
  /// MTB is this / (elapsed * kExecutorWarps).
  double executor_busy_warp_seconds(int mtb_index) const;

  /// Buddy-arena pressure, aggregated over all MTBs' physical arenas.
  std::int64_t shmem_bytes_in_use() const;
  /// Highest per-arena high-water mark (bytes) across MTBs.
  std::int32_t shmem_peak_arena_bytes() const;
  std::int64_t shmem_alloc_successes() const;
  /// Buddy allocate() calls that found no block (pagoda.shmem.alloc_failures;
  /// each scheduler-warp retry counts again). What a failure means depends
  /// on the oversubscription factor F. At F == 1 the buddy is asked for the
  /// declared bytes, so every "arena full" is a failure here. At F > 1 a
  /// claim that does not fit the F x arena virtual charge is refused before
  /// the buddy is asked, so only physical failures (of the used bytes) are
  /// counted. That is why the occupancy_virt series is not monotone in F
  /// (seed 0x9A60DA, F = 1, 1.25, 1.5, 2): 3099, 228, 860, 2070 physical
  /// failures, plus 0, 2453, 1587, 43 uncounted virtual refusals. Refusals
  /// of either kind fall (3099, 2681, 2447, 2113) while the binding limit
  /// moves from the virtual charge to the physical arena (EXPERIMENTS.md).
  std::int64_t shmem_alloc_failures() const;
  std::int64_t shmem_sweeps() const;
  /// Fragmentation of the physical buddy arenas: worst (lowest) per-MTB
  /// external-fragmentation gauge, and total internal rounding loss.
  double shmem_external_frag() const;
  std::int64_t shmem_internal_frag_bytes() const;
  /// Host bytes backing the MTB arenas: 0 in Model mode; in Compute mode
  /// one arena per MTB that has run a shared-memory block.
  std::int64_t shmem_arena_bytes_backed() const;

  /// Observer invoked (GPU-side, at the moment the last warp clears the
  /// ready field) for every completed task. Instrumentation only.
  using CompletionObserver = std::function<void(TaskId, sim::Time)>;
  void set_completion_observer(CompletionObserver obs) {
    completion_observer_ = std::move(obs);
  }

  /// Observer invoked when a scheduler warp claims a TaskTable entry (the
  /// instant its sched flag clears, before pSched dispatches warps).
  /// Instrumentation only — the request tracer's warp_wait/exec boundary.
  using ClaimObserver = std::function<void(TaskId, sim::Time)>;
  void set_claim_observer(ClaimObserver obs) {
    claim_observer_ = std::move(obs);
  }

  /// Time-integrated busy executor warps (warp·seconds): the achieved
  /// task-execution occupancy is this / (elapsed * 64 * num_smms).
  double executor_busy_warp_seconds() const;

  /// Optional event tracing (see pagoda/trace.h). Owned by the caller; must
  /// outlive the MasterKernel. nullptr disables tracing.
  void set_trace_recorder(TraceRecorder* trace) { trace_ = trace; }

 private:
  /// A non-fifo MTB's claim-order state, allocated at start() only under a
  /// non-fifo policy: the policy (per MTB so WFQ virtual time is a
  /// per-queue quantity, like the dispatcher's per-cluster instance) and
  /// the scratch the claim pass fills: the claimable rows a scan collected,
  /// their keys and their serve order. Reused, so a pass allocates nothing
  /// once they have grown to the column's busiest pass.
  struct ClaimState {
    sched::Policy policy;
    std::vector<int> rows;
    std::vector<sched::SchedKey> keys;
    std::vector<int> order;

    explicit ClaimState(const sched::PolicyConfig& sched) : policy(sched) {}
  };

  struct Mtb {
    int index = 0;
    int column = 0;  // TaskTable column owned by this MTB (== index)
    gpu::Smm* smm = nullptr;
    std::array<WarpSlot, kExecutorWarps> warp_table;
    int free_slots = kExecutorWarps;
    /// Backing bytes for the shared-memory arena: null until a Compute-mode
    /// block with shared memory first runs on this MTB (Model-mode kernels
    /// never read them), then arena_bytes zero-filled bytes.
    std::unique_ptr<std::byte[]> arena;
    /// The virtual facade over this MTB's physical buddy arena. At
    /// oversub == 1 every call is a verbatim delegation to the buddy
    /// (byte-identical); above 1 it also charges the virtual arena.
    vres::VirtualShmem shmem;
    /// Virtual register budget (oversub x this MTB's register-file share)
    /// and the registers its scheduled tasks hold against it. Passive at
    /// oversub == 1 (never charged); above 1, claims defer — wait, never
    /// spill — while the budget is exhausted.
    std::int64_t regs_used = 0;
    std::int64_t regs_budget = 0;
    NamedBarrierPool barriers;
    /// Claimed tasks and leased threadblocks still running, named by
    /// WarpSlot::task/block; grows to the most ever live at once.
    std::vector<WarpGroup> groups;
    sim::Condition sched_cv;             // scheduler warp wakeups
    std::uint64_t sched_seq = 0;         // lost-wakeup guard
    sim::SlotCondition executors;        // one executor warp per slot

    // Per-MTB executor busy integral (warp·seconds), for the observability
    // layer's per-MTB utilization metric.
    double busy_integral = 0.0;
    int busy_warps = 0;
    sim::Time busy_last_touch = 0;

    /// Null under fifo: the paper's claim order, inline in raw row-scan
    /// order.
    std::unique_ptr<ClaimState> claims;

    Mtb(sim::Simulation& sim, std::int32_t arena_bytes,
        const PagodaConfig& cfg, std::int64_t reg_virtual_capacity)
        : shmem(arena_bytes, cfg.oversub),
          regs_budget(reg_virtual_capacity),
          barriers(sim),
          sched_cv(sim),
          executors(sim, kExecutorWarps) {}
  };

  void wake_scheduler(Mtb& mtb) {
    mtb.sched_seq += 1;
    mtb.sched_cv.notify_all();
  }
  Mtb& mtb_of_column(int column) { return *mtbs_[static_cast<std::size_t>(column)]; }
  sim::Duration stall_to_time(double cycles) const;

  /// Charges `cycles` x sched_cost_scale to the MTB's SMM pipeline on the
  /// scheduler warp's behalf, accumulating them for
  /// scheduler_busy_seconds(); the scheduler warp awaits the result.
  gpu::Smm::IssueAwaiter sched_charge(Mtb& mtb, double cycles);

  /// Algorithm 1, lines 2-28: one scan pass per wake, in this frame.
  sim::Process scheduler_warp(Mtb& mtb);
  sim::Process executor_warp(Mtb& mtb, int slot_index);
  sim::Task<bool> claim_in_policy_order(Mtb& mtb);
  sched::SchedKey claim_key(const Mtb& mtb, int row) const;
  sim::Task<> schedule_entry(Mtb& mtb, int row);
  sim::Task<> psched(Mtb& mtb, int row, int base_warp, int count, int task,
                     int block);
  /// A free record of the MTB's WarpGroup pool, counting `warps` down.
  static int acquire_group(Mtb& mtb, int warps);

  gpu::Device& dev_;
  TaskTable& gpu_table_;
  PagodaConfig cfg_;
  std::int32_t arena_bytes_;
  std::vector<std::unique_ptr<Mtb>> mtbs_;
  bool running_ = false;
  bool started_ = false;

  /// Release chains are serial in spawn order: entry S carrying ready == P
  /// cannot be processed until P itself reached (-1, 0). On silicon the
  /// polling scheduler warp just retries; in the event-driven simulation we
  /// record "column of S is waiting for P" and wake it when P transitions.
  /// This replaces polling only — the retry's cycle cost is still charged.
  /// Indexed by id - kFirstTaskId; kNoColumn when no successor waits. A
  /// byte per entry, flat rather than row-backed (an EntryRows here cost
  /// perfbench paper_mix about 3% host wall time to save 1.5 KB per node).
  static constexpr std::uint8_t kNoColumn = 0xFF;
  std::vector<std::uint8_t> waiting_successor_column_;
  /// Wakes the column waiting for `id` to reach (-1, 0), if any.
  void wake_waiting_successor(TaskId id);

  std::int64_t tasks_scheduled_ = 0;
  std::int64_t tasks_completed_ = 0;
  std::int64_t heartbeats_ = 0;
  std::int64_t warps_dispatched_ = 0;
  int executor_warps_live_ = 0;
  std::int64_t shmem_blocks_swept_ = 0;
  std::int64_t register_waits_ = 0;
  CompletionObserver completion_observer_;
  ClaimObserver claim_observer_;
  TraceRecorder* trace_ = nullptr;

  void trace(TraceKind kind, TaskId task, std::int32_t aux = 0) {
    if (trace_ != nullptr) trace_->record(dev_.sim().now(), kind, task, aux);
  }

  void touch_busy(Mtb& mtb, int delta);
  double busy_integral_ = 0.0;  // warp·seconds
  int busy_warps_ = 0;
  sim::Time busy_last_touch_ = 0;
  double sched_cycles_ = 0.0;  // pipeline cycles charged by scheduler warps
};

}  // namespace pagoda::runtime
