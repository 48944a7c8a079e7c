// The Pagoda runtime: public host-side API (paper Table 1) plus the
// CPU half of the TaskTable spawning protocol (§4.2).
//
//   CUDA                       Pagoda (this API)
//   kernel<<<...>>>            task_spawn(params)        -> TaskHandle
//   cudaEventSynchronize       wait(handle)
//   cudaEventQuery             check(handle)
//   cudaDeviceSynchronize      wait_all()
//   threadIdx                  WarpCtx::tid(lane)     (GPU side)
//   __syncthreads              co_await ctx.sync_block()
//   __shared__                 ctx.shared_mem / getSMPtr
//
// Host-side protocol highlights, all per the paper:
//  * task_spawn finds a CPU TaskTable entry with a cleared ready field,
//    fills the parameters, writes ready = (id of the previously spawned
//    task, or -1 for the first), clears sched, and issues exactly ONE H2D
//    entry copy on the spawn stream. The previous task is thereby released
//    for scheduling only after its parameters are guaranteed complete
//    (stream ordering), sidestepping PCIe's lack of intra-transaction write
//    ordering.
//  * When no free entry exists, the CPU performs a lazy *aggregate*
//    copy-back of the whole GPU table (one bulk D2H — much better PCIe
//    efficiency than per-entry reads) to discover finished tasks.
//  * wait/wait_all poll with a timeout, forcing entry copy-backs, and flush
//    the last spawned task (set its state to (1,1)) so the final task is
//    never stranded.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fifo.h"
#include "gpu/device.h"
#include "gpu/stream.h"
#include "host/host_api.h"
#include "pagoda/master_kernel.h"
#include "pagoda/task_table.h"
#include "sim/task.h"

namespace pagoda::runtime {

/// Handle returned by task_spawn. The generation disambiguates recycled
/// TaskTable entries and the owner uid pins the handle to the Runtime that
/// issued it (host-side bookkeeping only; the wire protocol is unchanged
/// from the paper). A handle whose entry has been recycled reports done —
/// it never aliases the later task now occupying the entry — and a handle
/// presented to a different Runtime (a multi-GPU routing bug) aborts.
struct TaskHandle {
  TaskId id = 0;
  std::uint64_t generation = 0;
  std::uint64_t owner = 0;
  bool valid() const { return id >= kFirstTaskId; }
};

class Runtime {
 public:
  struct Stats {
    std::int64_t tasks_spawned = 0;
    std::int64_t entry_copies = 0;      // H2D, one per task in steady state
    std::int64_t aggregate_copybacks = 0;
    std::int64_t single_copybacks = 0;
    std::int64_t flushes = 0;
    std::int64_t revokes = 0;          // try_revoke won the race
    std::int64_t revoke_declines = 0;  // task claimed/chained/finished first
  };

  Runtime(gpu::Device& dev, host::HostCosts host_costs = {},
          PagodaConfig cfg = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launches the MasterKernel (acquires the whole GPU).
  void start();
  /// Terminates the MasterKernel and releases the GPU.
  void shutdown();

  // --- Table 1: CPU-side API ---------------------------------------------
  /// Spawns a task; non-blocking w.r.t. task execution, but may wait for a
  /// free TaskTable entry when all are busy. Call from a host Process:
  /// `TaskHandle h = co_await rt.task_spawn(params);`
  sim::Task<TaskHandle> task_spawn(TaskParams params);

  /// Waits until the given task has finished.
  sim::Task<> wait(TaskHandle h);

  /// Returns the task's status from the CPU-side view (may lag the GPU until
  /// the next copy-back — the paper's check has the same semantics).
  bool check(const TaskHandle& h) const;

  /// Waits until every spawned task has finished.
  sim::Task<> wait_all();

  /// Extension beyond the paper's Table 1: waits until at least one of the
  /// given tasks has finished; returns the index of a finished handle.
  /// Useful for work-stealing host loops over heterogeneous task groups.
  sim::Task<std::size_t> wait_any(std::vector<TaskHandle> handles);

  /// Extension for live migration: attempts to pull a spawned task back off
  /// the GPU before any scheduler warp claims it. Issues ONE entry-sized H2D
  /// transaction on the table stream; stream ordering guarantees that by its
  /// landing instant every earlier spawn copy (this entry's own, and any
  /// successor's release pointer) has landed, so the GPU-side state examined
  /// there is current. The entry is freed — true — only when it is
  ///   (ready==1, sched==1)  released but unclaimed (its predecessor-release
  ///                         pointer, if any, was already consumed), or
  ///   (ready==-1, sched==0) parameters landed, not yet released, AND it is
  ///                         still last_spawned_ (no successor names it; the
  ///                         host forgets it so a flush cannot resurrect it).
  /// Every other state declines — false — and the task runs to completion:
  /// claimed entries are executing, a ready>1 entry anchors a pending
  /// release chain, and a free entry already finished. A successful revoke
  /// bumps the entry's generation, so the original handle reports done.
  sim::Task<bool> try_revoke(TaskHandle h);

  const Stats& stats() const { return stats_; }
  const MasterKernel& master_kernel() const { return mk_; }

  /// Instrumentation: invoked at GPU-side completion of every task.
  void set_completion_observer(MasterKernel::CompletionObserver obs) {
    mk_.set_completion_observer(std::move(obs));
  }

  /// Instrumentation: invoked when a scheduler warp claims a task.
  void set_claim_observer(MasterKernel::ClaimObserver obs) {
    mk_.set_claim_observer(std::move(obs));
  }

  /// Optional event tracing (host + GPU sides). Owned by the caller; must
  /// outlive the Runtime. nullptr disables tracing.
  void set_trace_recorder(TraceRecorder* trace) {
    trace_ = trace;
    mk_.set_trace_recorder(trace);
  }
  gpu::Device& device() { return dev_; }
  /// Identity stamped into every TaskHandle this Runtime issues; wait/check
  /// abort on a handle carrying a different uid.
  std::uint64_t uid() const { return uid_; }
  const PagodaConfig& config() const { return cfg_; }
  /// Physical TaskTable capacity (entries). Layers above src/pagoda reason
  /// about capacity through this (or a virtual scaling of it) rather than
  /// reading the table structure directly.
  int table_capacity() const { return cpu_table_.size(); }
  const TaskTable& cpu_table() const { return cpu_table_; }
  /// GPU-side mirror of the TaskTable (observability: per-state occupancy
  /// and spawn-pipeline depth are read from here, never written).
  const TaskTable& gpu_table() const { return gpu_table_; }

  /// Validation used by task_spawn; exposed for tests.
  static void validate(const TaskParams& p, const gpu::GpuSpec& spec);

 private:
  sim::Simulation& sim() { return dev_.sim(); }
  int scan_cpu_for_free();
  bool is_done_cpu_view(const TaskHandle& h) const;

  // All *_locked members require spawn_lock_ held.
  sim::Task<> flush_last_locked();
  sim::Task<> copy_back_all_locked();
  sim::Task<> copy_back_entry_locked(TaskId id);
  void copy_entry_to_gpu_locked(TaskId id);

  gpu::Device& dev_;
  std::uint64_t uid_;
  host::HostCosts hc_;
  PagodaConfig cfg_;
  TaskTable cpu_table_;
  TaskTable gpu_table_;
  std::vector<std::uint64_t> generation_;
  /// copy_back_all_locked()'s snapshot of generation_, reused per call.
  std::vector<std::uint64_t> copy_back_gens_;
  MasterKernel mk_;
  /// All TaskTable traffic (H2D entry copies AND D2H status copy-backs)
  /// rides one stream. Stream ordering is load-bearing twice over: (a) a
  /// task's predecessor-release pointer is only valid because the
  /// predecessor's copy completed earlier on the stream, and (b) a status
  /// copy-back executes only after every previously issued spawn copy has
  /// landed — otherwise the CPU could read a stale ready==0 for a task whose
  /// spawn copy is still in flight and wrongly free its entry.
  gpu::Stream table_stream_;
  sim::Semaphore spawn_lock_;    // serializes spawner/waiter critical sections
  std::optional<TaskId> last_spawned_;  // task awaiting release by successor
  int cursor_ = 0;
  Stats stats_;
  TraceRecorder* trace_ = nullptr;

  void trace(TraceKind kind, TaskId task, std::int32_t aux = 0) {
    if (trace_ != nullptr) trace_->record(sim().now(), kind, task, aux);
  }
  /// D2H landing area for copy-backs: the two status words of each entry,
  /// gathered from the GPU table at the landing instant. The wire is still
  /// charged whole TaskEntry bytes; the host only ever reads these.
  std::vector<EntryStatus> staging_;
  void land_statuses();  // every staging_ entry <- the GPU table

  /// An entry copy in flight: the entry as it was at issue.
  struct EntryCopy {
    TaskId id;
    TaskEntry entry;
  };
  /// Entry copies in issue order. The table stream lands them in that
  /// order, so each landing stores the front one (land_entry()).
  common::Fifo<EntryCopy> entry_copies_;
  void land_entry();

  /// A one-entry table-stream landing; it lives in the awaiting frame.
  struct EntryLanding {
    Runtime* rt;
    TaskId id;
    bool won = false;  // revoke() freed the entry before a claim
    void copy_back() {
      rt->staging_[static_cast<std::size_t>(id - kFirstTaskId)] =
          rt->gpu_table_.status(id);
    }
    void revoke();  // frees a released-but-unclaimed or parked-last entry
  };
};

}  // namespace pagoda::runtime
