#include "pagoda/runtime.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace pagoda::runtime {

namespace {

// Construction-order uid. Deterministic: drivers build their runtimes
// single-threaded, in a fixed order, before the simulation runs.
std::uint64_t next_runtime_uid() {
  static std::uint64_t counter = 0;
  return ++counter;
}

}  // namespace

Runtime::Runtime(gpu::Device& dev, host::HostCosts host_costs,
                 PagodaConfig cfg)
    : dev_(dev),
      uid_(next_runtime_uid()),
      hc_(host_costs),
      cfg_(cfg),
      cpu_table_(dev.num_smms() * MasterKernel::kMtbsPerSmm,
                 cfg.rows_per_column),
      gpu_table_(dev.num_smms() * MasterKernel::kMtbsPerSmm,
                 cfg.rows_per_column),
      generation_(cpu_table_.columns(), cpu_table_.rows()),
      mk_(dev, gpu_table_, cfg_),
      table_stream_(dev),
      spawn_lock_(dev.sim(), 1),
      landed_free_(gpu_table_.free_words()),
      free_entries_(cpu_table_.columns(), cpu_table_.rows()) {}

Runtime::~Runtime() { shutdown(); }

void Runtime::start() { mk_.start(); }

void Runtime::shutdown() { mk_.shutdown(); }

void Runtime::validate(const TaskParams& p, const gpu::GpuSpec& spec) {
  PAGODA_CHECK_MSG(p.fn != nullptr, "taskSpawn: null kernel pointer");
  PAGODA_CHECK_MSG(p.num_blocks >= 1, "taskSpawn: need at least 1 threadblock");
  PAGODA_CHECK_MSG(
      p.threads_per_block >= 1 &&
          p.threads_per_block <= spec.max_threads_per_block,
      "taskSpawn: threads per block out of range");
  PAGODA_CHECK_MSG(p.shared_mem_bytes >= 0 &&
                       p.shared_mem_bytes <=
                           MasterKernel::arena_bytes_for(spec),
                   "taskSpawn: shared memory exceeds the MTB arena");
  PAGODA_CHECK_MSG(
      !p.needs_sync ||
          p.warps_per_block() <= MasterKernel::kExecutorWarps,
      "taskSpawn: a synchronizing threadblock needs all its warps resident "
      "in one MTB (max 31 warps = 992 threads)");
  PAGODA_CHECK_MSG(p.args_size >= 0 &&
                       p.args_size <= static_cast<std::int32_t>(kMaxArgBytes),
                   "taskSpawn: argument blob too large");
  PAGODA_CHECK_MSG(
      p.shmem_used_256 == 0 || p.shmem_used_bytes() <= p.shared_mem_bytes,
      "taskSpawn: used shared memory exceeds the declared footprint");
  PAGODA_CHECK_MSG(p.shared_mem_bytes > 0 || p.shmem_used_256 == 0,
                   "taskSpawn: used-shmem hint without declared shared memory");
}

void Runtime::free_cpu_entry(TaskId id) {
  cpu_table_.set_status(id, {kReadyFree, cpu_table_.status(id).sched});
  free_entries_.set(id - kFirstTaskId, true);
}

sim::Task<TaskHandle> Runtime::task_spawn(TaskParams params) {
  validate(params, dev_.spec());
  PAGODA_CHECK_MSG(mk_.running(), "taskSpawn before Runtime::start()");
  // Host-side costs paid outside the critical section so spawner threads
  // overlap: entry search/fill bookkeeping plus the cudaMemcpyAsync setup
  // for the entry copy issued below.
  co_await sim().delay(hc_.task_spawn_fill + hc_.memcpy_setup);

  co_await spawn_lock_.acquire();
  int idx = free_entries_.next(cursor_);
  while (idx < 0) {
    // All CPU-side ready fields are non-zero: lazy aggregate copy-back
    // (§4.2, "Lazy Aggregate TaskTable Updates").
    co_await flush_last_locked();
    co_await copy_back_all_locked();
    idx = free_entries_.next(cursor_);
    if (idx < 0) co_await sim().delay(kWaitPoll);
  }

  const TaskId id = static_cast<TaskId>(idx) + kFirstTaskId;
  free_entries_.set(idx, false);
  cpu_table_.params(id) = params;
  const std::uint64_t gen = ++stamp_;
  generation_.at(idx) = gen;
  stats_.tasks_spawned += 1;
  trace(TraceKind::kSpawned, id);

  if (cfg_.two_copy_spawn) {
    // §4.2.1 ablation: copy the parameters, then (stream-ordered, so the
    // parameters are guaranteed to land first) a second transaction sets
    // the task schedulable. Two memcpys per task instead of one.
    cpu_table_.set_status(id, {kReadyParamsCopied, 0});
    copy_entry_to_gpu_locked(id);
    cpu_table_.set_status(id, {kReadyScheduling, 1});
    co_await sim().delay(hc_.memcpy_setup);
    copy_entry_to_gpu_locked(id);
  } else {
    cpu_table_.set_status(
        id, {last_spawned_.has_value() ? *last_spawned_ : kReadyParamsCopied,
             0});
    last_spawned_ = id;
    copy_entry_to_gpu_locked(id);
  }
  spawn_lock_.release();
  co_return TaskHandle{id, gen, uid_};
}

void Runtime::copy_entry_to_gpu_locked(TaskId id) {
  // One cudaMemcpyAsync per spawned task (steady state) on the spawn
  // stream; stream order is what makes the ready-field pipelining sound.
  // (The host-side setup cost is charged by the caller, outside the lock
  // where possible.) The entry is snapshotted per transaction — pageable
  // cudaMemcpyAsync staging semantics — so a later host-side update of the
  // same entry (e.g. the two-copy ablation's flag write, or a flush) cannot
  // retroactively change bytes of a copy already in flight. Both regions
  // of the GPU entry (status and params) land from the snapshot at the
  // landing instant.
  entry_copies_.push_back({id, cpu_table_.load(id)});
  table_stream_.memcpy_async(
      pcie::Direction::HostToDevice, nullptr, nullptr, kEntryCopyBytes,
      sim::Continuation::member<&Runtime::land_entry>(this));
  stats_.entry_copies += 1;
}

void Runtime::land_entry() {
  const EntryCopy c = entry_copies_.pop_front();
  gpu_table_.store(c.id, c.entry);
  mk_.on_entry_copied(c.id);
}

sim::Task<> Runtime::flush_last_locked() {
  // Single attempt: read the last task's GPU state; if (-1, 0) — parameters
  // landed, not yet released — release it by writing (1, 1).
  if (!last_spawned_.has_value()) co_return;
  const TaskId id = *last_spawned_;
  const EntryStatus staged = co_await copy_back_entry_locked(id);
  if (staged.ready == kReadyParamsCopied && staged.sched == 0) {
    cpu_table_.set_status(id, {kReadyScheduling, 1});
    last_spawned_.reset();
    stats_.flushes += 1;
    trace(TraceKind::kFlushed, id);
    co_await sim().delay(hc_.memcpy_setup);
    copy_entry_to_gpu_locked(id);
  }
  // Any other state: the entry's own H2D copy has not landed yet, or a
  // successor released it already; retry on the caller's next poll.
}

void Runtime::land_statuses() {
  const std::vector<std::uint64_t>& gpu_free = gpu_table_.free_words();
  std::copy(gpu_free.begin(), gpu_free.end(), landed_free_.begin());
}

void Runtime::EntryLanding::revoke() {
  const EntryStatus ge = rt->gpu_table_.status(id);
  const bool released_unclaimed =
      ge.ready == kReadyScheduling && ge.sched == 1;
  const bool parked_last = ge.ready == kReadyParamsCopied && ge.sched == 0 &&
                           rt->last_spawned_ == id;
  if (released_unclaimed || parked_last) {
    rt->gpu_table_.set_status(id, {kReadyFree, 0});
    if (parked_last) rt->last_spawned_.reset();
    won = true;
  }
}

sim::Task<> Runtime::copy_back_all_locked() {
  stats_.aggregate_copybacks += 1;
  const std::uint64_t started = stamp_;
  co_await sim().delay(hc_.memcpy_setup);
  co_await table_stream_.memcpy(
      pcie::Direction::DeviceToHost, nullptr, nullptr,
      static_cast<std::size_t>(cpu_table_.size()) * sizeof(TaskEntry),
      sim::Continuation::member<&Runtime::land_statuses>(this));
  // Apply, in TaskId order: an entry busy here and free on the device at
  // the landing becomes free, unless the host re-spawned into it (or revoked
  // it) while the copy was in flight. A busy entry sits on a backed row, so
  // only backed rows are visited.
  const std::vector<std::uint64_t>& cpu_free = cpu_table_.free_words();
  const int words = cpu_table_.words_per_column();
  for (int column = 0; column < cpu_table_.columns(); ++column) {
    for (int k = 0; k < words; ++k) {
      const auto w = static_cast<std::size_t>(column * words + k);
      for (std::uint64_t bits = landed_free_[w] & ~cpu_free[w]; bits != 0;
           bits &= bits - 1) {
        const TaskId id =
            cpu_table_.id_of(column, k * 64 + std::countr_zero(bits));
        if (generation_[id - kFirstTaskId] > started) continue;
        free_cpu_entry(id);
        trace(TraceKind::kCopyBack, id);
      }
    }
  }
}

sim::Task<EntryStatus> Runtime::copy_back_entry_locked(TaskId id) {
  stats_.single_copybacks += 1;
  const int idx = id - kFirstTaskId;
  const std::uint64_t gen = generation_[idx];
  co_await sim().delay(hc_.memcpy_setup);
  EntryLanding landing{this, id};
  co_await table_stream_.memcpy(
      pcie::Direction::DeviceToHost, nullptr, nullptr, sizeof(TaskEntry),
      sim::Continuation::member<&EntryLanding::copy_back>(&landing));
  if (gen == generation_[idx] && landing.staged.ready == kReadyFree &&
      cpu_table_.status(id).ready != kReadyFree) {
    free_cpu_entry(id);
    trace(TraceKind::kCopyBack, id);
  }
  co_return landing.staged;
}

bool Runtime::is_done_cpu_view(const TaskHandle& h) const {
  PAGODA_CHECK_MSG(h.owner == uid_,
                   "TaskHandle presented to a Runtime that did not issue it");
  PAGODA_CHECK(cpu_table_.valid_id(h.id));
  // Recycled handle (a later spawn reused the entry): the original task is
  // necessarily done — the entry could only be reissued after it freed — so
  // report done WITHOUT consulting the entry, which now describes a
  // different, possibly still-running task. Cluster-level retries depend on
  // wait() never blocking on a successor's completion here.
  if (generation_[h.id - kFirstTaskId] != h.generation) return true;
  return cpu_table_.status(h.id).ready == kReadyFree;
}

bool Runtime::check(const TaskHandle& h) const { return is_done_cpu_view(h); }

sim::Task<> Runtime::wait(TaskHandle h) {
  while (true) {
    co_await sim().delay(hc_.event_query);
    if (is_done_cpu_view(h)) co_return;
    // Timeout path: flush the last task (it may be the one waited on) and
    // force a copy-back of the involved entry.
    co_await spawn_lock_.acquire();
    co_await flush_last_locked();
    co_await copy_back_entry_locked(h.id);
    spawn_lock_.release();
    if (is_done_cpu_view(h)) co_return;
    co_await sim().delay(kWaitPoll);
  }
}

sim::Task<bool> Runtime::try_revoke(TaskHandle h) {
  PAGODA_CHECK_MSG(h.owner == uid_,
                   "TaskHandle presented to a Runtime that did not issue it");
  PAGODA_CHECK(cpu_table_.valid_id(h.id));
  co_await spawn_lock_.acquire();
  const int idx = h.id - kFirstTaskId;
  if (generation_[idx] != h.generation ||
      cpu_table_.status(h.id).ready == kReadyFree) {
    // Recycled or already observed finished: nothing left to revoke.
    spawn_lock_.release();
    co_return false;
  }
  // The revoke rides the table stream like a spawn copy: one entry-sized
  // H2D transaction whose landing instant is where the decision is taken.
  // The transaction carries no host bytes: its landing action writes only
  // the status words, so a lost race never clobbers a claimed task's
  // descriptor.
  co_await sim().delay(hc_.memcpy_setup);
  EntryLanding landing{this, h.id};
  stats_.entry_copies += 1;
  co_await table_stream_.memcpy(
      pcie::Direction::HostToDevice, nullptr, nullptr, kEntryCopyBytes,
      sim::Continuation::member<&EntryLanding::revoke>(&landing));
  if (landing.won) {
    free_cpu_entry(h.id);
    generation_.at(idx) = ++stamp_;  // the revoked handle reports done
    stats_.revokes += 1;
    trace(TraceKind::kRevoked, h.id);
  }
  spawn_lock_.release();
  co_return landing.won;
}

sim::Task<> Runtime::wait_all() {
  while (true) {
    co_await spawn_lock_.acquire();
    co_await flush_last_locked();
    co_await copy_back_all_locked();
    const bool all_done = !last_spawned_.has_value() && cpu_table_.all_free();
    spawn_lock_.release();
    if (all_done) co_return;
    co_await sim().delay(kWaitPoll);
  }
}

}  // namespace pagoda::runtime
