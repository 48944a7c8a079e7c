// engine::StagePipeline — the per-task H2D -> execute -> D2H flow every
// driver plays, factored once.
//
// A pipeline owns the copy-stream pools and exposes the three things the
// pre-port drivers each re-implemented by hand:
//
//  * copy stages — `copy_staged` (pay the host memcpy-setup cost, then queue
//    the transfer fire-and-forget, optionally with a landing continuation:
//    the HyperQ per-task and Pagoda data-path flavor) and `copy_sync`
//    (setup, transfer, await: the GeMTC/Fusion bulk flavor);
//  * wave orchestration — `wave_members` / `fan_out` / `run_waves` replicate
//    the dependency-wave chunk/spawner-split/join loop with per-stage hooks
//    (`WavePlan::slice` is the execute stage; `after_chunk` / `after_wave`
//    are the batch and SLUD gates);
//  * stream pools — round-robin `h2d_stream(i)` / `d2h_stream(i)` access;
//    a zero-sized D2H pool aliases the H2D pool (HyperQ's one-stream-per-
//    task semantics).
//
// Everything here is event-for-event identical to the code it replaced:
// the helpers are lazy sim::Task<>s (awaiting one is symmetric transfer,
// no scheduled events), and stream construction is pure host state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "engine/session.h"
#include "gpu/stream.h"
#include "sim/process.h"
#include "sim/task.h"
#include "workloads/workload.h"

namespace pagoda::engine {

class StagePipeline {
 public:
  struct Config {
    /// Input-copy stream pool size (0 = no streams; compute-only drivers).
    int h2d_streams = 0;
    /// Output-copy pool size; 0 aliases the H2D pool, so a task's input
    /// copy, kernel and output copy serialize on one stream.
    int d2h_streams = 0;
    /// Host threads the wave fan-out splits task slices over.
    int spawner_threads = 1;
  };

  /// Streams live on the session's device; a device-less session only
  /// supports the wave-orchestration half (pool sizes must be 0).
  StagePipeline(Session& session, const Config& cfg);

  gpu::Stream& h2d_stream(std::size_t key) {
    return h2d_pool_[key % h2d_pool_.size()];
  }
  gpu::Stream& d2h_stream(std::size_t key) {
    std::deque<gpu::Stream>& pool = d2h_pool_.empty() ? h2d_pool_ : d2h_pool_;
    return pool[key % pool.size()];
  }

  // --- copy and launch stages --------------------------------------------
  /// Staged async copy: host memcpy-setup cost, then the transfer queues on
  /// `s` fire-and-forget. `landed` (optional) runs when the bytes land.
  sim::Task<> copy_staged(gpu::Stream& s, pcie::Direction dir,
                          std::int64_t bytes, sim::Continuation landed = {});
  /// Blocking bulk copy: setup cost, transfer, await completion.
  sim::Task<> copy_sync(gpu::Stream& s, pcie::Direction dir,
                        std::int64_t bytes);
  /// The host-side kernel-launch cost (driver lock excluded — schemes that
  /// serialize launches hold their own lock around this).
  sim::Task<> launch_cost();

  // --- wave orchestration ------------------------------------------------
  /// Task indices of one dependency wave, in task order.
  static std::vector<int> wave_members(
      std::span<const workloads::TaskSpec> tasks, int wave);

  /// The execute stage: one slice process per spawner thread, fed the task
  /// indices that thread owns.
  using SliceFn = std::function<sim::Process(std::span<const int>)>;
  /// A gate run between stages (batch gates, SLUD wave barriers, stream
  /// synchronization).
  using GateFn = std::function<sim::Task<>()>;

  /// Splits `indices` into spawner_threads contiguous slices, spawns one
  /// slice process each, and joins them in order.
  sim::Task<> fan_out(std::span<const int> indices, const SliceFn& slice);

  struct WavePlan {
    SliceFn slice;
    /// Tasks per chunk inside a wave (batch-gated schemes); 0 = the whole
    /// wave is one chunk.
    int chunk_size = 0;
    /// Runs after each chunk's fan-out joins (may be empty).
    GateFn after_chunk;
    /// Runs after every wave, including empty ones (may be empty).
    GateFn after_wave;
  };

  /// The canonical flow: for each of `waves` dependency waves, chunk its
  /// members, fan each chunk over the spawner threads, and run the gates.
  sim::Task<> run_waves(std::span<const workloads::TaskSpec> tasks, int waves,
                        const WavePlan& plan);

 private:
  sim::Simulation* sim_;
  host::HostCosts host_;
  int spawner_threads_;
  std::deque<gpu::Stream> h2d_pool_;
  std::deque<gpu::Stream> d2h_pool_;
};

}  // namespace pagoda::engine
