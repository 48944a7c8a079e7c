// The benchmark-workload abstraction (paper Tables 3 & 4).
//
// A Workload owns its input/output buffers and produces one TaskSpec per
// narrow task. Runtimes (Pagoda, HyperQ, GeMTC, static fusion, PThreads)
// consume TaskSpecs uniformly; the harness charges each task's H2D/D2H data
// volume and the CPU baseline consumes its scalar op count.
//
// Execution modes (WorkloadConfig::mode, cached by generate()):
//  * ExecMode::Compute — generate() fills every input buffer and kernels
//    perform the real math (results verifiable against the CPU reference
//    via verify()).
//  * ExecMode::Model   — generate() produces shapes only: the same task list
//    (sizes, threads, blocks, shmem, copy volumes, CPU ops, waves, scalar
//    arguments) from the same random draws, but no payload. Every data
//    pointer in the kernel arguments is null, so a kernel that reads data
//    outside ctx.compute() crashes at once. Used for the 32K-task sweeps.
// All cycle charges come from analytic formulas over the shapes, evaluated
// in both modes, so timing is mode-independent by construction (asserted by
// a test). Generators draw every shape before any payload from their one
// SplitMix64, so skipping the payload leaves the shape draws unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/kernel.h"
#include "pagoda/task_table.h"

namespace pagoda::workloads {

/// Everything a runtime needs to execute one narrow task.
struct TaskSpec {
  runtime::TaskParams params;  // kernel fn, dims, shmem, sync flag, args
  int regs_per_thread = 32;    // native-launch register footprint (Table 3)
  std::int64_t h2d_bytes = 0;  // per-task input copy volume
  std::int64_t d2h_bytes = 0;  // per-task output copy volume
  double cpu_ops = 0.0;        // scalar op count for the PThreads baseline
  /// Dependency wave (SLUD): tasks of wave w may only spawn after every
  /// task of wave w-1 finished — the dynamic task structure that batch
  /// systems cannot express. 0 for independent tasks.
  int wave = 0;
};

struct WorkloadConfig {
  int num_tasks = 1024;
  int threads_per_task = 128;
  std::uint64_t seed = 0x9A60DAULL;
  gpu::ExecMode mode = gpu::ExecMode::Model;
  /// DCT/MM: build the shared-memory kernel variant (Table 5).
  bool use_shared_memory = true;
  /// Fig 9: pseudo-random input sizes per task (irregular workloads).
  bool irregular_sizes = false;
  /// Fig 9: pick each task's thread count from its input size (32–256
  /// threads), as the runtime schemes can but static fusion cannot.
  bool dynamic_threads = false;
  /// Fig 7/8: when > 0, overrides the per-task input scale (task "input
  /// size" such as image width; workload-specific meaning).
  int input_scale = 0;
  /// Fig 8: threadblocks per task (total threads = threads_per_task x
  /// blocks_per_task; the per-task work is redistributed, not multiplied).
  int blocks_per_task = 1;
};

struct WorkloadTraits {
  std::string_view name;
  bool irregular = false;        // Table 3 "Task Type"
  bool may_use_shared = false;   // Table 3 "May benefit from shared memory"
  bool needs_sync = false;       // Table 3 "Requires threadblock sync"
  int default_registers = 32;    // Table 3 "Default Register Count"
  /// Largest WorkloadConfig::input_scale whose int size arithmetic (pixel
  /// and element counts of the largest task, irregular sizes included)
  /// holds. generate() CHECKs it; pagoda_cli rejects a larger --input.
  int max_input = std::numeric_limits<int>::max();
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual WorkloadTraits traits() const = 0;

  /// (Re)builds inputs and task list for the given configuration, then
  /// caches the generation mode and derived task-list properties
  /// (dependency-wave depth). Not virtual so the cache cannot be bypassed;
  /// subclasses implement do_generate().
  void generate(const WorkloadConfig& cfg);

  /// Mode of the last generate(). Only a Compute-mode workload holds
  /// payload, so only it can run in Compute mode or be verified.
  gpu::ExecMode mode() const { return mode_; }

  virtual std::span<const TaskSpec> tasks() const = 0;

  /// Deepest TaskSpec::wave over tasks() (0 for independent-task
  /// workloads). Cached by generate(): runtimes consult this per run —
  /// supports() checks, wave-loop bounds — and must not rescan the task
  /// list each time.
  int max_wave() const { return max_wave_; }

  /// Clears outputs so a second run can be verified independently.
  virtual void reset_outputs() = 0;

  /// After a Compute-mode run: checks outputs against the CPU reference.
  /// Returns true when every task's output matches. CHECKs that the
  /// workload was generated in Compute mode (a Model-mode workload has no
  /// outputs to check); subclasses implement do_verify().
  bool verify() const;

 protected:
  /// Subclass hook: rebuild inputs and the task list. Payload only when
  /// cfg.mode is Compute (see the header comment).
  virtual void do_generate(const WorkloadConfig& cfg) = 0;
  /// Subclass hook: compare every task's output with the CPU reference.
  virtual bool do_verify() const = 0;

 private:
  gpu::ExecMode mode_ = gpu::ExecMode::Model;
  int max_wave_ = 0;
};

/// Argument pointer `offset` elements into a payload buffer, or null when
/// the buffer is empty (Model mode keeps no payload).
template <typename T>
T* payload_at(std::vector<T>& buffer, std::size_t offset) {
  return buffer.empty() ? nullptr : buffer.data() + offset;
}

/// Thread count for a task whose input is `size_ratio` times the nominal
/// size: proportional, warp-granular, clamped to [32, 256] (the Fig 9
/// dynamic-thread-selection range).
inline int dynamic_thread_count(int base_threads, double size_ratio) {
  int t = static_cast<int>(static_cast<double>(base_threads) * size_ratio);
  t = ((t + 31) / 32) * 32;
  if (t < 32) t = 32;
  if (t > 256) t = 256;
  return t;
}

/// Factory by benchmark acronym: MB, FB, BF, CONV, DCT, MM, SLUD, 3DES, MPE.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// All benchmark acronyms in the paper's Figure 5 order.
std::span<const std::string_view> all_workload_names();

}  // namespace pagoda::workloads
