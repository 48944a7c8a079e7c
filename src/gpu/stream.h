// CUDA-like streams: per-stream FIFO ordering of memcpys, kernels and
// events; independent streams proceed concurrently (HyperQ connections).
//
// Issue semantics match the hardware: consecutive same-direction memcpys
// are handed straight to the DMA engine (whose FIFO preserves intra-stream
// order), so they pipeline at engine speed; a kernel, event, or a memcpy in
// the opposite direction waits until every previously issued op of the
// stream has completed (cross-engine stream ordering).
//
// An op is a plain record in one FIFO; the copies on the wire are its
// prefix. A copy is one Link transfer that lands in `land_copy()`: the
// stream runs the front copy's landing continuation while that copy still
// counts as in flight, retires it and issues what may follow, so a copy
// pushed from a landing continuation waits for the copy that landed. An
// awaited copy's continuation runs the caller's landing action, then
// defers the caller.
//
// The HyperQ baseline follows the paper's setup: 32 streams with
// CUDA_DEVICE_MAX_CONNECTIONS=32, tasks issued round-robin — at most 32
// kernels concurrently resident, exactly the limit §2 analyzes.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/fifo.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "pcie/pcie_bus.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pagoda::gpu {

class Stream {
 public:
  explicit Stream(Device& dev) : dev_(&dev) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueues an async memcpy (cudaMemcpyAsync). dst/src may be null when
  /// the caller only wants the timing (Model mode). `landed`, if set, runs
  /// at the landing instant, after the bytes land.
  void memcpy_async(pcie::Direction dir, void* dst, const void* src,
                    std::size_t bytes, sim::Continuation landed = {}) {
    push(Op{.dir = dir, .dst = dst, .src = src, .bytes = bytes,
            .landed = landed});
  }

  /// Awaitable memcpy (cudaMemcpy from a host process). At the landing
  /// instant `landed`, if set, runs, then the caller is deferred.
  auto memcpy(pcie::Direction dir, void* dst, const void* src,
              std::size_t bytes, sim::Continuation landed = {}) {
    return CopyAwaiter{this, dir, dst, src, bytes, landed};
  }

  /// As memcpy(), but the bus's fault hook judges the transfer when it is
  /// issued (see PcieBus::copy); yields false for a corrupt copy,
  /// which lands no bytes. Without a hook armed this is memcpy() exactly.
  auto memcpy_checked(pcie::Direction dir, void* dst, const void* src,
                      std::size_t bytes, sim::Continuation landed = {}) {
    return CopyAwaiter{this, dir, dst, src, bytes, landed, /*checked=*/true};
  }

  /// Enqueues a kernel launch; the stream advances when the grid retires.
  /// Returns a trigger that fires at grid completion (cudaEvent-like).
  std::shared_ptr<sim::Trigger> kernel_async(KernelLaunchParams p) {
    auto trig = std::make_shared<sim::Trigger>(dev_->sim());
    push(Op{.kind = Op::Kind::kKernel,
            .params = std::make_unique<KernelLaunchParams>(std::move(p)),
            .trig = trig});
    return trig;
  }

  /// Enqueues a host-visible completion marker (cudaEventRecord):
  /// fires once every previously enqueued op has completed.
  std::shared_ptr<sim::Trigger> record_event() {
    auto trig = std::make_shared<sim::Trigger>(dev_->sim());
    push(Op{.kind = Op::Kind::kEvent, .trig = trig});
    return trig;
  }

  /// Completes when all work enqueued so far has finished
  /// (cudaStreamSynchronize).
  sim::Task<> synchronize() {
    if (!idle()) co_await record_event()->wait();
  }

  bool idle() const { return ops_.empty(); }

 private:
  /// One queued or running op. Every field has a default, so each kind
  /// names only the fields it uses.
  struct Op {
    enum class Kind : std::uint8_t { kCopy, kKernel, kEvent };
    Kind kind = Kind::kCopy;
    // kCopy
    pcie::Direction dir = pcie::Direction::HostToDevice;
    void* dst = nullptr;
    const void* src = nullptr;
    std::size_t bytes = 0;
    sim::Continuation landed = {};  // runs at landing, if set
    bool* verdict = nullptr;        // set: a checked copy's verdict goes here
    // kKernel / kEvent
    std::unique_ptr<KernelLaunchParams> params = {};
    std::shared_ptr<sim::Trigger> trig = {};  // fires at completion
  };

  struct CopyAwaiter {  // in the awaiting frame until the copy lands
    Stream* stream;
    pcie::Direction dir;
    void* dst;
    const void* src;
    std::size_t bytes;
    sim::Continuation landed;  // the caller's landing action, if set
    bool checked = false;      // ask the bus's fault hook at issue
    bool ok = true;            // the checked copy's verdict
    std::coroutine_handle<> caller = {};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      caller = h;
      stream->push(Op{.dir = dir, .dst = dst, .src = src, .bytes = bytes,
                      .landed = sim::Continuation::member<&CopyAwaiter::land>(
                          this),
                      .verdict = checked ? &ok : nullptr});
    }
    bool await_resume() const noexcept { return ok; }
    void land() {
      if (landed) landed();
      stream->dev_->sim().defer(caller);
    }
  };

  void push(Op op) {
    ops_.push_back(std::move(op));
    pump();
  }

  /// Starts ops_[started_] onward while the stream's order allows.
  void pump() {
    while (started_ < ops_.size()) {
      Op& op = ops_[started_];
      if (started_ > 0) {
        // Only a same-direction copy may join copies already on the wire
        // (the DMA engine's FIFO keeps the stream's order); anything else
        // waits for every issued op to complete.
        const Op& front = ops_.front();
        if (op.kind != Op::Kind::kCopy || front.kind != Op::Kind::kCopy ||
            op.dir != front.dir) {
          return;
        }
      }
      switch (op.kind) {
        case Op::Kind::kCopy: {
          const bool ok = dev_->pcie().copy(
              op.dir, op.dst, op.src, op.bytes,
              sim::Continuation::member<&Stream::land_copy>(this),
              /*checked=*/op.verdict != nullptr);
          if (op.verdict != nullptr) *op.verdict = ok;
          started_ += 1;
          break;
        }
        case Op::Kind::kEvent:
          op.trig->fire();
          ops_.pop_front();
          break;
        case Op::Kind::kKernel:
          kernel_ = dev_->dispatcher().launch(std::move(*op.params));
          kernel_->done.call_on_fire(
              sim::Continuation::member<&Stream::retire_kernel>(this));
          started_ = 1;
          return;
      }
    }
  }

  /// The front copy landed: its landing continuation sees it still in
  /// flight. Copied out first: a push from it may move ops_.
  void land_copy() {
    const sim::Continuation landed = ops_.front().landed;
    if (landed) landed();
    ops_.pop_front();
    started_ -= 1;
    pump();
  }

  void retire_kernel() {
    ops_.front().trig->fire();
    ops_.pop_front();
    kernel_.reset();
    started_ = 0;
    pump();
  }

  Device* dev_;
  common::Fifo<Op> ops_;  // the first started_ are running
  std::size_t started_ = 0;
  KernelExecutionPtr kernel_;    // the running grid, kept until it retires
};

}  // namespace pagoda::gpu
