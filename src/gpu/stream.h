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
// prefix. A copy is one Link transfer whose completion is a `[this]`
// closure: the link lands the bytes, then the stream runs the front copy's
// callback (or resumes its awaiting coroutine) while that copy still counts
// as in flight, retires it and issues what may follow. So a copy pushed
// from a landing callback waits for the copy that landed.
//
// The HyperQ baseline follows the paper's setup: 32 streams with
// CUDA_DEVICE_MAX_CONNECTIONS=32, tasks issued round-robin — at most 32
// kernels concurrently resident, exactly the limit §2 analyzes.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "pcie/pcie_bus.h"
#include "sim/sync.h"

namespace pagoda::gpu {

class Stream {
 public:
  explicit Stream(Device& dev) : dev_(&dev) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueues an async memcpy (cudaMemcpyAsync). dst/src may be null when
  /// the caller only wants the timing (Model mode). on_done, if any, runs at
  /// the landing instant, after the bytes land.
  void memcpy_async(pcie::Direction dir, void* dst, const void* src,
                    std::size_t bytes, std::function<void()> on_done = {}) {
    push(Op{.dir = dir, .dst = dst, .src = src, .bytes = bytes,
            .on_done = std::move(on_done)});
  }

  /// Awaitable memcpy (cudaMemcpy from a host process): resumes the caller
  /// once the bytes have landed.
  auto memcpy(pcie::Direction dir, void* dst, const void* src,
              std::size_t bytes) {
    return CopyAwaiter{this, dir, dst, src, bytes};
  }

  /// As memcpy(), but the bus's fault hook judges the transfer when it is
  /// issued (see PcieBus::copy_checked); yields false for a corrupt copy,
  /// which lands no bytes. Without a hook armed this is memcpy() exactly.
  auto memcpy_checked(pcie::Direction dir, void* dst, const void* src,
                      std::size_t bytes) {
    return CopyAwaiter{this, dir, dst, src, bytes, /*checked=*/true};
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

  /// Awaitable: completes when all work enqueued so far has finished
  /// (cudaStreamSynchronize).
  auto synchronize() {
    struct Awaiter {
      Stream* stream;
      std::shared_ptr<sim::Trigger> trig;
      bool await_ready() {
        if (stream->idle()) return true;
        trig = stream->record_event();
        return trig->fired();
      }
      void await_suspend(std::coroutine_handle<> h) {
        trig->wait().await_suspend(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, nullptr};
  }

  bool idle() const { return head_ == ops_.size(); }

 private:
  struct CopyAwaiter;

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
    std::function<void()> on_done = {};  // runs at landing, or
    CopyAwaiter* awaiter = nullptr;      // is resumed; in the caller's frame
    // kKernel / kEvent
    std::unique_ptr<KernelLaunchParams> params = {};
    std::shared_ptr<sim::Trigger> trig = {};  // fires at completion
  };

  struct CopyAwaiter {
    Stream* stream;
    pcie::Direction dir;
    void* dst;
    const void* src;
    std::size_t bytes;
    bool checked = false;  // ask the bus's fault hook at issue
    bool ok = true;        // the checked copy's verdict
    std::coroutine_handle<> caller = {};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      caller = h;
      stream->push(Op{.dir = dir, .dst = dst, .src = src, .bytes = bytes,
                      .awaiter = this});
    }
    bool await_resume() const noexcept { return ok; }
  };

  void push(Op op) {
    ops_.push_back(std::move(op));
    pump();
  }

  /// Retires the front op. The buffer keeps its capacity, so a steady
  /// stream allocates nothing: it is cleared once drained and compacted
  /// once the retired prefix passes half of it.
  void pop_front() {
    ops_[head_++] = Op{};
    if (head_ == ops_.size()) {
      ops_.clear();
      head_ = 0;
    } else if (2 * head_ > ops_.size()) {
      ops_.erase(ops_.begin(),
                 ops_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Starts ops_[head_ + started_] onward while the stream's order allows.
  void pump() {
    while (head_ + started_ < ops_.size()) {
      Op& op = ops_[head_ + started_];
      if (started_ > 0) {
        // Only a same-direction copy may join copies already on the wire
        // (the DMA engine's FIFO keeps the stream's order); anything else
        // waits for every issued op to complete.
        const Op& front = ops_[head_];
        if (op.kind != Op::Kind::kCopy || front.kind != Op::Kind::kCopy ||
            op.dir != front.dir) {
          return;
        }
      }
      switch (op.kind) {
        case Op::Kind::kCopy: {
          pcie::PcieBus& bus = dev_->pcie();
          auto land = [this] { land_copy(); };
          if (op.awaiter != nullptr && op.awaiter->checked) {
            op.awaiter->ok =
                bus.copy_checked(op.dir, op.dst, op.src, op.bytes, land);
          } else {
            bus.copy(op.dir, op.dst, op.src, op.bytes, land);
          }
          started_ += 1;
          break;
        }
        case Op::Kind::kEvent:
          op.trig->fire();
          pop_front();
          break;
        case Op::Kind::kKernel:
          kernel_ = dev_->dispatcher().launch(std::move(*op.params));
          kernel_->done.call_on_fire([this] { retire_kernel(); });
          started_ = 1;
          return;
      }
    }
  }

  /// The front copy landed: its callback sees it still in flight.
  void land_copy() {
    Op& op = ops_[head_];
    if (op.awaiter != nullptr) {
      dev_->sim().defer_resume(op.awaiter->caller);
    } else if (op.on_done) {
      // Moved out first: a push from the callback may move ops_.
      const std::function<void()> on_done = std::move(op.on_done);
      on_done();
    }
    pop_front();
    started_ -= 1;
    pump();
  }

  void retire_kernel() {
    ops_[head_].trig->fire();
    pop_front();
    kernel_.reset();
    started_ = 0;
    pump();
  }

  Device* dev_;
  std::vector<Op> ops_;  // FIFO from head_; the first started_ are running
  std::size_t head_ = 0;
  std::size_t started_ = 0;
  KernelExecutionPtr kernel_;    // the running grid, kept until it retires
};

}  // namespace pagoda::gpu
