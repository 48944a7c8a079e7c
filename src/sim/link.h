// A directed DMA-engine link: FIFO wire service plus pipelined completion
// latency. The building block for the PCIe model.
//
// Real PCIe DMA has one copy engine per direction: transfers are serviced
// strictly in issue order, each occupying the wire for
// max(bytes/bandwidth, transaction_gap), and the data lands a fixed latency
// after its wire slot ends. Crucially the latency *pipelines*: back-to-back
// small copies complete at gap spacing, not latency spacing — this is what
// makes Pagoda's one-small-memcpy-per-task spawn path fast, while each
// isolated copy still observes the full round-trip latency (§4.2's
// "handshaking is expensive").
//
// A transfer's landing is one Continuation, run in the landing event right
// after the bytes land.
#pragma once

#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/fifo.h"
#include "common/time_types.h"
#include "sim/simulation.h"

namespace pagoda::sim {

class Link {
 public:
  /// bandwidth in bytes/second; latency from wire-slot end to completion;
  /// transaction_gap is the minimum wire occupancy per transfer.
  Link(Simulation& sim, double bandwidth_bytes_per_sec, Duration latency,
       Duration transaction_gap = 0)
      : sim_(&sim),
        bandwidth_(bandwidth_bytes_per_sec),
        latency_(latency),
        gap_(transaction_gap) {
    PAGODA_CHECK(bandwidth_bytes_per_sec > 0.0);
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// A completed transfer, as reported to the observer hook: wire slot
  /// [wire_start, wire_end], bytes landed (and `landed` ran) at `complete`.
  struct TransferRecord {
    std::int64_t bytes = 0;
    Time wire_start = 0;
    Time wire_end = 0;
    Time complete = 0;
  };

  /// Observability hook: invoked at each transfer's completion time. Used by
  /// obs::Collector to emit memcpy spans; nullptr (default) disables it.
  void set_observer(std::function<void(const TransferRecord&)> obs) {
    observer_ = std::move(obs);
  }

  /// Starts a transfer of `bytes`; `landed` (if set) runs when the last
  /// byte lands. Transfers on one link complete in issue order (FIFO
  /// engine). With both dst and src set, the bytes are copied at landing,
  /// just before `landed` runs.
  void transfer(std::int64_t bytes, Continuation landed, void* dst = nullptr,
                const void* src = nullptr) {
    PAGODA_CHECK(bytes >= 0);
    const Time start = std::max(sim_->now(), next_free_);
    const auto wire = std::max(
        gap_, static_cast<Duration>(static_cast<double>(bytes) * 1e12 /
                                    (bandwidth_ * bandwidth_scale_)));
    next_free_ = start + wire;
    busy_integral_ += wire;
    transfers_started_ += 1;
    bytes_transferred_ += bytes;
    // complete never decreases in issue order (FIFO engine, fixed latency),
    // so each event lands the oldest pending record.
    pending_.push_back(
        {{bytes, start, next_free_, next_free_ + latency_}, dst, src, landed});
    sim_->at(next_free_ + latency_,
             Continuation::member<&Link::land_front>(this));
  }

  Duration latency() const { return latency_; }
  double bandwidth() const { return bandwidth_; }

  /// Transient degradation (fault injection): scales the effective bandwidth
  /// of transfers issued while the scale is in force. 1.0 = nominal; e.g.
  /// 0.25 models a link retraining at quarter width. Transfers already on
  /// the wire keep their original service time.
  void set_bandwidth_scale(double scale) {
    PAGODA_CHECK(scale > 0.0);
    bandwidth_scale_ = scale;
  }

  /// Total wire-occupied time so far (utilization = this / elapsed).
  Duration busy_time() const { return busy_integral_; }

  // --- observability counters ---------------------------------------------
  std::int64_t transfers_started() const { return transfers_started_; }
  std::int64_t transfers_completed() const { return transfers_completed_; }
  std::int64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  /// A transfer on the wire or in flight.
  struct Pending {
    TransferRecord record;
    void* dst;
    const void* src;
    Continuation landed;
  };

  void land_front() {
    const Pending p = pending_.pop_front();
    transfers_completed_ += 1;
    if (observer_) observer_(p.record);
    if (p.dst != nullptr && p.src != nullptr && p.record.bytes > 0) {
      std::memcpy(p.dst, p.src, static_cast<std::size_t>(p.record.bytes));
    }
    if (p.landed) p.landed();
  }

  Simulation* sim_;
  double bandwidth_;
  double bandwidth_scale_ = 1.0;
  Duration latency_;
  Duration gap_;
  Time next_free_ = 0;
  Duration busy_integral_ = 0;
  std::int64_t transfers_started_ = 0;
  std::int64_t transfers_completed_ = 0;
  std::int64_t bytes_transferred_ = 0;
  std::function<void(const TransferRecord&)> observer_;
  common::Fifo<Pending> pending_;  // oldest first
};

}  // namespace pagoda::sim
