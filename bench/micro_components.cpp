// google-benchmark microbenchmarks for the performance-critical simulator
// and runtime components: the buddy shared-memory allocator, the event
// queue, processor-sharing resource, stream copies, DES block encryption,
// and TaskTable scans. These guard the *wall-clock* cost of running the
// reproduction (virtual-time results are deterministic and benchmarked by
// the fig* binaries).
#include <benchmark/benchmark.h>

#include <coroutine>
#include <vector>

#include "common/rng.h"
#include "engine/session.h"
#include "gpu/stream.h"
#include "pagoda/shmem_allocator.h"
#include "pagoda/task_table.h"
#include "sim/process.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"
#include "workloads/des_core.h"

namespace {

using namespace pagoda;

void BM_BuddyAllocFree(benchmark::State& state) {
  runtime::ShmemAllocator alloc;
  const auto bytes = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const auto off = alloc.allocate(bytes);
    benchmark::DoNotOptimize(off);
    if (off) alloc.deallocate(*off);
  }
}
BENCHMARK(BM_BuddyAllocFree)->Arg(512)->Arg(2048)->Arg(8192)->Arg(32768);

void BM_BuddyChurn(benchmark::State& state) {
  runtime::ShmemAllocator alloc;
  SplitMix64 rng(1);
  std::vector<std::int32_t> live;
  for (auto _ : state) {
    if (live.size() < 8 && (rng.next() & 1)) {
      const auto off =
          alloc.allocate(static_cast<std::int32_t>(rng.next_in(1, 4096)));
      if (off) live.push_back(*off);
    } else if (!live.empty()) {
      alloc.deallocate(live.back());
      live.pop_back();
    }
  }
  for (const auto off : live) alloc.deallocate(off);
}
BENCHMARK(BM_BuddyChurn);

struct FireCounter {
  int fired = 0;
  void hit() { ++fired; }
};

void BM_EventQueueThroughput(benchmark::State& state) {
  engine::SessionConfig no_device;  // the event queue alone
  no_device.device = false;
  for (auto _ : state) {
    engine::Session session(no_device);
    sim::Simulation& sim = session.sim();
    FireCounter c;
    for (int i = 0; i < 1000; ++i) {
      sim.after(i % 97, sim::Continuation::member<&FireCounter::hit>(&c));
    }
    sim.run();
    benchmark::DoNotOptimize(c.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

/// One of 1,000 events in flight; each firing re-arms it with the next
/// delay until it has fired `left` times.
struct SpreadFirer {
  sim::Simulation* sim;
  const std::vector<sim::Duration>* delays;
  std::size_t next;
  int left;
  void hit() {
    if (--left == 0) return;
    next = (next + 1) % delays->size();
    sim->after((*delays)[next],
               sim::Continuation::member<&SpreadFirer::hit>(this));
  }
};

// The hold model with delays spread log-uniformly from 1 ns to 1 ms, so the
// queue keeps keys in twenty buckets at once (the runs' mix of defers,
// warp stalls, PCIe copies and request timeouts).
void BM_EventQueueThroughputSpread(benchmark::State& state) {
  engine::SessionConfig no_device;  // the event queue alone
  no_device.device = false;
  SplitMix64 rng(3);
  std::vector<sim::Duration> delays(4096);
  for (sim::Duration& d : delays) {
    const sim::Duration base = sim::Duration{1000} << rng.next_below(20);
    d = base + static_cast<sim::Duration>(
                   rng.next_below(static_cast<std::uint64_t>(base)));
  }
  constexpr int kInFlight = 1000;
  constexpr int kFiringsEach = 10;
  std::vector<SpreadFirer> firers(kInFlight);
  for (auto _ : state) {
    engine::Session session(no_device);
    sim::Simulation& sim = session.sim();
    for (int i = 0; i < kInFlight; ++i) {
      SpreadFirer& f = firers[static_cast<std::size_t>(i)];
      f = SpreadFirer{&sim, &delays, static_cast<std::size_t>(i) * 4,
                      kFiringsEach};
      sim.after(delays[f.next],
                sim::Continuation::member<&SpreadFirer::hit>(&f));
    }
    sim.run();
    benchmark::DoNotOptimize(firers.data());
  }
  state.SetItemsProcessed(state.iterations() * kInFlight * kFiringsEach);
}
BENCHMARK(BM_EventQueueThroughputSpread);

void BM_PsResourceChurn(benchmark::State& state) {
  engine::SessionConfig no_device;  // the event queue alone
  no_device.device = false;
  for (auto _ : state) {
    engine::Session session(no_device);
    sim::Simulation& sim = session.sim();
    sim::PsResource res(sim, 4.0, 1.0);
    // A no-op handle: the resource's own cost, with no process around it.
    const std::coroutine_handle<> noop = std::noop_coroutine();
    for (int i = 0; i < 256; ++i) res.submit(1.0 + (i % 5), noop);
    sim.run();
    benchmark::DoNotOptimize(res.active_jobs());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PsResourceChurn);

// One of BM_PsResourceSteadyState's 8 warps: submits a job whenever its last
// one completes, until 256 have been submitted.
sim::Process ps_warp(sim::PsResource& res, int& submitted, int& done) {
  while (submitted < 256) {
    co_await res.execute(1.0 + (submitted++ % 5));
    ++done;
  }
}

// The SMM pattern: 8 jobs in flight, a new one submitted on each completion,
// so every arrival lands between completions and re-times the pending one.
// (BM_PsResourceChurn submits everything at t=0 and then only drains.)
void BM_PsResourceSteadyState(benchmark::State& state) {
  engine::SessionConfig no_device;  // the event queue alone
  no_device.device = false;
  for (auto _ : state) {
    engine::Session session(no_device);
    sim::Simulation& sim = session.sim();
    sim::PsResource res(sim, 4.0, 1.0);
    int submitted = 0;
    int done = 0;
    for (int i = 0; i < 8; ++i) sim.spawn(ps_warp(res, submitted, done));
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PsResourceSteadyState);

// The spawn path's copy: small same-direction copies, each with a landing
// continuation, pipelined through one stream onto the H2D link.
void BM_StreamCopy(benchmark::State& state) {
  engine::Session session{engine::SessionConfig{}};
  gpu::Stream stream(session.device());
  int landed = 0;
  const sim::Continuation count{[](void* n) { ++*static_cast<int*>(n); },
                                &landed};
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      stream.memcpy_async(pcie::Direction::HostToDevice, nullptr, nullptr, 64,
                          count);
    }
    session.sim().run();
  }
  benchmark::DoNotOptimize(landed);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StreamCopy);

void BM_DesBlock(benchmark::State& state) {
  const auto ks = workloads::des_key_schedule(0x133457799BBCDFF1ULL);
  std::uint64_t block = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    block = workloads::des_encrypt_block(block, ks);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DesBlock);

void BM_TripleDesBlock(benchmark::State& state) {
  const auto key = workloads::triple_des_key(1, 2, 3);
  std::uint64_t block = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    block = workloads::triple_des_encrypt_block(block, key);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TripleDesBlock);

void BM_TaskTableScan(benchmark::State& state) {
  runtime::TaskTable table(48, 32);
  // Mark a few entries busy so the scan does real work.
  for (int c = 0; c < 48; c += 3) {
    table.status(table.id_of(c, c % 32)).ready = 1;
  }
  for (auto _ : state) {
    int free_count = 0;
    for (int c = 0; c < table.columns(); ++c) {
      for (int r = 0; r < table.rows(); ++r) {
        if (table.status(table.id_of(c, r)).ready == runtime::kReadyFree) {
          ++free_count;
        }
      }
    }
    benchmark::DoNotOptimize(free_count);
  }
  state.SetItemsProcessed(state.iterations() * table.size());
}
BENCHMARK(BM_TaskTableScan);

}  // namespace

BENCHMARK_MAIN();
