// Google-benchmark microbenchmarks of the substrate itself: these measure
// *wall-clock* cost of the simulator and library plumbing (event
// scheduling, CPU resource, verbs data path, a full blast run), which is
// what bounds how large an experiment the harness can sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "blast/blast.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "verbs/queue_pair.hpp"

namespace {

using namespace exs;  // NOLINT

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t count = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.ScheduleAt(i, [&count] { ++count; });
    }
    sched.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

// The closure shape the verbs layer schedules per packet
// (QueuePair::Transmit's `[this, peer, pkt]`): a shared_ptr plus two
// words, too large for std::function's small-object buffer.
void BM_SchedulerCapturingEvents(benchmark::State& state) {
  auto packet = std::make_shared<std::uint64_t>(1);
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t count = 0;
    std::uint64_t* peer = &count;
    for (int i = 0; i < 1000; ++i) {
      sched.ScheduleAt(i, [&count, peer, packet] { count += *packet + *peer; });
    }
    sched.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCapturingEvents);

// StreamTx's coalescing flush timer: each round cancels the armed timer
// (a flush beat it) and arms a fresh one, while the next send's progress
// event runs.  Cancelled timers linger in the queue until their instant
// passes.  One item is one cancel/re-arm round.
void BM_SchedulerTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t fired = 0;
    simnet::EventHandle timer;
    for (int i = 0; i < 1000; ++i) {
      timer.Cancel();
      timer = sched.ScheduleAfter(5000, [&fired] { ++fired; });
      sched.ScheduleAfter(1000, [&fired] { fired += 2; });
      sched.Step();
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerTimerChurn);

void BM_CpuTaskChain(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventScheduler sched;
    simnet::Cpu cpu(sched);
    for (int i = 0; i < 1000; ++i) cpu.Submit(10, [] {});
    sched.Run();
    benchmark::DoNotOptimize(cpu.BusyTime());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CpuTaskChain);

void BM_RingCursorCycle(benchmark::State& state) {
  RingCursor ring(4096);
  std::uint64_t x = 0;
  for (auto _ : state) {
    // 96 does not divide the capacity, so the cursors wrap at a new offset
    // each lap.
    std::uint64_t w = std::min<std::uint64_t>(ring.ContiguousWritable(), 96);
    ring.CommitWrite(w);
    std::uint64_t r = ring.ContiguousReadable();
    ring.CommitRead(r);
    x += w + r;
  }
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_RingCursorCycle);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  ExponentialSizeDistribution dist(256.0 * 1024, 4 << 20);
  std::uint64_t x = 0;
  for (auto _ : state) x += dist.Sample(rng);
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_RngExponential);

void BM_VerbsMessageRate(benchmark::State& state) {
  const auto payload = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    simnet::Fabric fabric(simnet::HardwareProfile::FdrInfiniBand(), 1);
    verbs::Device d0(fabric, 0, /*carry_payload=*/false);
    verbs::Device d1(fabric, 1, /*carry_payload=*/false);
    auto scq0 = d0.CreateCompletionQueue();
    auto rcq0 = d0.CreateCompletionQueue();
    auto scq1 = d1.CreateCompletionQueue();
    auto rcq1 = d1.CreateCompletionQueue();
    verbs::QueuePair q0(d0, *scq0, *rcq0), q1(d1, *scq1, *rcq1);
    verbs::QueuePair::ConnectPair(q0, q1);
    std::vector<std::uint8_t> buf(payload);
    auto mr0 = d0.RegisterMemory(buf.data(), buf.size());
    auto mr1 = d1.RegisterMemory(buf.data(), buf.size());
    constexpr int kMessages = 256;
    for (int i = 0; i < kMessages; ++i) {
      q1.PostRecv({.wr_id = 0,
                   .sge = {reinterpret_cast<std::uint64_t>(buf.data()),
                           payload, mr1->lkey()}});
    }
    for (int i = 0; i < kMessages; ++i) {
      q0.PostSend({.wr_id = 0,
                   .opcode = verbs::Opcode::kSend,
                   .sge = {reinterpret_cast<std::uint64_t>(buf.data()),
                           payload, mr0->lkey()}});
    }
    fabric.scheduler().Run();
    benchmark::DoNotOptimize(q1.stats().messages_delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_VerbsMessageRate)->Arg(64)->Arg(4096);

void BM_FullBlastRun(benchmark::State& state) {
  for (auto _ : state) {
    blast::BlastConfig c;
    c.message_count = 100;
    c.outstanding_sends = 8;
    c.outstanding_recvs = 8;
    c.carry_payload = false;
    blast::BlastResult r = blast::RunBlast(c);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FullBlastRun);

// Host cost of an RPC round trip through every layer: request encode and
// send, stream transfer, server decode and KV service, response.  One
// client/server pair on FDR serves 1 000 calls per iteration — one PUT
// (64, 200 or 480 B values) to three GETs over 64 keys, 16 in flight at a
// time; items are calls.  The argument is the number of 64 B application
// regions registered on each device beforehand (16 Ki is rpc_mux's
// population), so any address-index search on the call path shows up as
// a gap between the two variants.
void BM_RpcCallRoundTrip(benchmark::State& state) {
  constexpr std::size_t kRegionBytes = 64;
  const auto regions = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> app_memory(regions * kRegionBytes);
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), 1,
                 /*carry_payload=*/true);
  StreamOptions opts;
  opts.intermediate_buffer_bytes = 64 * kKiB;
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, opts);
  for (std::size_t i = 0; i < regions; ++i) {
    a->RegisterMemory(app_memory.data() + i * kRegionBytes, kRegionBytes);
    b->RegisterMemory(app_memory.data() + i * kRegionBytes, kRegionBytes);
  }
  rpc::KvServer server;
  server.Attach(*b);
  rpc::RpcClient client(*a, sim.scheduler());
  std::vector<std::string> keys;
  for (int k = 0; k < 64; ++k) keys.push_back(std::to_string(k));
  constexpr int kCalls = 1000;
  constexpr std::uint32_t kSizes[] = {64, 200, 480};
  std::vector<std::uint8_t> value(480, 0x3c);
  for (auto _ : state) {
    for (int i = 0; i < kCalls; ++i) {
      const std::string& key = keys[static_cast<std::size_t>(i) % 64];
      if (i % 4 == 0) {
        client.Call(rpc::Op::kPut, key, value.data(), kSizes[i % 3]);
      } else {
        client.Call(rpc::Op::kGet, key);
      }
      if (i % 16 == 15) sim.Run();
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(client.ledger().issued());
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_RpcCallRoundTrip)->Arg(0)->Arg(16384);

// Host cost of building muxed socket pairs, the set-up of perfbench's
// rpc_mux workload: 1 000 pairs per iteration on width-8 groups with its
// stream options (8 credits, 2 KiB rings and chunks).  Items are sockets;
// building and tearing down the simulation is not timed.
void BM_MuxedPairSetup(benchmark::State& state) {
  constexpr int kPairs = 1000;
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;
  MuxOptions mopts;
  mopts.width = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<Simulation>(
        simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling(), 1,
        /*carry_payload=*/true);
    auto g0 = std::make_unique<MuxGroup>(sim->device(0), mopts);
    auto g1 = std::make_unique<MuxGroup>(sim->device(1), mopts);
    MuxGroup::Connect(*g0, *g1);
    state.ResumeTiming();
    for (int i = 0; i < kPairs; ++i) {
      benchmark::DoNotOptimize(sim->CreateMuxedPair(*g0, *g1, opts));
    }
    state.PauseTiming();
    g1.reset();
    g0.reset();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * kPairs);
}
BENCHMARK(BM_MuxedPairSetup);

}  // namespace

BENCHMARK_MAIN();
