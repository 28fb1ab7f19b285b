// Heap footprint of a connected socket pair: the allocations, and the
// bytes left live, that building one more pair costs.  It replaces the
// global operator new to count, so it is a binary of its own.
//
// The pairs use the stream options of perfbench's rpc_mux workload (8
// credits, 2 KiB rings and chunks, width-8 mux groups), where 16 Ki
// muxed pairs are built before anything is measured: per-pair heap is
// that workload's set-up time and most of its resident memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "exs/exs.hpp"

namespace {

// Every allocation carries its requested size in a header, so frees can
// be subtracted and the live byte count stays exact.
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::uint64_t g_allocations = 0;
std::uint64_t g_allocated_bytes = 0;
std::int64_t g_live_bytes = 0;

}  // namespace

void* operator new(std::size_t n) {
  auto* block = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &n, sizeof n);
  ++g_allocations;
  g_allocated_bytes += n;
  g_live_bytes += static_cast<std::int64_t>(n);
  return block + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, block, sizeof n);
  g_live_bytes -= static_cast<std::int64_t>(n);
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace exs {
namespace {

constexpr int kWarmupPairs = 100;
constexpr int kPairs = 1000;
/// A muxed pair makes 56 allocations with its instruments held inline,
/// against 396 with one heap object and map node per instrument.
constexpr double kMaxAllocationsPerMuxedPair = 80;

StreamOptions TokenStreams() {
  StreamOptions o;
  o.credits = 8;
  o.intermediate_buffer_bytes = 2 * kKiB;
  o.max_wwi_chunk = 2 * kKiB;
  return o;
}

struct Footprint {
  double allocations = 0;
  double allocated_bytes = 0;
  double live_bytes = 0;
};

/// Average cost of `make_pair` over kPairs calls, after kWarmupPairs that
/// absorb one-time growth.
template <typename MakePair>
Footprint PerPair(MakePair make_pair) {
  for (int i = 0; i < kWarmupPairs; ++i) make_pair();
  const std::uint64_t allocations = g_allocations;
  const std::uint64_t allocated = g_allocated_bytes;
  const std::int64_t live = g_live_bytes;
  for (int i = 0; i < kPairs; ++i) make_pair();
  return {static_cast<double>(g_allocations - allocations) / kPairs,
          static_cast<double>(g_allocated_bytes - allocated) / kPairs,
          static_cast<double>(g_live_bytes - live) / kPairs};
}

void Report(const char* kind, const Footprint& f) {
  std::printf("%s pair: %.1f heap allocations, %.1f KB allocated, %.1f KB "
              "live\n",
              kind, f.allocations, f.allocated_bytes / 1000.0,
              f.live_bytes / 1000.0);
}

// Every socket builds a registry, so an empty one must cost nothing (a
// libstdc++ std::deque member, for one, allocates when constructed).
TEST(Footprint, EmptyRegistryAllocatesNothing) {
  const std::uint64_t before = g_allocations;
  metrics::Registry registry;
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(registry.counters().size(), 0u);
}

const simnet::HardwareProfile kProfile =
    simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling();

TEST(Footprint, MuxedPairStaysWithinAllocationBudget) {
  Simulation sim(kProfile, 1, /*carry_payload=*/true);
  // Declared after `sim`, so the groups die before the sockets.
  MuxOptions mopts;
  mopts.width = 8;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);
  const Footprint f =
      PerPair([&] { sim.CreateMuxedPair(g0, g1, TokenStreams()); });
  Report("muxed", f);
  EXPECT_LE(f.allocations, kMaxAllocationsPerMuxedPair);
  EXPECT_GT(f.allocations, 0);
}

TEST(Footprint, ClassicPair) {
  Simulation sim(kProfile, 1, /*carry_payload=*/true);
  const Footprint f = PerPair(
      [&] { sim.CreateConnectedPair(SocketType::kStream, TokenStreams()); });
  Report("classic", f);
  EXPECT_GT(f.allocations, 0);
}

}  // namespace
}  // namespace exs
