// The many-stream server engine: SRQ sharing at the verbs layer, the
// shared indirect buffer pool and its watermark hysteresis, SRQ-backed
// control-slot reservations, the fair progress engine (DRR + bounded work
// per tick), and the acceptor's admission control — ending with an
// end-to-end accept/transfer/reclaim cycle checked by the pool
// conservation validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/pattern.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/buffer_pool.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/engine/srq_pool.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "verbs/queue_pair.hpp"
#include "verbs/srq.hpp"

namespace exs::engine {
namespace {

using simnet::HardwareProfile;

// ---------------------------------------------------------------------------
// Verbs layer: SharedReceiveQueue.
// ---------------------------------------------------------------------------

class SrqTest : public ::testing::Test {
 protected:
  SrqTest()
      : fabric_(HardwareProfile::FdrInfiniBand(), 11),
        dev0_(fabric_, 0),
        dev1_(fabric_, 1),
        send_cq0_(dev0_.CreateCompletionQueue()),
        recv_cq0_(dev0_.CreateCompletionQueue()),
        recv_cq1a_(dev1_.CreateCompletionQueue()),
        recv_cq1b_(dev1_.CreateCompletionQueue()),
        sender_a_(dev0_, *send_cq0_, *recv_cq0_),
        sender_b_(dev0_, *send_cq0_, *recv_cq0_),
        receiver_a_(dev1_, *recv_cq1a_, *recv_cq1a_),
        receiver_b_(dev1_, *recv_cq1b_, *recv_cq1b_),
        srq_(dev1_) {
    receiver_a_.SetSharedReceiveQueue(&srq_);
    receiver_b_.SetSharedReceiveQueue(&srq_);
    verbs::QueuePair::ConnectPair(sender_a_, receiver_a_);
    verbs::QueuePair::ConnectPair(sender_b_, receiver_b_);
  }

  static verbs::Sge MakeSge(const void* addr, std::uint32_t len,
                            std::uint32_t key) {
    return verbs::Sge{reinterpret_cast<std::uint64_t>(addr), len, key};
  }

  void SendOn(verbs::QueuePair& qp, const void* buf, std::uint32_t len,
              std::uint32_t lkey) {
    verbs::SendWorkRequest wr;
    wr.wr_id = next_wr_id_++;
    wr.opcode = verbs::Opcode::kSend;
    wr.sge = MakeSge(buf, len, lkey);
    qp.PostSend(wr);
  }

  simnet::Fabric fabric_;
  verbs::Device dev0_, dev1_;
  std::unique_ptr<verbs::CompletionQueue> send_cq0_, recv_cq0_, recv_cq1a_,
      recv_cq1b_;
  verbs::QueuePair sender_a_, sender_b_, receiver_a_, receiver_b_;
  verbs::SharedReceiveQueue srq_;
  std::uint64_t next_wr_id_ = 100;
};

TEST_F(SrqTest, QueuePairsDrainOneSharedPool) {
  std::vector<std::uint8_t> src(256), dst(4 * 256, 0);
  FillPattern(src.data(), src.size(), 0, 9);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  for (std::uint64_t slot = 0; slot < 4; ++slot) {
    srq_.PostRecv({.wr_id = slot,
                   .sge = MakeSge(dst.data() + slot * 256, 256,
                                  dst_mr->lkey())});
  }
  EXPECT_EQ(srq_.PostedRecvCount(), 4u);
  EXPECT_EQ(receiver_a_.PostedRecvCount(), 4u);  // the SRQ view

  // Two messages on each attached QP: all four draw from the one pool.
  SendOn(sender_a_, src.data(), 256, src_mr->lkey());
  SendOn(sender_b_, src.data(), 256, src_mr->lkey());
  SendOn(sender_a_, src.data(), 256, src_mr->lkey());
  SendOn(sender_b_, src.data(), 256, src_mr->lkey());
  fabric_.scheduler().Run();

  EXPECT_EQ(srq_.PostedRecvCount(), 0u);
  EXPECT_EQ(srq_.TotalPosted(), 4u);
  EXPECT_EQ(srq_.TotalConsumed(), 4u);
  EXPECT_EQ(receiver_a_.stats().srq_recvs_consumed, 2u);
  EXPECT_EQ(receiver_b_.stats().srq_recvs_consumed, 2u);

  // Completions land on each QP's own CQ even though the buffers are
  // shared, and every arrival landed in a distinct slot.
  verbs::WorkCompletion wc;
  int completions = 0;
  while (recv_cq1a_->Poll(&wc)) {
    EXPECT_EQ(wc.status, verbs::WcStatus::kSuccess);
    ++completions;
  }
  while (recv_cq1b_->Poll(&wc)) {
    EXPECT_EQ(wc.status, verbs::WcStatus::kSuccess);
    ++completions;
  }
  EXPECT_EQ(completions, 4);
  for (int slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(VerifyPattern(dst.data() + slot * 256, 256, 0, 9), 256u)
        << "slot " << slot;
  }
}

TEST_F(SrqTest, EmptyPoolIsReceiverNotReady) {
  std::vector<std::uint8_t> src(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  SendOn(sender_a_, src.data(), 64, src_mr->lkey());
  fabric_.scheduler().Run();
  EXPECT_EQ(receiver_a_.stats().rnr_errors, 1u);
  EXPECT_EQ(srq_.EmptyPops(), 1u);
  EXPECT_EQ(srq_.TotalConsumed(), 0u);
}

TEST_F(SrqTest, PrivatePostRecvOnAttachedQpIsRefused) {
  std::vector<std::uint8_t> buf(64);
  auto mr = dev1_.RegisterMemory(buf.data(), buf.size());
  EXPECT_THROW(receiver_a_.PostRecv(
                   {.wr_id = 1, .sge = MakeSge(buf.data(), 64, mr->lkey())}),
               InvariantViolation);
}

TEST_F(SrqTest, UnregisteredSrqBufferIsRefused) {
  std::vector<std::uint8_t> buf(64);
  EXPECT_THROW(srq_.PostRecv({.wr_id = 1, .sge = MakeSge(buf.data(), 64, 0)}),
               InvariantViolation);
}

// ---------------------------------------------------------------------------
// BufferPool: carving, exhaustion, watermark hysteresis, reclaim.
// ---------------------------------------------------------------------------

struct PoolHarness {
  simnet::Fabric fabric{HardwareProfile::FdrInfiniBand(), 12};
  verbs::Device device{fabric, 1};
};

TEST(BufferPoolTest, LeasesAreDisjointCarvesOfOneSlab) {
  PoolHarness h;
  metrics::Registry registry;
  BufferPool pool(h.device, {.pool_bytes = 4 * 4096, .lease_bytes = 4096},
                  &registry);
  std::vector<RingLease> leases;
  for (int i = 0; i < 4; ++i) {
    leases.push_back(pool.Acquire());
    ASSERT_TRUE(leases.back().valid());
    EXPECT_EQ(leases.back().bytes(), 4096u);
  }
  // All carves come from one registration and never overlap.
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].mr(), leases[0].mr());
    for (std::size_t j = i + 1; j < leases.size(); ++j) {
      bool disjoint = leases[i].mem() + 4096 <= leases[j].mem() ||
                      leases[j].mem() + 4096 <= leases[i].mem();
      EXPECT_TRUE(disjoint) << "leases " << i << " and " << j << " overlap";
    }
  }
  EXPECT_EQ(pool.BytesLeased(), 4u * 4096);
  EXPECT_EQ(pool.LeasesActive(), 4u);

  // Exhausted: the next acquire fails rather than oversubscribing.
  EXPECT_FALSE(pool.Acquire().valid());

  leases[1].Release();
  EXPECT_EQ(pool.LeasesActive(), 3u);
  EXPECT_EQ(pool.LeasesReclaimed(), 1u);
  RingLease again = pool.Acquire();
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.mem(), leases[1].mem());  // the freed carve is reused

  // Each lease count has one store, read through its getter and its name.
  const auto& counters = registry.counters();
  EXPECT_EQ(pool.LeasesGranted(), 5u);
  EXPECT_EQ(counters.at("pool.leases_granted").instrument->value(),
            pool.LeasesGranted());
  EXPECT_EQ(counters.at("pool.leases_reclaimed").instrument->value(),
            pool.LeasesReclaimed());
}

TEST(BufferPoolTest, WatermarkHysteresisGatesAdmission) {
  PoolHarness h;
  BufferPool pool(h.device, {.pool_bytes = 10 * 1024,
                             .lease_bytes = 1024,
                             .high_watermark = 0.9,
                             .low_watermark = 0.7});
  std::vector<RingLease> leases;
  for (int i = 0; i < 8; ++i) leases.push_back(pool.Acquire());
  EXPECT_TRUE(pool.AdmissionOpen());  // fill 0.8, below high
  leases.push_back(pool.Acquire());
  EXPECT_FALSE(pool.AdmissionOpen());  // fill 0.9 closed admission

  // Hysteresis: dropping just below high does not reopen...
  leases.back().Release();
  leases.pop_back();
  EXPECT_FALSE(pool.AdmissionOpen());  // fill 0.8, still closed
  // ...only crossing back under the low watermark does.
  leases.back().Release();
  leases.pop_back();
  EXPECT_TRUE(pool.AdmissionOpen());  // fill 0.7 reopened
  EXPECT_EQ(pool.PeakBytesLeased(), 9u * 1024);
}

TEST(BufferPoolTest, ReleaseIsIdempotent) {
  PoolHarness h;
  BufferPool pool(h.device, {.pool_bytes = 2 * 1024, .lease_bytes = 1024});
  RingLease lease = pool.Acquire();
  lease.Release();
  EXPECT_EQ(pool.LeasesReclaimed(), 1u);
  lease.Release();  // the consumed closure cannot refund a second time
  EXPECT_EQ(pool.LeasesReclaimed(), 1u);
  EXPECT_EQ(pool.LeasesActive(), 0u);
}

TEST(BufferPoolTest, DroppedLeaseReturnsItsCarve) {
  // RAII: a lease destroyed without ever reaching EOF+drain (aborted
  // stream, server churn) hands its carve back instead of stranding it.
  PoolHarness h;
  BufferPool pool(h.device, {.pool_bytes = 2 * 1024, .lease_bytes = 1024});
  { RingLease lease = pool.Acquire(); }
  EXPECT_EQ(pool.LeasesActive(), 0u);
  EXPECT_EQ(pool.LeasesReclaimed(), 1u);
}

TEST(BufferPoolTest, SocketTeardownBeforeEofReturnsTheLease) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 18, true);
  BufferPool pool(sim.device(1),
                  {.pool_bytes = 2 * 16 * 1024, .lease_bytes = 16 * 1024});
  StreamOptions options;
  options.credits = 8;
  {
    SocketWiring wiring;
    wiring.ring_lease = pool.Acquire();
    Socket socket(sim.device(1), SocketType::kStream, options, "aborted",
                  std::move(wiring));
    EXPECT_EQ(pool.LeasesActive(), 1u);
  }
  // No EOF, no drain, no explicit release: the receiver's lease is RAII,
  // so the pool cannot monotonically shrink under connection churn.
  EXPECT_EQ(pool.LeasesActive(), 0u);
  EXPECT_EQ(pool.LeasesReclaimed(), 1u);
}

TEST(BufferPoolTest, ReleaseAfterPoolDestructionIsANoOp) {
  // Accepted sockets routinely outlive the acceptor that owns the pool;
  // their EOF/teardown release must degrade to a no-op, exactly like the
  // ControlSlotSource liveness rule for the credit refund.
  PoolHarness h;
  RingLease survivor;
  {
    BufferPool pool(h.device, {.pool_bytes = 1024, .lease_bytes = 1024});
    survivor = pool.Acquire();
    ASSERT_TRUE(survivor.valid());
  }
  survivor.Release();  // pool is gone: guarded by the liveness token
  SUCCEED();           // and the survivor's own destructor is equally safe
}

// ---------------------------------------------------------------------------
// ControlSlotPool: reservation accounting over one SRQ.
// ---------------------------------------------------------------------------

TEST(ControlSlotPoolTest, ReservationsBoundAdmission) {
  PoolHarness h;
  ControlSlotPool slots(h.device, 8);
  EXPECT_EQ(slots.total_slots(), 8u);
  EXPECT_EQ(slots.srq().PostedRecvCount(), 8u);  // all posted up front
  EXPECT_TRUE(slots.CanReserve(8));
  EXPECT_TRUE(slots.ReserveSlots(6));
  EXPECT_EQ(slots.reserved_slots(), 6u);
  EXPECT_FALSE(slots.CanReserve(3));
  EXPECT_TRUE(slots.CanReserve(2));
  EXPECT_FALSE(slots.ReserveSlots(3));  // refused, accounting unchanged
  EXPECT_EQ(slots.reserved_slots(), 6u);
  slots.UnreserveSlots(6);
  EXPECT_EQ(slots.reserved_slots(), 0u);
  EXPECT_TRUE(slots.CanReserve(8));
}

TEST(ControlSlotPoolTest, SlotsAreDistinctAndRepostable) {
  PoolHarness h;
  ControlSlotPool slots(h.device, 4);
  EXPECT_NE(slots.SlotMem(0), nullptr);
  EXPECT_NE(slots.SlotMem(1), slots.SlotMem(0));
  EXPECT_THROW(slots.SlotMem(4), InvariantViolation);
  std::size_t before = slots.srq().PostedRecvCount();
  slots.RepostSlot(0);  // recycle after consumption: additive on the pool
  EXPECT_EQ(slots.srq().PostedRecvCount(), before + 1);
}

// ---------------------------------------------------------------------------
// ProgressEngine: readiness, DRR fairness, bounded ticks.
// ---------------------------------------------------------------------------

struct EngineHarness {
  Simulation sim{HardwareProfile::FdrInfiniBand(), 13, true};
  ProgressEngine engine{sim.fabric().node(1).cpu(), ProgressEngineOptions{}};

  std::pair<Socket*, Socket*> Pair() {
    return sim.CreateConnectedPair(SocketType::kStream);
  }
};

Event FakeEvent(std::uint64_t id) {
  return Event{EventType::kRecvComplete, id, 1, false};
}

TEST(ProgressEngineTest, DispatchesEventsOfRegisteredSockets) {
  EngineHarness h;
  auto [client, server] = h.Pair();
  std::vector<std::uint8_t> out(32 * 1024), in(32 * 1024);
  FillPattern(out.data(), out.size(), 0, 21);

  std::uint64_t received = 0;
  h.engine.Register(server, [&](Socket& s, const Event& ev) {
    EXPECT_EQ(&s, server);
    if (ev.type == EventType::kRecvComplete) received += ev.bytes;
  });
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  h.sim.Run();

  EXPECT_EQ(received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 21), in.size());
  EXPECT_GE(h.engine.TicksRun(), 1u);
  EXPECT_GT(h.engine.EventsDispatched(), 0u);
  EXPECT_EQ(h.engine.ReadyCount(), 0u);  // drained at quiescence
}

TEST(ProgressEngineTest, DeficitRoundRobinInterleavesBusySockets) {
  EngineHarness h;
  auto [c0, busy] = h.Pair();
  auto [c1, trickle] = h.Pair();
  (void)c0;
  (void)c1;

  std::vector<const Socket*> order;
  auto record = [&](Socket& s, const Event&) { order.push_back(&s); };
  h.engine.Register(busy, record);
  h.engine.Register(trickle, record);

  // A firehose queue and a short queue, made ready back to back.
  for (std::uint64_t i = 0; i < 24; ++i) busy->events().Push(FakeEvent(i));
  for (std::uint64_t i = 0; i < 4; ++i) trickle->events().Push(FakeEvent(i));
  h.sim.Run();

  ASSERT_EQ(order.size(), 28u);
  // DRR with quantum 4: the trickle socket's 4 events are all served
  // within the first 12 dispatches — the firehose cannot starve it.
  std::size_t trickle_served =
      std::count(order.begin(), order.begin() + 12, trickle);
  EXPECT_EQ(trickle_served, 4u);
}

TEST(ProgressEngineTest, WorkPerTickIsBounded) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 14, true);
  ProgressEngineOptions opts;
  opts.max_events_per_tick = 8;
  ProgressEngine engine(sim.fabric().node(1).cpu(), opts);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  (void)client;

  std::size_t dispatched = 0;
  engine.Register(server, [&](Socket&, const Event&) { ++dispatched; });
  for (std::uint64_t i = 0; i < 32; ++i) server->events().Push(FakeEvent(i));
  sim.Run();

  EXPECT_EQ(dispatched, 32u);
  EXPECT_GE(engine.TicksRun(), 4u);  // at most 8 events per tick
}

TEST(ProgressEngineTest, SchedulingInstrumentsRecordTicksAndDelays) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 14, true);
  metrics::Registry reg;
  ProgressEngineOptions opts;
  opts.tick_overhead = Microseconds(1);
  opts.per_event_cpu = Microseconds(0.5);
  ProgressEngine engine(sim.fabric().node(1).cpu(), opts, &reg);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  (void)client;

  std::size_t dispatched = 0;
  engine.Register(server, [&](Socket&, const Event&) { ++dispatched; });
  for (std::uint64_t i = 0; i < 16; ++i) server->events().Push(FakeEvent(i));
  sim.Run();
  ASSERT_EQ(dispatched, 16u);

  // The engine-level histograms: one tick_duration entry per tick, one
  // sched_delay entry per serve, both in picoseconds.
  const auto& hists = reg.histograms();
  ASSERT_TRUE(hists.count("engine.tick_duration"));
  const metrics::Histogram& ticks = *hists.at("engine.tick_duration").instrument;
  EXPECT_EQ(ticks.count(), engine.TicksRun());
  EXPECT_GE(ticks.min(), static_cast<std::uint64_t>(Microseconds(1)));
  ASSERT_TRUE(hists.count("engine.sched_delay"));
  EXPECT_GT(hists.at("engine.sched_delay").instrument->count(), 0u);

  // The per-socket mirror (the per-DRR-queue HoL view) lands in the
  // socket's own registry, next to its other instruments.
  const auto& socket_hists = server->metrics_registry().histograms();
  ASSERT_TRUE(socket_hists.count("engine.sched_delay"));
  EXPECT_GT(socket_hists.at("engine.sched_delay").instrument->count(), 0u);

  // The engine's counts have one store each, read through the getter and
  // the registry name alike; a second engine cannot claim the same names.
  const auto& counters = reg.counters();
  EXPECT_EQ(engine.EventsDispatched(), 16u);
  EXPECT_EQ(counters.at("engine.events_dispatched").instrument->value(),
            engine.EventsDispatched());
  EXPECT_EQ(counters.at("engine.ticks").instrument->value(),
            engine.TicksRun());
  EXPECT_THROW(ProgressEngine(sim.fabric().node(1).cpu(), opts, &reg),
               InvariantViolation);
}

TEST(ProgressEngineTest, UnregisterLeavesEventsForDirectPolling) {
  EngineHarness h;
  auto [client, server] = h.Pair();
  (void)client;
  bool called = false;
  h.engine.Register(server, [&](Socket&, const Event&) { called = true; });
  h.engine.Unregister(server);
  server->events().Push(FakeEvent(1));
  h.sim.Run();
  EXPECT_FALSE(called);
  EXPECT_EQ(server->events().Depth(), 1u);  // still there for Poll()
  h.engine.Unregister(server);              // idempotent
}

TEST(ProgressEngineTest, UnregisterSelfFromInsideHandlerIsSafe) {
  // kPeerClosed-style teardown: the handler unregisters the very socket
  // being served.  Dispatch for that socket must stop before the next
  // event, with no use of the (now detached) entry afterwards.
  EngineHarness h;
  auto [client, server] = h.Pair();
  (void)client;
  int dispatched = 0;
  h.engine.Register(server, [&](Socket& s, const Event&) {
    ++dispatched;
    h.engine.Unregister(&s);
    h.engine.Unregister(&s);  // idempotent even while detached
  });
  for (std::uint64_t i = 0; i < 8; ++i) server->events().Push(FakeEvent(i));
  h.sim.Run();
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(server->events().Depth(), 7u);  // left for direct polling
  EXPECT_EQ(h.engine.RegisteredCount(), 0u);
  EXPECT_EQ(h.engine.ReadyCount(), 0u);
}

TEST(ProgressEngineTest, ReregisterFromInsideHandlerContinuesDispatch) {
  // Unregister-then-register within one handler call: the old entry dies
  // as a zombie, the fresh registration picks the queue back up.
  EngineHarness h;
  auto [client, server] = h.Pair();
  (void)client;
  int first = 0, second = 0;
  h.engine.Register(server, [&](Socket& s, const Event&) {
    ++first;
    h.engine.Unregister(&s);
    h.engine.Register(&s, [&](Socket&, const Event&) { ++second; });
  });
  for (std::uint64_t i = 0; i < 4; ++i) server->events().Push(FakeEvent(i));
  h.sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 3);
  EXPECT_EQ(server->events().Depth(), 0u);
  EXPECT_EQ(h.engine.RegisteredCount(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptor: admission control, shared wiring, reclaim, conservation.
// ---------------------------------------------------------------------------

struct ServerRig {
  explicit ServerRig(AcceptorOptions options, std::uint64_t seed = 15)
      : sim(HardwareProfile::FdrInfiniBand(), seed, true),
        engine(sim.fabric().node(1).cpu(), ProgressEngineOptions{},
               &registry),
        acceptor(sim.device(1), engine, options, &registry) {}

  Simulation sim;
  metrics::Registry registry;
  ProgressEngine engine;
  Acceptor acceptor;
};

StreamOptions SmallStreams() {
  StreamOptions options;
  options.credits = 8;
  options.intermediate_buffer_bytes = 16 * 1024;
  return options;
}

TEST(AcceptorTest, RefusesConnectionsBeyondThePool) {
  // Pool fits exactly two leased rings; the third connect is REJECTed
  // during the handshake, before any resources are committed.
  AcceptorOptions opts;
  opts.pool = {.pool_bytes = 2 * 16 * 1024, .lease_bytes = 16 * 1024};
  opts.control_slots = 64;
  ServerRig rig(opts);

  std::vector<Socket*> servers;
  Listener* listener = rig.acceptor.Listen(
      rig.sim.connections(), 4000, SmallStreams(),
      [](Socket&, const Event&) {},
      [&](Socket& s) { servers.push_back(&s); });

  std::vector<Socket*> clients;
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    rig.sim.Connect(0, 4000, SocketType::kStream, SmallStreams(),
                    [&](Socket* s) {
                      if (s == nullptr) {
                        ++rejected;
                      } else {
                        clients.push_back(s);
                      }
                    });
  }
  rig.sim.Run();

  EXPECT_EQ(servers.size(), 2u);
  EXPECT_EQ(clients.size(), 2u);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(listener->AcceptedCount(), 2u);
  EXPECT_EQ(listener->RefusedCount(), 1u);
  EXPECT_EQ(rig.acceptor.AdmissionRefusals(), 1u);
  EXPECT_EQ(rig.acceptor.pool().LeasesActive(), 2u);
  EXPECT_EQ(rig.engine.RegisteredCount(), 2u);
  EXPECT_EQ(rig.registry.counters()
                .at("pool.admission_refusals")
                .instrument->value(),
            rig.acceptor.AdmissionRefusals());
}

TEST(AcceptorTest, RefusesWhenControlSlotsExhausted) {
  AcceptorOptions opts;
  opts.pool = {.pool_bytes = 8 * 16 * 1024, .lease_bytes = 16 * 1024};
  opts.control_slots = 12;  // room for one 8-credit connection, not two
  ServerRig rig(opts, 16);

  rig.acceptor.Listen(rig.sim.connections(), 4000, SmallStreams(),
                      [](Socket&, const Event&) {});
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 2; ++i) {
    rig.sim.Connect(0, 4000, SocketType::kStream, SmallStreams(),
                    [&](Socket* s) { s ? ++accepted : ++rejected; });
  }
  rig.sim.Run();
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(rejected, 1);
  // Reservation happens at the admission point itself (atomic with the
  // check): the one accepted connection holds exactly its 8 slots and the
  // refused one left no residue.
  EXPECT_EQ(rig.acceptor.control_slots().reserved_slots(), 8u);
}

TEST(AcceptorTest, UnregisterOnPeerClosedInsideHandlerStillReclaims) {
  // The reviewer-facing teardown idiom: the event handler unregisters its
  // socket the moment kPeerClosed arrives.  This must neither crash the
  // engine's dispatch loop nor leak the ring lease — the stream itself
  // releases at EOF, independent of the engine's reap.
  AcceptorOptions opts;
  opts.pool = {.pool_bytes = 2 * 16 * 1024, .lease_bytes = 16 * 1024};
  opts.control_slots = 64;
  ServerRig rig(opts, 19);

  std::vector<std::uint8_t> in(1024);
  std::uint64_t received = 0;
  rig.acceptor.Listen(
      rig.sim.connections(), 4000, SmallStreams(),
      [&](Socket& s, const Event& ev) {
        if (ev.type == EventType::kRecvComplete) received += ev.bytes;
        if (ev.type == EventType::kPeerClosed) rig.engine.Unregister(&s);
      },
      [&](Socket& s) {
        s.Recv(in.data(), in.size(), RecvFlags{.waitall = true});
      });

  Socket* client = nullptr;
  rig.sim.Connect(0, 4000, SocketType::kStream, SmallStreams(),
                  [&](Socket* s) { client = s; });
  rig.sim.Run();
  ASSERT_NE(client, nullptr);

  std::vector<std::uint8_t> out(1024, 7);
  client->Send(out.data(), out.size());
  client->Close();
  rig.sim.Run();

  EXPECT_EQ(received, out.size());
  EXPECT_EQ(rig.engine.RegisteredCount(), 0u);
  EXPECT_EQ(rig.acceptor.pool().LeasesActive(), 0u);
  EXPECT_EQ(rig.acceptor.pool().LeasesReclaimed(), 1u);
}

TEST(AcceptorTest, AcceptedSocketsTransferOverSharedResources) {
  constexpr int kStreams = 4;
  constexpr std::uint64_t kLease = 16 * 1024;
  constexpr std::uint64_t kBytes = 64 * 1024;
  AcceptorOptions opts;
  opts.pool = {.pool_bytes = kStreams * kLease, .lease_bytes = kLease};
  // Slot reservations live as long as the socket (a closed peer can still
  // be sent to); leave headroom so the post-close re-accept below is
  // gated purely by ring-lease reclaim.
  opts.control_slots = (kStreams + 1) * 8;
  ServerRig rig(opts, 17);

  struct Sink {
    Socket* socket = nullptr;
    std::vector<std::uint8_t> data;
    std::uint64_t received = 0;
    bool eof = false;
  };
  std::vector<std::unique_ptr<Sink>> sinks;

  rig.acceptor.Listen(
      rig.sim.connections(), 4000, SmallStreams(),
      [&](Socket& s, const Event& ev) {
        for (auto& sink : sinks) {
          if (sink->socket != &s) continue;
          if (ev.type == EventType::kRecvComplete) sink->received += ev.bytes;
          if (ev.type == EventType::kPeerClosed) sink->eof = true;
        }
      },
      [&](Socket& s) {
        auto sink = std::make_unique<Sink>();
        sink->socket = &s;
        sink->data.resize(kBytes);
        s.EnableTracing();
        s.Recv(sink->data.data(), kBytes, RecvFlags{.waitall = true});
        sinks.push_back(std::move(sink));
      });

  std::vector<Socket*> clients;
  for (int i = 0; i < kStreams; ++i) {
    rig.sim.Connect(0, 4000, SocketType::kStream, SmallStreams(),
                    [&](Socket* s) {
                      ASSERT_NE(s, nullptr);
                      clients.push_back(s);
                    });
  }
  rig.sim.Run();
  ASSERT_EQ(clients.size(), static_cast<std::size_t>(kStreams));

  std::vector<std::vector<std::uint8_t>> payloads(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    payloads[i].resize(kBytes);
    FillPattern(payloads[i].data(), kBytes, 0, 40 + i);
    clients[i]->Send(payloads[i].data(), kBytes);
  }
  rig.sim.Run();

  ASSERT_EQ(sinks.size(), static_cast<std::size_t>(kStreams));
  for (int i = 0; i < kStreams; ++i) {
    EXPECT_EQ(sinks[i]->received, kBytes) << "stream " << i;
  }
  // Each sink's bytes match exactly one client's pattern (streams are
  // independent; ordering of accepts vs connects may differ).
  for (int i = 0; i < kStreams; ++i) {
    bool matched = false;
    for (int j = 0; j < kStreams; ++j) {
      if (VerifyPattern(sinks[i]->data.data(), kBytes, 0, 40 + j) == kBytes) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "sink " << i << " bytes match no client";
  }

  // The shared slab never grew with the stream count, and every stream's
  // ring occupancy stayed within its lease: the pool conservation check
  // replays the receiver traces to prove it.
  std::vector<const TraceLog*> rx_logs;
  for (const auto& sink : sinks) rx_logs.push_back(&sink->socket->rx_trace());
  PoolCheckOptions pool_opts;
  pool_opts.pool_capacity_bytes = opts.pool.pool_bytes;
  pool_opts.lease_bytes = kLease;
  InvariantReport report = CheckPoolConservation(rx_logs, pool_opts);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);

  // Orderly close reclaims every lease (reclaim-on-idle via kPeerClosed).
  for (Socket* c : clients) c->Close();
  rig.sim.Run();
  for (const auto& sink : sinks) EXPECT_TRUE(sink->eof);
  EXPECT_EQ(rig.acceptor.pool().LeasesActive(), 0u);
  EXPECT_EQ(rig.acceptor.pool().LeasesReclaimed(),
            static_cast<std::uint64_t>(kStreams));

  // The reclaimed capacity is immediately admittable again.
  int accepted_again = 0;
  rig.sim.Connect(0, 4000, SocketType::kStream, SmallStreams(),
                  [&](Socket* s) { accepted_again += (s != nullptr); });
  rig.sim.Run();
  EXPECT_EQ(accepted_again, 1);

  // Every moved count reads one value through its getter and its name.
  const auto& counters = rig.registry.counters();
  EXPECT_EQ(counters.at("pool.leases_granted").instrument->value(),
            rig.acceptor.pool().LeasesGranted());
  EXPECT_EQ(rig.acceptor.pool().LeasesGranted(),
            static_cast<std::uint64_t>(kStreams + 1));
  EXPECT_EQ(counters.at("pool.leases_reclaimed").instrument->value(),
            rig.acceptor.pool().LeasesReclaimed());
  EXPECT_EQ(counters.at("pool.admission_refusals").instrument->value(),
            rig.acceptor.AdmissionRefusals());
  EXPECT_GT(rig.engine.EventsDispatched(), 0u);
  EXPECT_EQ(counters.at("engine.events_dispatched").instrument->value(),
            rig.engine.EventsDispatched());
  EXPECT_EQ(counters.at("engine.ticks").instrument->value(),
            rig.engine.TicksRun());
}

// ---------------------------------------------------------------------------
// CheckPoolConservation: synthetic-trace positive and negative coverage.
// ---------------------------------------------------------------------------

TraceEvent PoolEv(SimTime t, TraceEventType type, std::uint64_t len) {
  TraceEvent ev;
  ev.time = t;
  ev.type = type;
  ev.len = len;
  return ev;
}

bool HasViolation(const InvariantReport& report, const std::string& needle) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(PoolConservationTest, CleanInterleavingPasses) {
  TraceLog a, b;
  a.Enable();
  b.Enable();
  a.Record(PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 512));
  b.Record(PoolEv(Microseconds(2), TraceEventType::kIndirectArrived, 512));
  a.Record(PoolEv(Microseconds(3), TraceEventType::kCopyOut, 512));
  b.Record(PoolEv(Microseconds(4), TraceEventType::kCopyOut, 512));
  InvariantReport report = CheckPoolConservation(
      {&a, &b}, {.pool_capacity_bytes = 1024, .lease_bytes = 512});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(PoolConservationTest, LeaseOverrunIsFlagged) {
  TraceLog log;
  log.Enable();
  log.Record(PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 400));
  log.Record(PoolEv(Microseconds(2), TraceEventType::kIndirectArrived, 200));
  InvariantReport report =
      CheckPoolConservation({&log}, {.pool_capacity_bytes = 4096,
                                     .lease_bytes = 512});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "exceeds its lease"));
}

TEST(PoolConservationTest, NegativeOccupancyIsFlagged) {
  TraceLog log;
  log.Enable();
  log.Record(PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 100));
  log.Record(PoolEv(Microseconds(2), TraceEventType::kCopyOut, 200));
  InvariantReport report = CheckPoolConservation({&log}, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "more than ever arrived"));
}

TEST(PoolConservationTest, AggregateOvershootAcrossStreamsIsFlagged) {
  // Each stream stays within its lease, but their sum exceeds the slab —
  // exactly the bug a shared pool with broken admission would produce.
  TraceLog a, b, c;
  for (TraceLog* log : {&a, &b, &c}) {
    log->Enable();
    log->Record(
        PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 512));
  }
  InvariantReport report = CheckPoolConservation(
      {&a, &b, &c}, {.pool_capacity_bytes = 1024, .lease_bytes = 512});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "exceeds the shared slab"));
}

TEST(PoolConservationTest, DrainsCreditFirstAtEqualTimestamps) {
  // At t=2 one stream drains 512 and another fills 512: the slab never
  // held more than 1024, and the drain-first merge order must agree.
  TraceLog a, b;
  a.Enable();
  b.Enable();
  a.Record(PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 1024));
  a.Record(PoolEv(Microseconds(2), TraceEventType::kCopyOut, 512));
  b.Record(PoolEv(Microseconds(2), TraceEventType::kIndirectArrived, 512));
  InvariantReport report = CheckPoolConservation(
      {&a, &b}, {.pool_capacity_bytes = 1024, .lease_bytes = 1024});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(PoolConservationTest, TruncatedTraceIsRefusedByDefault) {
  TraceLog log;
  log.SetCapacity(1);
  log.Enable();
  log.Record(PoolEv(Microseconds(1), TraceEventType::kIndirectArrived, 64));
  log.Record(PoolEv(Microseconds(2), TraceEventType::kCopyOut, 64));
  InvariantReport report = CheckPoolConservation({&log}, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "truncated"));
  InvariantReport lenient =
      CheckPoolConservation({&log}, {.allow_truncated = true});
  EXPECT_TRUE(lenient.ok()) << lenient.Summary();
}

// ---------------------------------------------------------------------------
// StreamTx::NextChunkLen: the single home of the §II-C chunking rule.
// ---------------------------------------------------------------------------

TEST(NextChunkLenTest, TakesTheBindingConstraint) {
  EXPECT_EQ(StreamTx::NextChunkLen(100, 1000, 1000), 100u);  // remaining
  EXPECT_EQ(StreamTx::NextChunkLen(1000, 100, 1000), 100u);  // room
  EXPECT_EQ(StreamTx::NextChunkLen(1000, 1000, 100), 100u);  // chunk cap
  EXPECT_EQ(StreamTx::NextChunkLen(7, 7, 7), 7u);
  EXPECT_EQ(StreamTx::NextChunkLen(0, 512, 512), 0u);
  EXPECT_EQ(StreamTx::NextChunkLen(512, 0, 512), 0u);
}

TEST(NextChunkLenTest, RechunkingCoversAMessageExactly) {
  // Driving the helper the way both transfer paths do: repeatedly clip
  // the remainder to the cap until the message is consumed.
  std::uint64_t remaining = 10'000;
  std::uint64_t total = 0;
  int chunks = 0;
  while (remaining > 0) {
    std::uint64_t len = StreamTx::NextChunkLen(remaining, 1 << 20, 4096);
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, 4096u);
    remaining -= len;
    total += len;
    ++chunks;
  }
  EXPECT_EQ(total, 10'000u);
  EXPECT_EQ(chunks, 3);  // 4096 + 4096 + 1808
}

}  // namespace
}  // namespace exs::engine
