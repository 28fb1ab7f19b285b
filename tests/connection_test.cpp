// Connection establishment over the wire: the listen/connect/accept
// handshake (REQ/REP/RTU), its timing, rejection, concurrency, and the
// readiness rules (client usable at REP, server delivered at RTU).
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

TEST(ConnectionTest, HandshakeEstablishesWorkingStream) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, true);
  Listener* listener = sim.Listen(1, 4000, SocketType::kStream);

  Socket* server = nullptr;
  listener->SetAcceptHandler([&](Socket* s) { server = s; });
  Socket* client = nullptr;
  sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
              [&](Socket* s) { client = s; });
  sim.Run();

  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(listener->AcceptedCount(), 1u);

  std::vector<std::uint8_t> out(8192), in(8192);
  FillPattern(out.data(), out.size(), 0, 3);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  sim.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 3), in.size());
}

TEST(ConnectionTest, HandshakeTakesAtLeastOneRoundTrip) {
  Simulation sim(HardwareProfile::RoCE10GWithDelay(Milliseconds(24)), 2,
                 false);
  sim.Listen(1, 4000, SocketType::kStream);
  SimTime connected_at = -1;
  sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
              [&](Socket* s) {
                ASSERT_NE(s, nullptr);
                connected_at = sim.Now();
              });
  sim.Run();
  // REQ out (24 ms) + REP back (24 ms): the client cannot learn of the
  // acceptance in less than the full round trip.
  EXPECT_GE(connected_at, Milliseconds(48));
}

TEST(ConnectionTest, ConnectToUnboundPortIsRejected) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 3, false);
  bool called = false;
  Socket* result = reinterpret_cast<Socket*>(1);
  sim.Connect(0, 9999, SocketType::kStream, StreamOptions{},
              [&](Socket* s) {
                called = true;
                result = s;
              });
  sim.Run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result, nullptr);
}

TEST(ConnectionTest, TypeMismatchIsRejected) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, false);
  sim.Listen(1, 4000, SocketType::kSeqPacket);
  Socket* result = reinterpret_cast<Socket*>(1);
  sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
              [&](Socket* s) { result = s; });
  sim.Run();
  EXPECT_EQ(result, nullptr);
}

TEST(ConnectionTest, SocketRefusesIoBeforeEstablishment) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, false);
  sim.Listen(1, 4000, SocketType::kStream);
  Socket* client = sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
                               [](Socket*) {});
  std::vector<std::uint8_t> buf(64);
  // The handshake has not run (no simulated time has passed).
  EXPECT_THROW(client->Send(buf.data(), buf.size()), InvariantViolation);
  sim.Run();
  client->Send(buf.data(), buf.size());  // now fine
  sim.Run();
}

TEST(ConnectionTest, DuplicateListenThrows) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 6, false);
  sim.Listen(1, 4000, SocketType::kStream);
  EXPECT_THROW(sim.Listen(1, 4000, SocketType::kStream), InvariantViolation);
  // Same port on the other node is a different binding.
  sim.Listen(0, 4000, SocketType::kStream);
}

TEST(ConnectionTest, ManyConcurrentHandshakes) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 7, true);
  Listener* listener = sim.Listen(1, 4000, SocketType::kStream);
  std::vector<Socket*> servers, clients;
  listener->SetAcceptHandler([&](Socket* s) { servers.push_back(s); });
  constexpr int kConnections = 8;
  for (int i = 0; i < kConnections; ++i) {
    sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
                [&](Socket* s) {
                  ASSERT_NE(s, nullptr);
                  clients.push_back(s);
                });
  }
  sim.Run();
  ASSERT_EQ(clients.size(), static_cast<std::size_t>(kConnections));
  ASSERT_EQ(servers.size(), static_cast<std::size_t>(kConnections));
  EXPECT_EQ(sim.connections().ActiveHandshakes(), 0u);

  // Each connection is an independent byte stream.
  std::vector<std::vector<std::uint8_t>> outs(kConnections),
      ins(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    outs[i].resize(4096);
    ins[i].resize(4096);
    FillPattern(outs[i].data(), 4096, 0, 100 + i);
    servers[i]->Recv(ins[i].data(), 4096, RecvFlags{.waitall = true});
    clients[i]->Send(outs[i].data(), 4096);
  }
  sim.Run();
  for (int i = 0; i < kConnections; ++i) {
    EXPECT_EQ(VerifyPattern(ins[i].data(), 4096, 0, 100 + i), 4096u)
        << "connection " << i;
  }
}

TEST(ConnectionTest, BacklogHoldsAcceptsUntilHandlerInstalled) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 8, false);
  Listener* listener = sim.Listen(1, 4000, SocketType::kStream);
  sim.Connect(0, 4000, SocketType::kStream, StreamOptions{}, [](Socket*) {});
  sim.Run();
  EXPECT_EQ(listener->AcceptedCount(), 1u);

  Socket* server = nullptr;
  listener->SetAcceptHandler([&](Socket* s) { server = s; });
  EXPECT_NE(server, nullptr);  // delivered from the backlog immediately
}

TEST(ConnectionTest, ClientCanSendImmediatelyAfterCallback) {
  // Data posted the instant the client learns of acceptance must not
  // outrun the server's RTU (in-order delivery guarantees it arrives
  // after the server half is ready).
  Simulation sim(HardwareProfile::FdrInfiniBand(), 9, true);
  Listener* listener = sim.Listen(1, 4000, SocketType::kStream);
  std::vector<std::uint8_t> out(2048), in(2048);
  FillPattern(out.data(), out.size(), 0, 77);
  Socket* server = nullptr;
  std::uint64_t received = 0;
  listener->SetAcceptHandler([&](Socket* s) {
    server = s;
    s->events().SetHandler([&](const Event& ev) { received += ev.bytes; });
    s->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  });
  sim.Connect(0, 4000, SocketType::kStream, StreamOptions{},
              [&](Socket* client) {
                ASSERT_NE(client, nullptr);
                client->Send(out.data(), out.size());
              });
  sim.Run();
  EXPECT_EQ(received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 77), in.size());
}

TEST(ConnectionTest, SeqPacketHandshake) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 10, true);
  Listener* listener = sim.Listen(1, 5000, SocketType::kSeqPacket);
  Socket* server = nullptr;
  listener->SetAcceptHandler([&](Socket* s) { server = s; });
  Socket* client = nullptr;
  sim.Connect(0, 5000, SocketType::kSeqPacket, StreamOptions{},
              [&](Socket* s) { client = s; });
  sim.Run();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::vector<std::uint8_t> out(512), in(512);
  FillPattern(out.data(), out.size(), 0, 88);
  server->Recv(in.data(), in.size());
  sim.RunFor(Microseconds(20));
  client->Send(out.data(), out.size());
  sim.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 88), in.size());
}

}  // namespace
}  // namespace exs
