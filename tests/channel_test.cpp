// The control channel's credit scheme (§II-B): the pre-posted receive pool
// bounds outstanding messages, consumed receives are recycled and credits
// returned (piggybacked or standalone), and the receiver-not-ready error
// can never fire through the EXS layer.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

/// Records every report a channel makes, with the rail and the instant.
class RecordingOwner : public ChannelEndpoint::Owner {
 public:
  struct Data {
    std::size_t rail;
    bool indirect;
    std::uint64_t len;
    verbs::ExtHeader ext;
  };
  struct Fatal {
    std::size_t rail;
    verbs::WcStatus status;
    SimTime at;
  };

  explicit RecordingOwner(simnet::EventScheduler& scheduler)
      : scheduler_(&scheduler) {}

  void OnControl(std::size_t rail, const wire::ControlMessage& msg) override {
    controls.push_back({rail, msg});
  }
  void OnData(std::size_t rail, bool indirect, std::uint64_t len,
              const verbs::ExtHeader& ext) override {
    data.push_back({rail, indirect, len, ext});
  }
  void OnDataSent(std::size_t rail, std::uint64_t wr_id) override {
    sent.push_back({rail, wr_id});
  }
  void OnReadDone(std::size_t rail, std::uint64_t, std::uint64_t) override {
    reads.push_back(rail);
  }
  void OnCreditAvailable(std::size_t rail) override {
    credits.push_back(rail);
  }
  void OnFatal(std::size_t rail, verbs::WcStatus status) override {
    fatals.push_back({rail, status, scheduler_->Now()});
  }

  std::vector<std::pair<std::size_t, wire::ControlMessage>> controls;
  std::vector<Data> data;
  std::vector<std::pair<std::size_t, std::uint64_t>> sent;
  std::vector<std::size_t> reads;
  std::vector<std::size_t> credits;
  std::vector<Fatal> fatals;

 private:
  simnet::EventScheduler* scheduler_;
};

// The endpoint contract, on two bare channels: each report reaches the
// owner once, tagged with the rail the owner attached the channel under.
TEST(ChannelTest, OwnerSeesEachEventOnceWithItsRail) {
  constexpr std::size_t kRail = 3;
  Simulation sim(HardwareProfile::FdrInfiniBand(), 7, true);
  simnet::EventScheduler& scheduler = sim.device(0).scheduler();
  RecordingOwner at_a(scheduler);
  RecordingOwner at_b(scheduler);
  // The smallest pool: the second arrival owes half of it, so the peer
  // returns both credits in a standalone CREDIT.
  ControlChannel a(sim.device(0), 4);
  ControlChannel b(sim.device(1), 4);
  a.Attach(at_a, kRail);
  b.Attach(at_b, kRail);
  ControlChannel::Connect(a, b);

  wire::ControlMessage advert;
  advert.type = static_cast<std::uint8_t>(wire::ControlType::kAdvert);
  advert.addr = 0x1000;
  advert.rkey = 9;
  advert.seq = 11;
  advert.len = 4096;
  ASSERT_TRUE(a.CanSend());
  a.SendControl(advert);

  verbs::RegisteredBuffer src(sim.device(0), 256);
  verbs::RegisteredBuffer dst(sim.device(1), 256);
  FillPattern(src.data(), src.size(), 0, 5);
  const verbs::Sge sge{reinterpret_cast<std::uint64_t>(src.data()), 256,
                       src.lkey()};
  verbs::ExtHeader ext;
  ext.has_stripe_seq = true;
  ext.stripe_seq = 17;
  ext.trace_ctx = 0xc0ffee;
  ASSERT_TRUE(a.CanSend());
  a.PostDataWwi(42, {&sge, 1}, reinterpret_cast<std::uint64_t>(dst.data()),
                dst.region().rkey(), /*indirect=*/true, ext);
  sim.Run();

  ASSERT_EQ(at_b.controls.size(), 1u);
  EXPECT_EQ(at_b.controls[0].first, kRail);
  const wire::ControlMessage& got = at_b.controls[0].second;
  EXPECT_EQ(got.type, advert.type);
  EXPECT_EQ(got.addr, advert.addr);
  EXPECT_EQ(got.rkey, advert.rkey);
  EXPECT_EQ(got.seq, advert.seq);
  EXPECT_EQ(got.len, advert.len);

  ASSERT_EQ(at_b.data.size(), 1u);
  EXPECT_EQ(at_b.data[0].rail, kRail);
  EXPECT_TRUE(at_b.data[0].indirect);
  EXPECT_EQ(at_b.data[0].len, 256u);
  EXPECT_TRUE(at_b.data[0].ext.has_stripe_seq);
  EXPECT_EQ(at_b.data[0].ext.stripe_seq, 17u);
  EXPECT_EQ(at_b.data[0].ext.trace_ctx, 0xc0ffeeu);
  EXPECT_FALSE(at_b.data[0].ext.has_mux);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 256), 0);

  ASSERT_EQ(at_a.sent.size(), 1u);
  EXPECT_EQ(at_a.sent[0], std::make_pair(kRail, std::uint64_t{42}));
  // The CREDIT message is absorbed, and control sends complete unreported.
  EXPECT_GE(b.credit_messages_sent(), 1u);
  ASSERT_FALSE(at_a.credits.empty());
  for (std::size_t rail : at_a.credits) EXPECT_EQ(rail, kRail);
  EXPECT_TRUE(at_a.controls.empty());
  EXPECT_TRUE(at_a.data.empty());
  EXPECT_TRUE(at_b.sent.empty());
  EXPECT_TRUE(at_a.reads.empty() && at_b.reads.empty());
  EXPECT_TRUE(at_a.fatals.empty() && at_b.fatals.empty());

  const SimTime killed_at = scheduler.Now();
  ASSERT_TRUE(a.Kill());
  ASSERT_EQ(at_a.fatals.size(), 1u);
  EXPECT_EQ(at_a.fatals[0].rail, kRail);
  EXPECT_EQ(at_a.fatals[0].status, verbs::WcStatus::kWrFlushError);
  EXPECT_EQ(at_a.fatals[0].at, killed_at);
  EXPECT_FALSE(a.Kill());
  sim.Run();
  EXPECT_EQ(at_a.fatals.size(), 1u);
  ASSERT_EQ(at_b.fatals.size(), 1u);
  EXPECT_EQ(at_b.fatals[0].rail, kRail);
  EXPECT_EQ(at_b.fatals[0].at, killed_at + a.AckReturnDelay());
  EXPECT_FALSE(b.Kill());
  EXPECT_EQ(at_a.fatals.size(), 1u);
  EXPECT_EQ(at_b.fatals.size(), 1u);
}

TEST(ChannelTest, TinyCreditPoolStillDeliversEverything) {
  // With only a handful of credits, the sender must repeatedly stall on
  // credit returns; correctness must be unaffected and no RNR can occur.
  StreamOptions opts;
  opts.credits = 4;  // minimum viable pool
  opts.max_wwi_chunk = 2 * 1024;  // many chunks -> many credits consumed
  Simulation sim(HardwareProfile::FdrInfiniBand(), 2, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  constexpr std::uint64_t kTotal = 128 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, 7);

  client->Send(out.data(), kTotal);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim.Run();

  EXPECT_EQ(server->stats().bytes_received, kTotal);
  EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 7), kTotal);
  EXPECT_EQ(client->rail(0).qp_stats().rnr_errors, 0u);
  EXPECT_EQ(server->rail(0).qp_stats().rnr_errors, 0u);
}

TEST(ChannelTest, CreditsAreConservedAtQuiescence) {
  StreamOptions opts;
  opts.credits = 16;
  Simulation sim(HardwareProfile::FdrInfiniBand(), 3, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  for (int round = 0; round < 5; ++round) {
    client->Send(out.data(), 8 * 1024);
    server->Recv(in.data(), 8 * 1024, RecvFlags{.waitall = true});
    sim.Run();
  }
  // All traffic acknowledged: both sides should have their full view of
  // the peer's pool back (allowing credits still owed but unreported).
  EXPECT_GE(client->rail(0).remote_credits() , opts.credits / 2);
  EXPECT_GE(server->rail(0).remote_credits(), opts.credits / 2);
  EXPECT_LE(client->rail(0).remote_credits(), opts.credits);
  EXPECT_LE(server->rail(0).remote_credits(), opts.credits);
}

TEST(ChannelTest, StandaloneCreditMessagesFlowWhenTrafficIsOneSided) {
  // A long one-directional indirect stream: the client consumes server
  // receives with data WWIs while the server's control traffic (ACKs) is
  // sparse relative to chunk count, so the server must eventually return
  // credits with standalone CREDIT messages.
  StreamOptions opts;
  opts.credits = 8;
  opts.max_wwi_chunk = 1024;
  opts.mode = ProtocolMode::kIndirectOnly;
  opts.ack_threshold_bytes = 1 * kMiB;  // suppress ACK piggybacking
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, 8);
  client->Send(out.data(), kTotal);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 8), kTotal);
  EXPECT_GT(server->rail(0).credit_messages_sent(), 0u);
}

TEST(ChannelTest, TooSmallPoolIsRejected) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, true);
  StreamOptions opts;
  opts.credits = 2;
  EXPECT_THROW(Socket(sim.device(0), SocketType::kStream, opts, "x"),
               InvariantViolation);
}

TEST(ChannelTest, ControlTrafficCountsAppearInQpStats) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 6, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(4 * 1024), in(4 * 1024);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(20));
  client->Send(out.data(), out.size());
  sim.Run();

  // Server sent at least one ADVERT; client sent exactly one data WWI.
  EXPECT_GE(server->rail(0).qp_stats().sends_posted, 1u);
  EXPECT_GE(client->rail(0).qp_stats().sends_posted, 1u);
  EXPECT_GE(client->rail(0).qp_stats().payload_bytes_sent, 4096u);
  // Wire accounting includes header overhead.
  EXPECT_GT(client->rail(0).qp_stats().wire_bytes_sent,
            client->rail(0).qp_stats().payload_bytes_sent);
}

}  // namespace
}  // namespace exs
