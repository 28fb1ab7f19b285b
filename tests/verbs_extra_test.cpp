// Deeper verbs coverage: multiple queue pairs sharing one link, work-
// request pipelining, zero-length receives, registration lifecycle,
// accounting, and the extension header a data WWI carries (natively and
// under legacy-iWARP WWI emulation).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "verbs/queue_pair.hpp"

namespace exs::verbs {
namespace {

struct Endpoint {
  explicit Endpoint(Device& dev)
      : send_cq(dev.CreateCompletionQueue()),
        recv_cq(dev.CreateCompletionQueue()) {}
  std::unique_ptr<CompletionQueue> send_cq;
  std::unique_ptr<CompletionQueue> recv_cq;
  std::unique_ptr<QueuePair> qp;
};

class VerbsExtraTest : public ::testing::Test {
 protected:
  VerbsExtraTest()
      : fabric_(simnet::HardwareProfile::FdrInfiniBand(), 9),
        dev0_(fabric_, 0),
        dev1_(fabric_, 1),
        iwarp_fabric_(simnet::HardwareProfile::Iwarp10G(), 9),
        iwarp0_(iwarp_fabric_, 0),
        iwarp1_(iwarp_fabric_, 1) {}

  std::pair<Endpoint*, Endpoint*> MakeConnectedPair() {
    return MakeConnectedPair(dev0_, dev1_);
  }

  std::pair<Endpoint*, Endpoint*> MakeConnectedPair(Device& d0, Device& d1) {
    auto a = std::make_unique<Endpoint>(d0);
    auto b = std::make_unique<Endpoint>(d1);
    a->qp = std::make_unique<QueuePair>(d0, *a->send_cq, *a->recv_cq);
    b->qp = std::make_unique<QueuePair>(d1, *b->send_cq, *b->recv_cq);
    QueuePair::ConnectPair(*a->qp, *b->qp);
    endpoints_.push_back(std::move(a));
    endpoints_.push_back(std::move(b));
    return {endpoints_[endpoints_.size() - 2].get(),
            endpoints_.back().get()};
  }

  static Sge MakeSge(const void* addr, std::uint32_t len, std::uint32_t k) {
    return Sge{reinterpret_cast<std::uint64_t>(addr), len, k};
  }

  /// A 128-byte WWI from `src` into `dst`, carrying no extension.
  static SendWorkRequest PlainWwi(const std::vector<std::uint8_t>& src,
                                  const MemoryRegion& src_mr,
                                  const std::vector<std::uint8_t>& dst,
                                  const MemoryRegion& dst_mr) {
    SendWorkRequest wr;
    wr.wr_id = 4;
    wr.opcode = Opcode::kRdmaWriteWithImm;
    wr.sge = MakeSge(src.data(), 128, src_mr.lkey());
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = dst_mr.rkey();
    wr.has_imm = true;
    wr.imm = 0x1234;
    return wr;
  }

  /// PlainWwi with all three extensions: a stripe sequence, a mux tag and
  /// a trace id.
  static SendWorkRequest ExtendedWwi(const std::vector<std::uint8_t>& src,
                                     const MemoryRegion& src_mr,
                                     const std::vector<std::uint8_t>& dst,
                                     const MemoryRegion& dst_mr) {
    SendWorkRequest wr = PlainWwi(src, src_mr, dst, dst_mr);
    wr.ext.has_stripe_seq = true;
    wr.ext.stripe_seq = 41;
    wr.ext.has_mux = true;
    wr.ext.mux_stream = 7;
    wr.ext.mux_seq = 12;
    wr.ext.mux_epoch = 3;
    wr.ext.trace_ctx = 99;
    return wr;
  }

  static void ExpectAllExtensions(const WorkCompletion& wc) {
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
    EXPECT_EQ(wc.opcode, WcOpcode::kRecvRdmaWithImm);
    EXPECT_EQ(wc.byte_len, 128u);
    EXPECT_TRUE(wc.has_imm);
    EXPECT_EQ(wc.imm, 0x1234u);
    EXPECT_TRUE(wc.ext.has_stripe_seq);
    EXPECT_EQ(wc.ext.stripe_seq, 41u);
    EXPECT_TRUE(wc.ext.has_mux);
    EXPECT_EQ(wc.ext.mux_stream, 7u);
    EXPECT_EQ(wc.ext.mux_seq, 12u);
    EXPECT_EQ(wc.ext.mux_epoch, 3u);
    EXPECT_EQ(wc.ext.trace_ctx, 99u);
  }

  simnet::Fabric fabric_;
  Device dev0_, dev1_;
  simnet::Fabric iwarp_fabric_;  ///< emulates WWI with a trailing SEND
  Device iwarp0_, iwarp1_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

TEST_F(VerbsExtraTest, TwoQueuePairsShareTheLinkFairlyFifo) {
  auto [a1, b1] = MakeConnectedPair();
  auto [a2, b2] = MakeConnectedPair();

  std::vector<std::uint8_t> buf(1024);
  auto mr0 = dev0_.RegisterMemory(buf.data(), buf.size());
  auto mr1 = dev1_.RegisterMemory(buf.data(), buf.size());

  for (int i = 0; i < 8; ++i) {
    b1->qp->PostRecv({.wr_id = 100u + i,
                      .sge = MakeSge(buf.data(), 1024, mr1->lkey())});
    b2->qp->PostRecv({.wr_id = 200u + i,
                      .sge = MakeSge(buf.data(), 1024, mr1->lkey())});
  }
  // Interleave posts across the two connections.
  for (int i = 0; i < 8; ++i) {
    a1->qp->PostSend({.wr_id = 100u + i,
                      .opcode = Opcode::kSend,
                      .sge = MakeSge(buf.data(), 1024, mr0->lkey())});
    a2->qp->PostSend({.wr_id = 200u + i,
                      .opcode = Opcode::kSend,
                      .sge = MakeSge(buf.data(), 1024, mr0->lkey())});
  }
  fabric_.scheduler().Run();

  // Both connections deliver everything, each in its own order.
  WorkCompletion wc;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(b1->recv_cq->Poll(&wc));
    EXPECT_EQ(wc.wr_id, 100u + i);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(b2->recv_cq->Poll(&wc));
    EXPECT_EQ(wc.wr_id, 200u + i);
  }
}

TEST_F(VerbsExtraTest, ZeroLengthRecvConsumedByWwi) {
  auto [a, b] = MakeConnectedPair();
  std::vector<std::uint8_t> src(128), dst(128);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  FillPattern(src.data(), src.size(), 0, 12);

  b->qp->PostRecv({.wr_id = 1, .sge = Sge{}});  // no buffer at all
  SendWorkRequest wr;
  wr.opcode = Opcode::kRdmaWriteWithImm;
  wr.sge = MakeSge(src.data(), 128, src_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey();
  wr.has_imm = true;
  wr.imm = 5;
  a->qp->PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(b->recv_cq->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(wc.byte_len, 128u);
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 12), dst.size());
}

// A WWI's stripe sequence and mux tag each cost one 8-byte extension word
// on the wire and its trace id none; all three reach the receive
// completion intact.  A WWI without them pays the frame and the immediate
// only, and its completion carries no extension.
TEST_F(VerbsExtraTest, WwiExtensionsReachTheCompletionAndCostTheirWords) {
  auto [a, b] = MakeConnectedPair();
  std::vector<std::uint8_t> src(128), dst(128);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  b->qp->PostRecv({.wr_id = 1, .sge = Sge{}});
  b->qp->PostRecv({.wr_id = 2, .sge = Sge{}});

  a->qp->PostSend(ExtendedWwi(src, *src_mr, dst, *dst_mr));
  fabric_.scheduler().Run();
  EXPECT_EQ(a->qp->stats().wire_bytes_sent, 128u + 30 + 4 + 8 + 8);
  WorkCompletion wc;
  ASSERT_TRUE(b->recv_cq->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 1u);
  ExpectAllExtensions(wc);

  const std::uint64_t before = a->qp->stats().wire_bytes_sent;
  a->qp->PostSend(PlainWwi(src, *src_mr, dst, *dst_mr));
  fabric_.scheduler().Run();
  EXPECT_EQ(a->qp->stats().wire_bytes_sent - before, 128u + 30 + 4);
  ASSERT_TRUE(b->recv_cq->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_TRUE(wc.has_imm);
  EXPECT_FALSE(wc.ext.has_stripe_seq);
  EXPECT_FALSE(wc.ext.has_mux);
  EXPECT_EQ(wc.ext.trace_ctx, 0u);
}

// Under legacy-iWARP WWI emulation the data half is a plain RDMA WRITE:
// it carries neither the immediate nor any extension word.  The trailing
// notification carries both, and the completion it raises reports them.
TEST_F(VerbsExtraTest, EmulatedWwiCarriesItsExtensionsOnTheNotification) {
  auto [a, b] = MakeConnectedPair(iwarp0_, iwarp1_);
  std::vector<std::uint8_t> src(128), dst(128);
  FillPattern(src.data(), src.size(), 0, 13);
  auto src_mr = iwarp0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = iwarp1_.RegisterMemory(dst.data(), dst.size());
  b->qp->PostRecv({.wr_id = 1, .sge = Sge{}});

  a->qp->PostSend(ExtendedWwi(src, *src_mr, dst, *dst_mr));
  // Step to the data half's transmit: the frame and the payload only.
  while (a->qp->stats().wire_bytes_sent == 0) {
    ASSERT_TRUE(iwarp_fabric_.scheduler().Step());
  }
  EXPECT_EQ(a->qp->stats().wire_bytes_sent, 128u + 30);
  iwarp_fabric_.scheduler().Run();
  EXPECT_EQ(a->qp->stats().wire_bytes_sent, 128u + 30 + (30 + 4 + 8 + 8));
  EXPECT_EQ(a->qp->stats().sends_posted, 2u);

  WorkCompletion wc;
  ASSERT_TRUE(b->recv_cq->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 1u);
  ExpectAllExtensions(wc);
  EXPECT_FALSE(b->recv_cq->Poll(&wc));
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 13), dst.size());
}

TEST_F(VerbsExtraTest, SendsPipelineBackToBack) {
  // N equal messages posted at once must finish in ~N serialisation
  // times, not N round trips: the HCA pipeline never idles.
  auto [a, b] = MakeConnectedPair();
  constexpr int kMessages = 16;
  constexpr std::uint32_t kSize = 64 * 1024;
  std::vector<std::uint8_t> buf(kSize);
  auto mr0 = dev0_.RegisterMemory(buf.data(), buf.size());
  auto mr1 = dev1_.RegisterMemory(buf.data(), buf.size());
  for (int i = 0; i < kMessages; ++i) {
    b->qp->PostRecv({.wr_id = static_cast<std::uint64_t>(i),
                     .sge = MakeSge(buf.data(), kSize, mr1->lkey())});
  }
  for (int i = 0; i < kMessages; ++i) {
    a->qp->PostSend({.wr_id = static_cast<std::uint64_t>(i),
                     .opcode = Opcode::kSend,
                     .sge = MakeSge(buf.data(), kSize, mr0->lkey())});
  }
  fabric_.scheduler().Run();

  const auto& p = fabric_.profile();
  SimDuration serial =
      p.link_bandwidth.TransmissionTime(
          static_cast<std::uint64_t>(kMessages) * (kSize + 30));
  SimDuration slack = p.propagation * 4 + p.send_wr_overhead * kMessages +
                      p.recv_delivery_overhead + Microseconds(2);
  EXPECT_LE(fabric_.scheduler().Now(), serial + slack);
  EXPECT_EQ(b->qp->stats().messages_delivered,
            static_cast<std::uint64_t>(kMessages));
}

TEST_F(VerbsExtraTest, DeregisteredMemoryRejectsNewWork) {
  auto [a, b] = MakeConnectedPair();
  (void)b;
  std::vector<std::uint8_t> buf(64);
  auto mr = dev0_.RegisterMemory(buf.data(), buf.size());
  std::uint32_t lkey = mr->lkey();
  dev0_.DeregisterMemory(mr);
  SendWorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.sge = MakeSge(buf.data(), 64, lkey);
  EXPECT_THROW(a->qp->PostSend(wr), InvariantViolation);
}

TEST_F(VerbsExtraTest, RemoteDeregistrationCausesAccessError) {
  auto [a, b] = MakeConnectedPair();
  (void)b;
  std::vector<std::uint8_t> src(64), dst(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  std::uint32_t rkey = dst_mr->rkey();
  dev1_.DeregisterMemory(dst_mr);

  SendWorkRequest wr;
  wr.wr_id = 5;
  wr.opcode = Opcode::kRdmaWrite;
  wr.sge = MakeSge(src.data(), 64, src_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = rkey;
  a->qp->PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(a->send_cq->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsExtraTest, StatsAccumulateAcrossOperations) {
  auto [a, b] = MakeConnectedPair();
  std::vector<std::uint8_t> buf(256);
  auto mr0 = dev0_.RegisterMemory(buf.data(), buf.size());
  auto mr1 = dev1_.RegisterMemory(buf.data(), buf.size());
  for (int i = 0; i < 3; ++i) {
    b->qp->PostRecv({.wr_id = 0,
                     .sge = MakeSge(buf.data(), 256, mr1->lkey())});
    a->qp->PostSend({.wr_id = 0,
                     .opcode = Opcode::kSend,
                     .sge = MakeSge(buf.data(), 256, mr0->lkey())});
  }
  fabric_.scheduler().Run();
  EXPECT_EQ(a->qp->stats().sends_posted, 3u);
  EXPECT_EQ(a->qp->stats().payload_bytes_sent, 768u);
  EXPECT_EQ(a->qp->stats().wire_bytes_sent, 3u * (256 + 30));
  EXPECT_EQ(b->qp->stats().recvs_posted, 3u);
  EXPECT_EQ(b->qp->stats().messages_delivered, 3u);
}

TEST_F(VerbsExtraTest, ReconnectingAConnectedPairThrows) {
  auto [a, b] = MakeConnectedPair();
  EXPECT_THROW(QueuePair::ConnectPair(*a->qp, *b->qp), InvariantViolation);
}

TEST_F(VerbsExtraTest, SameNodeConnectionIsRejected) {
  Endpoint x(dev0_), y(dev0_);
  x.qp = std::make_unique<QueuePair>(dev0_, *x.send_cq, *x.recv_cq);
  y.qp = std::make_unique<QueuePair>(dev0_, *y.send_cq, *y.recv_cq);
  EXPECT_THROW(QueuePair::ConnectPair(*x.qp, *y.qp), InvariantViolation);
}

TEST_F(VerbsExtraTest, PostOnUnconnectedQpThrows) {
  Endpoint x(dev0_);
  x.qp = std::make_unique<QueuePair>(dev0_, *x.send_cq, *x.recv_cq);
  std::vector<std::uint8_t> buf(16);
  EXPECT_THROW(
      x.qp->PostRecv({.wr_id = 0, .sge = MakeSge(buf.data(), 16, 1)}),
      InvariantViolation);
}

}  // namespace
}  // namespace exs::verbs
