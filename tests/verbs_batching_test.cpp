// Hot-path batching at the verbs layer: bounded gather lists
// (SendWorkRequest::AddSge / kMaxSge), scatter-gather byte conservation,
// batched doorbells (QueuePair::PostSendBatch) with the amortised
// doorbell/per-WR cost model, and batched completion draining
// (CompletionQueue::PollBatch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "verbs/queue_pair.hpp"

namespace exs::verbs {
namespace {

class VerbsBatchingTest : public ::testing::Test {
 protected:
  VerbsBatchingTest()
      : fabric_(simnet::HardwareProfile::FdrInfiniBand(), 11),
        dev0_(fabric_, 0),
        dev1_(fabric_, 1),
        send_cq0_(dev0_.CreateCompletionQueue()),
        recv_cq0_(dev0_.CreateCompletionQueue()),
        send_cq1_(dev1_.CreateCompletionQueue()),
        recv_cq1_(dev1_.CreateCompletionQueue()),
        qp0_(dev0_, *send_cq0_, *recv_cq0_),
        qp1_(dev1_, *send_cq1_, *recv_cq1_) {
    QueuePair::ConnectPair(qp0_, qp1_);
  }

  static Sge MakeSge(const void* addr, std::uint32_t len, std::uint32_t key) {
    return Sge{reinterpret_cast<std::uint64_t>(addr), len, key};
  }

  simnet::Fabric fabric_;
  Device dev0_, dev1_;
  std::unique_ptr<CompletionQueue> send_cq0_, recv_cq0_, send_cq1_, recv_cq1_;
  QueuePair qp0_, qp1_;
};

// A three-element gather list delivers the concatenation of its slices;
// the QP's gather accounting ties SGE bytes to wire payload exactly.
TEST_F(VerbsBatchingTest, GatherListConcatenatesSlices) {
  std::vector<std::uint8_t> src(768), dst(768, 0);
  FillPattern(src.data(), src.size(), 0, 21);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 768, dst_mr->lkey())});
  SendWorkRequest wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::kSend;
  wr.SetSgeList(MakeSge(src.data(), 256, src_mr->lkey()),
                MakeSge(src.data() + 256, 256, src_mr->lkey()),
                MakeSge(src.data() + 512, 256, src_mr->lkey()));
  EXPECT_EQ(wr.num_sge, 3u);
  EXPECT_EQ(wr.total_length(), 768u);
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.byte_len, 768u);
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 21), dst.size());

  const QueuePairStats& st = qp0_.stats();
  EXPECT_EQ(st.gather_wrs, 1u);
  EXPECT_EQ(st.sge_entries_posted, 3u);
  EXPECT_EQ(st.sge_bytes_posted, st.payload_bytes_sent);
}

// A zero-length middle element is legal padding (real HCAs accept it):
// it contributes no bytes and touches no memory, and the wire image is
// the concatenation of the non-empty slices.
TEST_F(VerbsBatchingTest, ZeroLengthMiddleSgeIsLegalPadding) {
  std::vector<std::uint8_t> src(512), dst(512, 0);
  FillPattern(src.data(), src.size(), 0, 33);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 512, dst_mr->lkey())});
  SendWorkRequest wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::kSend;
  // The zero-length element deliberately names an unregistered address —
  // it must never be dereferenced or validated.
  wr.SetSgeList(MakeSge(src.data(), 256, src_mr->lkey()),
                Sge{0xdead0000, 0, 12345},
                MakeSge(src.data() + 256, 256, src_mr->lkey()));
  EXPECT_EQ(wr.total_length(), 512u);
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.byte_len, 512u);
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 33), dst.size());
  EXPECT_EQ(qp0_.stats().sge_entries_posted, 3u);
  EXPECT_EQ(qp0_.stats().sge_bytes_posted, qp0_.stats().payload_bytes_sent);
}

// The gather list is bounded: the kMaxSge-plus-first AddSge is refused as
// a local misuse, before the WR ever reaches a queue pair.
TEST_F(VerbsBatchingTest, AddSgeBeyondMaxIsRejected) {
  std::vector<std::uint8_t> buf(kMaxSge + 1);
  auto mr = dev0_.RegisterMemory(buf.data(), buf.size());
  SendWorkRequest wr;
  wr.sge = MakeSge(buf.data(), 1, mr->lkey());
  for (std::uint32_t i = 1; i < kMaxSge; ++i) {
    wr.AddSge(MakeSge(buf.data() + i, 1, mr->lkey()));
  }
  EXPECT_EQ(wr.num_sge, kMaxSge);
  EXPECT_THROW(wr.AddSge(MakeSge(buf.data() + kMaxSge, 1, mr->lkey())),
               std::invalid_argument);
}

// A gather list may span two independently registered regions — each
// element is validated against its own lkey.
TEST_F(VerbsBatchingTest, GatherListSpansTwoRegisteredRegions) {
  std::vector<std::uint8_t> a(256), b(256), dst(512, 0);
  FillPattern(a.data(), a.size(), 0, 9);
  FillPattern(b.data(), b.size(), 256, 9);  // continues a's pattern
  auto a_mr = dev0_.RegisterMemory(a.data(), a.size());
  auto b_mr = dev0_.RegisterMemory(b.data(), b.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  ASSERT_NE(a_mr->lkey(), b_mr->lkey());

  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 512, dst_mr->lkey())});
  SendWorkRequest wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::kSend;
  wr.SetSgeList(MakeSge(a.data(), 256, a_mr->lkey()),
                MakeSge(b.data(), 256, b_mr->lkey()));
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.byte_len, 512u);
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 9), dst.size());
}

// A slice whose lkey belongs to a different region than its address is
// rejected exactly like a fully unregistered single-SGE send.
TEST_F(VerbsBatchingTest, GatherElementOutsideItsRegionThrows) {
  std::vector<std::uint8_t> a(256), elsewhere(256);
  auto a_mr = dev0_.RegisterMemory(a.data(), a.size());
  SendWorkRequest wr;
  wr.opcode = Opcode::kSend;
  // Second element reuses a's lkey for memory a's region does not cover.
  wr.SetSgeList(MakeSge(a.data(), 256, a_mr->lkey()),
                MakeSge(elsewhere.data(), 256, a_mr->lkey()));
  EXPECT_THROW(qp0_.PostSend(wr), InvariantViolation);
}

// PostSendBatch rings one doorbell for N WRs: the batch pays
// doorbell_cost once plus per_wr_cost each, so it finishes posting sooner
// than N individually doorbelled sends of the same shape.  Both deliver
// identical bytes; PollBatch drains the completions in one call.
TEST_F(VerbsBatchingTest, BatchedPostAmortisesTheDoorbell) {
  constexpr std::size_t kN = 8;
  constexpr std::uint32_t kLen = 512;
  const auto& profile = dev0_.profile();
  ASSERT_GT(profile.doorbell_cost, SimDuration{0});
  ASSERT_GT(profile.per_wr_cost, SimDuration{0});

  std::vector<std::uint8_t> src(kN * kLen), dst(kN * kLen, 0);
  FillPattern(src.data(), src.size(), 0, 55);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  std::vector<SendWorkRequest> wrs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    qp1_.PostRecv({.wr_id = i,
                   .sge = MakeSge(dst.data() + i * kLen, kLen,
                                  dst_mr->lkey())});
    wrs[i].wr_id = 100 + i;
    wrs[i].opcode = Opcode::kSend;
    wrs[i].sge = MakeSge(src.data() + i * kLen, kLen, src_mr->lkey());
  }
  qp0_.PostSendBatch(wrs);
  fabric_.scheduler().Run();

  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 55), dst.size());
  const QueuePairStats& st = qp0_.stats();
  EXPECT_EQ(st.doorbells, 1u);
  EXPECT_EQ(st.batched_wrs, kN);
  EXPECT_EQ(st.sends_posted, kN);
  EXPECT_EQ(st.sge_bytes_posted, st.payload_bytes_sent);

  WorkCompletion wcs[kN];
  EXPECT_EQ(send_cq0_->PollBatch(wcs, kN), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(wcs[i].wr_id, 100 + i);  // batch order preserved
    EXPECT_EQ(wcs[i].status, WcStatus::kSuccess);
  }
  EXPECT_EQ(send_cq0_->PollBatch(wcs, kN), 0u);

  // The amortisation claim itself: the batch's posting CPU cost is
  // doorbell_cost + N * per_wr_cost, strictly less than what N lone
  // posts pay (N * send_wr_overhead under the FDR profile's decomposed
  // costs, where send_wr_overhead = doorbell_cost + per_wr_cost).
  SimDuration batch_cost = profile.doorbell_cost + kN * profile.per_wr_cost;
  SimDuration lone_cost = kN * (profile.doorbell_cost + profile.per_wr_cost);
  EXPECT_LT(batch_cost, lone_cost);
}

// With both decomposed costs zero, PostSendBatch degrades to exactly N
// single posts (send_wr_overhead each) — the off-switch for profiles that
// do not model doorbells, keeping timing bit-identical.
TEST_F(VerbsBatchingTest, BatchWithoutDoorbellModelMatchesSinglePosts) {
  simnet::HardwareProfile profile = simnet::HardwareProfile::FdrInfiniBand();
  profile.doorbell_cost = SimDuration{0};
  profile.per_wr_cost = SimDuration{0};

  constexpr std::size_t kN = 4;
  std::vector<std::uint8_t> src(kN * 128);
  FillPattern(src.data(), src.size(), 0, 2);

  auto run = [&](bool batch) {
    simnet::Fabric fab(profile, 3);
    Device sdev(fab, 0), rdev(fab, 1);
    auto scq = sdev.CreateCompletionQueue();
    auto srcq = sdev.CreateCompletionQueue();
    auto rcq = rdev.CreateCompletionQueue();
    auto rrcq = rdev.CreateCompletionQueue();
    QueuePair sqp(sdev, *scq, *srcq), rqp(rdev, *rcq, *rrcq);
    QueuePair::ConnectPair(sqp, rqp);

    std::vector<std::uint8_t> dst(kN * 128, 0);
    auto smr = sdev.RegisterMemory(src.data(), src.size());
    auto rmr = rdev.RegisterMemory(dst.data(), dst.size());
    std::vector<SendWorkRequest> wrs(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      rqp.PostRecv({.wr_id = i,
                    .sge = MakeSge(dst.data() + i * 128, 128, rmr->lkey())});
      wrs[i].wr_id = i;
      wrs[i].opcode = Opcode::kSend;
      wrs[i].sge = MakeSge(src.data() + i * 128, 128, smr->lkey());
    }
    if (batch) {
      sqp.PostSendBatch(wrs);
      EXPECT_EQ(sqp.stats().doorbells, 1u);  // counted even when costless
    } else {
      for (const auto& wr : wrs) sqp.PostSend(wr);
    }
    fab.scheduler().Run();
    EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 2), dst.size());
    return fab.scheduler().Now();
  };
  EXPECT_EQ(run(/*batch=*/true), run(/*batch=*/false));
}

// Batched dispatch (SetDispatchBatch) clumps handler delivery: one wake-up
// drains up to b completions in a single CPU pass, so their handlers
// all observe the same simulated instant — the precondition for doorbell-
// batching the posts they trigger.  Charges stay per-completion: a pass
// over k completions costs k * per_event_cpu, and later passes pay no
// fresh notification latency (the thread is already awake).  b = 1 is the
// default: one completion per pass, handlers 100 ns apart.
class VerbsBatchingDispatchTest
    : public VerbsBatchingTest,
      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(VerbsBatchingDispatchTest, DispatchBatchClumpsHandlersAtOneInstant) {
  const std::size_t b = GetParam();
  simnet::Cpu cpu(fabric_.scheduler());  // fresh core: no seeded jitter
  CompletionQueue cq(fabric_.scheduler(), cpu, Microseconds(1),
                     Nanoseconds(100));
  cq.SetDispatchBatch(b);
  std::vector<std::pair<SimTime, std::uint64_t>> seen;
  cq.SetHandler([&](const WorkCompletion& wc) {
    seen.emplace_back(fabric_.scheduler().Now(), wc.wr_id);
  });
  for (std::uint64_t i = 0; i < 6; ++i) {
    WorkCompletion wc;
    wc.wr_id = i;
    cq.Push(wc);
  }
  fabric_.scheduler().Run();

  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(seen[i].second, i);
    // Handler i runs in pass i / b, after one notification plus the charge
    // for every completion up to the end of that pass.
    const std::size_t charged = std::min<std::size_t>(6, (i / b + 1) * b);
    EXPECT_EQ(seen[i].first,
              Microseconds(1) + static_cast<SimTime>(charged) *
                                    Nanoseconds(100))
        << "handler " << i;
  }
  EXPECT_EQ(cpu.BusyTime(), 6 * Nanoseconds(100));
}

INSTANTIATE_TEST_SUITE_P(Batch, VerbsBatchingDispatchTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "b" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace exs::verbs
