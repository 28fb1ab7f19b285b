// Hardware profiles: the timing constants that stand in for the paper's
// testbeds.
//
// The paper ran on (1) Mellanox ConnectX-3 FDR InfiniBand through an FDR
// switch and (2) Mellanox ConnectX-2 10 GbE RoCE through an Anue delay
// emulator.  We model each fabric as an effective data bandwidth (wire rate
// derated for PCIe/DMA efficiency), a one-way propagation delay, per-work-
// request HCA overheads, a host memcpy bandwidth (which bounds the indirect
// path), and the software costs of event notification — the paper used
// event notification rather than busy polling, and that wake-up latency is
// what makes ADVERT replenishment lag behind a fast sender.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "simnet/link.hpp"

namespace exs::simnet {

struct HardwareProfile {
  std::string name;

  /// Effective data bandwidth of one link direction (wire rate derated for
  /// encoding and PCIe/DMA efficiency).
  Bandwidth link_bandwidth;

  /// One-way propagation delay of the fabric (cables + switch).
  SimDuration propagation = 0;

  /// Added delay emulator stage (fixed delay + jitter), zero on LAN.
  NetemConfig netem;

  /// Sender-side HCA processing per work request before serialisation.
  SimDuration send_wr_overhead = 0;

  /// Cost decomposition of send_wr_overhead for *batched* posting
  /// (QueuePair::PostSendBatch).  A doorbell ring is one MMIO/PCIe write
  /// plus the driver bookkeeping around it; per_wr_cost is the residual
  /// descriptor-build + DMA-fetch work each WR still pays.  A batch of N
  /// WRs is charged doorbell_cost + N * per_wr_cost, so batching trades
  /// one doorbell across the batch — the RDMAbox WR-merging effect.  Both
  /// zero (the default) makes PostSendBatch fall back to charging
  /// send_wr_overhead per WR, i.e. batching changes nothing: existing
  /// profiles and recorded artefacts are unaffected until a profile opts
  /// in.  Single-WR posts through PostSend always charge send_wr_overhead,
  /// so a doorbell-split profile keeps its unbatched timing identical.
  SimDuration doorbell_cost = 0;
  SimDuration per_wr_cost = 0;

  /// Receiver-side HCA processing from last byte to completion raised.
  SimDuration recv_delivery_overhead = 0;

  /// Host-side cost of registering one memory region (ibv_reg_mr: pinning
  /// pages, writing translation entries).  Charged as simulated time on
  /// the registering device's host clock when nonzero and the device arms
  /// its cost model (verbs::Device::EnableMrCostModel); the default 0
  /// keeps registration free, matching the seed model.
  SimDuration mr_register_cost = 0;

  /// Maximum payload the HCA accepts inline in a send WR.
  std::uint32_t max_inline = 256;

  /// Older iWARP hardware has no RDMA WRITE WITH IMM; the operation is
  /// emulated by an RDMA WRITE followed by a small SEND carrying the
  /// notification (§II-B of the paper).  Costs one extra wire message and
  /// one extra per-WR overhead per transfer.
  bool emulate_wwi_with_send = false;

  /// Host memory-copy bandwidth; bounds the indirect (buffered) path.
  Bandwidth memcpy_bandwidth = Bandwidth::GigabytesPerSecond(3.4);

  /// Latency from completion enqueued to the application thread waking up
  /// (event notification, not busy polling — §IV-B of the paper).
  SimDuration completion_notify_delay = Microseconds(8);

  /// Busy-poll completion queues instead: a spinning reader notices a
  /// completion within `busy_poll_check` and pays no wake-up jitter, at
  /// the cost of a core pinned at 100%.  The paper used event
  /// notification because its messages were large enough that polling
  /// buys little (§IV-B); the ext_busy_poll ablation quantifies that.
  bool busy_polling = false;
  SimDuration busy_poll_check = Nanoseconds(200);

  HardwareProfile WithBusyPolling() const {
    HardwareProfile p = *this;
    p.busy_polling = true;
    return p;
  }

  /// CPU time the library + application burn handling one completion.
  SimDuration per_event_cpu = Microseconds(1.5);

  /// Interrupt-latency variance: per-wake-up notification-delay jitter as
  /// a +/- fraction.  Event-channel wake-ups on real hosts range over an
  /// order of magnitude; the long stalls are when peers catch up with each
  /// other.
  double notify_jitter = 0.35;

  /// OS scheduling noise: per-CPU-task cost jitter as a +/- fraction.
  /// Real hosts always have some; it opens the brief stalls in which the
  /// receiver drains its buffer and resynchronises to direct service.
  double cpu_jitter = 0.25;

  /// FDR InfiniBand testbed: ConnectX-3 through an SX6036 switch.
  /// 56 Gb/s signalling, 54.24 Gb/s data rate, ~47 Gb/s attainable through
  /// PCIe gen-3; ib_write_lat one-way latency 0.76 us for 64-byte messages.
  static HardwareProfile FdrInfiniBand() {
    HardwareProfile p;
    p.name = "fdr-infiniband";
    p.link_bandwidth = Bandwidth::GigabitsPerSecond(47.0);
    p.propagation = Nanoseconds(350);
    p.send_wr_overhead = Nanoseconds(200);
    // Batched-post decomposition: ~140 ns of the per-WR cost is the
    // doorbell MMIO + driver entry, ~60 ns is descriptor work that every
    // WR in a batch still pays (ConnectX-3 figures from the RDMAbox
    // WR-merging analysis).  Only PostSendBatch reads these.
    p.doorbell_cost = Nanoseconds(140);
    p.per_wr_cost = Nanoseconds(60);
    p.recv_delivery_overhead = Nanoseconds(200);
    // ibv_reg_mr on these hosts: page pinning + MTT update, dominated by
    // the kernel transition for small regions.  Charged only when a
    // device arms its MR cost model (verbs::Device::EnableMrCostModel).
    p.mr_register_cost = Microseconds(15);
    return p;
  }

  /// QDR InfiniBand: 32 Gb/s data rate, ~27 Gb/s attainable.  The paper
  /// notes indirect transfers compare much more favourably here because the
  /// wire rate is not dramatically above memcpy throughput.
  static HardwareProfile QdrInfiniBand() {
    HardwareProfile p = FdrInfiniBand();
    p.name = "qdr-infiniband";
    p.link_bandwidth = Bandwidth::GigabitsPerSecond(27.0);
    return p;
  }

  /// 10 GbE RoCE testbed: ConnectX-2, PCIe gen-2 nodes.
  static HardwareProfile RoCE10G() {
    HardwareProfile p;
    p.name = "roce-10g";
    p.link_bandwidth = Bandwidth::GigabitsPerSecond(9.4);
    p.propagation = Microseconds(1.0);
    p.send_wr_overhead = Nanoseconds(300);
    // ConnectX-2 / PCIe gen-2: the doorbell write and driver entry are a
    // larger share of the per-WR cost than on the FDR testbed.
    p.doorbell_cost = Nanoseconds(210);
    p.per_wr_cost = Nanoseconds(90);
    p.recv_delivery_overhead = Nanoseconds(300);
    p.mr_register_cost = Microseconds(20);
    return p;
  }

  /// Older-generation 10 Gb/s iWARP RNIC: no native RDMA WRITE WITH IMM,
  /// so the notification travels as a trailing SEND (§II-B).
  static HardwareProfile Iwarp10G() {
    HardwareProfile p = RoCE10G();
    p.name = "iwarp-10g-legacy";
    p.emulate_wwi_with_send = true;
    return p;
  }

  /// RoCE through the Anue emulator set to a fixed round-trip delay, as in
  /// the paper's distance experiments (48 ms RTT -> 24 ms each way).
  static HardwareProfile RoCE10GWithDelay(SimDuration one_way_delay,
                                          SimDuration jitter = 0) {
    HardwareProfile p = RoCE10G();
    p.name = "roce-10g-netem";
    p.netem.extra_delay = one_way_delay;
    p.netem.jitter = jitter;
    return p;
  }
};

}  // namespace exs::simnet
