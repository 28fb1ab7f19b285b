#include "exs/socket.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace exs {

const char* ToString(ProtocolMode mode) {
  switch (mode) {
    case ProtocolMode::kDynamic: return "dynamic";
    case ProtocolMode::kDirectOnly: return "direct-only";
    case ProtocolMode::kIndirectOnly: return "indirect-only";
    case ProtocolMode::kReadRendezvous: return "read-rendezvous";
  }
  return "?";
}

Socket::Socket(verbs::Device& device, SocketType type, StreamOptions options,
               std::string name, SocketWiring wiring)
    : device_(&device),
      type_(type),
      options_(options),
      name_(std::move(name)),
      wiring_(std::move(wiring)) {
  EXS_CHECK_MSG(options_.rails >= 1 && options_.rails <= kMaxRails,
                "rails must be in [1, " << kMaxRails << "]");
  // Striping only applies to the dynamic/forced stream protocol: a
  // SEQPACKET message or a rendezvous READ never splits into chunks, so
  // there is nothing to stripe.  Clamp before the contexts are built so
  // every component sees the effective option.
  if (type_ != SocketType::kStream ||
      options_.mode == ProtocolMode::kReadRendezvous) {
    options_.rails = 1;
  }
  EXS_CHECK_MSG(wiring_.shared_slots == nullptr || options_.rails == 1,
                "shared control slots require a single-rail socket");
  EXS_CHECK_MSG(!options_.recovery.enabled ||
                    (type_ == SocketType::kStream &&
                     options_.mode != ProtocolMode::kReadRendezvous),
                "recovery supports stream sockets only");
  muxed_ = wiring_.mux_stream != nullptr;
  const std::size_t rails = muxed_ ? 0 : options_.rails;
  if (rails > 0) rail_inst_ = std::make_unique<RailInstruments[]>(rails);
  BindSocketInstruments(registry_, inst_, muxed_, rails);
  rails_.reserve(muxed_ ? 1 : rails);
  if (muxed_) {
    EXS_CHECK_MSG(type_ == SocketType::kStream &&
                      options_.mode != ProtocolMode::kReadRendezvous,
                  "mux requires a stream socket (rendezvous READs bypass "
                  "the credit layering)");
    EXS_CHECK_MSG(options_.rails == 1, "muxed sockets are single-rail");
    EXS_CHECK_MSG(wiring_.shared_slots == nullptr,
                  "mux slots already share receives; shared_slots does not "
                  "compose with a muxed socket");
    // No dedicated channel: the shared slot QPs live in the MuxGroup.
    // Per-socket mux telemetry replaces the rail0 instruments.
    wiring_.mux_stream->SetInstruments(&inst_.mux_hol_wait, &inst_.mux_parks);
    wiring_.mux_stream->Attach(*this, 0);
    rails_.push_back(std::move(wiring_.mux_stream));
  }
  for (std::size_t r = 0; r < rails; ++r) {
    // Shared slots imply a single rail (checked above), so only rail 0
    // can draw from them.
    auto channel = std::make_unique<ControlChannel>(
        device, options_.credits, wiring_.shared_slots);
    // Every rail's standalone CREDIT messages count socket-wide.
    channel->SetInstruments(r == 0 ? &inst_.send_credits : nullptr,
                            &rail_inst_[r].inflight_wrs,
                            &inst_.credit_messages_sent);
    // rail<i>.* names the channel's queue-pair counters directly: one
    // block per channel, covering every queue pair it connects.
    BindRailInstruments(registry_, r, rail_inst_[r], channel->qp_counters());
    channel->Attach(*this, r);
    rails_.push_back(std::move(channel));
  }
  // Hot-path batching (StreamOptions::batching).  Doorbell batching needs
  // the pump-exit flush discipline only StreamTx implements, so it is
  // stream-only and never muxed (a MuxStream posts through a shared slot
  // whose other streams would be held hostage by a pending batch).
  bool stream_proto = type_ == SocketType::kStream &&
                      options_.mode != ProtocolMode::kReadRendezvous;
  if (options_.batching.doorbell) {
    EXS_CHECK_MSG(stream_proto && !muxed_,
                  "doorbell batching requires a classic stream socket");
    EXS_CHECK_MSG(options_.batching.max_wrs >= 1,
                  "doorbell batching needs max_wrs >= 1");
    // The doorbell.* pair aggregates every rail's rings.
    for (std::size_t r = 0; r < rails; ++r) {
      rail(r).SetSendBatching(options_.batching.max_wrs,
                              inst_.doorbell_batches, inst_.doorbell_wrs);
    }
  }
  if (options_.batching.cq_drain > 1) {
    EXS_CHECK_MSG(stream_proto && !muxed_,
                  "batched CQ dispatch requires a classic stream socket");
    for (std::size_t r = 0; r < rails; ++r) {
      rail(r).SetCqDispatchBatch(options_.batching.cq_drain);
    }
  }
  events_ = std::make_unique<EventQueue>(device.node().cpu(),
                                         device.profile().per_event_cpu);
  if (type_ == SocketType::kStream &&
      options_.mode == ProtocolMode::kReadRendezvous) {
    rendezvous_tx_ = std::make_unique<RendezvousTx>(MakeContext(&tx_trace_));
    rendezvous_rx_ = std::make_unique<RendezvousRx>(MakeContext(&rx_trace_));
  } else if (type_ == SocketType::kStream) {
    tx_ = std::make_unique<StreamTx>(MakeContext(&tx_trace_), rails_);
    StreamContext rx_ctx = MakeContext(&rx_trace_);
    // Only the receiver half owns the leased ring (and its release).
    rx_ctx.ring_lease = std::move(wiring_.ring_lease);
    rx_ = std::make_unique<StreamRx>(std::move(rx_ctx));
  } else {
    packet_tx_ = std::make_unique<SeqPacketTx>(MakeContext(&tx_trace_));
    packet_rx_ = std::make_unique<SeqPacketRx>(MakeContext(&rx_trace_));
  }
  if (rx_) rx_->SetRailInstruments({rail_inst_.get(), rails});
}

const ControlChannel& Socket::rail(std::size_t i) const {
  EXS_CHECK_MSG(!muxed_, "a muxed socket has no dedicated channel; its one "
                         "rail is mux_stream()");
  EXS_CHECK_MSG(i < rails_.size(),
                "rail " << i << " of a " << rails_.size() << "-rail socket");
  return static_cast<const ControlChannel&>(*rails_[i]);
}

ControlChannel& Socket::rail(std::size_t i) {
  return const_cast<ControlChannel&>(std::as_const(*this).rail(i));
}

void Socket::EnableChunkSpans(spans::SpanCollector* collector) {
  // Stream mode only: SEQPACKET and rendezvous transfers are outside the
  // chunk provenance model.  Registration order (tx before rx, sockets in
  // call order) is deterministic, so endpoint ids are stable across runs.
  if (collector == nullptr || tx_ == nullptr) return;
  span_tx_endpoint_ = collector->RegisterEndpoint(name_ + ".tx");
  span_rx_endpoint_ = collector->RegisterEndpoint(name_ + ".rx");
  tx_->SetSpanCollector(collector, span_tx_endpoint_);
  rx_->SetSpanCollector(collector, span_rx_endpoint_);
}

StreamContext Socket::MakeContext(TraceLog* trace) {
  StreamContext ctx;
  ctx.trace = trace;
  ctx.channel = rails_[0].get();
  ctx.scheduler = &device_->scheduler();
  ctx.cpu = &device_->node().cpu();
  ctx.events = events_.get();
  ctx.metrics = &inst_;
  ctx.options = options_;
  ctx.memcpy_bandwidth = device_->profile().memcpy_bandwidth;
  ctx.carry_payload = device_->carry_payload();
  ctx.debug_name = name_;
  return ctx;
}

void Socket::OnControl(std::size_t rail, const wire::ControlMessage& msg) {
  EXS_CHECK_MSG(rail == 0, "control message on a data rail");
  switch (static_cast<wire::ControlType>(msg.type)) {
    case wire::ControlType::kAdvert:
      if (tx_) tx_->OnAdvert(msg);
      if (packet_tx_) packet_tx_->OnAdvert(msg);
      break;
    case wire::ControlType::kAck:
      EXS_CHECK_MSG(tx_ != nullptr, "ACK only exists in stream mode");
      tx_->OnAck(msg.freed, msg.delivered);
      break;
    case wire::ControlType::kCredit:
      break;  // absorbed by the channel
    case wire::ControlType::kSrcAdvert:
      EXS_CHECK_MSG(rendezvous_rx_ != nullptr,
                    "SRC-ADVERT outside rendezvous mode");
      rendezvous_rx_->OnSrcAdvert(msg);
      break;
    case wire::ControlType::kReadDone:
      EXS_CHECK_MSG(rendezvous_tx_ != nullptr,
                    "READ-DONE outside rendezvous mode");
      rendezvous_tx_->OnReadDone(msg.freed);
      break;
    case wire::ControlType::kShutdown:
      if (rx_) {
        rx_->OnShutdown();
      } else if (rendezvous_rx_) {
        rendezvous_rx_->OnShutdown();
      } else {
        packet_rx_->OnShutdown();
      }
      break;
  }
}

void Socket::OnData(std::size_t rail, bool indirect, std::uint64_t len,
                    const verbs::ExtHeader& ext) {
  if (rx_) {
    rx_->OnData(indirect, len, ext, rail);
  } else {
    EXS_CHECK_MSG(packet_rx_ != nullptr,
                  "data WWI on a rendezvous connection");
    EXS_CHECK_MSG(!ext.has_stripe_seq, "stripe seq on a SEQPACKET connection");
    packet_rx_->OnData(indirect, len);
  }
}

void Socket::OnDataSent(std::size_t rail, std::uint64_t wr_id) {
  if (tx_) {
    tx_->OnWwiComplete(wr_id, rail);
  } else {
    packet_tx_->OnWwiComplete(wr_id);
  }
}

void Socket::OnReadDone(std::size_t /*rail*/, std::uint64_t wr_id,
                        std::uint64_t bytes) {
  // Only a rendezvous socket posts READs, and it has one rail.
  EXS_CHECK_MSG(rendezvous_rx_ != nullptr,
                "READ completion outside rendezvous mode");
  rendezvous_rx_->OnReadComplete(wr_id, bytes);
}

void Socket::OnCreditAvailable(std::size_t rail) {
  // Any rail's credit unblocks the sender's rail pick; every other half
  // sends on rail 0 only.
  if (tx_) tx_->OnCreditAvailable();
  if (rail != 0) return;
  if (rx_) rx_->OnCreditAvailable();
  if (packet_tx_) packet_tx_->OnCreditAvailable();
  if (packet_rx_) packet_rx_->OnCreditAvailable();
  if (rendezvous_tx_) rendezvous_tx_->OnCreditAvailable();
  if (rendezvous_rx_) rendezvous_rx_->OnCreditAvailable();
}

Socket::RingCredentials Socket::LocalRingCredentials() const {
  RingCredentials creds;
  creds.rails = static_cast<std::uint32_t>(ProvisionedRails());
  if (rx_ == nullptr) return creds;
  creds.addr = rx_->ring_addr();
  creds.rkey = rx_->ring_rkey();
  creds.capacity = rx_->ring_capacity();
  return creds;
}

void Socket::CompleteEstablishment(const RingCredentials& peer_ring) {
  EXS_CHECK_MSG(!connected_, "socket already connected");
  if (tx_) {
    tx_->SetRemoteRing(peer_ring.addr, peer_ring.rkey, peer_ring.capacity);
    // Striping negotiation: both sides stripe across the minimum of the
    // two provisioned counts (a rails=1 peer — or one predating the field,
    // whose credentials decode as rails=0 — pins the connection to the
    // classic single-rail protocol).
    std::size_t peer_rails = peer_ring.rails == 0 ? 1 : peer_ring.rails;
    effective_rails_ = std::min(ProvisionedRails(), peer_rails);
    if (effective_rails_ > 1) {
      tx_->SetStriping(effective_rails_);
      rx_->SetStriping(static_cast<std::uint32_t>(effective_rails_));
    }
  }
  connected_ = true;
}

void Socket::ConnectTransport(Socket& a, Socket& b) {
  if (a.muxed_ || b.muxed_) {
    // Muxed connections: the slot queue pairs were wired when the two
    // MuxGroups connected; per-connection establishment only checks that
    // the sockets ride matching streams of peered groups.
    EXS_CHECK_MSG(a.muxed_ && b.muxed_,
                  "both sockets of a muxed pair must be muxed");
    MuxStream& am = *a.mux_stream();
    MuxStream& bm = *b.mux_stream();
    EXS_CHECK_MSG(am.GroupAlive() && bm.GroupAlive(),
                  "muxed connect after group teardown");
    EXS_CHECK_MSG(am.group().peer() == &bm.group(),
                  "muxed sockets belong to groups that are not peers");
    EXS_CHECK_MSG(am.stream_id() == bm.stream_id(),
                  "muxed peers must ride the same stream id");
    return;
  }
  ConnectRails(a, b, std::min(a.ProvisionedRails(), b.ProvisionedRails()));
}

void Socket::ConnectRails(Socket& a, Socket& b, std::size_t rails) {
  for (std::size_t r = 0; r < rails; ++r) {
    ControlChannel::Connect(a.rail(r), b.rail(r));
  }
}

void Socket::ConnectPair(Socket& a, Socket& b) {
  EXS_CHECK_MSG(a.type_ == b.type_, "socket types must match");
  EXS_CHECK_MSG(!a.connected_ && !b.connected_, "socket already connected");
  ConnectTransport(a, b);
  // Exchange intermediate-buffer credentials, as the real library does in
  // the connection handshake's private data.
  a.CompleteEstablishment(b.LocalRingCredentials());
  b.CompleteEstablishment(a.LocalRingCredentials());
}

verbs::MemoryRegionPtr Socket::RegisterMemory(void* addr, std::size_t len) {
  return device_->RegisterMemory(addr, len, verbs::MrScope::kApplication);
}

const verbs::MemoryRegion* Socket::FindOrRegister(const void* addr,
                                                  std::uint64_t len) {
  if (const verbs::MemoryRegion* mr = device_->FindCovering(addr, len)) {
    return mr;
  }
  EXS_CHECK_MSG(options_.auto_register_memory,
                "buffer not registered and auto-registration is off");
  return RegisterMemory(const_cast<void*>(addr), len).get();
}

void Socket::CheckHandle(const verbs::MemoryRegion& mr, const void* buf,
                         std::uint64_t len) const {
  EXS_CHECK_MSG(device_->FindByLkey(mr.lkey()) == &mr,
                "memory handle is not a live registration of this device");
  EXS_CHECK_MSG(mr.Covers(reinterpret_cast<std::uint64_t>(buf), len),
                "memory handle does not cover the buffer");
}

std::uint64_t Socket::Send(const void* buf, std::uint64_t len,
                           SendFlags /*flags*/) {
  EXS_CHECK_MSG(connected_, "Send on unconnected socket");
  const std::uint64_t id = next_request_id_++;
  SubmitSend(id, buf, len, len > 0 ? FindOrRegister(buf, len) : nullptr);
  return id;
}

std::uint64_t Socket::Send(const void* buf, std::uint64_t len,
                           const verbs::MemoryRegion& mr,
                           SendFlags /*flags*/) {
  EXS_CHECK_MSG(connected_, "Send on unconnected socket");
  const std::uint64_t id = next_request_id_++;
  CheckHandle(mr, buf, len);
  SubmitSend(id, buf, len, &mr);
  return id;
}

void Socket::SubmitSend(std::uint64_t id, const void* buf, std::uint64_t len,
                        const verbs::MemoryRegion* mr) {
  if (tx_) {
    tx_->Submit(id, buf, len, mr ? mr->lkey() : 0);
  } else if (rendezvous_tx_) {
    // The peer pulls with RDMA READ, so the *remote* key travels.
    rendezvous_tx_->Submit(id, buf, len, mr ? mr->rkey() : 0);
  } else {
    packet_tx_->Submit(id, buf, len, mr ? mr->lkey() : 0);
  }
}

std::uint64_t Socket::Sendv(const IoSlice* iov, std::uint32_t n,
                            SendFlags /*flags*/) {
  EXS_CHECK_MSG(connected_, "Sendv on unconnected socket");
  EXS_CHECK_MSG(tx_ != nullptr, "Sendv is stream-only");
  EXS_CHECK_MSG(n >= 1 && n <= verbs::kMaxSge,
                "Sendv arity must be 1.." << verbs::kMaxSge << ", got " << n);
  std::uint64_t id = next_request_id_++;
  verbs::Sge sges[verbs::kMaxSge];
  for (std::uint32_t i = 0; i < n; ++i) {
    EXS_CHECK_MSG(iov[i].len <= std::numeric_limits<std::uint32_t>::max(),
                  "Sendv slice exceeds one gather element");
    const verbs::MemoryRegion* mr = iov[i].mr;
    if (mr != nullptr) {
      CheckHandle(*mr, iov[i].addr, iov[i].len);
    } else if (iov[i].len > 0) {
      mr = FindOrRegister(iov[i].addr, iov[i].len);
    }
    sges[i] = verbs::Sge{reinterpret_cast<std::uint64_t>(iov[i].addr),
                         static_cast<std::uint32_t>(iov[i].len),
                         mr ? mr->lkey() : 0};
  }
  inst_.sendv_calls.Increment();
  tx_->SubmitV(id, {sges, n});
  return id;
}

std::uint64_t Socket::Recv(void* buf, std::uint64_t len, RecvFlags flags) {
  EXS_CHECK_MSG(connected_, "Recv on unconnected socket");
  const std::uint64_t id = next_request_id_++;
  SubmitRecv(id, buf, len, *FindOrRegister(buf, len), flags);
  return id;
}

std::uint64_t Socket::Recv(void* buf, std::uint64_t len,
                           const verbs::MemoryRegion& mr, RecvFlags flags) {
  EXS_CHECK_MSG(connected_, "Recv on unconnected socket");
  const std::uint64_t id = next_request_id_++;
  CheckHandle(mr, buf, len);
  SubmitRecv(id, buf, len, mr, flags);
  return id;
}

void Socket::SubmitRecv(std::uint64_t id, void* buf, std::uint64_t len,
                        const verbs::MemoryRegion& mr, RecvFlags flags) {
  if (rx_) {
    rx_->Submit(id, buf, len, mr.rkey(), flags.waitall);
  } else if (rendezvous_rx_) {
    // READ responses land locally, so the *local* key is needed.
    rendezvous_rx_->Submit(id, buf, len, mr.lkey(), flags.waitall);
  } else {
    packet_rx_->Submit(id, buf, len, mr.rkey());
  }
}

void Socket::Close() {
  EXS_CHECK_MSG(connected_, "Close on unconnected socket");
  if (CloseRequested()) return;  // idempotent
  if (tx_) {
    tx_->RequestShutdown();
  } else if (rendezvous_tx_) {
    rendezvous_tx_->RequestShutdown();
  } else {
    packet_tx_->RequestShutdown();
  }
}

bool Socket::CloseRequested() const {
  if (tx_) return tx_->ShutdownRequested();
  if (rendezvous_tx_) return rendezvous_tx_->ShutdownRequested();
  return packet_tx_->ShutdownRequested();
}

StreamStats Socket::stats() const {
  StreamStats s;
  s.direct_transfers = inst_.direct_transfers.value();
  s.indirect_transfers = inst_.indirect_transfers.value();
  s.direct_bytes = inst_.direct_bytes.value();
  s.indirect_bytes = inst_.indirect_bytes.value();
  s.mode_switches = inst_.mode_switches.value();
  s.adverts_received = inst_.adverts_received.value();
  s.adverts_discarded = inst_.adverts_discarded.value();
  s.sender_phase = static_cast<std::uint64_t>(inst_.tx_phase.value());
  s.coalesced_sends = inst_.coalesced_sends.value();
  s.coalesced_bytes = inst_.coalesced_bytes.value();
  s.coalesce_flushes = inst_.coalesce_flush_maxbytes.value() +
                       inst_.coalesce_flush_timeout.value() +
                       inst_.coalesce_flush_advert.value() +
                       inst_.coalesce_flush_phase.value() +
                       inst_.coalesce_flush_close.value() +
                       inst_.coalesce_flush_ordering.value();
  s.doorbell_batches = inst_.doorbell_batches.value();
  s.batched_wrs = inst_.doorbell_wrs.value();
  s.sendv_calls = inst_.sendv_calls.value();
  s.mr_registrations = device_->RegionsRegistered();
  s.adverts_sent = inst_.adverts_sent.value();
  s.acks_sent = inst_.acks_sent.value();
  s.acks_piggybacked = inst_.acks_piggybacked.value();
  s.credit_messages_sent = inst_.credit_messages_sent.value();
  s.bytes_copied_out = inst_.bytes_copied_out.value();
  s.direct_bytes_received = inst_.direct_bytes_received.value();
  s.indirect_bytes_received = inst_.indirect_bytes_received.value();
  s.receiver_phase = static_cast<std::uint64_t>(inst_.rx_phase.value());
  s.sends_completed = inst_.sends_completed.value();
  s.recvs_completed = inst_.recvs_completed.value();
  s.bytes_sent = inst_.bytes_sent.value();
  s.bytes_received = inst_.bytes_received.value();
  return s;
}

bool Socket::Quiescent() const {
  if (tx_ && rx_) return tx_->Quiescent() && rx_->Quiescent();
  if (rendezvous_tx_) {
    return rendezvous_tx_->Quiescent() && rendezvous_rx_->Quiescent();
  }
  return packet_tx_->Quiescent() && packet_rx_->Quiescent();
}

void Socket::OnFatal(std::size_t /*rail*/, verbs::WcStatus /*status*/) {
  // A multi-rail kill fires once per channel; the application sees one
  // death per transport incident.
  if (fatal_event_raised_) return;
  fatal_event_raised_ = true;
  death_time_ = device_->scheduler().Now();
  inst_.transport_kills.Increment();
  if (tx_) tx_->NoteTransportKilled();
  if (rx_) rx_->NoteTransportKilled();
  events_->Push(Event{EventType::kError, 0, 0, false});
}

bool Socket::KillTransport() {
  EXS_CHECK_MSG(connected_, "KillTransport on unconnected socket");
  bool any = false;
  for (std::size_t r = 0; r < effective_rails_; ++r) {
    any = rails_[r]->Kill() || any;
  }
  return any;
}

bool Socket::TransportDead() const {
  if (!connected_) return false;
  for (std::size_t r = 0; r < effective_rails_; ++r) {
    if (!rails_[r]->dead()) return false;
  }
  return true;
}

void Socket::ResumePair(Socket& a, Socket& b, std::size_t max_rails) {
  EXS_CHECK_MSG(a.tx_ != nullptr && b.tx_ != nullptr,
                "resume is stream-only");
  EXS_CHECK_MSG(a.options_.recovery.enabled && b.options_.recovery.enabled,
                "resume requires StreamOptions::recovery on both sockets");
  EXS_CHECK_MSG(a.connected_ && b.connected_, "resume before establishment");
  EXS_CHECK_MSG(a.TransportDead() && b.TransportDead(),
                "resume requires both transports dead");

  // Rail failover: reconnect only the surviving rails (callers model an
  // N -> N-1 rail loss by capping; 0 keeps the pre-kill count).  Rail 0
  // carries control and always survives as an endpoint — only its queue
  // pair is replaced.
  std::size_t rails = std::min(a.effective_rails_, b.effective_rails_);
  if (max_rails != 0) rails = std::min(rails, max_rails);
  if (a.muxed_ || b.muxed_) {
    // Muxed resume (always one rail): the slot transport never died
    // (virtual kill), so no queue pairs are rebuilt — Revive bumps each
    // stream's epoch (stale in-flight messages drop on arrival) and resets
    // its window; the frontier handshake below is unchanged.
    EXS_CHECK_MSG(a.muxed_ && b.muxed_,
                  "both sockets of a muxed pair must be muxed");
    a.mux_stream()->Revive();
    b.mux_stream()->Revive();
  } else {
    ConnectRails(a, b, rails);
  }
  a.effective_rails_ = rails;
  b.effective_rails_ = rails;
  a.fatal_event_raised_ = false;
  b.fatal_event_raised_ = false;

  const SimTime now = a.device_->scheduler().Now();
  a.inst_.resumes.Increment();
  b.inst_.resumes.Increment();
  a.inst_.resume_latency.Record(static_cast<std::uint64_t>(
      now >= a.death_time_ ? now - a.death_time_ : 0));
  b.inst_.resume_latency.Record(static_cast<std::uint64_t>(
      now >= b.death_time_ ? now - b.death_time_ : 0));

  // Each direction re-synchronises independently: the sender rewinds to
  // its peer receiver's delivered frontier, both halves adopt a common
  // indirect resume phase at or past where either stood.
  auto resume_phase = [](const StreamTx& tx, const StreamRx& rx) {
    std::uint64_t p = std::max(tx.phase(), rx.phase());
    return PhaseIsIndirect(p) ? p : NextPhase(p);
  };
  auto make_info = [rails](StreamRx& rx) {
    StreamTx::ResumeInfo info;
    info.delivered = rx.DeliveredFrontier();
    info.ring_write = rx.RingWriteOffset();
    info.ring_read = rx.RingReadOffset();
    info.ring_used = rx.RingBytes();
    info.peer_closed = rx.PeerClosed();
    info.rails = rails;
    return info;
  };
  std::uint64_t phase_ab = resume_phase(*a.tx_, *b.rx_);
  std::uint64_t phase_ba = resume_phase(*b.tx_, *a.rx_);
  StreamTx::ResumeInfo info_ab = make_info(*b.rx_);
  info_ab.resume_phase = phase_ab;
  StreamTx::ResumeInfo info_ba = make_info(*a.rx_);
  info_ba.resume_phase = phase_ba;

  // Senders first (state only), then receivers (which re-advertise and
  // restart the drain), then both pumps: by the time data can move, every
  // half is in the resumed state.
  a.tx_->ResumeTx(info_ab);
  b.tx_->ResumeTx(info_ba);
  a.rx_->ResumeRx(phase_ba, static_cast<std::uint32_t>(rails));
  b.rx_->ResumeRx(phase_ab, static_cast<std::uint32_t>(rails));
  a.tx_->OnCreditAvailable();
  b.tx_->OnCreditAvailable();
}

}  // namespace exs
