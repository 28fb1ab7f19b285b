#include "exs/socket.hpp"

#include <algorithm>
#include <limits>
#include <string>

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

const char* ToString(RailScheduler scheduler) {
  switch (scheduler) {
    case RailScheduler::kRoundRobin: return "round-robin";
    case RailScheduler::kShortestOutstanding: return "shortest-outstanding";
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
  mux_ = std::move(wiring_.mux_stream);
  const std::size_t rails = mux_ != nullptr ? 0 : options_.rails;
  if (rails > 0) rail_inst_ = std::make_unique<RailInstruments[]>(rails);
  BindSocketInstruments(registry_, inst_, mux_ != nullptr,
                        {rail_inst_.get(), rails});
  if (mux_ != nullptr) {
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
    mux_->SetInstruments(&inst_.mux_hol_wait, &inst_.mux_parks);
  } else {
    channel_ = std::make_unique<ControlChannel>(device, options_.credits,
                                                wiring_.shared_slots,
                                                wiring_.slots_reserved);
    channel_->SetInstruments(&inst_.send_credits, &inst_.credit_messages_sent);
    InstrumentRail(0, *channel_);
    for (std::uint32_t rail = 1; rail < options_.rails; ++rail) {
      data_rails_.push_back(
          std::make_unique<ControlChannel>(device, options_.credits));
      InstrumentRail(rail, *data_rails_.back());
    }
  }
  // Hot-path batching (StreamOptions::batching).  Doorbell batching needs
  // the pump-exit flush discipline only StreamTx implements, so it is
  // stream-only and never muxed (a MuxStream posts through a shared slot
  // whose other streams would be held hostage by a pending batch).
  bool stream_proto = type_ == SocketType::kStream &&
                      options_.mode != ProtocolMode::kReadRendezvous;
  if (options_.batching.doorbell) {
    EXS_CHECK_MSG(stream_proto && mux_ == nullptr,
                  "doorbell batching requires a classic stream socket");
    EXS_CHECK_MSG(options_.batching.max_wrs >= 1,
                  "doorbell batching needs max_wrs >= 1");
    channel_->SetSendBatching(options_.batching.max_wrs);
    for (auto& rail : data_rails_) {
      rail->SetSendBatching(options_.batching.max_wrs);
    }
  }
  if (options_.batching.cq_drain > 1) {
    EXS_CHECK_MSG(stream_proto && mux_ == nullptr,
                  "batched CQ dispatch requires a classic stream socket");
    channel_->SetCqDispatchBatch(options_.batching.cq_drain);
    for (auto& rail : data_rails_) {
      rail->SetCqDispatchBatch(options_.batching.cq_drain);
    }
  }
  events_ = std::make_unique<EventQueue>(device.node().cpu(),
                                         device.profile().per_event_cpu);
  if (type_ == SocketType::kStream &&
      options_.mode == ProtocolMode::kReadRendezvous) {
    rendezvous_tx_ = std::make_unique<RendezvousTx>(MakeContext(&tx_trace_));
    rendezvous_rx_ = std::make_unique<RendezvousRx>(MakeContext(&rx_trace_));
  } else if (type_ == SocketType::kStream) {
    tx_ = std::make_unique<StreamTx>(MakeContext(&tx_trace_));
    StreamContext rx_ctx = MakeContext(&rx_trace_);
    // Only the receiver half owns the leased ring (and its release).
    rx_ctx.ring_lease = std::move(wiring_.ring_lease);
    rx_ = std::make_unique<StreamRx>(std::move(rx_ctx));
  } else {
    packet_tx_ = std::make_unique<SeqPacketTx>(MakeContext(&tx_trace_));
    packet_rx_ = std::make_unique<SeqPacketRx>(MakeContext(&rx_trace_));
  }
  if (rx_) rx_->SetRailInstruments({rail_inst_.get(), rails});
  WireCallbacks();
  for (std::size_t rail = 1; rail < ProvisionedRails(); ++rail) {
    WireRailCallbacks(rail);
  }
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

void Socket::InstrumentRail(std::size_t rail, ControlChannel& channel) {
  // Per-queue-pair telemetry: the verbs QueuePairStats counters mirror
  // into the rail's named instruments, so per-rail activity shows up in
  // the metrics JSON and — via the inflight_wrs series — as counter
  // tracks in the Perfetto timeline export.
  RailInstruments& r = rail_inst_[rail];
  verbs::QueuePairInstruments qp;
  qp.sends_posted = &r.sends_posted;
  qp.recvs_posted = &r.recvs_posted;
  qp.payload_bytes_sent = &r.payload_bytes_sent;
  qp.wire_bytes_sent = &r.wire_bytes_sent;
  qp.messages_delivered = &r.messages_delivered;
  qp.completion_latency = &r.completion_latency;
  // Doorbell batching aggregates socket-wide: every rail shares the
  // doorbell.* counters, so the socket's achieved batch depth is simply
  // doorbell.wrs_batched / doorbell.batches.
  qp.doorbells = &inst_.doorbell_batches;
  qp.batched_wrs = &inst_.doorbell_wrs;
  channel.SetQpInstruments(qp, &r.inflight_wrs);
}

StreamContext Socket::MakeContext(TraceLog* trace) {
  StreamContext ctx;
  ctx.trace = trace;
  ctx.channel = endpoint();
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

void Socket::WireCallbacks() {
  ChannelEndpoint::Callbacks cb;
  cb.on_control = [this](const wire::ControlMessage& msg) {
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
  };
  cb.on_data = [this](bool indirect, std::uint64_t len, bool has_stripe_seq,
                      std::uint64_t stripe_seq, std::uint64_t trace_ctx) {
    if (rx_) {
      rx_->OnData(indirect, len, has_stripe_seq, stripe_seq, /*rail=*/0,
                  trace_ctx);
    } else {
      EXS_CHECK_MSG(packet_rx_ != nullptr,
                    "data WWI on a rendezvous connection");
      EXS_CHECK_MSG(!has_stripe_seq, "stripe seq on a SEQPACKET connection");
      packet_rx_->OnData(indirect, len);
    }
  };
  cb.on_data_sent = [this](std::uint64_t wr_id) {
    if (tx_) {
      tx_->OnWwiComplete(wr_id);
    } else {
      packet_tx_->OnWwiComplete(wr_id);
    }
  };
  cb.on_read_done = [this](std::uint64_t wr_id, std::uint64_t bytes) {
    EXS_CHECK_MSG(rendezvous_rx_ != nullptr,
                  "READ completion outside rendezvous mode");
    rendezvous_rx_->OnReadComplete(wr_id, bytes);
  };
  cb.on_credit_available = [this] {
    if (tx_) tx_->OnCreditAvailable();
    if (rx_) rx_->OnCreditAvailable();
    if (packet_tx_) packet_tx_->OnCreditAvailable();
    if (packet_rx_) packet_rx_->OnCreditAvailable();
    if (rendezvous_tx_) rendezvous_tx_->OnCreditAvailable();
    if (rendezvous_rx_) rendezvous_rx_->OnCreditAvailable();
  };
  cb.on_fatal = [this](verbs::WcStatus status) { OnTransportFatal(status); };
  endpoint()->set_callbacks(std::move(cb));
}

void Socket::WireRailCallbacks(std::size_t rail) {
  // Data rails carry WWI chunks and the CREDIT messages the channel
  // absorbs internally; ADVERT/ACK/SHUTDOWN stay on rail 0 where their
  // ordering relative to single-rail traffic is defined.
  ChannelEndpoint::Callbacks cb;
  cb.on_control = [](const wire::ControlMessage&) {
    EXS_CHECK_MSG(false, "control message on a data rail");
  };
  cb.on_data = [this, rail](bool indirect, std::uint64_t len,
                            bool has_stripe_seq, std::uint64_t stripe_seq,
                            std::uint64_t trace_ctx) {
    EXS_CHECK_MSG(rx_ != nullptr, "data rail on a non-stream socket");
    rx_->OnData(indirect, len, has_stripe_seq, stripe_seq, rail, trace_ctx);
  };
  cb.on_data_sent = [this, rail](std::uint64_t wr_id) {
    tx_->OnWwiComplete(wr_id, rail);
  };
  cb.on_credit_available = [this] {
    // A rail credit unblocks the sender's rail pick; the receiver's
    // control traffic never waits on data-rail credits.
    if (tx_) tx_->OnCreditAvailable();
  };
  cb.on_fatal = [this](verbs::WcStatus status) { OnTransportFatal(status); };
  data_rails_[rail - 1]->set_callbacks(std::move(cb));
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
      std::vector<ChannelEndpoint*> rails;
      rails.push_back(channel_.get());
      for (std::size_t r = 1; r < effective_rails_; ++r) {
        rails.push_back(data_rails_[r - 1].get());
      }
      tx_->SetDataRails(std::move(rails));
      rx_->SetStriping(static_cast<std::uint32_t>(effective_rails_));
    }
  }
  connected_ = true;
}

void Socket::ConnectTransport(Socket& a, Socket& b) {
  if (a.mux_ != nullptr || b.mux_ != nullptr) {
    // Muxed connections: the slot queue pairs were wired when the two
    // MuxGroups connected; per-connection establishment only checks that
    // the sockets ride matching streams of peered groups.
    EXS_CHECK_MSG(a.mux_ != nullptr && b.mux_ != nullptr,
                  "both sockets of a muxed pair must be muxed");
    EXS_CHECK_MSG(a.mux_->GroupAlive() && b.mux_->GroupAlive(),
                  "muxed connect after group teardown");
    EXS_CHECK_MSG(a.mux_->group().peer() == &b.mux_->group(),
                  "muxed sockets belong to groups that are not peers");
    EXS_CHECK_MSG(a.mux_->stream_id() == b.mux_->stream_id(),
                  "muxed peers must ride the same stream id");
    return;
  }
  ControlChannel::Connect(*a.channel_, *b.channel_);
  std::size_t rails = std::min(a.ProvisionedRails(), b.ProvisionedRails());
  for (std::size_t r = 1; r < rails; ++r) {
    ControlChannel::Connect(*a.data_rails_[r - 1], *b.data_rails_[r - 1]);
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

void Socket::OnTransportFatal(verbs::WcStatus /*status*/) {
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
  if (mux_ != nullptr) return mux_->Kill();  // virtual: the slot QP lives on
  bool any = channel_->Kill();
  for (std::size_t r = 1; r < effective_rails_; ++r) {
    any = data_rails_[r - 1]->Kill() || any;
  }
  return any;
}

bool Socket::TransportDead() const {
  if (!connected_) return false;
  if (mux_ != nullptr) return mux_->dead();
  if (!channel_->dead()) return false;
  for (std::size_t r = 1; r < effective_rails_; ++r) {
    if (!data_rails_[r - 1]->dead()) return false;
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
  // N -> N-1 rail loss by capping; 0 keeps the pre-kill count).  Rail 0 is
  // the control channel and always survives as a channel object — only
  // its queue pair is replaced.
  std::size_t rails = std::min(a.effective_rails_, b.effective_rails_);
  if (max_rails != 0) rails = std::min(rails, max_rails);
  if (a.mux_ != nullptr || b.mux_ != nullptr) {
    // Muxed resume: the slot transport never died (virtual kill), so no
    // queue pairs are rebuilt — Revive bumps each stream's epoch (stale
    // in-flight messages drop on arrival) and resets its window; the
    // frontier handshake below is unchanged.
    EXS_CHECK_MSG(a.mux_ != nullptr && b.mux_ != nullptr,
                  "both sockets of a muxed pair must be muxed");
    a.mux_->Revive();
    b.mux_->Revive();
    rails = 1;
  } else {
    ControlChannel::Connect(*a.channel_, *b.channel_);
    for (std::size_t r = 1; r < rails; ++r) {
      ControlChannel::Connect(*a.data_rails_[r - 1], *b.data_rails_[r - 1]);
    }
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
  auto rail_list = [rails](Socket& s) {
    std::vector<ChannelEndpoint*> list;
    if (rails > 1) {
      list.push_back(s.channel_.get());
      for (std::size_t r = 1; r < rails; ++r) {
        list.push_back(s.data_rails_[r - 1].get());
      }
    }
    return list;
  };
  auto resume_phase = [](const StreamTx& tx, const StreamRx& rx) {
    std::uint64_t p = std::max(tx.phase(), rx.phase());
    return PhaseIsIndirect(p) ? p : NextPhase(p);
  };
  auto make_info = [&](Socket& tx_side, StreamRx& rx) {
    StreamTx::ResumeInfo info;
    info.delivered = rx.DeliveredFrontier();
    info.ring_write = rx.RingWriteOffset();
    info.ring_read = rx.RingReadOffset();
    info.ring_used = rx.RingBytes();
    info.peer_closed = rx.PeerClosed();
    info.rails = rail_list(tx_side);
    return info;
  };
  std::uint64_t phase_ab = resume_phase(*a.tx_, *b.rx_);
  std::uint64_t phase_ba = resume_phase(*b.tx_, *a.rx_);
  StreamTx::ResumeInfo info_ab = make_info(a, *b.rx_);
  info_ab.resume_phase = phase_ab;
  StreamTx::ResumeInfo info_ba = make_info(b, *a.rx_);
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
