// The EXS socket: the public, sockets-like face of the library.
//
// Mirrors the ES-API shape the paper describes: sockets are created with a
// type (SOCK_STREAM or SOCK_SEQPACKET), I/O memory can be registered
// explicitly for zero-copy transfers, Send()/Recv() are asynchronous and
// return a request id immediately, and completions are retrieved from the
// socket's event queue.  Connection establishment is collapsed into
// ConnectPair() — the simulated stand-in for the listen/connect/accept
// exchange, during which the peers trade intermediate-buffer credentials.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "exs/channel.hpp"
#include "exs/event_queue.hpp"
#include "exs/instruments.hpp"
#include "exs/mux.hpp"
#include "exs/rendezvous.hpp"
#include "exs/seqpacket.hpp"
#include "exs/stream.hpp"
#include "exs/trace.hpp"
#include "exs/types.hpp"
#include "verbs/device.hpp"

namespace exs {

/// Optional shared-resource plumbing for engine-managed sockets.  A plain
/// (default-constructed) wiring reproduces the classic socket exactly: a
/// private receiver ring and a private control-slot slab per channel.
struct SocketWiring {
  /// Receiver ring carved from a shared BufferPool (see StreamContext).
  RingLease ring_lease;
  /// Control receive slots drawn from a shared SRQ-backed pool instead of
  /// a per-channel slab.  Requires rails == 1 (engine sockets never
  /// stripe; the shared pool reserves per-connection, not per-rail).  The
  /// admission point has already reserved `credits` slots against it
  /// (check and commitment are atomic there); the channel adopts that
  /// reservation and refunds it at teardown.
  ControlSlotSource* shared_slots = nullptr;
  /// Shared-QP multiplexing (docs/PROTOCOL.md §13): this stream of a
  /// MuxGroup becomes the socket's one rail instead of a dedicated control
  /// channel — no queue pair, completion queues, or credit slab are created
  /// per connection.  Stream sockets only; rails and shared_slots must stay
  /// at their defaults.  Null (the default) is the classic dedicated
  /// transport, bit-identical to pre-mux builds.
  std::unique_ptr<MuxStream> mux_stream;
};

class Socket : public simnet::TransportKillTarget,
               private ChannelEndpoint::Owner {
 public:
  Socket(verbs::Device& device, SocketType type, StreamOptions options,
         std::string name, SocketWiring wiring = {});

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Establish the connection between two sockets of the same type on
  /// opposite nodes (stands in for exs_connect()/exs_accept()).
  static void ConnectPair(Socket& a, Socket& b);

  /// Wire the transport between two sockets: the rails both sides
  /// provisioned (the minimum of the two counts), rail i to rail i.  Shared
  /// by ConnectPair and the ConnectionService handshake; the rail count
  /// each side committed to rides in RingCredentials.
  static void ConnectTransport(Socket& a, Socket& b);

  /// Explicitly register I/O memory (exs_mregister()) and return its
  /// handle, the exs_mhandle_t that the region-taking Send/Sendv/Recv
  /// forms accept.  Buffers passed to the address forms must be covered by
  /// a registration; with options.auto_register_memory the library
  /// registers them on first use.  Scope is the device (the protection
  /// domain), as with exs_mregister and verbs PDs: a region registered
  /// through any socket covers every socket on the same node, and none on
  /// the other.  The region stays registered until
  /// Device::DeregisterMemory, which must run before its memory is freed
  /// or reused; verbs::RegisteredBuffer does that for memory it owns.
  verbs::MemoryRegionPtr RegisterMemory(void* addr, std::size_t len);

  /// Asynchronous send; returns the request id reported by the completion
  /// event.  The buffer must stay untouched until then (zero-copy).  This
  /// address form finds the covering registration in the device's address
  /// index (or auto-registers the buffer), then submits as the handle form
  /// does.
  std::uint64_t Send(const void* buf, std::uint64_t len, SendFlags flags = {});
  /// Handle form (exs_send with an exs_mhandle_t): `mr` is a region that
  /// RegisterMemory returned or a verbs::RegisteredBuffer's region().  It
  /// must be a live registration of this socket's device covering
  /// [buf, buf+len), checked in O(1); no address lookup happens.  This is
  /// how the RPC tier sends and receives: its pools are internal scope
  /// (verbs::MrScope::kInternal), so the address index never holds them.
  std::uint64_t Send(const void* buf, std::uint64_t len,
                     const verbs::MemoryRegion& mr, SendFlags flags = {});

  /// One element of a vectored send (exs_sendv) — the library's iovec.
  /// `mr`, when set, is the slice's handle, with the same rules as Send's
  /// handle form; a null `mr` resolves the slice by address.
  struct IoSlice {
    const void* addr = nullptr;
    std::uint64_t len = 0;
    const verbs::MemoryRegion* mr = nullptr;
  };

  /// Vectored asynchronous send (exs_sendv): one logical send — one
  /// request id, one completion — whose payload is gathered from up to
  /// verbs::kMaxSge slices by the HCA, with no host-side copy.  Stream
  /// sockets only.  Every slice buffer must stay untouched until the
  /// completion, exactly like Send's.  A slice without a handle resolves
  /// as Send's address form does (the device's address index, else
  /// auto-registration).
  std::uint64_t Sendv(const IoSlice* iov, std::uint32_t n,
                      SendFlags flags = {});

  /// Asynchronous receive; RecvFlags::waitall requests MSG_WAITALL
  /// semantics (complete only when the buffer is full).  The address form
  /// resolves the buffer's registration as Send's does.
  std::uint64_t Recv(void* buf, std::uint64_t len, RecvFlags flags = {});
  /// Handle form (exs_recv with an exs_mhandle_t), checked as Send's.
  std::uint64_t Recv(void* buf, std::uint64_t len,
                     const verbs::MemoryRegion& mr, RecvFlags flags = {});

  /// Orderly close of this socket's *sending* direction (shutdown-write):
  /// queued sends flush first, then the peer observes end-of-stream — its
  /// outstanding receives complete with whatever they hold and it gets a
  /// kPeerClosed event.  Receiving on this socket remains possible until
  /// the peer closes its own sending side.  Sending after Close() throws.
  void Close();
  bool CloseRequested() const;

  EventQueue& events() { return *events_; }
  /// Legacy aggregate view, rebuilt on demand from the metrics registry —
  /// the registry's named instruments are the single source of truth.
  StreamStats stats() const;
  /// Every named counter/gauge/histogram/series this socket maintains.
  /// Names and units are catalogued in docs/OBSERVABILITY.md.
  const metrics::Registry& metrics_registry() const { return registry_; }
  metrics::Registry& metrics_registry() { return registry_; }

  /// Attach causal chunk tracing (common/spans.hpp): registers
  /// "<name>.tx"/"<name>.rx" endpoints and hands the collector to both
  /// stream halves.  No-op outside stream mode; never perturbs timing.
  void EnableChunkSpans(spans::SpanCollector* collector);
  /// Endpoint ids registered by EnableChunkSpans (0 until then); the
  /// timeline exporter uses them to pick this socket's chunks out of the
  /// shared collector.
  std::uint64_t tx_span_endpoint() const { return span_tx_endpoint_; }
  std::uint64_t rx_span_endpoint() const { return span_rx_endpoint_; }
  SocketType type() const { return type_; }
  const StreamOptions& options() const { return options_; }
  const std::string& name() const { return name_; }
  verbs::Device& device() { return *device_; }
  /// The dedicated channel carrying rail `i` (rail 0 also carries control).
  /// Throws InvariantViolation on a muxed socket, whose one rail is
  /// mux_stream(), and unless i < ProvisionedRails().
  ControlChannel& rail(std::size_t i);
  const ControlChannel& rail(std::size_t i) const;
  /// The mux stream that is this socket's one rail, or null on a classic
  /// socket.
  MuxStream* mux_stream() {
    return muxed_ ? static_cast<MuxStream*>(rails_[0].get()) : nullptr;
  }
  bool Muxed() const { return muxed_; }

  /// Protocol-state introspection (tests, invariant checks, examples).
  StreamTx* stream_tx() { return tx_.get(); }
  StreamRx* stream_rx() { return rx_.get(); }

  /// Engine reaping: hand a pool-leased receiver ring back once the
  /// incoming stream has hit EOF and drained (no-op on classic sockets
  /// and while the ring is still live).
  bool TryReleaseRxRing() { return rx_ ? rx_->TryReleaseRing() : false; }

  /// Record protocol traces for this socket (off by default).  The
  /// outgoing stream's sender events and the incoming stream's receiver
  /// events are kept separately so the lemma validators in exs/trace.hpp
  /// can run on each.  `capacity` bounds each log (0 = unbounded); see
  /// TraceLog::SetCapacity for the drop semantics.
  void EnableTracing(std::size_t capacity = 0) {
    tx_trace_.SetCapacity(capacity);
    rx_trace_.SetCapacity(capacity);
    if (!tx_trace_.enabled()) {
      // Surface capacity drops in the metrics snapshot so a truncated
      // trace is visible without polling dropped() (docs/OBSERVABILITY.md).
      tx_trace_.BindDropCounter(registry_, "trace.dropped_tx");
      rx_trace_.BindDropCounter(registry_, "trace.dropped_rx");
    }
    tx_trace_.Enable();
    rx_trace_.Enable();
  }
  const TraceLog& tx_trace() const { return tx_trace_; }
  const TraceLog& rx_trace() const { return rx_trace_; }

  /// True when no requests are pending in either direction.
  bool Quiescent() const;

  // ---- Fatal faults and recovery (StreamOptions::recovery) --------------

  /// Kill every rail this connection uses (ChannelEndpoint::Kill on each
  /// effective rail): in-flight WRs flush with error completions, new posts
  /// are refused, and the peer's rails die after the transport's ack
  /// delay.  Returns false when the transport is already dead — the kill is
  /// a no-op, never a second flush.
  /// (Implements the FaultInjector's simnet::TransportKillTarget, the
  /// kQpKill fault's landing point.)
  bool KillTransport() override;

  /// True once every rail the connection uses is dead.  The peer halves
  /// die one ack-delay later than the killed side; resume requires both.
  bool TransportDead() const;

  /// Reconnect two killed stream sockets and resume both byte streams at
  /// the exact delivered frontier (docs/PROTOCOL.md §12): fresh queue
  /// pairs, a sequence handshake re-basing each sender on its peer
  /// receiver's delivered bytes and ring cursors, retransmission of the
  /// unacknowledged suffix from the senders' logs, and — when `max_rails`
  /// is nonzero — rail failover onto the first `max_rails` surviving rails.
  /// Requires StreamOptions::recovery.enabled on both sockets and both
  /// transports dead.  Delivered byte content is unchanged by any
  /// kill/resume: the equivalence harness in tests/stream_recovery_test
  /// holds the delivered FNV fingerprint byte-identical to an unkilled run.
  static void ResumePair(Socket& a, Socket& b, std::size_t max_rails = 0);

  // ---- Connection-establishment internals -------------------------------
  // Used by ConnectPair() and by the ConnectionService handshake
  // (exs/connection.hpp); not part of the application API.

  /// Intermediate-buffer credentials this socket's incoming stream
  /// advertises to its peer (zeros for SOCK_SEQPACKET), plus the number of
  /// rails this side provisioned — the striping negotiation settles
  /// on the minimum of both sides' counts.
  struct RingCredentials {
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t capacity = 0;
    std::uint32_t rails = 1;
  };
  RingCredentials LocalRingCredentials() const;

  /// Install the peer's intermediate-buffer credentials and open the
  /// socket for I/O.  The rails must already be linked.
  void CompleteEstablishment(const RingCredentials& peer_ring);

  /// Rails this socket built at construction: options.rails channels, or
  /// the one mux stream.
  std::size_t ProvisionedRails() const { return rails_.size(); }
  /// Rails the connection actually stripes across after negotiation; 1
  /// until CompleteEstablishment, and forever on classic connections.
  std::size_t effective_rails() const { return effective_rails_; }

 private:
  const verbs::MemoryRegion* FindOrRegister(const void* addr,
                                            std::uint64_t len);
  /// Throw unless `mr` is a live registration of this device covering
  /// [buf, buf+len).
  void CheckHandle(const verbs::MemoryRegion& mr, const void* buf,
                   std::uint64_t len) const;
  /// The submit code both forms share, once the region is known (null for
  /// a zero-length send).
  void SubmitSend(std::uint64_t id, const void* buf, std::uint64_t len,
                  const verbs::MemoryRegion* mr);
  void SubmitRecv(std::uint64_t id, void* buf, std::uint64_t len,
                  const verbs::MemoryRegion& mr, RecvFlags flags);
  StreamContext MakeContext(TraceLog* trace);

  // ---- ChannelEndpoint::Owner: every rail reports here -------------------
  // Every rail carries WWI chunks and the CREDIT messages the channel
  // absorbs internally; ADVERT/ACK/SHUTDOWN and READ completions stay on
  // rail 0, where their ordering relative to single-rail traffic is defined.
  void OnControl(std::size_t rail, const wire::ControlMessage& msg) override;
  void OnData(std::size_t rail, bool indirect, std::uint64_t len,
              const verbs::ExtHeader& ext) override;
  void OnDataSent(std::size_t rail, std::uint64_t wr_id) override;
  void OnReadDone(std::size_t rail, std::uint64_t wr_id,
                  std::uint64_t bytes) override;
  void OnCreditAvailable(std::size_t rail) override;
  /// First rail death of a (possibly multi-rail) transport kill: trace
  /// markers on both halves, one kError event, the kill counter.
  void OnFatal(std::size_t rail, verbs::WcStatus status) override;
  /// Connect (or, after a kill, reconnect) the first `rails` dedicated
  /// rails of two classic sockets pairwise.
  static void ConnectRails(Socket& a, Socket& b, std::size_t rails);

  verbs::Device* device_;
  SocketType type_;
  StreamOptions options_;
  std::string name_;
  SocketWiring wiring_;
  metrics::Registry registry_;
  SocketInstruments inst_;
  /// One per provisioned rail, index = rail; sized once at construction
  /// (none on a muxed socket), so bound instruments never move.
  std::unique_ptr<RailInstruments[]> rail_inst_;
  std::uint64_t span_tx_endpoint_ = 0;
  std::uint64_t span_rx_endpoint_ = 0;
  /// The transport, one endpoint per rail: options.rails ControlChannels,
  /// or the one MuxStream on a muxed socket.  Rail 0 carries control and is
  /// the endpoint every protocol half drives; StreamTx stripes chunks over
  /// the first effective_rails_.  Filled once at construction and never
  /// resized after: the halves hold pointers into it and StreamTx a span
  /// of it, and they are declared (so destroyed) after it.
  std::vector<std::unique_ptr<ChannelEndpoint>> rails_;
  bool muxed_ = false;
  std::size_t effective_rails_ = 1;
  std::unique_ptr<EventQueue> events_;
  std::unique_ptr<StreamTx> tx_;
  std::unique_ptr<StreamRx> rx_;
  std::unique_ptr<SeqPacketTx> packet_tx_;
  std::unique_ptr<SeqPacketRx> packet_rx_;
  std::unique_ptr<RendezvousTx> rendezvous_tx_;
  std::unique_ptr<RendezvousRx> rendezvous_rx_;
  TraceLog tx_trace_;
  TraceLog rx_trace_;
  std::uint64_t next_request_id_ = 1;
  bool connected_ = false;
  /// Recovery: one kError event per transport death (reset at resume so a
  /// second kill reports again), and when the death was observed (resume
  /// latency histogram).
  bool fatal_event_raised_ = false;
  SimTime death_time_ = 0;
};

}  // namespace exs
