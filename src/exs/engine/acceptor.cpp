#include "exs/engine/acceptor.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"

namespace exs::engine {

Acceptor::Acceptor(verbs::Device& device, ProgressEngine& engine,
                   AcceptorOptions options, metrics::Registry* registry)
    : device_(&device),
      engine_(&engine),
      pool_(device, options.pool, registry),
      slots_(device, options.control_slots, registry) {
  if (options.mux.has_value()) {
    qp_pool_ = std::make_unique<QpPool>(device, *options.mux, registry);
  }
  if (registry != nullptr) {
    registry->Bind("pool.admission_refusals", "connections", refusals_);
  }
}

void Acceptor::Refuse() { refusals_.Increment(); }

std::unique_ptr<Socket> Acceptor::Admit(verbs::Device& device,
                                        SocketType type,
                                        const StreamOptions& options,
                                        const std::string& name,
                                        const AcceptMeta& meta) {
  // Admission control: every resource the socket will draw from the shared
  // pools is *committed* here, atomically with the check — an accept must
  // never be able to starve an established connection, and no later wiring
  // step (however deferred) can turn an admission refusal into a crash.
  if (!pool_.AdmissionOpen()) {
    Refuse();
    return nullptr;
  }
  std::unique_ptr<MuxStream> stream;
  if (meta.mux) {
    // Muxed sockets ride the shared-QP pool: no dedicated channel, so no
    // SRQ slot reservation — their receives are the slot QPs' pre-posted
    // pools, committed once at pool construction.  The ring lease is still
    // per-socket (the indirect path buffers per stream, not per QP).
    if (qp_pool_ == nullptr) {
      Refuse();
      return nullptr;
    }
    stream = qp_pool_->Admit(meta.mux_stream);
    if (stream == nullptr) {
      Refuse();
      return nullptr;
    }
  } else if (!slots_.ReserveSlots(options.credits)) {
    Refuse();
    return nullptr;
  }
  RingLease lease = pool_.Acquire();
  if (!lease.valid()) {  // unreachable after AdmissionOpen; refund anyway
    if (!meta.mux) slots_.UnreserveSlots(options.credits);
    Refuse();
    return nullptr;
  }
  SocketWiring wiring;
  wiring.ring_lease = std::move(lease);
  if (meta.mux) {
    wiring.mux_stream = std::move(stream);
  } else {
    // The socket's channel adopts the reservation made above and refunds
    // it at teardown.
    wiring.shared_slots = &slots_;
  }
  return std::make_unique<Socket>(device, type, options, name,
                                  std::move(wiring));
}

Listener* Acceptor::Listen(ConnectionService& connections, std::uint16_t port,
                           StreamOptions options,
                           ProgressEngine::EventHandler handler,
                           AcceptCallback on_accept) {
  EXS_CHECK_MSG(options.rails == 1,
                "engine-managed sockets are single-rail (shared SRQ pool)");
  Listener* listener = connections.Listen(device_->node_index(), port,
                                          SocketType::kStream, options);
  listener->SetAcceptGate([this](verbs::Device& dev, SocketType type,
                                 const StreamOptions& opts,
                                 const std::string& name,
                                 const AcceptMeta& meta) {
    return Admit(dev, type, opts, name, meta);
  });
  listener->SetAcceptHandler(
      [this, handler = std::move(handler),
       on_accept = std::move(on_accept)](Socket* socket) {
        engine_->Register(socket, handler);
        if (on_accept) on_accept(*socket);
      });
  return listener;
}

}  // namespace exs::engine
