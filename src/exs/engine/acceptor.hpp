// The exs_listen/exs_accept-style server front end.
//
// Ties the engine's shared resources together: a listener whose accept
// gate performs admission control against the BufferPool (ring leases) and
// ControlSlotPool (SRQ credit reservations), constructing every accepted
// socket with SocketWiring that draws from both, and an accept handler
// that registers the new socket with the ProgressEngine.  A connection
// arriving under memory pressure is REJECTed during the handshake — the
// client sees a failed connect, never a stalled established stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include <memory>
#include <optional>

#include "common/metrics.hpp"
#include "exs/connection.hpp"
#include "exs/engine/buffer_pool.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/engine/qp_pool.hpp"
#include "exs/engine/srq_pool.hpp"
#include "verbs/device.hpp"

namespace exs::engine {

struct AcceptorOptions {
  BufferPoolOptions pool;          ///< shared indirect-ring slab
  std::uint32_t control_slots = 0; ///< SRQ pool size (receives)
  /// When set, REQs asking for multiplexing are carried over this shared-QP
  /// pool instead of getting a dedicated transport; the pool's group must
  /// be wired to the client side before the first handshake.  Unset, muxed
  /// REQs are refused (same REJECT as memory pressure).
  std::optional<QpPoolOptions> mux;
};

class Acceptor {
 public:
  /// Invoked for every accepted socket, after engine registration; install
  /// receives / handlers here.
  using AcceptCallback = std::function<void(Socket&)>;

  Acceptor(verbs::Device& device, ProgressEngine& engine,
           AcceptorOptions options, metrics::Registry* registry = nullptr);

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Bind at (device's node, port) and start admitting connections.
  /// `handler` dispatches each accepted socket's events from the engine's
  /// tick loop; `on_accept` (optional) runs once per accepted socket.
  Listener* Listen(ConnectionService& connections, std::uint16_t port,
                   StreamOptions options, ProgressEngine::EventHandler handler,
                   AcceptCallback on_accept = nullptr);

  BufferPool& pool() { return pool_; }
  ControlSlotPool& control_slots() { return slots_; }
  /// The shared-QP pool, or null when AcceptorOptions::mux was unset.
  QpPool* qp_pool() { return qp_pool_.get(); }
  std::uint64_t AdmissionRefusals() const { return refusals_.value(); }

 private:
  std::unique_ptr<Socket> Admit(verbs::Device& device, SocketType type,
                                const StreamOptions& options,
                                const std::string& name,
                                const AcceptMeta& meta);
  void Refuse();

  verbs::Device* device_;
  ProgressEngine* engine_;
  BufferPool pool_;
  ControlSlotPool slots_;
  std::unique_ptr<QpPool> qp_pool_;
  metrics::Counter refusals_;
};

}  // namespace exs::engine
