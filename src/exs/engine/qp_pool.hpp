// The engine's shared-QP pool: the server half of stream multiplexing.
//
// Where the BufferPool bounds intermediate-ring memory and the
// ControlSlotPool bounds SRQ receives, the QpPool bounds *verbs state*: it
// owns one MuxGroup whose `width` slot queue pairs carry every muxed
// connection the acceptor admits.  Admission is a stream attach — O(1)
// bookkeeping on an already-connected transport — so accepting the 60,000th
// connection creates exactly as many queue pairs as accepting the first:
// zero.  Capacity returns automatically when an admitted socket tears down
// (its MuxStream detaches itself from the group on destruction).
//
// The pool's group must be wired to the client side's group once, before
// any handshake (MuxGroup::Connect) — establishing the QPs up front and
// then multiplexing handshakes over them is the whole point of the tier.
#pragma once

#include <cstdint>
#include <memory>

#include "common/metrics.hpp"
#include "exs/mux.hpp"
#include "verbs/device.hpp"

namespace exs::engine {

struct QpPoolOptions {
  /// Slot-channel shape of the shared group (width, per-QP credits,
  /// per-stream window, DRR quantum).
  MuxOptions mux;
  /// Streams the pool will carry at once.  The wire stream-id field caps
  /// this at 65536; admission beyond the cap is refused, not queued.
  std::uint32_t max_streams = 65536;
};

class QpPool {
 public:
  QpPool(verbs::Device& device, QpPoolOptions options,
         metrics::Registry* registry = nullptr);

  QpPool(const QpPool&) = delete;
  QpPool& operator=(const QpPool&) = delete;

  /// True while another stream fits under max_streams.
  bool AdmissionOpen() const;

  /// Attach the stream a REQ asked for, or null when the pool is full or
  /// the id is already taken (a client retrying an id that never detached).
  /// Refusals are counted, never fatal — admission control's contract.
  std::unique_ptr<MuxStream> Admit(std::uint32_t stream_id);

  MuxGroup& group() { return group_; }
  const MuxGroup& group() const { return group_; }
  std::size_t LiveStreams() const {
    return group_.stats().streams_attached - group_.stats().streams_detached;
  }
  std::uint64_t AdmissionRefusals() const { return refusals_.value(); }
  const QpPoolOptions& options() const { return options_; }

 private:
  QpPoolOptions options_;
  MuxGroup group_;
  metrics::Counter refusals_;
};

}  // namespace exs::engine
