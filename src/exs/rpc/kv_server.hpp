// Toy sharded KV service over the RPC framing: GET/PUT/DEL against a
// fixed-size value slab.
//
// Storage is sharded by key hash (FNV-1a mod shards) into per-shard hash
// maps; values live in one shared slab of fixed-size slots, so server
// memory is O(slab), not O(keys x value size) — a PUT that finds the
// slab exhausted (or a value wider than a slot) is REFUSED, never
// queued, which is the server-side leg of the RPC conservation
// invariant: the client sees exactly one of answered/refused per
// request, under any memory pressure.
//
// The response path exercises the PR 9 hot path: GET hits gather the
// 16-byte response header and the slab slot with one Sendv (two SGEs,
// one completion, no host copy of the value).  Because the HCA reads
// the slot asynchronously, slots are *pinned* for the life of the send:
// a DEL or overwriting PUT that races an in-flight GET response marks
// the slot zombie, and the completion frees it — the slab never hands
// out a slot the wire is still reading.
//
// Registration is per device and happens once: the value slab is
// registered the first time a connection on a device is accepted, and
// response headers are written into registered chunks of a per-device
// header pool, each header back in the pool at its own send completion.
// A response in steady state neither allocates nor registers a send
// buffer.  Every Send, Sendv slice and Recv passes the region of the
// memory it names (header chunk, slab, receive buffer) as its handle, so
// none searches the device's address index.  The server owns that
// registered memory, so it must be destroyed before the Simulation that
// owns the devices.
//
// The server is transport-agnostic: Attach() owns a socket's event
// queue directly (handler mode, muxed or dedicated pairs), while
// OnAccept()/HandleEvent() slot into engine::Acceptor::Listen for
// ProgressEngine-driven fleets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "exs/rpc/framing.hpp"
#include "exs/rpc/ledger.hpp"
#include "exs/socket.hpp"

namespace exs::rpc {

/// Fixed-slot value arena with pin counts.  Release on a pinned slot
/// defers the free to the last Unpin (the zombie path).
class ValueSlab {
 public:
  ValueSlab(std::uint32_t slots, std::uint32_t slot_bytes);

  /// Returns a free slot index, or -1 when the slab is exhausted.
  std::int32_t Allocate();
  /// Free the slot now, or mark it zombie if sends still pin it.
  void Release(std::int32_t slot);
  void Pin(std::int32_t slot);
  void Unpin(std::int32_t slot);

  std::uint8_t* Data(std::int32_t slot) {
    return arena_.data() + static_cast<std::size_t>(slot) * slot_bytes_;
  }
  /// The whole arena, every slot back to back.
  std::size_t arena_bytes() const { return arena_.size(); }
  void SetLength(std::int32_t slot, std::uint32_t len) {
    lengths_[static_cast<std::size_t>(slot)] = len;
  }
  std::uint32_t Length(std::int32_t slot) const {
    return lengths_[static_cast<std::size_t>(slot)];
  }

  std::uint32_t capacity() const { return slots_; }
  std::uint32_t slot_bytes() const { return slot_bytes_; }
  std::uint32_t in_use() const { return in_use_; }
  std::uint32_t zombies() const { return zombies_; }

 private:
  std::uint32_t slots_;
  std::uint32_t slot_bytes_;
  std::uint32_t in_use_ = 0;
  std::uint32_t zombies_ = 0;
  std::vector<std::uint8_t> arena_;
  std::vector<std::uint32_t> lengths_;
  std::vector<std::uint16_t> pins_;
  std::vector<std::uint8_t> zombie_;
  std::vector<std::int32_t> free_list_;
};

struct KvServerOptions {
  std::uint32_t shards = 8;
  /// Total fixed-size value slots (the whole store's memory budget).
  std::uint32_t slab_slots = 4096;
  std::uint32_t slot_bytes = 512;
  std::uint64_t recv_chunk_bytes = 2 * kKiB;
};

class KvServer {
 public:
  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t dels = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t slab_full_refusals = 0;
    std::uint64_t oversize_refusals = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t sendv_responses = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t framing_errors = 0;
  };

  explicit KvServer(KvServerOptions options = {});

  // Engine path: hand these to engine::Acceptor::Listen as the event
  // handler and accept callback.
  void OnAccept(Socket& socket);
  void HandleEvent(Socket& socket, const Event& ev);

  /// Direct path: take over the socket's event queue (handler mode) and
  /// post the first receive.  The socket must already be connected.
  void Attach(Socket& socket);

  const Stats& stats() const { return stats_; }
  const RpcServerCounters& counters() const { return counters_; }
  const ValueSlab& slab() const { return slab_; }
  std::uint32_t ShardOf(const std::string& key) const;
  /// Requests routed to each shard (sharding witness for tests).
  const std::vector<std::uint64_t>& shard_requests() const {
    return shard_requests_;
  }
  std::uint64_t keys_stored() const;
  std::uint64_t live_connections() const { return conns_.size(); }
  /// Response headers registered, and those free for reuse, summed over
  /// devices.  At quiescence every header is free.
  std::size_t headers_registered() const;
  std::size_t headers_free() const;

  /// Response headers per registered chunk of a device's header pool.
  static constexpr std::size_t kHeadersPerChunk = 256;

 private:
  /// A pooled response header: its bytes and the region of the chunk
  /// that holds them.
  struct Header {
    std::uint8_t* bytes = nullptr;
    const verbs::MemoryRegion* region = nullptr;
  };
  /// What the server registered on one device: the value slab, once, and
  /// the response header pool.
  struct DeviceMemory {
    explicit DeviceMemory(verbs::Device& d) : device(&d) {}
    DeviceMemory(const DeviceMemory&) = delete;
    DeviceMemory& operator=(const DeviceMemory&) = delete;
    ~DeviceMemory() {
      if (slab_mr != nullptr) device->DeregisterMemory(slab_mr);
    }

    verbs::Device* device;
    verbs::MemoryRegionPtr slab_mr;
    std::vector<verbs::RegisteredBuffer> header_chunks;
    std::vector<Header> free_headers;
  };
  /// A response whose send has not completed: the pooled header it reads
  /// and the slab slot it pins (-1 when none).
  struct SendingResponse {
    std::uint64_t send_id = 0;
    Header header;
    std::int32_t pinned_slot = -1;
  };
  struct Conn {
    Socket* socket = nullptr;
    DeviceMemory* memory = nullptr;
    std::unique_ptr<FrameDecoder> decoder;
    verbs::RegisteredBuffer recv_buffer;
    std::vector<SendingResponse> sends;  ///< in send order
    bool recv_outstanding = false;
    bool peer_closed = false;
    bool closed = false;
  };
  struct Shard {
    std::unordered_map<std::string, std::int32_t> map;  ///< key -> slot
  };

  void OnRequest(Conn& conn, const MessageView& view);
  void Respond(Conn& conn, std::uint64_t correlation_id, Status status,
               std::int32_t value_slot);
  void PostRecv(Conn& conn);
  void MaybeReap(Socket& socket, Conn& conn);
  /// This device's registrations, made on first use.
  DeviceMemory& MemoryOn(verbs::Device& device);
  Header TakeHeader(DeviceMemory& memory);

  KvServerOptions options_;
  Stats stats_;
  RpcServerCounters counters_;
  ValueSlab slab_;
  std::vector<Shard> shards_;
  std::vector<std::uint64_t> shard_requests_;
  std::vector<std::unique_ptr<DeviceMemory>> memory_;  ///< one per device
  std::unordered_map<Socket*, std::unique_ptr<Conn>> conns_;
};

}  // namespace exs::rpc
