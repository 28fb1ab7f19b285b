// A node's RDMA device: owns memory registrations (the protection domain)
// and manufactures completion queues bound to the node's CPU.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/fabric.hpp"
#include "verbs/completion.hpp"
#include "verbs/memory.hpp"

namespace exs::verbs {

/// Who can find a region by address.  Every region resolves by key; only
/// application-scope regions also enter the (start, length) index that
/// FindCovering searches, so library-internal memory never satisfies an
/// application buffer's lookup.
enum class MrScope : std::uint8_t {
  /// Rings, control slabs, staging buffers, snapshots and the RPC tier's
  /// frame, header and receive pools and value slab, which the library
  /// addresses by handle (Socket's region-taking I/O forms).
  kInternal,
  /// exs_mregister scope (Socket::RegisterMemory and auto-registration):
  /// covers that memory for every socket on the device (the protection
  /// domain), not just the registering one.
  kApplication,
};

class Device {
 public:
  /// `carry_payload` controls whether transfers move real bytes between
  /// buffers.  Tests and examples keep it on (data-integrity checks);
  /// large benchmark sweeps turn it off — the timing model is unaffected.
  Device(simnet::Fabric& fabric, std::size_t node_index,
         bool carry_payload = true);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Register [addr, addr+length).  Keys are dense: the i-th registration
  /// gets lkey 2i+1 and rkey 2i+2, and keys are never reused.
  MemoryRegionPtr RegisterMemory(void* addr, std::size_t length,
                                 MrScope scope = MrScope::kInternal);
  /// Invalidate `mr`: its keys resolve to null and it leaves the address
  /// index.  Free in simulated time (no cost model applies).
  void DeregisterMemory(const MemoryRegionPtr& mr);

  /// The application-scope region covering [addr, addr+len), or null.  The
  /// index is keyed by (start, length) and asks the region with the
  /// greatest start at or below `addr`, the longest one at that start, so
  /// a longer registration at an indexed start answers and deregistering
  /// it falls back to the next.  An exact duplicate of an indexed region
  /// is reachable by key only.
  const MemoryRegion* FindCovering(const void* addr, std::uint64_t len) const;

  /// Charge the profile's mr_register_cost (page pinning + MTT update) as
  /// simulated host-CPU time on every actual registration.  Off by
  /// default — the seed model registered for free, and recorded artefacts
  /// depend on that — so timing changes only when a run opts in.
  void EnableMrCostModel(bool on = true) { mr_cost_armed_ = on; }
  /// Total simulated time charged for registrations so far.
  SimDuration MrTimeCharged() const { return mr_time_charged_; }

  /// Key lookups used by the data path; null when unknown or invalidated.
  const MemoryRegion* FindByLkey(std::uint32_t lkey) const;
  const MemoryRegion* FindByRkey(std::uint32_t rkey) const;

  /// A completion queue whose notification path runs on this node's CPU
  /// with the profile's event-notification costs.
  std::unique_ptr<CompletionQueue> CreateCompletionQueue();

  simnet::Fabric& fabric() { return *fabric_; }
  simnet::EventScheduler& scheduler() { return fabric_->scheduler(); }
  simnet::Node& node() { return fabric_->node(node_index_); }
  std::size_t node_index() const { return node_index_; }
  const simnet::HardwareProfile& profile() const { return fabric_->profile(); }
  bool carry_payload() const { return carry_payload_; }
  std::uint32_t max_inline() const { return profile().max_inline; }

  /// Live (registered, not yet deregistered) regions of every scope.
  std::size_t RegisteredRegionCount() const { return live_regions_; }
  /// Lifetime count of registrations on this device, of every scope; the
  /// cost model charges each one.
  std::uint64_t RegionsRegistered() const { return regions_.size(); }

  /// Lifetime count of queue pairs constructed against this device.  The
  /// verbs-state budget signal for the mux benches: dedicated-per-stream
  /// wiring grows this linearly with streams, a shared QP pool does not.
  std::uint64_t QueuePairsCreated() const { return qps_created_; }
  void NoteQueuePairCreated() { ++qps_created_; }

 private:
  /// (start address, length) of a region.
  using Range = std::pair<std::uint64_t, std::uint64_t>;

  void ChargeRegistration();

  simnet::Fabric* fabric_;
  std::size_t node_index_;
  bool carry_payload_;
  std::uint64_t cq_seed_ = 0;
  std::uint64_t qps_created_ = 0;
  /// Registration table: slot i holds the region keyed lkey 2i+1 / rkey
  /// 2i+2, null once deregistered.  The table owns auto-registered regions
  /// no caller keeps.
  std::vector<MemoryRegionPtr> regions_;
  std::size_t live_regions_ = 0;
  /// Application-scope regions by (start, length); an exact duplicate
  /// keeps the first.
  std::map<Range, const MemoryRegion*> by_range_;

  bool mr_cost_armed_ = false;
  SimDuration mr_time_charged_ = 0;
};

/// Heap bytes plus their registration: the owner of memory the library
/// registers on its own behalf (RPC request frames, receive buffers and
/// response headers, the coalescing staging buffer, recovery snapshots).
/// The region is internal scope, so no address lookup ever finds it: I/O
/// passes region() as its handle.  Destruction deregisters the region
/// before the bytes are freed, so no registration outlives its memory.
/// Move-only; moving keeps the bytes in place.
///
/// Lifetime rule: the Device pointer is raw, so a RegisteredBuffer must die
/// before its Device — the same rule as an EventHandle and its scheduler.
/// Sockets, RPC clients and servers own theirs and are declared after the
/// Simulation that owns the devices.
class RegisteredBuffer {
 public:
  RegisteredBuffer() = default;
  /// `bytes` zero-filled bytes registered on `device`.
  RegisteredBuffer(Device& device, std::size_t bytes);
  RegisteredBuffer(RegisteredBuffer&& other) noexcept;
  RegisteredBuffer& operator=(RegisteredBuffer&& other) noexcept;
  ~RegisteredBuffer() { Reset(); }

  std::uint8_t* data() const { return bytes_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return bytes_ == nullptr; }
  std::uint32_t lkey() const { return mr_->lkey(); }
  /// The registration, the handle Socket::Send/Sendv/Recv take.
  const MemoryRegion& region() const { return *mr_; }

 private:
  /// Deregister and free; no-op when empty.
  void Reset();

  Device* device_ = nullptr;
  std::unique_ptr<std::uint8_t[]> bytes_;
  std::size_t size_ = 0;
  MemoryRegionPtr mr_;
};

}  // namespace exs::verbs
