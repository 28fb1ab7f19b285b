#include "verbs/device.hpp"

#include <limits>

#include "common/check.hpp"

namespace exs::verbs {

Device::Device(simnet::Fabric& fabric, std::size_t node_index,
               bool carry_payload)
    : fabric_(&fabric), node_index_(node_index),
      carry_payload_(carry_payload) {
  EXS_CHECK(node_index < 2);
}

MemoryRegionPtr Device::RegisterMemory(void* addr, std::size_t length,
                                       MrScope scope) {
  EXS_CHECK_MSG(addr != nullptr && length > 0,
                "memory registration needs a real region");
  EXS_CHECK_MSG(regions_.size() < (1u << 31) - 1, "memory keys exhausted");
  // Distinct lkey/rkey, as on real hardware: odd keys are local, even
  // keys remote, so neither kind ever resolves as the other.
  const auto slot = static_cast<std::uint32_t>(regions_.size());
  auto mr = std::make_shared<MemoryRegion>(addr, length, 2 * slot + 1,
                                           2 * slot + 2);
  regions_.push_back(mr);
  ++live_regions_;
  if (scope == MrScope::kApplication) {
    by_range_.emplace(Range{reinterpret_cast<std::uint64_t>(addr), length},
                      mr.get());
  }
  ChargeRegistration();
  return mr;
}

void Device::ChargeRegistration() {
  if (!mr_cost_armed_) return;
  SimDuration cost = profile().mr_register_cost;
  if (cost == 0) return;
  // ibv_reg_mr burns host CPU (kernel transition, page pinning, MTT
  // writes).  Occupy the node CPU for that long: registration itself
  // returns immediately — the syscall is synchronous in real life, but
  // what the simulation observes is that other host work (completion
  // handlers, pumps) queues behind it.
  mr_time_charged_ += cost;
  node().cpu().Submit(cost, [] {});
}

void Device::DeregisterMemory(const MemoryRegionPtr& mr) {
  EXS_CHECK(mr != nullptr);
  const std::size_t slot = mr->lkey() >> 1;
  // Deregistered already, or another device's region: nothing to do.
  if (slot >= regions_.size() || regions_[slot] != mr) return;
  mr->invalidated_ = true;
  auto indexed = by_range_.find(
      Range{reinterpret_cast<std::uint64_t>(mr->addr()), mr->length()});
  if (indexed != by_range_.end() && indexed->second == mr.get()) {
    by_range_.erase(indexed);
  }
  --live_regions_;
  regions_[slot].reset();
}

const MemoryRegion* Device::FindCovering(const void* addr,
                                         std::uint64_t len) const {
  const auto start = reinterpret_cast<std::uint64_t>(addr);
  // The predecessor of (start, max): the longest region at the greatest
  // indexed start not above `start`.
  auto it = by_range_.upper_bound(
      Range{start, std::numeric_limits<std::uint64_t>::max()});
  if (it == by_range_.begin()) return nullptr;
  --it;
  return it->second->Covers(start, len) ? it->second : nullptr;
}

const MemoryRegion* Device::FindByLkey(std::uint32_t lkey) const {
  if ((lkey & 1) == 0) return nullptr;  // 0 and every rkey
  const std::size_t slot = lkey >> 1;
  return slot < regions_.size() ? regions_[slot].get() : nullptr;
}

const MemoryRegion* Device::FindByRkey(std::uint32_t rkey) const {
  if (rkey == 0 || (rkey & 1) != 0) return nullptr;  // 0 and every lkey
  const std::size_t slot = (rkey >> 1) - 1;
  return slot < regions_.size() ? regions_[slot].get() : nullptr;
}

std::unique_ptr<CompletionQueue> Device::CreateCompletionQueue() {
  const auto& p = profile();
  SimDuration notify = p.busy_polling ? p.busy_poll_check
                                      : p.completion_notify_delay;
  auto cq = std::make_unique<CompletionQueue>(scheduler(), node().cpu(),
                                              notify, p.per_event_cpu);
  // A spinning poller has no wake-up variance.
  cq->SetNotifyJitter(p.busy_polling ? 0.0 : p.notify_jitter,
                      fabric_->seed() * 0x9d2c5680ULL +
                          (node_index_ + 1) * 6364136223846793005ULL +
                          ++cq_seed_);
  return cq;
}

RegisteredBuffer::RegisteredBuffer(Device& device, std::size_t bytes)
    : device_(&device),
      bytes_(std::make_unique<std::uint8_t[]>(bytes)),
      size_(bytes),
      mr_(device.RegisterMemory(bytes_.get(), bytes)) {}

RegisteredBuffer::RegisteredBuffer(RegisteredBuffer&& other) noexcept
    : device_(other.device_),
      bytes_(std::move(other.bytes_)),
      size_(std::exchange(other.size_, 0)),
      mr_(std::move(other.mr_)) {}

RegisteredBuffer& RegisteredBuffer::operator=(
    RegisteredBuffer&& other) noexcept {
  if (this != &other) {
    Reset();
    device_ = other.device_;
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
    mr_ = std::move(other.mr_);
  }
  return *this;
}

void RegisteredBuffer::Reset() {
  if (mr_ != nullptr) device_->DeregisterMemory(mr_);
  mr_.reset();
  bytes_.reset();
  size_ = 0;
}

}  // namespace exs::verbs
