#include "exs/mux.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"

namespace exs {
namespace {

// A data WWI's wr_id tag, [epoch:8][stream:16][id:40] (see mux.hpp).
constexpr int kTagIdBits = 40;
constexpr std::uint64_t kTagIdMask = (std::uint64_t{1} << kTagIdBits) - 1;

}  // namespace

// ---------------------------------------------------------------------------
// MuxGroup
// ---------------------------------------------------------------------------

MuxGroup::MuxGroup(verbs::Device& device, MuxOptions options)
    : device_(&device), options_(options) {
  EXS_CHECK_MSG(options_.width >= 1, "a mux group needs at least one slot");
  EXS_CHECK_MSG(options_.per_stream_credits >= 1,
                "per-stream window must admit at least one WWI");
  EXS_CHECK_MSG(options_.drr_quantum >= 1, "zero quantum would never wake");
  slots_.reserve(options_.width);
  for (std::uint32_t i = 0; i < options_.width; ++i) {
    slots_.push_back(
        std::make_unique<ControlChannel>(device, options_.qp_credits));
    slots_.back()->Attach(*this, i);
  }
  rotations_.resize(slots_.size());
}

MuxGroup::~MuxGroup() = default;

void MuxGroup::Connect(MuxGroup& a, MuxGroup& b) {
  EXS_CHECK_MSG(a.slots_.size() == b.slots_.size(),
                "mux groups must agree on pool width");
  EXS_CHECK_MSG((a.peer_ == nullptr || a.peer_ == &b) &&
                    (b.peer_ == nullptr || b.peer_ == &a),
                "a mux group reconnects only to its own peer");
  // Wire the slot pairs never connected, rebuild those dead on both sides
  // and leave live ones, which carry other streams, alone.  Every pair is
  // checked before any is touched, so a refused reconnect changes nothing.
  std::vector<std::size_t> wire;
  for (std::size_t i = 0; i < a.slots_.size(); ++i) {
    const ControlChannel& sa = *a.slots_[i];
    const ControlChannel& sb = *b.slots_[i];
    EXS_CHECK_MSG(sa.HasQueuePair() == sb.HasQueuePair() &&
                      sa.dead() == sb.dead(),
                  "mux slot " << i << " is dead on one side only — "
                              "reconnect once the peer slot has died too");
    if (!sa.HasQueuePair() || sa.dead()) wire.push_back(i);
  }
  a.peer_ = &b;
  b.peer_ = &a;
  for (std::size_t i : wire) {
    ControlChannel::Connect(*a.slots_[i], *b.slots_[i]);
  }
}

std::unique_ptr<MuxStream> MuxGroup::AttachStream(std::uint32_t stream_id) {
  EXS_CHECK_MSG(stream_id <= 0xffff,
                "mux stream id exceeds the 16-bit wire field");
  EXS_CHECK_MSG(FindStream(stream_id) == nullptr,
                "stream id " << stream_id << " already attached");
  std::unique_ptr<MuxStream> stream(new MuxStream(*this, stream_id));
  if (stream_id >= by_id_.size()) by_id_.resize(stream_id + 1, nullptr);
  by_id_[stream_id] = stream.get();
  ++attached_;
  Rotation& rotation = rotations_[SlotIndex(stream_id)];
  stream->rotation_pos_ = static_cast<std::uint32_t>(rotation.streams.size());
  rotation.streams.push_back(stream.get());
  if (rotation.parked.size() * 64 < rotation.streams.size()) {
    rotation.parked.push_back(0);
  }
  ++stats_.streams_attached;
  if (stream_id >= next_stream_id_) next_stream_id_ = stream_id + 1;
  return stream;
}

MuxStream* MuxGroup::FindStream(std::uint32_t stream_id) {
  return stream_id < by_id_.size() ? by_id_[stream_id] : nullptr;
}

const MuxStream* MuxGroup::FindStream(std::uint32_t stream_id) const {
  return stream_id < by_id_.size() ? by_id_[stream_id] : nullptr;
}

std::vector<std::uint32_t> MuxGroup::StreamIds() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(attached_);
  for (std::uint32_t id = 0; id < by_id_.size(); ++id) {
    if (by_id_[id] != nullptr) ids.push_back(id);
  }
  return ids;
}

void MuxGroup::Detach(MuxStream& stream) {
  by_id_[stream.id_] = nullptr;
  --attached_;
  ++stats_.streams_detached;
  Rotation& rotation = rotations_[stream.slot_index_];
  rotation.streams[stream.rotation_pos_] = nullptr;
  rotation.SetParked(stream.rotation_pos_, false);
  ++rotation.detached;
  CompactIfSparse(rotation);
}

// Lazy removal from the dispatch rotation: compact once detached entries
// outnumber live ones, so mass teardown stays linear overall.  Compaction
// renumbers positions and restarts the rotation at its head, so it waits
// while a walk holds positions; each walk re-checks as it ends.
void MuxGroup::CompactIfSparse(Rotation& rotation) {
  if (rotation.walks != 0 ||
      rotation.detached * 2 <= rotation.streams.size()) {
    return;
  }
  std::erase(rotation.streams, nullptr);
  rotation.parked.assign((rotation.streams.size() + 63) / 64, 0);
  for (std::size_t pos = 0; pos < rotation.streams.size(); ++pos) {
    MuxStream* stream = rotation.streams[pos];
    stream->rotation_pos_ = static_cast<std::uint32_t>(pos);
    if (stream->parked_) rotation.SetParked(pos, true);
  }
  rotation.detached = 0;
  rotation.cursor = 0;
}

void MuxGroup::Rotation::SetParked(std::size_t pos, bool on) {
  const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
  if (on) {
    parked[pos / 64] |= bit;
  } else {
    parked[pos / 64] &= ~bit;
  }
}

std::size_t MuxGroup::Rotation::NextParked(std::size_t from,
                                           std::size_t end) const {
  if (from >= end) return end;
  std::size_t word = from / 64;
  std::uint64_t bits = parked[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word * 64 >= end) return end;
    bits = parked[word];
  }
  const std::size_t pos =
      word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return std::min(pos, end);
}

void MuxGroup::OnData(std::size_t /*slot*/, bool indirect, std::uint64_t len,
                      const verbs::ExtHeader& ext) {
  EXS_CHECK_MSG(ext.has_mux, "untagged data WWI on a mux slot");
  MuxStream* stream = FindStream(ext.mux_stream);
  if (stream == nullptr) {
    ++stats_.orphan_drops;
    return;
  }
  if (stream->dead_ || ext.mux_epoch != stream->epoch_) {
    ++stats_.stale_data_drops;
    return;
  }
  // Per-stream continuity through the shared QP: RC FIFO delivery means
  // each stream's arrivals are an in-order subsequence of its slot's.
  EXS_CHECK_MSG(ext.mux_seq == stream->rx_expect_,
                "mux stream " << stream->id_ << " delivery out of order: got "
                              << ext.mux_seq << ", expected "
                              << stream->rx_expect_);
  ++stream->rx_expect_;
  ++stats_.data_delivered;
  stream->owner_->OnData(stream->rail_, indirect, len, ext);
}

void MuxGroup::OnControl(std::size_t /*slot*/,
                         const wire::ControlMessage& msg) {
  MuxStream* stream = FindStream(msg.stream_id);
  if (stream == nullptr) {
    ++stats_.orphan_control_drops;
    return;
  }
  if (stream->dead_ || msg.mux_epoch != stream->epoch_) {
    ++stats_.stale_control_drops;
    return;
  }
  stream->owner_->OnControl(stream->rail_, msg);
}

void MuxGroup::OnDataSent(std::size_t slot, std::uint64_t tag) {
  // The slot channel reports no completion of a dead or parked queue pair,
  // so every tag here is one of this slot's live posts.
  const auto stream_id =
      static_cast<std::uint32_t>((tag >> kTagIdBits) & 0xffff);
  EXS_CHECK_MSG(SlotIndex(stream_id) == slot,
                "send completion on mux slot " << slot << " for stream "
                                               << stream_id);
  MuxStream* stream = FindStream(stream_id);
  if (stream == nullptr) {
    ++stats_.orphan_completions;
    return;
  }
  const auto epoch = static_cast<std::uint8_t>(tag >> 56);
  if (epoch != stream->epoch_) return;  // pre-revive post; window reset
  stream->NoteDataSent(tag & kTagIdMask);
}

void MuxGroup::OnReadDone(std::size_t /*slot*/, std::uint64_t /*wr_id*/,
                          std::uint64_t /*bytes*/) {
  EXS_CHECK_MSG(false, "RDMA READ completion on a mux slot");
}

void MuxGroup::OnFatal(std::size_t slot, verbs::WcStatus status) {
  Rotation& rotation = rotations_[slot];
  ++rotation.walks;
  const std::size_t n = rotation.streams.size();
  for (std::size_t pos = 0; pos < n; ++pos) {
    MuxStream* stream = rotation.streams[pos];
    if (stream != nullptr && !stream->dead_) stream->MarkDead(status);
  }
  --rotation.walks;
  CompactIfSparse(rotation);
}

void MuxGroup::OnCreditAvailable(std::size_t slot) {
  Rotation& rotation = rotations_[slot];
  if (rotation.in_round) return;  // re-entered from a woken pump
  if (rotation.streams.empty()) return;
  ++stats_.dispatch_rounds;
  rotation.in_round = true;
  ++rotation.walks;
  // Positions hold for the whole round; streams attached meanwhile land
  // past `n` and wait for the next one.
  const std::size_t n = rotation.streams.size();
  const std::size_t start = rotation.cursor % n;
  // Wake the parked streams of [from, end) in order.  The bitmap is
  // re-read after every wake, so a stream that parks or unparks while an
  // earlier one runs is taken as it stands when the walk reaches it.
  // Returns false once the slot runs out of shared credits.
  auto wake = [&](std::size_t from, std::size_t end) {
    for (std::size_t pos = rotation.NextParked(from, end); pos < end;
         pos = rotation.NextParked(pos + 1, end)) {
      MuxStream* stream = rotation.streams[pos];
      stream->deficit_ = options_.drr_quantum;
      ++stats_.dispatch_wakes;
      stream->FireCreditAvailable();
      if (slots_[slot]->dead() || !slots_[slot]->CanSend()) {
        // Shared credits exhausted mid-round (or the slot died under us):
        // resume after this stream next time.
        rotation.cursor = (pos + 1) % n;
        return false;
      }
    }
    return true;
  };
  if (wake(start, n) && wake(0, start)) rotation.cursor = (start + 1) % n;
  rotation.in_round = false;
  --rotation.walks;
  CompactIfSparse(rotation);
}

// ---------------------------------------------------------------------------
// MuxStream
// ---------------------------------------------------------------------------

MuxStream::MuxStream(MuxGroup& group, std::uint32_t id)
    : group_(&group),
      group_alive_(group.liveness_),
      slot_(group.slots_[group.SlotIndex(id)].get()),
      slot_index_(group.SlotIndex(id)),
      id_(id) {}

MuxStream::~MuxStream() {
  if (!group_alive_.expired()) group_->Detach(*this);
}

bool MuxStream::CanSend() const {
  if (group_alive_.expired() || dead_) return false;
  bool ok = slot_->CanSend() &&
            outstanding_ < group_->options_.per_stream_credits;
  if (ok && group_->rotations_[slot_index_].in_round) ok = deficit_ > 0;
  if (!ok) NotePark();
  return ok;
}

void MuxStream::SendControl(wire::ControlMessage msg) {
  EXS_CHECK_MSG(!group_alive_.expired(), "send on a stream whose group died");
  EXS_CHECK_MSG(!dead_, "send on a dead mux stream");
  NoteUnblocked();
  msg.stream_id = static_cast<std::uint16_t>(id_);
  msg.mux_epoch = epoch_;
  slot_->SendControl(msg);
}

void MuxStream::PostDataWwi(std::uint64_t wr_id,
                            std::span<const verbs::Sge> sges,
                            std::uint64_t remote_addr, std::uint32_t rkey,
                            bool indirect, const verbs::ExtHeader& ext) {
  EXS_CHECK_MSG(!group_alive_.expired(), "post on a stream whose group died");
  EXS_CHECK_MSG(!dead_, "post on a dead mux stream");
  EXS_CHECK_MSG(wr_id <= kTagIdMask, "mux wr_id " << wr_id << " exceeds the "
                                                  << kTagIdBits
                                                  << "-bit completion tag");
  NoteUnblocked();
  verbs::ExtHeader tagged = ext;
  tagged.has_mux = true;
  tagged.mux_stream = id_;
  tagged.mux_seq = tx_seq_++;
  tagged.mux_epoch = epoch_;
  ++outstanding_;
  ++group_->stats_.data_posted;
  if (group_->rotations_[slot_index_].in_round) {
    std::uint64_t len = 0;
    for (const verbs::Sge& sge : sges) len += sge.length;
    deficit_ -= std::min(deficit_, len);
  }
  const std::uint64_t tag = (std::uint64_t{epoch_} << 56) |
                            (std::uint64_t{id_} << kTagIdBits) | wr_id;
  slot_->PostDataWwi(tag, sges, remote_addr, rkey, indirect, tagged);
}

void MuxStream::PostRead(std::uint64_t, void*, std::uint32_t, std::uint64_t,
                         std::uint64_t, std::uint32_t) {
  EXS_CHECK_MSG(false, "RDMA READ on a muxed connection — rendezvous "
                       "sockets keep dedicated channels");
}

verbs::Device& MuxStream::device() { return slot_->device(); }

bool MuxStream::Kill() {
  if (group_alive_.expired() || dead_) return false;
  ++group_->stats_.virtual_kills;
  MarkDead(verbs::WcStatus::kWrFlushError);
  MuxGroup* peer_group = group_->peer_;
  if (peer_group != nullptr) {
    // Peer discovery rides the same clock a real QP death would: one
    // transport ack delay.  Guarded by the peer group's liveness — the
    // whole fixture may be torn down before the closure runs.
    std::weak_ptr<void> peer_alive = peer_group->liveness_;
    std::uint32_t id = id_;
    group_->device_->scheduler().ScheduleAfter(
        slot_->AckReturnDelay(), [peer_group, peer_alive, id] {
          if (peer_alive.expired()) return;
          MuxStream* peer = peer_group->FindStream(id);
          if (peer == nullptr || peer->dead_) return;
          peer->MarkDead(verbs::WcStatus::kRetryExceededError);
        });
  }
  return true;
}

void MuxStream::Revive() {
  EXS_CHECK_MSG(!group_alive_.expired(), "revive on a destroyed group");
  EXS_CHECK_MSG(dead_, "revive a live mux stream");
  EXS_CHECK_MSG(!slot_->dead(),
                "slot transport dead — reconnect the groups first");
  ++group_->stats_.revives;
  dead_ = false;
  fatal_notified_ = false;
  ++epoch_;
  outstanding_ = 0;
  tx_seq_ = 0;
  rx_expect_ = 0;
  deficit_ = 0;
  SetParked(false);
}

void MuxStream::MarkDead(verbs::WcStatus status) {
  dead_ = true;
  SetParked(false);
  if (fatal_notified_) return;
  fatal_notified_ = true;
  // A stream AttachStream handed out has no owner until a socket takes it;
  // a death before then (Kill, or its slot's) reports to no one.
  if (owner_ != nullptr) owner_->OnFatal(rail_, status);
}

void MuxStream::NoteDataSent(std::uint64_t wr_id) {
  EXS_CHECK(outstanding_ > 0);
  --outstanding_;
  if (dead_) return;  // completion racing a virtual kill: account, drop
  owner_->OnDataSent(rail_, wr_id);
  // The freed window slot may unblock this stream without any shared
  // credit returning; wake it directly (outside rounds the deficit gate
  // is off, so the wake cannot be starved).
  FireCreditAvailable();
}

void MuxStream::FireCreditAvailable() {
  if (dead_) return;
  owner_->OnCreditAvailable(rail_);
}

void MuxStream::NotePark() const {
  if (parked_) return;
  SetParked(true);
  park_since_ = slot_->device().scheduler().Now();
  if (parks_ != nullptr) parks_->Increment();
}

void MuxStream::NoteUnblocked() {
  if (!parked_) return;
  SetParked(false);
  if (hol_wait_ != nullptr) {
    SimTime now = slot_->device().scheduler().Now();
    hol_wait_->Record(static_cast<std::uint64_t>(
        now >= park_since_ ? now - park_since_ : 0));
  }
}

void MuxStream::SetParked(bool parked) const {
  parked_ = parked;
  group_->rotations_[slot_index_].SetParked(rotation_pos_, parked);
}

}  // namespace exs
