#include "exs/rpc/rpc_client.hpp"

#include <algorithm>

namespace exs::rpc {

RpcClient::RpcClient(Socket& socket, simnet::EventScheduler& scheduler,
                     RpcClientOptions options)
    : socket_(&socket),
      scheduler_(&scheduler),
      options_(options),
      decoder_([this](const MessageView& v) { OnMessage(v); },
               [this](const std::string&) { framing_failed_ = true; }),
      recv_buffer_(socket.device(), options.recv_chunk_bytes) {
  socket_->events().SetHandler([this](const Event& ev) { OnEvent(ev); });
  PostRecv();
}

std::uint64_t RpcClient::Call(Op op, const std::string& key,
                              const std::uint8_t* value,
                              std::uint32_t value_len, ResponseFn on_done,
                              SimDuration deadline) {
  const std::uint64_t id = ledger_.RecordIssue();
  if (deadline == kDefaultDeadline) deadline = options_.default_deadline;
  if (pending_.size() >= options_.max_outstanding || close_requested_) {
    // Shed at submission: the call never touches the wire, so the server
    // cannot also resolve it — the outcome is unconditionally unique.
    ++ledger_.shed_local;
    ledger_.RecordOutcome(id, Outcome::kRefused);
    if (on_done) {
      Result r;
      r.correlation_id = id;
      r.outcome = Outcome::kRefused;
      r.refused_remotely = false;
      on_done(r);
    }
    return id;
  }
  verbs::RegisteredBuffer frame = TakeFrame(FrameBytes(key.size(), value_len));
  const std::size_t len =
      EncodeMessage(MessageType::kRequest, static_cast<std::uint8_t>(op), id,
                    key, value, value_len, frame.data());
  PendingCall call;
  call.issued_at = scheduler_->Now();
  call.on_done = std::move(on_done);
  pending_.emplace(id, std::move(call));
  const std::uint64_t send_id =
      socket_->Send(frame.data(), len, frame.region());
  sending_frames_.push_back(SendingFrame{send_id, std::move(frame)});
  if (deadline > 0) {
    scheduler_->ScheduleAfter(deadline, [this, id] { OnDeadline(id); });
  }
  return id;
}

void RpcClient::Cancel(std::uint64_t correlation_id) {
  auto it = pending_.find(correlation_id);
  if (it == pending_.end()) return;
  ++ledger_.cancelled;
  Resolve(correlation_id, Outcome::kTimedOut, Status::kOk, false, nullptr);
}

void RpcClient::CloseSend() {
  if (close_requested_) return;
  close_requested_ = true;
  socket_->Close();
}

void RpcClient::OnEvent(const Event& ev) {
  switch (ev.type) {
    case EventType::kSendComplete: {
      // Oldest first: a single-rail socket completes sends in order.
      auto it = std::find_if(
          sending_frames_.begin(), sending_frames_.end(),
          [&ev](const SendingFrame& f) { return f.send_id == ev.id; });
      if (it != sending_frames_.end()) {
        free_frames_.push_back(std::move(it->frame));
        sending_frames_.erase(it);
      }
      break;
    }
    case EventType::kRecvComplete:
      recv_outstanding_ = false;
      if (ev.bytes != 0) {
        response_bytes_ += ev.bytes;
        decoder_.Feed(recv_buffer_.data(), ev.bytes);
      }
      if (!peer_closed_) PostRecv();
      break;
    case EventType::kPeerClosed:
      peer_closed_ = true;
      break;
    case EventType::kError:
      break;
  }
}

void RpcClient::OnMessage(const MessageView& view) {
  if (view.header.type != MessageType::kResponse) {
    framing_failed_ = true;
    return;
  }
  const std::uint64_t id = view.header.correlation_id;
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    // Late answer to a call the deadline (or Cancel) already resolved.
    ++ledger_.stale_responses;
    return;
  }
  const auto status = static_cast<Status>(view.header.op_or_status);
  if (status == Status::kRefused) {
    Resolve(id, Outcome::kRefused, status, /*refused_remotely=*/true, &view);
  } else {
    Resolve(id, Outcome::kAnswered, status, false, &view);
  }
}

void RpcClient::OnDeadline(std::uint64_t correlation_id) {
  // Lazy cancellation: the timer always fires; only a still-pending call
  // times out.
  if (pending_.find(correlation_id) == pending_.end()) return;
  Resolve(correlation_id, Outcome::kTimedOut, Status::kOk, false, nullptr);
}

void RpcClient::Resolve(std::uint64_t correlation_id, Outcome outcome,
                        Status status, bool refused_remotely,
                        const MessageView* view) {
  auto it = pending_.find(correlation_id);
  if (it == pending_.end()) return;
  if (!ledger_.RecordOutcome(correlation_id, outcome)) {
    pending_.erase(it);
    return;
  }
  Result r;
  r.correlation_id = correlation_id;
  r.outcome = outcome;
  r.status = status;
  r.refused_remotely = refused_remotely;
  r.latency = scheduler_->Now() - it->second.issued_at;
  if (outcome == Outcome::kAnswered) {
    answer_latencies_.push_back(r.latency);
    if (options_.deliver_values && view != nullptr &&
        view->header.value_len != 0) {
      r.value.assign(view->value, view->value + view->header.value_len);
    }
  }
  ResponseFn on_done = std::move(it->second.on_done);
  pending_.erase(it);
  if (on_done) on_done(r);
}

void RpcClient::PostRecv() {
  if (recv_outstanding_ || peer_closed_) return;
  recv_outstanding_ = true;
  socket_->Recv(recv_buffer_.data(), recv_buffer_.size(),
                recv_buffer_.region());
}

verbs::RegisteredBuffer RpcClient::TakeFrame(std::size_t len) {
  for (auto it = free_frames_.rbegin(); it != free_frames_.rend(); ++it) {
    if (it->size() < len) continue;
    verbs::RegisteredBuffer frame = std::move(*it);
    *it = std::move(free_frames_.back());
    free_frames_.pop_back();
    return frame;
  }
  return verbs::RegisteredBuffer(socket_->device(),
                                 std::max(kMinFrameBytes, len));
}

}  // namespace exs::rpc
