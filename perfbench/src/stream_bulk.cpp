// stream_bulk: the paper's blast (§IV-B) on one dedicated-QP stream pair —
// stock FDR profile, dynamic protocol, exponential message sizes (mean
// 256 KiB, max 4 MiB), 4 sends and 8 receives outstanding, closed loop.
//
// This blast mirrors blast::RunBlast event for event (same size stream,
// same start offset, same reposting), but lives here so the benchmark can
// time its calls into the stream API and read the scheduler and CPUs
// directly.
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using exs::SimDuration;
using exs::SimTime;

constexpr std::uint64_t kMessages = 20000;
constexpr std::uint64_t kTinyMessages = 400;
constexpr std::uint32_t kOutstandingSends = 4;
constexpr std::uint32_t kOutstandingRecvs = 8;
constexpr double kMeanBytes = 256.0 * exs::kKiB;
constexpr std::uint64_t kMaxBytes = 4 * exs::kMiB;
constexpr std::uint64_t kRecvBufferBytes = 4 * exs::kMiB;
constexpr SimDuration kClientStartDelay = exs::Microseconds(50);

class Blast {
 public:
  Blast(const RepConfig& config, std::uint64_t messages)
      : tracer_(config.tracer),
        sim_(exs::simnet::HardwareProfile::FdrInfiniBand(), config.seed,
             /*carry_payload=*/false) {
    if (config.chunk_spans()) sim_.EnableChunkSpans(1);
    {
      Tracer::Scope s(tracer_, Layer::kExs, "exs.CreateConnectedPair");
      auto [client, server] =
          sim_.CreateConnectedPair(exs::SocketType::kStream);
      client_ = client;
      server_ = server;
    }
    // The size stream blast::RunBlast draws for the same seed.
    exs::Rng rng(config.seed * 0x51ed2701u + 17);
    exs::ExponentialSizeDistribution dist(kMeanBytes, kMaxBytes);
    sizes_.reserve(messages);
    for (std::uint64_t i = 0; i < messages; ++i) {
      sizes_.push_back(dist.Sample(rng));
      total_bytes_ += sizes_.back();
      max_size_ = std::max(max_size_, sizes_.back());
    }
    // The simulation carries no payload, so the buffers only need
    // addresses: left uninitialised, their pages never become resident.
    send_slab_.reset(new std::uint8_t[kOutstandingSends * max_size_]);
    recv_slab_.reset(new std::uint8_t[kOutstandingRecvs * kRecvBufferBytes]);
    {
      Tracer::Scope s(tracer_, Layer::kExs, "exs.RegisterMemory");
      client_->RegisterMemory(send_slab_.get(), kOutstandingSends * max_size_);
      server_->RegisterMemory(recv_slab_.get(),
                              kOutstandingRecvs * kRecvBufferBytes);
    }
    for (std::uint32_t i = 0; i < kOutstandingSends; ++i) {
      free_send_.push_back(i);
    }
  }

  /// The measured section: run the blast to quiescence.
  void Run() {
    server_->events().SetHandler(
        [this](const exs::Event& ev) { OnServerEvent(ev); });
    client_->events().SetHandler(
        [this](const exs::Event& ev) { OnClientEvent(ev); });
    sim_.scheduler().ScheduleAt(0, [this] {
      for (std::uint32_t i = 0; i < kOutstandingRecvs; ++i) PostRecv(i);
    });
    sim_.scheduler().ScheduleAfter(kClientStartDelay, [this] {
      start_ = sim_.Now();
      tx_busy_start_ = sim_.fabric().node(0).cpu().BusyTime();
      rx_busy_start_ = sim_.fabric().node(1).cpu().BusyTime();
      for (std::uint32_t i = 0; i < kOutstandingSends; ++i) PostSend();
    });
    const std::uint64_t events_before = sim_.scheduler().ExecutedCount();
    {
      Tracer::Scope s(tracer_, Layer::kSimnet, "simnet.Run");
      sim_.Run();
    }
    events_ = sim_.scheduler().ExecutedCount() - events_before;
  }

  /// Correctness checks and the report.
  void Report(RepResult* res) {
    {
      Tracer::Scope s(tracer_, Layer::kChecker, "checker.StreamBulk");
      Check(res);
    }
    const SimDuration elapsed = end_ - start_;
    const double seconds = exs::ToSeconds(elapsed);
    auto& m = res->sim;
    res->attempted = sizes_.size();
    res->failed = sizes_.size() - std::min<std::uint64_t>(completed_,
                                                          sizes_.size());
    EndToEnd& e = res->e2e;
    e.latencies = latencies_;
    e.elapsed = elapsed;
    e.rx_busy = rx_busy_end_ - rx_busy_start_;
    e.tx_busy = tx_busy_end_ - tx_busy_start_;
    e.bytes = bytes_received_;
    e.ops = completed_;
    const LatencySummary lat = SummariseLatencies(latencies_);
    m["op_p50_us"] = lat.p50_us;
    m["op_p99_us"] = lat.p99_us;
    m["op_p999_us"] = lat.p999_us;
    m["op_samples"] = static_cast<double>(lat.count);

    m["simnet.events"] = static_cast<double>(events_);
    m["simnet.server_cpu_busy_pct"] =
        100.0 * exs::ToSeconds(e.rx_busy) / seconds;
    m["simnet.client_cpu_busy_pct"] =
        100.0 * exs::ToSeconds(e.tx_busy) / seconds;
    m["verbs.qps_created"] =
        static_cast<double>(sim_.device(0).QueuePairsCreated() +
                            sim_.device(1).QueuePairsCreated());
    LayerSums sums;
    sums.AddSocket(*client_);
    sums.AddSocket(*server_);
    sums.Emit(elapsed, &m);
    if (sim_.chunk_spans() != nullptr) FoldChunkSpans(sim_.chunk_spans(), &m);
  }

 private:
  void Check(RepResult* res) {
    auto fail = [res](const std::string& what) {
      res->violations.push_back("stream_bulk: " + what);
    };
    if (bytes_received_ != total_bytes_) {
      fail("delivered " + std::to_string(bytes_received_) + " of " +
           std::to_string(total_bytes_) + " bytes sent");
    }
    if (completed_ != sizes_.size()) {
      fail(std::to_string(completed_) + " of " +
           std::to_string(sizes_.size()) + " sends completed");
    }
    const exs::StreamStats tx = client_->stats();
    const exs::StreamStats rx = server_->stats();
    if (tx.bytes_sent != total_bytes_ || rx.bytes_received != total_bytes_) {
      fail("stream counters disagree with the workload: sent " +
           std::to_string(tx.bytes_sent) + ", received " +
           std::to_string(rx.bytes_received) + ", expected " +
           std::to_string(total_bytes_));
    }
    // The server keeps spare receives posted past the last byte; the
    // sender must have nothing left in flight.
    if (!client_->Quiescent()) fail("sends still pending at quiescence");
  }

  void PostRecv(std::uint32_t buffer) {
    Tracer::Scope s(tracer_, Layer::kExs, "exs.Recv");
    const std::uint64_t id = server_->Recv(
        recv_slab_.get() + static_cast<std::size_t>(buffer) * kRecvBufferBytes,
        kRecvBufferBytes);
    recv_buffer_of_[id] = buffer;
  }

  void PostSend() {
    if (next_ >= sizes_.size()) return;
    const std::uint32_t buffer = free_send_.back();
    free_send_.pop_back();
    const std::uint64_t size = sizes_[next_++];
    Tracer::Scope s(tracer_, Layer::kExs, "exs.Send");
    const std::uint64_t id = client_->Send(
        send_slab_.get() + static_cast<std::size_t>(buffer) * max_size_, size);
    in_flight_[id] = {buffer, sim_.Now()};
  }

  void OnClientEvent(const exs::Event& ev) {
    if (ev.type != exs::EventType::kSendComplete) return;
    auto it = in_flight_.find(ev.id);
    if (it == in_flight_.end()) return;
    latencies_.push_back(sim_.Now() - it->second.submitted);
    free_send_.push_back(it->second.buffer);
    in_flight_.erase(it);
    ++completed_;
    PostSend();
  }

  void OnServerEvent(const exs::Event& ev) {
    if (ev.type != exs::EventType::kRecvComplete) return;
    auto it = recv_buffer_of_.find(ev.id);
    if (it == recv_buffer_of_.end()) return;
    const std::uint32_t buffer = it->second;
    recv_buffer_of_.erase(it);
    bytes_received_ += ev.bytes;
    if (bytes_received_ >= total_bytes_) {
      end_ = sim_.Now();
      tx_busy_end_ = sim_.fabric().node(0).cpu().BusyTime();
      rx_busy_end_ = sim_.fabric().node(1).cpu().BusyTime();
      return;
    }
    PostRecv(buffer);
  }

  struct InFlight {
    std::uint32_t buffer = 0;
    SimTime submitted = 0;
  };

  Tracer* tracer_;
  exs::Simulation sim_;
  exs::Socket* client_ = nullptr;
  exs::Socket* server_ = nullptr;
  std::vector<std::uint64_t> sizes_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t max_size_ = 0;
  std::unique_ptr<std::uint8_t[]> send_slab_;
  std::unique_ptr<std::uint8_t[]> recv_slab_;
  std::vector<std::uint32_t> free_send_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::unordered_map<std::uint64_t, std::uint32_t> recv_buffer_of_;
  std::vector<SimDuration> latencies_;
  std::uint64_t next_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t events_ = 0;
  SimTime start_ = 0;
  SimTime end_ = 0;
  SimDuration tx_busy_start_ = 0;
  SimDuration tx_busy_end_ = 0;
  SimDuration rx_busy_start_ = 0;
  SimDuration rx_busy_end_ = 0;
};

}  // namespace

RepResult RunStreamBulk(const RepConfig& config) {
  RepResult res;
  // The set-up takes milliseconds: it shares the blast's calibration.
  const std::int64_t setup_start = WallNs();
  Blast blast(config, config.tiny ? kTinyMessages : kMessages);
  const double setup_raw = SecondsSince(setup_start);
  HostClock run(config.calibrate);
  run.Start();
  blast.Run();
  run.Slice();
  res.setup_s = run.Scale(setup_raw);
  res.wall_s = run.seconds();
  res.calibration_s = run.calibration_s();
  blast.Report(&res);
  if (config.tracer != nullptr) {
    res.host["checker.wall_s"] =
        config.tracer->TotalOf("checker.StreamBulk").ns / 1e9;
  }
  return res;
}

}  // namespace perfbench
