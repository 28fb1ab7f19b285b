// Extension: hot-path doorbell/WR batching (StreamOptions::batching).
//
// In the WR-bound regime — messages small enough that posting cost, not
// wire serialisation, bounds throughput — every WWI pays the full
// doorbell: an MMIO write plus driver entry (~140 ns on the FDR testbed)
// on top of the per-WR descriptor work (~60 ns).  Batched posting
// (QueuePair::PostSendBatch behind StreamOptions::Batching::doorbell)
// rings one doorbell for up to max_wrs chunks, so the amortised posting
// cost per WR falls from doorbell+per_wr toward per_wr alone.
//
// The regime needs two things the stock profile buries.  First, a fast
// event path: the paper's interrupt-driven software charges ~1.5 us of
// host CPU per completion, which dwarfs the ~200 ns posting cost — so
// this sweep runs a polling-grade variant of FDR (60 ns inlined handlers,
// 1 us wake-up, no jitter) where the HCA posting path is the genuine
// bottleneck at small sizes.  Second, clumped submission: doorbell
// batches only form when several chunks are posted at one simulated
// instant, which is what batched CQ dispatch (Batching::cq_drain, the
// ibv_poll_cq drain-loop idiom) provides — each wake-up hands the socket
// a clump of send completions, the window refills in one pass, and the
// whole clump rides one doorbell.
//
// This bench sweeps batch depth {1 (batching off), 2, 4, 8, 16} against
// message size 256 B – 4 KiB with a deep send window, and reports
// per-depth throughput, the gain over the unbatched baseline, and the
// achieved batch depth (batched WRs per doorbell).  Past the WR-bound
// regime (large messages) the columns converge: serialisation dominates
// and the doorbell is noise.  CI gates on the 512 B depth-8 point of the
// --quick run (see tools/gates.sh).
#include <fstream>
#include <iostream>
#include <sstream>

#include "support.hpp"

namespace exs::bench {
namespace {

constexpr std::uint64_t kSizes[] = {256, 512, 1024, 2048, 4096};
constexpr std::uint32_t kDepths[] = {1, 2, 4, 8, 16};

struct Point {
  std::uint64_t size = 0;
  std::uint32_t depth = 0;
  double mbps = 0.0;
  double gain = 0.0;           ///< vs depth-1 (batching off) at this size
  double achieved_depth = 0.0; ///< batched WRs per doorbell ring
};

// FDR with a polling-grade event path: inlined handlers on a pinned core
// (60 ns per completion instead of 1.5 us of interrupt-driven software)
// and a short wake-up.  Jitter off — the sweep isolates the posting-cost
// effect.  The wire, HCA and memcpy constants are stock FDR.
simnet::HardwareProfile WrBoundFdr() {
  simnet::HardwareProfile p = simnet::HardwareProfile::FdrInfiniBand();
  p.per_event_cpu = Nanoseconds(60);
  p.completion_notify_delay = Microseconds(1);
  p.notify_jitter = 0.0;
  p.cpu_jitter = 0.0;
  return p;
}

blast::BlastConfig BaseFor(const Args& args, std::uint64_t size,
                           std::uint32_t depth) {
  blast::BlastConfig c = FdrBaseConfig(args);
  c.profile = WrBoundFdr();
  c.fixed_message_bytes = size;
  // The WR-bound regime: a deep send window keeps the posting path the
  // bottleneck; a matching receive window keeps the receiver out of the
  // way.
  c.outstanding_sends = 64;
  c.outstanding_recvs = 8;
  if (depth > 1) {
    c.stream.batching.doorbell = true;
    c.stream.batching.max_wrs = depth;
    // Drain completions in clumps of up to 2x the batch depth so one CPU
    // pass refills enough of the window to fill a doorbell batch.
    c.stream.batching.cq_drain = 2 * depth;
  }
  return c;
}

double MeanAchievedDepth(const blast::BlastSummary& s) {
  if (s.runs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : s.runs) {
    sum += r.client_stats.doorbell_batches == 0
               ? 1.0
               : static_cast<double>(r.client_stats.batched_wrs) /
                     static_cast<double>(r.client_stats.doorbell_batches);
  }
  return sum / static_cast<double>(s.runs.size());
}

std::vector<Point> RunSweep(const Args& args) {
  PrintBanner(std::cout, "Ext: doorbell/WR batching (fdr, polling-grade)",
              "batch depth 1-16 vs message size 256 B - 4 KiB "
              "(sends=64, cq_drain=2x depth; depth 1 = batching off)",
              args);
  Table table({"message size", "depth", "Mb/s", "gain vs depth-1",
               "achieved depth"});
  std::vector<Point> points;
  // --quick keeps the 512 B point CI gates on plus one larger size, with
  // the depth-1 baseline (first, so gains stay well-defined) and depth 8.
  const std::vector<std::uint64_t> sizes =
      args.quick ? std::vector<std::uint64_t>{512, 2048}
                 : std::vector<std::uint64_t>(std::begin(kSizes),
                                              std::end(kSizes));
  const std::vector<std::uint32_t> depths =
      args.quick ? std::vector<std::uint32_t>{1, 8}
                 : std::vector<std::uint32_t>(std::begin(kDepths),
                                              std::end(kDepths));
  for (std::uint64_t size : sizes) {
    double baseline = 0.0;
    for (std::uint32_t depth : depths) {
      blast::BlastSummary s =
          blast::RunRepeated(BaseFor(args, size, depth), args.runs);
      Point p;
      p.size = size;
      p.depth = depth;
      p.mbps = s.throughput_mbps.mean;
      if (depth == 1) baseline = p.mbps;
      p.gain = baseline > 0.0 ? p.mbps / baseline : 0.0;
      p.achieved_depth = MeanAchievedDepth(s);
      points.push_back(p);
      table.AddRow({std::to_string(size) + " B", std::to_string(depth),
                    FormatMetric(s.throughput_mbps, 0),
                    FormatDouble(p.gain, 2) + "x",
                    FormatDouble(p.achieved_depth, 1)});
    }
  }
  table.Print(std::cout, args.csv);
  std::cout << "\n";
  return points;
}

void WriteJson(const Args& args, const std::vector<Point>& points) {
  if (args.results_json_path.empty()) return;
  std::ostringstream json;
  json << "{\"bench\":\"ext_batching\",\"schema_version\":"
       << kBenchJsonSchemaVersion << ",\"runs\":" << args.runs
       << ",\"messages\":" << args.messages
       << ",\"profiles\":[{\"profile\":\"fdr\",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (i) json << ",";
    json << "{\"size\":" << p.size << ",\"depth\":" << p.depth
         << ",\"mbps\":" << p.mbps << ",\"gain\":" << p.gain
         << ",\"achieved_depth\":" << p.achieved_depth << "}";
  }
  json << "]}]}";
  if (args.results_json_path == "-") {
    std::cout << json.str() << "\n";
    return;
  }
  std::ofstream file(args.results_json_path, std::ios::trunc);
  if (!file.good()) {
    std::cerr << "cannot write " << args.results_json_path << "\n";
    std::exit(2);
  }
  file << json.str() << "\n";
  std::cout << "results written to " << args.results_json_path << "\n";
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  WriteJson(args, RunSweep(args));
  return 0;
}
