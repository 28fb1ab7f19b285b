// Extension: multi-rail striping (StreamOptions::rails).
//
// One stream, N queue pairs.  The shared link serialises bytes no matter
// how many rails carry them, so striping pays off exactly where the
// *per-work-request* costs dominate: the HCA's WR processing pipeline
// (send_wr_overhead, charged FIFO per queue pair) and the per-rail credit
// pool.  This bench drives that regime deliberately — WWI chunks are
// capped at 512 B, modelling a WR-rate-bound NIC — and sweeps message
// size × rails ∈ {1, 2, 4}:
//
//   * FDR: one rail is HCA-bound (~200 ns per WR against ~94 ns of wire
//     time per chunk); four rails overlap the WR overhead and push the
//     link back to being the bottleneck.
//   * WAN (48 ms RTT): one rail's 128-credit pool caps the bytes in
//     flight far below the bandwidth-delay product; each extra rail adds
//     a whole credit pool.
//
// The rails=1 column runs the identical chunked configuration, so the
// comparison isolates the striping mechanism itself.
#include <fstream>
#include <iostream>
#include <sstream>

#include "support.hpp"

namespace exs::bench {
namespace {

constexpr std::uint64_t kSizes[] = {4 * 1024, 16 * 1024, 64 * 1024,
                                    256 * 1024};
constexpr std::uint32_t kRails[] = {1, 2, 4};
constexpr std::uint64_t kChunk = 512;
constexpr std::uint32_t kOutstanding = 8;

struct Point {
  std::uint64_t size = 0;
  double mbps[3] = {0.0, 0.0, 0.0};  // rails 1, 2, 4
};

blast::BlastConfig BaseFor(const std::string& profile, const Args& args,
                           std::uint32_t rails) {
  blast::BlastConfig c =
      profile == "wan" ? WanBaseConfig(args) : FdrBaseConfig(args);
  c.outstanding_sends = kOutstanding;
  c.outstanding_recvs = kOutstanding;
  c.stream.max_wwi_chunk = kChunk;
  c.stream.rails = rails;
  return c;
}

std::vector<Point> RunProfile(const std::string& profile, const Args& args) {
  PrintBanner(std::cout, "Ext: multi-rail striping (" + profile + ")",
              "fixed sizes, 512 B WWI chunks, outstanding=8, "
              "rails 1 vs 2 vs 4",
              args);
  Table table({"message size", "rails=1 Mb/s", "rails=2 Mb/s",
               "rails=4 Mb/s", "gain x2", "gain x4"});
  std::vector<Point> points;
  // --quick keeps a mid size plus the 64 KiB point CI gates on.
  const std::vector<std::uint64_t> sizes =
      args.quick ? std::vector<std::uint64_t>{16 * 1024, 64 * 1024}
                 : std::vector<std::uint64_t>(std::begin(kSizes),
                                              std::end(kSizes));
  for (std::uint64_t size : sizes) {
    Point p;
    p.size = size;
    std::string row_label = size >= kMiB
                                ? std::to_string(size / kMiB) + " MiB"
                                : std::to_string(size / 1024) + " KiB";
    std::vector<std::string> row = {row_label};
    for (std::size_t i = 0; i < 3; ++i) {
      blast::BlastConfig cfg = BaseFor(profile, args, kRails[i]);
      cfg.fixed_message_bytes = size;
      blast::BlastSummary s = blast::RunRepeated(cfg, args.runs);
      p.mbps[i] = s.throughput_mbps.mean;
      row.push_back(FormatMetric(s.throughput_mbps, 0));
    }
    row.push_back(FormatDouble(p.mbps[0] > 0 ? p.mbps[1] / p.mbps[0] : 0, 2) +
                  "x");
    row.push_back(FormatDouble(p.mbps[0] > 0 ? p.mbps[2] / p.mbps[0] : 0, 2) +
                  "x");
    table.AddRow(row);
    points.push_back(p);
  }
  table.Print(std::cout, args.csv);
  std::cout << "\n";
  return points;
}

void WriteJson(const Args& args,
               const std::vector<std::pair<std::string, std::vector<Point>>>&
                   profiles) {
  if (args.results_json_path.empty()) return;
  std::ostringstream json;
  json << "{\"bench\":\"ext_striping\",\"schema_version\":"
       << kBenchJsonSchemaVersion << ",\"runs\":" << args.runs
       << ",\"messages\":" << args.messages << ",\"chunk\":" << kChunk
       << ",\"outstanding\":" << kOutstanding << ",\"profiles\":[";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (i) json << ",";
    json << "{\"profile\":\"" << profiles[i].first << "\",\"points\":[";
    const auto& points = profiles[i].second;
    for (std::size_t j = 0; j < points.size(); ++j) {
      const Point& p = points[j];
      if (j) json << ",";
      json << "{\"size\":" << p.size << ",\"rails1_mbps\":" << p.mbps[0]
           << ",\"rails2_mbps\":" << p.mbps[1]
           << ",\"rails4_mbps\":" << p.mbps[2] << ",\"gain2\":"
           << (p.mbps[0] > 0.0 ? p.mbps[1] / p.mbps[0] : 0.0) << ",\"gain4\":"
           << (p.mbps[0] > 0.0 ? p.mbps[2] / p.mbps[0] : 0.0) << "}";
    }
    json << "]}";
  }
  json << "]}";
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
  std::vector<std::pair<std::string, std::vector<Point>>> results;
  results.emplace_back("fdr", RunProfile("fdr", args));
  results.emplace_back("wan", RunProfile("wan", args));
  WriteJson(args, results);
  return 0;
}
