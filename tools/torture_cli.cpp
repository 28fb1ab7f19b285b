// exs_torture — seeded fault-injection sweep / replay driver.
//
//   ./torture --seeds 1..200                        # default sweep
//   ./torture --seeds 1..50 --profiles wan --modes dynamic,seqpacket
//   ./torture --seeds 1..50 --corpus fails.txt      # record failing seeds
//   ./torture --replay fails.txt                    # byte-for-byte replay
//   ./torture --seeds 1..20 --sabotage stale --expect-failure
//
// Every failing configuration is printed as a corpus line; `--replay` runs
// each corpus entry twice and insists the trace fingerprints match each
// other (and the recorded one, when present) — the determinism proof.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "torture.hpp"

namespace {

using exs::torture::TortureConfig;
using exs::torture::TortureResult;

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds A..B     inclusive seed range (1..20)\n"
      "  --seed N         single seed (same as --seeds N..N)\n"
      "  --profiles CSV   subset of fdr,iwarp,wan (all)\n"
      "  --modes CSV      subset of dynamic,direct,indirect,coalesce,\n"
      "                   stripe,seqpacket,many,kill,mux,batch,rpc\n"
      "                   (dynamic,direct,indirect,coalesce,stripe,kill,\n"
      "                   mux,batch,rpc)\n"
      "  --kill-permille N     kill mode: pin when the fatal QP kill\n"
      "                   lands, in permille of the fault horizon\n"
      "                   (0 = derive from the seed)\n"
      "  --batch N        batch mode: pin the WRs per doorbell ring\n"
      "                   (0 = derive 2, 4 or 8 from the seed)\n"
      "  --arity N        batch mode: pin the slices per Sendv posting\n"
      "                   (0 = derive 1, 2 or 4 from the seed)\n"
      "  --rails N        stripe/kill modes: pin the rail count (0 =\n"
      "                   derive 2 or 4 from the seed; kill then\n"
      "                   always runs its striped variant)\n"
      "  --streams N      many/mux/rpc modes: pin the concurrent stream\n"
      "                   count (0 = derive 4, 8 or 16 from the seed)\n"
      "  --width N        mux/rpc modes: pin the slot queue pairs per\n"
      "                   group (0 = derive 1, 2 or 4 from the seed)\n"
      "  --total BYTES    stream bytes per run (192K; K/M suffixes ok)\n"
      "  --max-message BYTES   largest send/recv posting (24K)\n"
      "  --buffer BYTES   intermediate buffer capacity (64K)\n"
      "  --trace-capacity N    TraceLog ring capacity, 0 = unbounded (0)\n"
      "  --no-faults      drive the workload without the fault plan\n"
      "  --corpus FILE    append each failing configuration to FILE\n"
      "  --replay FILE    ignore sweep flags; re-run every corpus entry\n"
      "                   twice and compare trace fingerprints\n"
      "  --sabotage stale|gate    enable a protocol sabotage hook\n"
      "  --expect-failure exit 0 only if the invariant checker fired at\n"
      "                   least once (proves the checker catches the bug)\n"
      "  --verbose        print every run, not just failures\n",
      argv0);
  std::exit(2);
}

std::uint64_t ParseSize(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) {
    std::fprintf(stderr, "bad size: %s\n", s.c_str());
    std::exit(2);
  }
  std::string suffix = end;
  if (suffix == "K" || suffix == "k") {
    return static_cast<std::uint64_t>(v * 1024);
  }
  if (suffix == "M" || suffix == "m") {
    return static_cast<std::uint64_t>(v * 1024 * 1024);
  }
  if (!suffix.empty()) {
    std::fprintf(stderr, "bad size suffix: %s\n", suffix.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ParseSeedRange(const std::string& s, std::uint64_t* lo,
                    std::uint64_t* hi) {
  std::size_t dots = s.find("..");
  try {
    if (dots == std::string::npos) {
      *lo = *hi = std::stoull(s);
    } else {
      *lo = std::stoull(s.substr(0, dots));
      *hi = std::stoull(s.substr(dots + 2));
    }
  } catch (const std::exception&) {
    return false;
  }
  return *lo <= *hi;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed_lo = 1, seed_hi = 20;
  std::vector<std::string> profiles = {"fdr", "iwarp", "wan"};
  std::vector<std::string> modes = {"dynamic", "direct", "indirect",
                                    "coalesce", "stripe", "kill", "mux",
                                    "batch", "rpc"};
  TortureConfig base;
  std::string corpus_path;
  std::string replay_path;
  bool expect_failure = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seeds" || arg == "--seed") {
      if (!ParseSeedRange(next(), &seed_lo, &seed_hi)) Usage(argv[0]);
    } else if (arg == "--profiles") {
      profiles = SplitCsv(next());
    } else if (arg == "--modes") {
      modes = SplitCsv(next());
    } else if (arg == "--total") {
      base.total_bytes = ParseSize(next());
    } else if (arg == "--max-message") {
      base.max_message = ParseSize(next());
    } else if (arg == "--buffer") {
      base.buffer_bytes = ParseSize(next());
    } else if (arg == "--batch") {
      base.batch = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--arity") {
      base.arity = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--rails") {
      base.rails = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--streams") {
      base.streams = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--width") {
      base.width = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--kill-permille") {
      base.kill_permille = static_cast<std::uint32_t>(ParseSize(next()));
    } else if (arg == "--trace-capacity") {
      base.trace_capacity = static_cast<std::size_t>(ParseSize(next()));
    } else if (arg == "--no-faults") {
      base.enable_faults = false;
    } else if (arg == "--corpus") {
      corpus_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--sabotage") {
      std::string which = next();
      if (which == "stale") {
        base.sabotage_stale_adverts = true;
      } else if (which == "gate") {
        base.sabotage_advert_gate = true;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--expect-failure") {
      expect_failure = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      Usage(argv[0]);
    }
  }

  std::uint64_t runs = 0, failures = 0, checker_hits = 0;
  std::uint64_t replay_mismatches = 0;

  auto run_one = [&](const TortureConfig& cfg) -> TortureResult {
    TortureResult res = exs::torture::RunTorture(cfg);
    ++runs;
    if (!res.checker_violations.empty()) ++checker_hits;
    if (!res.ok) {
      ++failures;
      std::printf("FAIL %s\n  %s\n", exs::torture::EncodeCorpusEntry(cfg).c_str(),
                  res.Describe().c_str());
      if (!corpus_path.empty()) {
        exs::torture::AppendCorpusEntry(corpus_path, cfg, res.fingerprint);
      }
    } else if (verbose) {
      std::printf("ok   %s\n  %s\n", exs::torture::EncodeCorpusEntry(cfg).c_str(),
                  res.Describe().c_str());
    }
    return res;
  };

  try {
    if (!replay_path.empty()) {
      // Replay mode: determinism is part of the contract, so each entry
      // runs twice and the fingerprints must agree.
      for (const TortureConfig& cfg : exs::torture::LoadCorpus(replay_path)) {
        TortureResult first = run_one(cfg);
        TortureResult second = exs::torture::RunTorture(cfg);
        ++runs;
        if (second.fingerprint != first.fingerprint) {
          ++failures;
          ++replay_mismatches;
          std::printf(
              "FAIL %s\n  nondeterministic replay: fp 0x%llx vs 0x%llx\n",
              exs::torture::EncodeCorpusEntry(cfg).c_str(),
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(second.fingerprint));
        } else if (cfg.expect_fingerprint != 0 &&
                   first.fingerprint != cfg.expect_fingerprint) {
          ++failures;
          ++replay_mismatches;
          std::printf(
              "FAIL %s\n  fingerprint drift from recorded corpus entry: "
              "0x%llx (recorded 0x%llx)\n",
              exs::torture::EncodeCorpusEntry(cfg).c_str(),
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(cfg.expect_fingerprint));
        }
      }
    } else {
      for (const std::string& profile : profiles) {
        for (const std::string& mode : modes) {
          if (!exs::torture::ValidMode(mode)) Usage(argv[0]);
          for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
            TortureConfig cfg = base;
            cfg.seed = seed;
            cfg.profile = profile;
            cfg.mode = mode;
            run_one(cfg);
          }
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }

  std::printf("torture: %llu runs, %llu failures, %llu checker hits\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(checker_hits));
  if (expect_failure) {
    if (checker_hits == 0) {
      std::printf("expected the invariant checker to fire, but it never did\n");
      return 1;
    }
    return replay_mismatches == 0 ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
