// exs_torture — seeded fault-injection torture harness for the EXS stack.
//
// One torture run = one seed: the seed fixes the hardware schedule, the
// workload (message sizes, WAITALL mix, posting interleave) AND the fault
// plan (simnet/faults.hpp), so any failure reproduces byte-for-byte from
// its corpus line alone.  After the run the TraceLogs are replayed through
// the invariant checker (exs/invariant_checker.hpp) and the delivered
// bytes verified against the position-dependent pattern — a run passes
// only if the stream is intact AND every invariant of the safety theorem
// held throughout.
//
// Failing configurations encode to one `key=value` line (a replay-corpus
// entry, see docs/FAULTS.md); `exs_torture --replay corpus.txt` re-runs
// each entry twice and compares trace fingerprints to prove determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exs/types.hpp"
#include "simnet/profile.hpp"

namespace exs::torture {

struct TortureConfig {
  std::uint64_t seed = 1;
  /// Hardware profile: "fdr", "iwarp", or "wan" (RoCE through 24 ms of
  /// emulated one-way delay, the paper's distance experiment).
  std::string profile = "fdr";
  /// Protocol mode: "dynamic", "direct", "indirect", "coalesce" (the
  /// dynamic algorithm with StreamOptions::coalesce armed — staging buffer
  /// plus ACK piggyback), "stripe" (multi-rail striping: the seed derives
  /// rails ∈ {2,4}, unless `rails` pins it below, and an inner mode of
  /// dynamic or indirect) for stream
  /// sockets, "seqpacket" (message socket), or "many" (the server engine:
  /// N clients connect through the acceptor into one shared buffer pool /
  /// SRQ slot pool and the progress engine drives every accepted socket;
  /// the seed derives N from {4,8,16} unless `streams` pins it, and the
  /// checker additionally replays pool conservation across all streams),
  /// "kill" (the recovery equivalence harness: twin runs of one
  /// seed-derived workload variant — classic dynamic, coalesce, or
  /// striped — one unkilled and one with a fatal QP kill landing
  /// mid-transfer followed by Socket::ResumePair; the run passes only if
  /// both deliver the byte-identical stream, proven by comparing FNV
  /// fingerprints of the delivered payloads), or "mux" (the shared-QP
  /// multiplexing tier: N streams ride a MuxGroup slot pool of `width`
  /// queue pairs per endpoint — the seed derives N ∈ {4,8,16}, width ∈
  /// {1,2,4} and the per-stream window unless `streams`/`width` pin
  /// them — and the checker additionally replays the mux conservation
  /// laws: group data accounting, per-stream sequence continuity, and
  /// per-slot credit conservation), or "batch" (the hot-path batching
  /// stack armed in full — coalescing, doorbell batching and batched CQ
  /// drain, with both devices' registration cost model — driven through
  /// vectored Sendv postings; the seed derives the batch depth ∈ {2,4,8}
  /// and the Sendv arity ∈ {1,2,4} unless `batch`/`arity` pin them, and the
  /// checker additionally audits per-rail gather-byte and doorbell
  /// conservation), or "rpc" (the RPC/KV tier: N RpcClients over a
  /// shared MuxGroup slot pool drive one sharded KV server through
  /// seeded Zipf/size-mixed request trains under a tight deadline, a
  /// small pipeline bound, and a starved value slab — the seed derives
  /// N ∈ {4,8,16}, width ∈ {1,2,4} and the train length unless
  /// `streams`/`width` pin them, and the checker additionally replays
  /// the RPC conservation law: exactly one terminal outcome per issued
  /// call, stale responses never double-resolving, server counters
  /// agreeing with the client ledgers).
  std::string mode = "dynamic";
  /// "stripe" and "kill" modes: rail count (0 = derive {2,4} from the
  /// seed; in "kill" a pinned count forces the striped variant).
  std::uint32_t rails = 0;
  /// "many"/"mux"/"rpc" modes: concurrent stream/client count (0 =
  /// derive from the seed).
  std::uint32_t streams = 0;
  /// "mux"/"rpc" modes: slot queue pairs per MuxGroup (0 = derive
  /// {1,2,4} from the seed).  Encoded to a corpus entry only when
  /// pinned, so older corpus files round-trip byte-identically.
  std::uint32_t width = 0;
  /// "kill" mode only: when (in permille of the fault horizon) the fatal
  /// QP kill lands (0 = derive from the seed).  Encoded to a corpus entry
  /// only when pinned, so older corpus files round-trip byte-identically.
  std::uint32_t kill_permille = 0;
  /// "batch" mode only: WRs per doorbell ring (0 = derive {2,4,8} from
  /// the seed).  Encoded to a corpus entry only when pinned, so older
  /// corpus files round-trip byte-identically.
  std::uint32_t batch = 0;
  /// "batch" mode only: slices per vectored Sendv posting (0 = derive
  /// {1,2,4} from the seed).  Encoded only when pinned, like `batch`.
  std::uint32_t arity = 0;
  std::uint64_t total_bytes = 192 * 1024;
  std::uint64_t max_message = 24 * 1024;
  std::uint64_t buffer_bytes = 64 * 1024;
  /// TraceLog capacity per direction (0 = unbounded).
  std::size_t trace_capacity = 0;
  bool enable_faults = true;
  /// Test-only protocol sabotage (StreamOptions::Sabotage); the run is
  /// then *expected* to fail and the checker must say why.
  bool sabotage_stale_adverts = false;
  bool sabotage_advert_gate = false;
  /// Fingerprint recorded when this entry was written to a corpus (0 =
  /// unknown); replay compares against it.
  std::uint64_t expect_fingerprint = 0;
};

struct TortureResult {
  /// Stream intact, run quiescent, and no invariant violations.
  bool ok = false;
  /// Integrity/progress/quiescence failures observed while driving.
  std::vector<std::string> failures;
  /// Violations reported by the trace invariant checker specifically.
  std::vector<std::string> checker_violations;
  /// Non-fatal checker caveats (truncated traces, undelivered sampled
  /// chunks): the run still passes, but the caveats are printed so a
  /// partially validated run never masquerades as a fully validated one.
  std::vector<std::string> checker_warnings;
  std::uint64_t fingerprint = 0;    ///< ConnectionFingerprint of the run
  std::uint64_t events_checked = 0;
  std::uint64_t faults_armed = 0;
  std::uint64_t faults_applied = 0;
  /// "kill" mode only: fatal kills that took effect and the ResumePair
  /// invocations that recovered from them (zero in every other mode).
  std::uint64_t kills_applied = 0;
  std::uint64_t resumes = 0;

  std::string Describe() const;
};

/// Map a profile name ("fdr" | "iwarp" | "wan") to its HardwareProfile.
/// Throws exs::InvariantViolation on an unknown name.
simnet::HardwareProfile ResolveProfile(const std::string& name);

/// True if `mode` names a valid protocol mode for TortureConfig.
bool ValidMode(const std::string& mode);

/// Execute one fully deterministic torture run.
TortureResult RunTorture(const TortureConfig& cfg);

/// One-line `key=value` corpus encoding of a configuration.
std::string EncodeCorpusEntry(const TortureConfig& cfg);

/// Parse a corpus line; returns false (and leaves `out` untouched) on a
/// malformed line.  Blank lines and lines starting with '#' are rejected
/// here and skipped by LoadCorpus.
bool DecodeCorpusEntry(const std::string& line, TortureConfig* out);

/// Load every entry of a corpus file (skipping blanks and '#' comments).
/// Throws exs::InvariantViolation if the file cannot be read or a
/// non-comment line is malformed.
std::vector<TortureConfig> LoadCorpus(const std::string& path);

/// Append one entry (with its fingerprint) to a corpus file.
void AppendCorpusEntry(const std::string& path, const TortureConfig& cfg,
                       std::uint64_t fingerprint);

}  // namespace exs::torture
