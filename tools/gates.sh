#!/usr/bin/env bash
# Every default-build gate besides ctest, so CI and a local run execute the
# same commands with the same seeds and bounds: the seeded torture sweeps
# (each run replayed through the invariant checker), the two sabotage
# sweeps that prove the checker catches a broken staleness filter (Figs.
# 2/8) and a broken ADVERT gate (Fig. 3), one bench/run_all.sh --quick run
# with the diff against the committed baseline and each extension's gate,
# the full many-stream and mux sweeps, the exporters, the latency report's
# rerun identity, the examples, the micro benchmarks (a notice: host times
# are not gated) and perfbench's determinism test.
#
#   tools/gates.sh [BUILD_DIR]        (default: build)
#
# BUILD_DIR holds a complete default build.  Every output (bench JSON,
# replay corpora of failing seeds, reports) goes to BUILD_DIR/gates, which
# each run starts afresh; the committed BENCH_streams.json is only read.
# Every gate runs even after one fails; the script then names each failed
# gate and exits 1.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-${repo}/build}" && pwd)" || exit 2
out="${build}/gates"
rm -rf "${out}" && mkdir -p "${out}" && cd "${out}" || exit 2

failed=()
gates=0
gate() {
  local name="$1"
  shift
  echo "== ${name} =="
  gates=$((gates + 1))
  "$@" || { failed+=("${name}"); echo "FAILED: ${name}" >&2; }
}
torture() { "${build}/tools/torture" "$@"; }
sabotage() {
  torture --seeds 1..20 --sabotage "$1" --expect-failure > /dev/null
}
exporters() {
  "${build}/tools/blast" --quick --metrics-json=- > /dev/null &&
    "${build}/tools/blast" --quick --timeline-json=timeline.json &&
    python3 -c "import json; json.load(open('timeline.json'))['traceEvents']"
}
latency_report() {
  "${build}/tools/latency_report" --messages 300 --rails 2 \
    --json latency-report.json --timeline-json perfetto-trace.json \
    > latency-report.txt &&
    "${build}/tools/latency_report" --messages 300 --rails 2 \
      > latency-report-rerun.txt &&
    cmp latency-report.txt latency-report-rerun.txt &&
    python3 -c "import json; json.load(open('perfetto-trace.json'))"
}
examples() {
  local ex
  for ex in quickstart adaptive_stream file_transfer request_response \
            striped_transfer; do
    "${build}/examples/${ex}" || return 1
  done
}

gate "exporters (blast metrics JSON, Perfetto timeline)" exporters
gate "torture: dynamic,direct,indirect,seqpacket" \
  torture --seeds 1..200 --modes dynamic,direct,indirect,seqpacket \
  --corpus replay-corpus.txt
gate "checker catches a sabotaged staleness filter" sabotage stale
gate "checker catches a sabotaged ADVERT gate" sabotage gate
gate "torture: kill" \
  torture --seeds 1..100 --modes kill --corpus kill-corpus.txt
gate "torture: coalesce" \
  torture --seeds 1..100 --modes coalesce --corpus coalesce-corpus.txt
gate "torture: batch" \
  torture --seeds 1..100 --modes batch --corpus batch-corpus.txt
gate "torture: stripe" \
  torture --seeds 1..100 --modes stripe --corpus stripe-corpus.txt
gate "torture: many" torture --seeds 1..50 --modes many --corpus many-corpus.txt
gate "torture: mux" torture --seeds 1..34 --modes mux --corpus mux-corpus.txt
gate "torture: rpc" torture --seeds 1..50 --modes rpc --corpus rpc-corpus.txt

gate "benchmark suite (run_all.sh --quick)" "${repo}/bench/run_all.sh" \
  --quick --build-dir "${build}" --out fresh-bench.json
gate "diff against the committed baseline (±10%)" python3 \
  "${repo}/tools/bench_diff.py" "${repo}/BENCH_streams.json" fresh-bench.json
gate "coalescing: small-message win" python3 - <<'EOF'
import json
data = next(b for b in json.load(open('fresh-bench.json'))['benches']
            if b['bench'] == 'ext_coalescing')
fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
p256 = next(pt for pt in fdr['points'] if pt['size'] == 256)
print(f"256 B on/off gain on fdr: {p256['gain']:.2f}x")
assert p256['gain'] >= 1.25, "coalescing win at 256 B regressed below 25%"
EOF
gate "batching: doorbell-batching win" python3 - <<'EOF'
import json
data = next(b for b in json.load(open('fresh-bench.json'))['benches']
            if b['bench'] == 'ext_batching')
fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
pt = next(p for p in fdr['points']
          if p['size'] == 512 and p['depth'] == 8)
print(f"512 B depth-8 gain on fdr: {pt['gain']:.2f}x "
      f"(achieved depth {pt['achieved_depth']:.1f})")
assert pt['gain'] >= 1.3, "batching win at 512 B depth-8 fell below 30%"
assert pt['achieved_depth'] >= 1.5, "doorbell batches stopped forming"
EOF
gate "striping: multi-rail win" python3 - <<'EOF'
import json
data = json.load(open('fresh-bench.json'))
st = next(b for b in data['benches'] if b['bench'] == 'ext_striping')
fdr = next(p for p in st['profiles'] if p['profile'] == 'fdr')
p64 = next(pt for pt in fdr['points'] if pt['size'] == 65536)
print(f"64 KiB rails=4 gain on fdr: {p64['gain4']:.2f}x")
assert p64['gain4'] >= 1.3, "rails=4 win at 64 KiB regressed below 1.3x"
EOF
gate "openloop: conservation and bounded rates" python3 - <<'EOF'
import json
data = next(b for b in json.load(open('fresh-bench.json'))['benches']
            if b['bench'] == 'ext_openloop')
points = data['points']
assert points, "no open-loop points reported"
for pt in points:
    where = f"{pt['arm']}/{pt['arrivals']}/clients={pt['clients']}"
    assert pt['lost'] == 0, f"{where}: lost requests"
    assert pt['checker_ran'], f"{where}: checker did not run"
    assert pt['checker_violations'] == 0, \
        f"{where}: conservation violations"
    assert pt['refusal_rate'] < 0.5, \
        f"{where}: refusal rate unbounded"
    assert pt['timeout_rate'] < 0.25, \
        f"{where}: timeout rate unbounded"
pressure = [pt for pt in points
            if pt['arm'] == 'mux' and pt['slab_slots'] < 4096]
assert pressure and all(pt['refused'] > 0 for pt in pressure), \
    "slab-pressure point refused nothing (not under pressure)"
churn = [pt for pt in points if pt['arm'] == 'churn']
assert churn, "no churn point reported"
for pt in churn:
    assert 0 < pt['admission_refusals'] < pt['admission_attempts'], \
        "churn admission refusals not a bounded nonzero share"
top = max(pt['clients'] for pt in points if pt['arm'] == 'mux')
print(f"{len(points)} points, up to {top} clients: "
      "conservation clean, rates bounded")
EOF

gate "ext_manystream (full sweep, 1..4096 streams)" \
  "${build}/bench/ext_manystream" --json ext_manystream.json
gate "manystream: the 1024-stream point" python3 - <<'EOF'
import json
data = json.load(open('ext_manystream.json'))
fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
pt = next(pt for pt in fdr['points'] if pt['streams'] == 1024)
print(f"1024 streams: {pt['link_fraction']*100:.1f}% of link, "
      f"fairness {pt['fairness']:.2f}x, "
      f"pool peak {pt['pool_peak_bytes']} B")
assert pt['pool_peak_bytes'] <= data['slab_bytes'], \
    "pool occupancy exceeded the fixed slab"
assert pt['fairness'] <= 2.0, \
    "per-stream completion-time spread regressed above 2x"
assert pt['link_fraction'] >= 0.70, \
    "1024-stream aggregate goodput regressed below 70% of link"
assert pt['admission_refusals'] == 0, \
    "acceptor refused planned streams with a full-size pool"
checked = [pt for pt in fdr['points'] if pt['checker_ran']]
assert checked, "no point ran the pool conservation checker"
assert all(pt['checker_violations'] == 0 for pt in checked), \
    "pool conservation checker reported violations"
EOF
gate "ext_mux (full sweep, gates built in)" \
  "${build}/bench/ext_mux" --json ext_mux.json
gate "mux: the 64 Ki-stream point" python3 - <<'EOF'
import json
data = json.load(open('ext_mux.json'))
top = next(pt for pt in data['points']
           if pt['tier'] == 'muxed' and pt['streams'] == 65536)
print(f"65536 streams over {top['qps_created']} QPs: "
      f"{top['goodput_mbps']:.0f} Mb/s, "
      f"fairness {top['fairness']:.2f}x, "
      f"HoL p99 {top['hol_p99_us']:.1f} us")
assert top['qps_created'] == data['pool_width'], \
    "muxed tier created more QPs than the slot pool"
assert top['fairness'] <= data['fairness_bound'], \
    "DRR fairness (slowest/median) regressed past the bound"
checked = [pt for pt in data['points'] if pt['checker_ran']]
assert checked, "no point replayed the mux conservation checker"
assert all(pt['checker_violations'] == 0 for pt in checked), \
    "mux conservation checker reported violations"
EOF

gate "latency report (bit-identical rerun)" latency_report
gate "examples run to completion" examples
gate "micro benchmarks (notice)" "${build}/bench/micro_simulator" \
  --benchmark_filter='Scheduler|CpuTask|VerbsMessage|RpcCall|MuxedPair' \
  --benchmark_min_time=0.05 \
  --benchmark_out=micro_simulator.json --benchmark_out_format=json
gate "benchmark determinism (perfbench)" \
  python3 "${repo}/perfbench/test_determinism.py"

if ((${#failed[@]})); then
  echo "${#failed[@]} of ${gates} gates failed:" >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "all ${gates} gates passed in ${SECONDS} s; outputs in ${out}"
