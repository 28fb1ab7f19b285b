#!/usr/bin/env bash
# Bit-identity check between two builds: runs the same deterministic
# surfaces from each build into its own directory, cmps every pair of
# outputs, names each one that differs and exits 1 if any does.  A change
# meant to leave every simulated number alone (a refactor, a host-time
# optimisation) must pass it against its parent's build.
#
#   tools/identical.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are complete default builds (tools and bench targets),
# typically the parent commit built in a second checkout and the change.
# The surfaces, each the same command in both builds:
#   torture    --seeds 1..60 over all 11 modes, --verbose (every run's
#              fingerprint);
#   run_all    bench/run_all.sh --quick (the merged JSON holds no host
#              times);
#   ext_mux, ext_openloop
#              --quick --json FILE (the file is compared; the option order
#              matters: `--json --quick` would write to a file named
#              --quick and run the full sweep);
#   blast      --quick --metrics-json=- (stdout);
#   sabotage_stale, sabotage_gate
#              torture --seeds 1..20 over all 11 modes with --sabotage
#              stale|gate --expect-failure.  An EXS_CHECK message names
#              its source path and line, and the path differs between two
#              checkouts, so " at <path>:<line>" is stripped first.
# perfbench's --sim-json line is not covered: it needs perfbench's own
# build of each tree and stays a manual comparison.
#
# Outputs go to CHANGE_BUILD/identical/{parent,change}, which each run
# starts afresh.  A surface that exits non-zero in either build counts as
# differing.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)" || exit 2
change="$(cd "$2" && pwd)" || exit 2
out="${change}/identical"
rm -rf "${out}" && mkdir -p "${out}/parent" "${out}/change" || exit 2

modes=dynamic,direct,indirect,coalesce,stripe,seqpacket,many,kill,mux,batch
modes+=,rpc

# surface BUILD DIR: write every output of BUILD into DIR; each failing
# command leaves a <name>.failed marker.
surface() {
  local b="$1" d="$2"
  "${b}/tools/torture" --seeds 1..60 --modes "${modes}" --verbose \
    > "${d}/torture.txt" || touch "${d}/torture.failed"
  "${repo}/bench/run_all.sh" --quick --build-dir "${b}" \
    --out "${d}/run_all.json" > /dev/null || touch "${d}/run_all.failed"
  "${b}/bench/ext_mux" --quick --json "${d}/ext_mux.json" > /dev/null ||
    touch "${d}/ext_mux.failed"
  "${b}/bench/ext_openloop" --quick --json "${d}/ext_openloop.json" \
    > /dev/null || touch "${d}/ext_openloop.failed"
  "${b}/tools/blast" --quick --metrics-json=- > "${d}/blast.txt" ||
    touch "${d}/blast.failed"
  local s
  for s in stale gate; do
    "${b}/tools/torture" --seeds 1..20 --modes "${modes}" --sabotage "${s}" \
      --expect-failure | sed -E 's# at [^ ]+:[0-9]+##g' \
      > "${d}/sabotage_${s}.txt" || touch "${d}/sabotage_${s}.failed"
  done
}

echo "running the parent build ..."
surface "${parent}" "${out}/parent"
echo "running the change build ..."
surface "${change}" "${out}/change"

differ=()
for f in torture.txt run_all.json ext_mux.json ext_openloop.json blast.txt \
         sabotage_stale.txt sabotage_gate.txt; do
  name="${f%.*}"
  if [[ -e "${out}/parent/${name}.failed" ||
        -e "${out}/change/${name}.failed" ]]; then
    differ+=("${name} (a run failed)")
  elif ! cmp -s "${out}/parent/${f}" "${out}/change/${f}"; then
    differ+=("${name}")
  else
    echo "identical: ${name}"
  fi
done
if [[ ${#differ[@]} -gt 0 ]]; then
  for d in "${differ[@]}"; do echo "DIFFERS: ${d}" >&2; done
  echo "outputs in ${out}" >&2
  exit 1
fi
echo "all outputs identical"
