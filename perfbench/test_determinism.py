#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

Runs every workload at a tiny size and checks three things:

  1. two runs with the same seed give bit-identical simulated metrics;
  2. a traced run reproduces the untraced run's simulated metrics (tracing
     observes the simulator, it never changes it);
  3. a run with another seed gives different simulated metrics, which
     proves the seed reaches the generators.

Host metrics (wall time, set-up time, memory) are left out: they depend on
the machine.  Run from the repository root:

    python3 perfbench/test_determinism.py
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

HOST_METRICS = {"wall_s", "setup_s", "peak_rss_mb"}


def simulated(binary, workload, seed, trace):
    """Every simulated metric of a tiny run, as exact decimal strings."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny", "--sim-json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: run reported incorrect")
    # The --sim-json line is the first JSON line; parse_float=str keeps
    # every digit, so equality below is bit equality.
    sim_line = next(line for line in lines if line.startswith("{"))
    metrics = json.loads(sim_line, parse_float=str)
    if trace == 0:
        for name, m in json.loads(lines[-1], parse_float=str)["metrics"].items():
            if name not in HOST_METRICS:
                metrics["e2e." + name] = m["value"]
    return metrics


def main():
    binary = run.build()
    failures = []
    for workload in run.WORKLOADS:
        first = simulated(binary, workload, 1, 0)
        again = simulated(binary, workload, 1, 0)
        traced = simulated(binary, workload, 1, 1)
        other = simulated(binary, workload, 2, 0)
        if first != again:
            diff = sorted(k for k in first if first.get(k) != again.get(k))
            failures.append(f"{workload}: same seed, different metrics: {diff}")
        changed = sorted(k for k in traced
                         if k in first and traced[k] != first[k])
        if changed:
            failures.append(f"{workload}: tracing changed {changed}")
        if first == other:
            failures.append(f"{workload}: seeds 1 and 2 gave identical metrics")
        status = "FAIL" if any(f.startswith(workload + ":")
                               for f in failures) else "ok"
        print(f"{workload}: {len(first)} simulated metrics, {status}")
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
