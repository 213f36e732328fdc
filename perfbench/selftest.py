"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload for about a second, untraced and traced, through the
exact command in ``BENCHMARK.json``, and checks that

* each run exits 0 and its correctness gates held (``"correct": true``);
* the untraced run prints every end-to-end metric of ``BENCHMARK.json``,
  and the traced run every per-layer metric, each with its unit;
* two ``sim-wan-global`` runs with one seed give identical commit and
  abort counts and identical simulated latencies.

Exits non-zero on the first failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    args = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = spec["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit(f"FAIL {workload} trace={trace}: {metric['name']} missing or wrong unit")
        if metric["name"] not in proc.stdout.rsplit("\n", 2)[0]:
            sys.exit(f"FAIL {workload} trace={trace}: {metric['name']} not printed")
    if set(result["metrics"]) != {m["name"] for m in expected}:
        sys.exit(f"FAIL {workload} trace={trace}: unexpected metrics")
    if not result["correct"] or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {result}")
    print(f"ok   {workload:<16} trace={trace} attempted={result['attempted']}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sim_runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(spec, workload, 7, trace)
            if workload == "sim-wan-global" and trace == 0:
                sim_runs.append(result)
    sim_runs.append(run(spec, "sim-wan-global", 7, 0))
    exact = ("update_p50_ms", "update_p99_ms", "read_p50_ms", "read_p99_ms")

    def fingerprint(result: dict) -> tuple:
        return (result["attempted"], result["failed"]) + tuple(
            result["metrics"][name]["value"] for name in exact
        )

    if fingerprint(sim_runs[0]) != fingerprint(sim_runs[1]):
        sys.exit(f"FAIL sim-wan-global differs across same-seed runs: "
                 f"{fingerprint(sim_runs[0])} != {fingerprint(sim_runs[1])}")
    print("ok   sim-wan-global counts and simulated latencies repeat for one seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
