"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --probe-ref-ms 13.2 --workload tcp-update --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table of a traced run.  Every metric line names its unit; time-based
end-to-end metrics are scaled to the reference host speed and printed
beside their raw value and the run's speed-probe median.  The last line
is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

The run exits non-zero if a correctness gate fails (replica stores
disagree, the increment invariant breaks, or — traced runs — the
serializability or replica-agreement checker rejects the history).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: name -> unit of every end-to-end metric, in print order.
END_TO_END = {
    "setup_s": "s",
    "committed_tps": "txn/s",
    "cpu_us_per_commit": "us",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("tcp-update", "tcp-read-mostly", "sim-wan-global")


def _pin_hash_seed() -> None:
    """Re-run this process under a fixed string-hash seed.

    Set and dict iteration orders over strings (node ids, keys) depend on
    the hash seed, which Python randomizes per process; pinning it makes
    a run a function of ``--seed`` alone, so same-seed runs repeat.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perfbench: no src/repro next to perfbench/; run from a full checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _print_end_to_end(result: dict, scale) -> dict[str, dict]:
    print(f"speed probe: median {scale.median_probe_ms:.3f} ms over {len(scale.probes)} probes, "
          f"reference {scale.reference_s * 1000:.3f} ms")
    metrics = {}
    for name, unit in END_TO_END.items():
        value = result["metrics"][name]
        line = f"{name:<20} {value:12.4f} {unit:<6}"
        if name in result["raw"]:
            line += f" raw {result['raw'][name]:.4f}  probe median {scale.median_probe_ms:.3f} ms"
        print(line)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-ref-ms",
        type=float,
        required=True,
        help="speed-probe time of the reference host; time metrics are scaled to it",
    )
    args = parser.parse_args(argv)
    _pin_hash_seed()
    _import_program()

    if args.trace:
        from perfbench.layers import traced_run

        result = traced_run(args.workload, args.seed, args.seconds, ROOT)
        metrics = result["metrics"]
    else:
        from perfbench.harness import SpeedScale

        scale = SpeedScale(args.probe_ref_ms)
        if args.workload.startswith("tcp-"):
            from perfbench import tcp

            result = tcp.measure(args.workload, args.seed, args.seconds, scale)
        else:
            from perfbench import sim

            result = sim.measure(args.seed, args.seconds, scale)
        for name, value in result["counts"].items():
            print(f"{name:<20} {value}")
        metrics = _print_end_to_end(result, scale)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
