"""The repository benchmark: closed-loop SDUR workloads with correctness gates.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and speed scaling.
"""
