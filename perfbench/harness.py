"""Pieces shared by every workload: speed probe, closed loop, statistics, checks."""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.client import SdurClient, TxnResult
from repro.storage.mvstore import MultiVersionStore
from repro.workload.base import TxnSpec
from repro.workload.distributions import KeySampler

#: Rounds of the speed probe; one round is 65,536 loop iterations.
PROBE_ROUNDS = 6


def speed_probe() -> float:
    """Seconds a fixed allocation-free integer loop takes on this host now.

    Every value the loop touches is a small int in [0, 256], which the
    interpreter caches, and ``while`` loops create no iterators: the loop
    allocates nothing, so neither the collector nor the size of the heap
    can change how long it takes.  Only the speed the host gives this
    process does.
    """
    acc = 0
    rounds = PROBE_ROUNDS
    start = time.perf_counter()
    while rounds:
        a = 0
        while a < 256:
            b = 0
            while b < 256:
                acc ^= a ^ b
                b += 1
            a += 1
        rounds -= 1
    return time.perf_counter() - start


class SpeedScale:
    """Scales wall and CPU times to the host speed of a fixed reference.

    Call :meth:`probe` right before and right after each stretch of
    measurement (the probe after one stretch serves as the probe before
    the next); the mean of the two factors it returns (reference probe
    time over this probe's time) is what that stretch's times are
    multiplied by — about 0.83 on a host running 20 % slow, so a time
    measured there shrinks by that much.  One probe taken before a
    stretch tracks the host speed during it only loosely; the pair
    brackets it.
    """

    def __init__(self, reference_ms: float) -> None:
        self.reference_s = reference_ms / 1000.0
        self.probes: list[float] = []

    def probe(self) -> float:
        elapsed = speed_probe()
        self.probes.append(elapsed)
        return self.reference_s / elapsed

    @property
    def median_probe_ms(self) -> float:
        return statistics.median(self.probes) * 1000.0


class FreshKeySampler(KeySampler):
    """Uniform key draws without replacement.

    Hands out the indices of a seeded shuffle of ``[0, n)`` one after
    another, starting over only once all ``n`` are used.  Shared by every
    update generator of a run, it gives each update transaction keys that
    no other update of the run touches, so no certification can fail on
    a conflict and every update commits: the workloads measure the cost
    of committing, and a transaction that still aborts is a defect the
    run reports in its ``failed`` count.
    """

    def __init__(self, num_items: int, seed: int) -> None:
        self._order = list(range(num_items))
        random.Random(seed).shuffle(self._order)
        self._next = 0

    @property
    def population(self) -> int:
        return len(self._order)

    def sample(self, rng: random.Random) -> int:
        index = self._order[self._next % len(self._order)]
        self._next += 1
        return index


@dataclass(slots=True)
class Sample:
    """One finished transaction, times on the workload's clock (seconds)."""

    started: float
    read_done: float
    finished: float
    committed: bool
    read_only: bool
    is_global: bool
    #: Speed factor of the slice it ran in (1.0 on the simulated clock).
    scale: float = 1.0


class ClosedLoop:
    """Keeps ``depth`` transactions outstanding on one client.

    A transaction is issued only when an earlier one finishes, so a slow
    system receives less load.  Each program is wrapped to stamp the
    moment its last read returned (the end of its read phase; for a
    read-only transaction that is also its commit).
    """

    def __init__(
        self,
        client: SdurClient,
        next_spec: Callable[[], TxnSpec],
        depth: int,
        clock: Callable[[], float],
        samples: list[Sample],
        on_result: Callable[[TxnResult], None] | None = None,
    ) -> None:
        self.client = client
        self.next_spec = next_spec
        self.depth = depth
        self.clock = clock
        self.samples = samples
        self.on_result = on_result
        self.issuing = False
        self.in_flight = 0
        #: Called once the loop is stopped and its last transaction ended.
        self.on_idle: Callable[[], None] | None = None

    def start(self) -> None:
        self.issuing = True
        while self.in_flight < self.depth:
            self.issue()

    def stop(self) -> None:
        self.issuing = False
        if self.in_flight == 0 and self.on_idle is not None:
            self.on_idle()

    def issue(self) -> None:
        spec = self.next_spec()
        stamp = [self.clock(), 0.0]
        clock = self.clock

        def program(txn, inner=spec.program):
            yield from inner(txn)
            stamp[1] = clock()

        self.in_flight += 1
        self.client.execute(
            program,
            lambda result: self._done(result, stamp),
            read_only=spec.read_only,
            label=spec.label,
        )

    def _done(self, result: TxnResult, stamp: list[float]) -> None:
        self.in_flight -= 1
        if self.on_result is not None:
            self.on_result(result)
        self.samples.append(
            Sample(
                started=stamp[0],
                read_done=stamp[1],
                finished=self.clock(),
                committed=result.committed,
                read_only=result.read_only,
                is_global=result.is_global,
            )
        )
        if self.issuing:
            self.issue()
        elif self.in_flight == 0 and self.on_idle is not None:
            self.on_idle()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Latencies:
    """Commit latency of updates and read-phase latency of all commits (ms)."""

    update_p50_ms: float
    update_p99_ms: float
    read_p50_ms: float
    read_p99_ms: float
    updates: int


def tail(values: list[float], block: int | None) -> float:
    """The 99th percentile of ``values``, or — given ``block`` and at least
    two blocks' worth — the median over consecutive blocks of ``block``
    values of each block's 99th percentile.

    On a shared host a stall of a second or two puts dozens of samples
    into the pooled top 1 %, so the pooled percentile measures the host;
    a stall spoils only the blocks it overlaps, and the median skips them.
    """
    if block is None or len(values) < 2 * block:
        return percentile(values, 0.99)
    starts = range(0, len(values) - block + 1, block)
    return statistics.median(percentile(values[i : i + block], 0.99) for i in starts)


def latencies(
    samples: list[Sample], scaled: bool = True, tail_block: int | None = None
) -> Latencies:
    """Percentiles of the samples' latencies, each scaled by its slice's
    speed factor unless ``scaled`` is false; the 99th percentiles are
    taken over blocks of ``tail_block`` samples in completion order (see
    :func:`tail`)."""
    committed = [s for s in samples if s.committed]
    factor = (lambda s: s.scale * 1000.0) if scaled else (lambda s: 1000.0)
    updates = [(s.finished - s.started) * factor(s) for s in committed if not s.read_only]
    reads = [(s.read_done - s.started) * factor(s) for s in committed]
    if not updates or not reads:
        raise RuntimeError("run committed no update or no transaction at all")
    return Latencies(
        update_p50_ms=percentile(updates, 0.50),
        update_p99_ms=tail(updates, tail_block),
        read_p50_ms=percentile(reads, 0.50),
        read_p99_ms=tail(reads, tail_block),
        updates=len(updates),
    )


def rss_kb() -> float:
    """Resident set size of this process now, in kB."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs``."""
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def check_stores(
    replicas: dict[str, list[MultiVersionStore]], committed_updates: int
) -> list[str]:
    """The two correctness gates every run applies after draining.

    * Every replica of a partition holds exactly the same version chains.
    * Every update increments two seeded-to-zero keys by one, so the sum
      of all latest values is twice the number of committed updates.
    """
    problems = []
    total = 0
    for partition, stores in sorted(replicas.items()):
        reference = stores[0].dump()
        for index, other in enumerate(stores[1:], start=1):
            if other.current_version != stores[0].current_version or other.dump() != reference:
                problems.append(f"{partition}: replica {index} diverges from replica 0")
        total += sum(chain[-1][1] for chain in reference.values())
    if total != 2 * committed_updates:
        problems.append(
            f"sum of values {total} != 2 x {committed_updates} committed updates"
        )
    return problems


def seeded_keyspace(num_partitions: int, keys_per_partition: int) -> dict[str, dict[str, int]]:
    """partition -> {key: 0}, in the microbenchmark's key scheme."""
    return {
        f"p{p}": {f"{p}/obj{i}": 0 for i in range(keys_per_partition)}
        for p in range(num_partitions)
    }
