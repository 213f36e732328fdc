"""``sim-wan-global``: the deterministic simulator on the paper's WAN 1.

Two partitions, each with two replicas in its home region and one in the
other; 10 % latency jitter; eight closed-loop clients per partition next
to its preferred server, running the paper's microbenchmark (uniform keys,
each drawn once, so no update conflicts) with 50 % global updates for a
fixed simulated duration.  Counts and simulated latencies depend only on
the seed; wall-clock and CPU cost is the speed of the simulator itself.

Keys are uniform, not zipf(0.99): with zipf keys and 50 % globals the
program deadlocks on some seeds (see README.md, "Known defect").
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import SdurCluster, build_cluster
from repro.checker.history import HistoryRecorder
from repro.workload.distributions import KeySampler
from repro.workload.microbench import MicroBenchmark

from perfbench.harness import (
    ClosedLoop,
    FreshKeySampler,
    Sample,
    SpeedScale,
    check_stores,
    latencies,
    peak_rss_mb,
    rss_kb,
    seeded_keyspace,
)
from perfbench.tcp import increment

PARTITIONS = 2
#: Replicas per partition in WAN 1.
REPLICAS = 3
CLIENTS_PER_PARTITION = 8
KEYS_PER_PARTITION = 100_000
GLOBAL_FRACTION = 0.5
JITTER = 0.1
#: Simulated seconds of closed-loop load per repetition.
SIM_SECONDS = 12.0
#: A run makes one repetition per ``REP_S`` seconds of ``--seconds``;
#: a repetition (set-up, load, checks) takes about that long.
REP_S = 6.0
#: Simulated seconds run between two speed probes.
CHUNK_S = 1.0
#: Simulated-time step while polling for readiness, drain and convergence.
POLL_S = 0.01


class SimRun:
    """One set-up cluster with its clients, ready for load."""

    def __init__(
        self, keys: dict[str, int], seed: int, recorder: HistoryRecorder | None = None
    ) -> None:
        deployment = wan1_deployment(PARTITIONS)
        self.cluster: SdurCluster = build_cluster(
            deployment,
            PartitionMap.by_index(PARTITIONS),
            SdurConfig(),
            seed=seed,
            jitter_fraction=JITTER,
        )
        self.cluster.seed(keys)
        self.homes = []
        for partition in deployment.partition_ids:
            for _ in range(CLIENTS_PER_PARTITION):
                self.cluster.add_client(region=deployment.preferred_region[partition])
                self.homes.append(int(partition[1:]))
        self.recorder = recorder
        if recorder is not None:
            self.cluster.attach_recorder(recorder)
        self.cluster.start()
        self.probe_commits = 0
        self._ready()

    @property
    def world(self):
        return self.cluster.world

    def _run_until(self, done, limit_s: float = 60.0) -> None:
        deadline = self.world.now + limit_s
        while not done():
            if self.world.now > deadline:
                raise RuntimeError("simulation did not reach the awaited state")
            self.world.run_for(POLL_S)

    def _ready(self) -> None:
        """Run until a probe update committed in every partition."""
        clients = list(self.cluster.clients.values())
        pending = set(range(PARTITIONS))

        def launch(partition: int) -> None:
            client = clients[partition * CLIENTS_PER_PARTITION]
            keys = (f"{partition}/obj0", f"{partition}/obj1")
            client.execute(increment(keys), lambda r: finished(partition, r))

        def finished(partition: int, result) -> None:
            if self.recorder is not None:
                self.recorder.record_result(result)
            if result.committed:
                self.probe_commits += 1
                pending.discard(partition)
            else:
                launch(partition)

        for partition in range(PARTITIONS):
            launch(partition)
        self._run_until(lambda: not pending)

    def load(self, seed: int, scale: SpeedScale) -> tuple[list[Sample], dict]:
        """Closed-loop load for ``SIM_SECONDS``, then drain every client.

        The simulated time is run in chunks of ``CHUNK_S`` with the speed
        probe between them, each chunk scaled by the mean factor of the
        probes around it; returns the samples and the wall and CPU time
        spent, raw and scaled chunk by chunk.  The cost also lists, for
        each loaded chunk (not the drain), its (wall, CPU, factor,
        commits).
        """
        samples: list[Sample] = []
        loops = []
        sampler = key_sampler(seed)
        for index, (client, home) in enumerate(zip(self.cluster.clients.values(), self.homes)):
            bench = MicroBenchmark(PARTITIONS, home, GLOBAL_FRACTION, sampler=sampler)
            rng = random.Random(f"{seed}/{index}")
            loops.append(
                ClosedLoop(
                    client,
                    lambda bench=bench, rng=rng: bench.next_txn(rng),
                    1,
                    lambda: self.world.now,
                    samples,
                    on_result=self.recorder.record_result if self.recorder else None,
                )
            )
        cost = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref_s": 0.0, "cpu_ref_s": 0.0, "chunks": []}

        before = scale.probe()

        def timed(step, chunk: bool = True) -> None:
            nonlocal before
            first = len(samples)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            step()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            after = scale.probe()
            factor = (before + after) / 2
            before = after
            if chunk:
                commits = sum(1 for sample in samples[first:] if sample.committed)
                cost["chunks"].append((wall, cpu, factor, commits))
            cost["wall_s"] += wall
            cost["cpu_s"] += cpu
            cost["wall_ref_s"] += wall * factor
            cost["cpu_ref_s"] += cpu * factor

        for loop in loops:
            loop.start()
        end = self.world.now + SIM_SECONDS
        while self.world.now < end:
            timed(lambda: self.world.run(until=min(end, self.world.now + CHUNK_S)))
        for loop in loops:
            loop.stop()
        timed(lambda: self._run_until(lambda: all(loop.in_flight == 0 for loop in loops)), False)
        return samples, cost

    def check(self, samples: list[Sample]) -> list[str]:
        servers = [handle.server for handle in self.cluster.servers.values()]

        def converged() -> bool:
            versions: dict[str, set[int]] = {}
            for server in servers:
                versions.setdefault(server.partition, set()).add(server.sc)
            return all(len(v) == 1 for v in versions.values())

        self._run_until(converged)
        stores: dict[str, list] = {}
        for server in servers:
            stores.setdefault(server.partition, []).append(server.store)
        updates = sum(1 for s in samples if s.committed and not s.read_only)
        return check_stores(stores, updates + self.probe_commits)


def key_sampler(seed: int) -> KeySampler:
    """The keys of one repetition: uniform, each drawn once, so no update
    conflicts with another and every one commits."""
    return FreshKeySampler(KEYS_PER_PARTITION, seed)


def outcome(samples: list[Sample]) -> tuple:
    """What must repeat exactly for one seed."""
    lat = latencies(samples)
    commits = sum(1 for s in samples if s.committed)
    return (
        commits,
        len(samples) - commits,
        lat.update_p50_ms,
        lat.update_p99_ms,
        lat.read_p50_ms,
        lat.read_p99_ms,
    )


def repetitions(seconds: float) -> int:
    """Repetitions in a run of ``seconds``: one per ``REP_S``, at least 3."""
    return max(3, round(seconds / REP_S))


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def measure(seed: int, seconds: float, scale: SpeedScale) -> dict:
    """Set up and load ``repetitions(seconds)`` clusters, one seed each.

    The repetitions' seeds derive from ``seed``, so the pooled counts and
    simulated latencies repeat exactly for a seed; pooling several
    seeds' samples keeps the 99th percentiles off the edge of the rare
    slow modes (a torn parallel read costs a second round trip).
    """
    keyspace = seeded_keyspace(PARTITIONS, KEYS_PER_PARTITION)
    keys = {key: value for part in keyspace.values() for key, value in part.items()}
    setups, costs, mem_kb, peak_mb, problems = [], [], [], [], []
    samples: list[Sample] = []
    for rep in range(repetitions(seconds)):
        gc.collect()
        before = scale.probe()
        start = time.perf_counter()
        run = SimRun(keys, rep_seed(seed, rep))
        setups.append((time.perf_counter() - start, (before + scale.probe()) / 2))
        peak_mb.append(peak_rss_mb())
        gc.collect()
        rss0 = rss_kb()
        done, cost = run.load(rep_seed(seed, rep), scale)
        cost["commits"] = sum(1 for s in done if s.committed)
        costs.append(cost)
        mem_kb.append((rss_kb() - rss0) / cost["commits"])
        problems.extend(run.check(done))
        samples.extend(done)
        del run
    commits, aborts, up50, up99, rp50, rp99 = outcome(samples)

    # Medians over every loaded chunk of every repetition: a burst of
    # host noise then moves one chunk's figure, not a whole repetition's.
    chunks = [chunk for cost in costs for chunk in cost["chunks"] if chunk[3]]

    def tps(scaled: bool) -> float:
        return statistics.median(n / (w * (f if scaled else 1.0)) for w, _, f, n in chunks)

    def cpu_us_per_commit(scaled: bool) -> float:
        return statistics.median(c * 1e6 * (f if scaled else 1.0) / n for _, c, f, n in chunks)

    return {
        "problems": problems,
        "attempted": commits + aborts,
        "failed": aborts,
        "metrics": {
            "setup_s": statistics.median(t * f for t, f in setups),
            "committed_tps": tps(scaled=True),
            "cpu_us_per_commit": cpu_us_per_commit(scaled=True),
            "update_p50_ms": up50,
            "update_p99_ms": up99,
            "read_p50_ms": rp50,
            "read_p99_ms": rp99,
            "peak_rss_mb": peak_mb[0],
        },
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "committed_tps": tps(scaled=False),
            "cpu_us_per_commit": cpu_us_per_commit(scaled=False),
        },
        "counts": {
            "repetitions": len(costs),
            "commits": commits,
            "aborts": aborts,
            "abort_ratio": aborts / (commits + aborts),
            "sim_update_p50_ms": up50,
            "sim_update_p99_ms": up99,
            "mem_kb_per_commit": statistics.median(mem_kb),
        },
    }
