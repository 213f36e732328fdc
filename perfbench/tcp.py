"""The two real-TCP workloads: one process, one event loop, one client node.

The deployment is the integration tests' localhost cluster (2 partitions
x 3 replicas, static Paxos leaders, default ``SdurConfig``) over
:class:`~repro.runtime.aio.AioWorld`, whose transports use the JSON codec.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import socket
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.checker.history import HistoryRecorder
from repro.consensus.abcast import AbcastFabric
from repro.consensus.messages import PAXOS_MESSAGE_TYPES
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.client import ClientConfig, ReadMany, SdurClient
from repro.core.config import SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.net.topology import Topology
from repro.runtime.aio import AioWorld
from repro.workload.base import TxnSpec
from repro.workload.distributions import ZipfSampler
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
    slope,
)

PARTITIONS = 2
REPLICAS = 3
KEYS_PER_PARTITION = 100_000
#: Transactions kept outstanding by the one client node.
DEPTH = 8
#: Length of one measurement slice; the speed probe runs between slices.
SLICE_S = 0.5
#: Cluster builds per run; ``setup_s`` is their median.
SETUPS = 3
#: Committed transactions per block of the 99th-percentile latencies.
TAIL_BLOCK = 200


def _free_ports(count: int) -> list[int]:
    sockets = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


def increment(keys: tuple[str, ...]):
    """A program adding one to each key (the readiness probe)."""

    def program(txn):
        values = yield ReadMany(keys)
        for key in keys:
            txn.write(key, values[key] + 1)

    return program


class TcpCluster:
    """A running localhost deployment plus its one client."""

    def __init__(self, world: AioWorld, client: SdurClient, servers: list[SdurServer]) -> None:
        self.world = world
        self.client = client
        self.servers = servers
        #: Committed updates issued outside the closed loop (probes).
        self.probe_commits = 0

    @classmethod
    async def start(
        cls,
        keyspace: dict[str, dict[str, int]],
        seed: int,
        recorder: HistoryRecorder | None = None,
    ) -> "TcpCluster":
        """Build, preload every replica, start, and wait until ready.

        With a ``recorder`` every server reports its commits to it and the
        readiness probes report their results, so the whole history can
        be checked.
        """
        server_names = [f"s{i + 1}" for i in range(PARTITIONS * REPLICAS)]
        names = server_names + ["client"]
        world = AioWorld(
            {n: ("127.0.0.1", port) for n, port in zip(names, _free_ports(len(names)))},
            seed=seed,
        )
        topology = Topology()
        for name in names:
            topology.add(name, "local")
        partitions = {
            f"p{p}": server_names[p * REPLICAS : (p + 1) * REPLICAS] for p in range(PARTITIONS)
        }
        preferred = {pid: members[0] for pid, members in partitions.items()}
        directory = ClusterDirectory(
            partitions=partitions, preferred=preferred, topology=topology
        )
        partition_map = PartitionMap.by_index(PARTITIONS)
        servers, replicas = [], []
        for pid, members in partitions.items():
            for name in members:
                runtime = world.runtime_for(name)
                fabric = AbcastFabric(runtime, partitions, preferred)
                server = SdurServer(
                    runtime=runtime,
                    partition=pid,
                    directory=directory,
                    partition_map=partition_map,
                    fabric=fabric,
                    config=SdurConfig(),
                    initial_data=keyspace[pid],
                )
                replica = PaxosReplica(
                    runtime,
                    pid,
                    members,
                    PaxosConfig(static_leader=members[0]),
                    on_deliver=server.on_adeliver,
                )
                fabric.attach_replica(pid, replica)
                server.is_partition_leader = replica.elector.is_leader

                def dispatch(src, msg, replica=replica, server=server):
                    if isinstance(msg, PAXOS_MESSAGE_TYPES):
                        replica.handle(src, msg)
                    else:
                        server.handle(src, msg)

                runtime.listen(dispatch)
                if recorder is not None:
                    server.on_commit_hook = recorder.server_hook(name)
                servers.append(server)
                replicas.append(replica)
        client_runtime = world.runtime_for("client")
        client = SdurClient(
            client_runtime,
            directory,
            partition_map,
            ClientConfig(session_server="s1", commit_timeout=2.0, read_timeout=1.0),
        )
        client_runtime.listen(client.handle)
        await world.start_all()
        for server, replica in zip(servers, replicas):
            replica.start()
            server.start()
        cluster = cls(world, client, servers)
        await cluster._ready(recorder)
        return cluster

    async def _ready(self, recorder: HistoryRecorder | None) -> None:
        """Return once a probe update has committed in every partition.

        A probe that aborts is retried; one whose reply is slow is simply
        awaited, the client re-sending it on its own commit timeout.
        """

        async def probe(partition: int) -> None:
            keys = (f"{partition}/obj0", f"{partition}/obj1")
            while True:
                done = asyncio.get_running_loop().create_future()
                self.client.execute(increment(keys), done.set_result)
                result = await done
                if recorder is not None:
                    recorder.record_result(result)
                if result.committed:
                    self.probe_commits += 1
                    return

        await asyncio.gather(*(probe(p) for p in range(PARTITIONS)))

    def stores(self):
        by_partition = {}
        for server in self.servers:
            by_partition.setdefault(server.partition, []).append(server.store)
        return by_partition

    async def converge(self, timeout: float = 30.0) -> None:
        """Wait until every replica of each partition applied the same prefix."""
        deadline = time.monotonic() + timeout
        while True:
            versions = {}
            for server in self.servers:
                versions.setdefault(server.partition, set()).add(server.sc)
            if all(len(v) == 1 for v in versions.values()):
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"replicas did not converge: {versions}")
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        await self.world.close_all()


def spec_source(workload: str, seed: int) -> Callable[[], TxnSpec]:
    """The transaction stream of one TCP workload; homes alternate p0/p1.

    Updates draw their keys without replacement, so none conflicts with
    another and each commits (see :class:`FreshKeySampler`).
    """
    rng = random.Random(seed)
    turn = itertools.count()
    fresh = FreshKeySampler(KEYS_PER_PARTITION, seed)
    updates = [MicroBenchmark(PARTITIONS, h, 0.0, sampler=fresh) for h in range(PARTITIONS)]
    if workload == "tcp-update":
        def next_spec() -> TxnSpec:
            return updates[next(turn) % PARTITIONS].next_txn(rng)

        return next_spec
    if workload == "tcp-read-mostly":
        zipf = ZipfSampler(KEYS_PER_PARTITION, theta=0.99)
        reads = [
            MicroBenchmark(PARTITIONS, h, 0.5, sampler=zipf, read_only_fraction=1.0)
            for h in range(PARTITIONS)
        ]

        def next_spec() -> TxnSpec:
            home = next(turn) % PARTITIONS
            source = reads if rng.random() < 0.9 else updates
            return source[home].next_txn(rng)

        return next_spec
    raise ValueError(f"unknown TCP workload {workload!r}")


@dataclass
class Window:
    """What one measured stretch of the closed loop produced, per slice."""

    samples: list[Sample] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    commits: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    rss_kb: list[float] = field(default_factory=list)
    #: RSS high-water mark once the measured cluster was set up.
    peak_rss_mb: float = 0.0

    def tps(self, scaled: bool = True) -> float:
        """Median over slices of committed transactions per second."""
        return statistics.median(
            c / (w * (f if scaled else 1.0))
            for c, w, f in zip(self.commits, self.wall_s, self.factors)
        )

    def cpu_us_per_commit(self, scaled: bool = True) -> float:
        """Median over slices of process CPU per committed transaction."""
        return statistics.median(
            cpu * 1e6 * (f if scaled else 1.0) / c
            for c, cpu, f in zip(self.commits, self.cpu_s, self.factors)
        )


async def _run_slices(loop: ClosedLoop, slices: int, scale: SpeedScale | None) -> Window:
    """Run ``slices`` slices; each starts full and ends drained.

    The speed probe runs between slices, with nothing in flight, and
    the mean factor of the probes before and after a slice scales its
    times.
    """
    window = Window()
    before = scale.probe() if scale is not None else 1.0
    for _ in range(slices):
        idle = asyncio.Event()
        loop.on_idle = idle.set
        first = len(loop.samples)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        loop.start()
        await asyncio.sleep(SLICE_S)
        loop.stop()
        await idle.wait()
        window.wall_s.append(time.perf_counter() - wall0)
        window.cpu_s.append(time.process_time() - cpu0)
        after = scale.probe() if scale is not None else 1.0
        factor = (before + after) / 2
        before = after
        done = loop.samples[first:]
        for sample in done:
            sample.scale = factor
        window.samples.extend(done)
        window.commits.append(sum(1 for s in done if s.committed))
        window.factors.append(factor)
        window.rss_kb.append(rss_kb())
    return window


def _quiet_cancelled(loop: asyncio.AbstractEventLoop, context: dict) -> None:
    """Drop the log line asyncio 3.11 writes for each reader task that
    ``AioTransport.close`` cancels; report everything else as usual."""
    if not isinstance(context.get("exception"), asyncio.CancelledError):
        loop.default_exception_handler(context)


async def _timed_start(
    keyspace: dict, seed: int, recorder: HistoryRecorder | None = None
) -> tuple[TcpCluster, float]:
    asyncio.get_running_loop().set_exception_handler(_quiet_cancelled)
    start = time.perf_counter()
    cluster = await TcpCluster.start(keyspace, seed, recorder)
    return cluster, time.perf_counter() - start


async def _setup_only(keyspace: dict, seed: int) -> float:
    cluster, elapsed = await _timed_start(keyspace, seed)
    await cluster.close()
    return elapsed


def setup_times(keyspace: dict, seed: int, count: int, scale: SpeedScale) -> list[tuple[float, float]]:
    """Time ``count`` throwaway set-ups, each on a fresh event loop.

    Returns (raw seconds, speed factor) pairs; the factor is the mean of
    the probes right before and right after the set-up.  ``AioWorld.close_all``
    leaves the nodes' periodic timers armed, so a closed cluster lives
    (and ticks) as long as its loop does; a loop of its own per set-up
    frees it completely before the next one.
    """
    times = []
    for _ in range(count):
        gc.collect()
        before = scale.probe()
        elapsed = asyncio.run(_setup_only(keyspace, seed))
        times.append((elapsed, (before + scale.probe()) / 2))
    return times


def session(
    keyspace: dict,
    seed: int,
    next_spec: Callable[[], TxnSpec],
    slices: int,
    scale: SpeedScale,
    recorder: HistoryRecorder | None = None,
    tracer=None,
) -> tuple[tuple[float, float], Window, list[str], dict | None]:
    """Set up, warm up, measure ``slices`` slices, drain and check.

    Returns the (raw, factor) set-up time, the window, the failed checks
    and — given a ``tracer`` — its totals over exactly the measured slices.
    """
    gc.collect()
    before = scale.probe()

    async def body():
        cluster, setup_s = await _timed_start(keyspace, seed, recorder)
        factor = (before + scale.probe()) / 2
        samples: list[Sample] = []
        loop = ClosedLoop(
            cluster.client,
            next_spec,
            DEPTH,
            time.perf_counter,
            samples,
            on_result=recorder.record_result if recorder is not None else None,
        )
        peak_mb = peak_rss_mb()
        await _run_slices(loop, 1, None)  # warm-up: connections, caches
        # Every run starts its window with the same collector state, so
        # when full collections fall depends on the work done, not on
        # what set-up left behind.
        gc.collect()
        if tracer is not None:
            tracer.reset()
        window = await _run_slices(loop, slices, scale)
        totals = tracer.snapshot() if tracer is not None else None
        await cluster.converge()
        updates = sum(1 for s in samples if s.committed and not s.read_only)
        problems = check_stores(cluster.stores(), updates + cluster.probe_commits)
        await cluster.close()
        window.peak_rss_mb = peak_mb
        return (setup_s, factor), window, problems, totals

    return asyncio.run(body())


def slice_count(seconds: float) -> int:
    return max(3, round(seconds / SLICE_S))


def measure(workload: str, seed: int, seconds: float, scale: SpeedScale) -> dict:
    """The end-to-end run: ``SETUPS`` timed set-ups, then sliced measurement."""
    keyspace = seeded_keyspace(PARTITIONS, KEYS_PER_PARTITION)
    setups = setup_times(keyspace, seed, SETUPS - 1, scale)
    last_setup, window, problems, _ = session(
        keyspace, seed, spec_source(workload, seed), slice_count(seconds), scale
    )
    setups.append(last_setup)
    lat = latencies(window.samples, tail_block=TAIL_BLOCK)
    raw_lat = latencies(window.samples, scaled=False, tail_block=TAIL_BLOCK)
    cumulative = list(itertools.accumulate(window.commits))
    return {
        "problems": problems,
        "attempted": len(window.samples),
        "failed": sum(1 for s in window.samples if not s.committed),
        "metrics": {
            "setup_s": statistics.median(t * f for t, f in setups),
            "committed_tps": window.tps(),
            "cpu_us_per_commit": window.cpu_us_per_commit(),
            "update_p50_ms": lat.update_p50_ms,
            "update_p99_ms": lat.update_p99_ms,
            "read_p50_ms": lat.read_p50_ms,
            "read_p99_ms": lat.read_p99_ms,
            "peak_rss_mb": window.peak_rss_mb,
        },
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "committed_tps": window.tps(scaled=False),
            "cpu_us_per_commit": window.cpu_us_per_commit(scaled=False),
            "update_p50_ms": raw_lat.update_p50_ms,
            "update_p99_ms": raw_lat.update_p99_ms,
            "read_p50_ms": raw_lat.read_p50_ms,
            "read_p99_ms": raw_lat.read_p99_ms,
        },
        "counts": {
            "commits": sum(window.commits),
            "update_commits": lat.updates,
            "mem_kb_per_commit": slope(cumulative, window.rss_kb),
        },
    }
