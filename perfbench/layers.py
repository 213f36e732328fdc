"""The traced run: per-layer self time and counts.

Spans come only from wrappers installed here, around the public entry
points of each layer (``SdurServer.handle``, ``PaxosReplica.handle``,
``MultiVersionStore.apply``, ...); nothing under ``src/`` is edited.
Each span keeps name, start, end and parent; spans entered with a
message that names a transaction carry its id.  A span's self time is
its duration minus that of the spans it directly contains, so the self
times of all spans plus the time outside every span add up to the
traced total.  Time outside every span — asyncio, streams, sockets,
locks, timer callbacks — is reported as ``loop.residual_us_per_commit``.

A traced run first measures the workload untraced, then installs the
wrappers, measures it again with a :class:`HistoryRecorder` attached,
runs the serializability and replica-agreement checkers on the recorded
history, and writes the spans and the layer table under
``perfbench-out/``.
"""

from __future__ import annotations

import json
import os
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import repro.net.asyncio_transport as asyncio_transport
from repro.checker.agreement import replica_agreement
from repro.checker.history import HistoryRecorder
from repro.checker.serializability import check_serializability
from repro.consensus.abcast import AbcastFabric
from repro.consensus.replica import PaxosReplica
from repro.core.certifier import CertificationWindow
from repro.core.certindex import IndexedCertifier, KeyConflictIndex, PendingQueryMixin
from repro.core.client import SdurClient
from repro.core.server import SdurServer
from repro.core.snapshots import GlobalSnapshotBuilder
from repro.net.asyncio_transport import AioTransport
from repro.net.sim_transport import SimNetwork
from repro.obs.recorder import traced_tid
from repro.runtime.aio import AioNodeRuntime
from repro.runtime.sim import SimNodeRuntime
from repro.sim.kernel import Kernel
from repro.storage.mvstore import MultiVersionStore
from repro.termination.ledger import VoteLedger

from perfbench import sim, tcp
from perfbench.harness import ClosedLoop, SpeedScale, seeded_keyspace

#: Spans kept in memory for the span file; self times count every span.
KEEP_SPANS = 200_000
OUT_DIR = "perfbench-out"

#: name -> unit of every per-layer metric, in print order.
PER_LAYER = {
    "net.frames_per_commit": "count",
    "net.bytes_per_commit": "B",
    "net.encode_us_per_commit": "us",
    "net.decode_us_per_commit": "us",
    "runtime.send_us_per_commit": "us",
    "runtime.recv_us_per_commit": "us",
    "loop.residual_us_per_commit": "us",
    "paxos.handle_us_per_commit": "us",
    "paxos.propose_us_per_commit": "us",
    "paxos.msgs_per_commit": "count",
    "paxos.instances_per_commit": "count",
    "server.handle_us_per_commit": "us",
    "server.deliver_us_per_commit": "us",
    "cert.certify_us_per_update": "us",
    "abort_ratio": "ratio",
    "snapshots.gossip_us_per_commit": "us",
    "snapshots.gossip_entries_per_commit": "count",
    "snapshots.vector_us_per_read": "us",
    "ledger.us_per_global": "us",
    "store.apply_us_per_update": "us",
    "store.read_us_per_read": "us",
    "client.us_per_txn": "us",
    "workload.us_per_txn": "us",
    "sim.events_per_commit": "count",
    "sim.kernel_us_per_event": "us",
    "sim.callback_us_per_commit": "us",
    "sim.transport_us_per_commit": "us",
    "check.recorder_us_per_commit": "us",
    "trace.cpu_us_per_commit": "us",
    "trace.overhead_pct": "%",
}

#: Span name -> the wrapped entry points (class, attribute) it covers.
SPANS = {
    "runtime.send": [(AioNodeRuntime, "send")],
    "paxos.handle": [(PaxosReplica, "handle")],
    "paxos.propose": [(PaxosReplica, "propose"), (AbcastFabric, "abcast")],
    "server.handle": [(SdurServer, "handle")],
    "server.deliver": [(SdurServer, "on_adeliver")],
    "cert": [
        (IndexedCertifier, "certify"),
        (PendingQueryMixin, "outcome_conflicts"),
        (PendingQueryMixin, "certify_against_pending"),
        (PendingQueryMixin, "find_reorder_position"),
        (CertificationWindow, "add"),
        (KeyConflictIndex, "record_added"),
        (KeyConflictIndex, "record_evicted"),
        (KeyConflictIndex, "entry_added"),
        (KeyConflictIndex, "entry_removed"),
    ],
    "snapshots.gossip": [
        (GlobalSnapshotBuilder, "on_gossip"),
        (GlobalSnapshotBuilder, "gossip_payload"),
        (GlobalSnapshotBuilder, "on_local_commit"),
    ],
    "snapshots.vector": [(GlobalSnapshotBuilder, "vector")],
    "ledger": [
        (VoteLedger, "ledger"),
        (VoteLedger, "flush_group"),
        (VoteLedger, "on_delivered"),
        (VoteLedger, "buffer_early"),
        (VoteLedger, "take_early"),
    ],
    "store.apply": [(MultiVersionStore, "apply")],
    "store.read": [(MultiVersionStore, "read")],
    "client": [(SdurClient, "execute"), (SdurClient, "handle")],
    "workload": [(ClosedLoop, "issue"), (ClosedLoop, "_done")],
    "sim.kernel": [(Kernel, "run")],
    "sim.transport": [
        (SimNetwork, "send"),
        (SimNetwork, "_deliver"),
        (SimNodeRuntime, "send"),
    ],
    "check.recorder": [(HistoryRecorder, "on_commit"), (HistoryRecorder, "record_result")],
}
#: Coroutine functions whose every step (between awaits) is one span.
COROUTINE_SPANS = {
    "runtime.send": [(AioTransport, "send")],
    "runtime.recv": [(AioTransport, "_on_connection")],
}


class Tracer:
    """In-memory spans with running self-time and call totals."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: Open spans: [name, start_ns, child_ns, span_seq, parent_seq, txn].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self._seq = 0
        self.reset()

    def reset(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans.clear()
        self.keep = True

    def enter(self, name: str, txn=None) -> None:
        self._seq += 1
        parent = self.stack[-1][3] if self.stack else 0
        self.stack.append([name, self.clock(), 0, self._seq, parent, txn])

    def exit(self) -> None:
        name, start, child_ns, seq, parent, txn = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if self.keep and len(self.spans) < KEEP_SPANS:
            self.spans.append((seq, parent, name, start, end, txn))

    def snapshot(self) -> dict:
        """Totals so far; spans recorded after this are not kept."""
        self.keep = False
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, name: str):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def wrap_handler(self, fn, name: str):
        """Like :meth:`wrap` for ``handle(src, msg)``: the span carries the
        transaction id of the message, when it names one."""
        tracer = self

        @wraps(fn)
        def traced(owner, src, msg):
            tracer.enter(name, traced_tid(msg))
            try:
                return fn(owner, src, msg)
            finally:
                tracer.exit()

        return traced

    def wrap_coroutine(self, fn, name: str):
        tracer = self

        @types.coroutine
        def steps(coro):
            value, error = None, None
            while True:
                tracer.enter(name)
                try:
                    signal = coro.throw(error) if error is not None else coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit()
                try:
                    value, error = (yield signal), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped coroutine
                    value, error = None, exc

        @wraps(fn)
        async def traced(*args, **kwargs):
            return await steps(fn(*args, **kwargs))

        return traced

    def wrap_codec(self, get_codec):
        tracer = self

        @wraps(get_codec)
        def traced_get_codec(name: str):
            encode, decode = get_codec(name)

            def traced_encode(msg):
                tracer.enter("net.encode")
                try:
                    data = encode(msg)
                finally:
                    tracer.exit()
                tracer.counts["net.frames"] += 1
                tracer.counts["net.bytes"] += len(data)
                return data

            def traced_decode(data):
                tracer.enter("net.decode")
                try:
                    return decode(data)
                finally:
                    tracer.exit()

            return traced_encode, traced_decode

        return traced_get_codec

    def wrap_schedule(self, schedule):
        """Run every simulator event inside a ``sim.event`` span, so the
        kernel's own self time is only its loop and heap."""
        tracer = self

        @wraps(schedule)
        def traced_schedule(kernel, delay, callback, *args):
            def event(*event_args):
                tracer.enter("sim.event")
                try:
                    callback(*event_args)
                finally:
                    tracer.exit()

            return schedule(kernel, delay, event, *args)

        return traced_schedule

    def wrap_on_gossip(self, fn):
        tracer = self

        @wraps(fn)
        def counted(builder, msg):
            tracer.counts["snapshots.gossip_entries"] += len(msg.globals_committed)
            return fn(builder, msg)

        return counted

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        patches = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        try:
            patch(GlobalSnapshotBuilder, "on_gossip",
                  self.wrap_on_gossip(GlobalSnapshotBuilder.on_gossip))
            for name, targets in SPANS.items():
                for owner, attr in targets:
                    wrapper = self.wrap_handler if attr == "handle" else self.wrap
                    patch(owner, attr, wrapper(owner.__dict__[attr], name))
            for name, targets in COROUTINE_SPANS.items():
                for owner, attr in targets:
                    patch(owner, attr, self.wrap_coroutine(owner.__dict__[attr], name))
            patch(Kernel, "schedule", self.wrap_schedule(Kernel.schedule))
            patch(asyncio_transport, "get_codec", self.wrap_codec(asyncio_transport.get_codec))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _layer_metrics(totals: dict, cpu_s: float, d: dict) -> dict:
    """Turn tracer totals into the per-layer table.

    ``d`` holds the denominators counted over the traced window:
    commits, txns, updates, update_commits, globals, read_only, events,
    replicas (per partition) and aborted updates.
    """
    self_us = {name: ns / 1000.0 for name, ns in totals["self_ns"].items()}
    calls, counts = totals["calls"], totals["counts"]
    commits = d["commits"]

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    def us(name: str, base: int) -> float:
        return per(self_us.get(name, 0.0), base)

    cpu_us = cpu_s * 1e6
    return {
        "net.frames_per_commit": per(counts.get("net.frames", 0), commits),
        "net.bytes_per_commit": per(counts.get("net.bytes", 0), commits),
        "net.encode_us_per_commit": us("net.encode", commits),
        "net.decode_us_per_commit": us("net.decode", commits),
        "runtime.send_us_per_commit": us("runtime.send", commits),
        "runtime.recv_us_per_commit": us("runtime.recv", commits),
        "loop.residual_us_per_commit": per(cpu_us - sum(self_us.values()), commits),
        "paxos.handle_us_per_commit": us("paxos.handle", commits),
        "paxos.propose_us_per_commit": us("paxos.propose", commits),
        "paxos.msgs_per_commit": per(calls.get("paxos.handle", 0), commits),
        "paxos.instances_per_commit": per(
            calls.get("server.deliver", 0) / d["replicas"], commits
        ),
        "server.handle_us_per_commit": us("server.handle", commits),
        "server.deliver_us_per_commit": us("server.deliver", commits),
        "cert.certify_us_per_update": us("cert", d["updates"]),
        "abort_ratio": per(d["aborted_updates"], d["updates"]),
        "snapshots.gossip_us_per_commit": us("snapshots.gossip", commits),
        "snapshots.gossip_entries_per_commit": per(
            counts.get("snapshots.gossip_entries", 0), commits
        ),
        "snapshots.vector_us_per_read": us("snapshots.vector", d["read_only"]),
        "ledger.us_per_global": us("ledger", d["globals"]),
        "store.apply_us_per_update": us("store.apply", d["update_commits"]),
        "store.read_us_per_read": us("store.read", calls.get("store.read", 0)),
        "client.us_per_txn": us("client", d["txns"]),
        "workload.us_per_txn": us("workload", d["txns"]),
        "sim.events_per_commit": per(d["events"], commits),
        "sim.kernel_us_per_event": us("sim.kernel", d["events"]),
        "sim.callback_us_per_commit": us("sim.event", commits),
        "sim.transport_us_per_commit": us("sim.transport", commits),
        "check.recorder_us_per_commit": us("check.recorder", commits),
        "trace.cpu_us_per_commit": per(cpu_us, commits),
    }


def _denominators(samples, replicas: int, events: int = 0) -> dict:
    updates = [s for s in samples if not s.read_only]
    return {
        "commits": sum(1 for s in samples if s.committed),
        "txns": len(samples),
        "updates": len(updates),
        "update_commits": sum(1 for s in updates if s.committed),
        "aborted_updates": sum(1 for s in updates if not s.committed),
        "globals": sum(1 for s in updates if s.is_global),
        "read_only": sum(1 for s in samples if s.read_only),
        "replicas": replicas,
        "events": events,
    }


def _check_history(recorder: HistoryRecorder, partitions: int, replicas: int) -> list[str]:
    problems = []
    serial = check_serializability(recorder)
    if not serial.ok:
        problems.append("serializability: " + "; ".join(serial.issues[:3]))
    agreement = replica_agreement(
        recorder, expected_reporters={f"p{p}": replicas for p in range(partitions)}
    )
    if not agreement.ok:
        problems.append("replica agreement: " + "; ".join(agreement.issues[:3]))
    return problems


def _traced_tcp(workload: str, seed: int, seconds: float, tracer: Tracer) -> dict:
    """Half the time untraced, half traced; both halves at reference speed."""
    keyspace = seeded_keyspace(tcp.PARTITIONS, tcp.KEYS_PER_PARTITION)
    slices = tcp.slice_count(seconds / 2)
    scale = SpeedScale(1.0)
    _, plain, problems, _ = tcp.session(
        keyspace, seed, tcp.spec_source(workload, seed), slices, scale
    )
    recorder = HistoryRecorder()
    with tracer.installed():
        _, window, traced_problems, totals = tcp.session(
            keyspace, seed, tcp.spec_source(workload, seed), slices, scale,
            recorder=recorder, tracer=tracer,
        )
    problems += traced_problems + _check_history(recorder, tcp.PARTITIONS, tcp.REPLICAS)
    return {
        "totals": totals,
        "cpu_s": sum(window.cpu_s),
        "overhead": window.cpu_us_per_commit() / plain.cpu_us_per_commit(),
        "denominators": _denominators(window.samples, tcp.REPLICAS),
        "problems": problems,
    }


def _traced_sim(seed: int, tracer: Tracer) -> dict:
    """One untraced and one traced repetition of the same seeded run."""
    keyspace = seeded_keyspace(sim.PARTITIONS, sim.KEYS_PER_PARTITION)
    keys = {key: value for part in keyspace.values() for key, value in part.items()}
    scale = SpeedScale(1.0)
    seed = sim.rep_seed(seed, 0)
    plain_run = sim.SimRun(keys, seed)
    plain_samples, plain_cost = plain_run.load(seed, scale)
    problems = plain_run.check(plain_samples)
    del plain_run
    with tracer.installed():
        recorder = HistoryRecorder()
        run = sim.SimRun(keys, seed, recorder)
        kernel = run.world.kernel
        tracer.reset()
        events = kernel.events_executed
        samples, cost = run.load(seed, scale)
        events = kernel.events_executed - events
        totals = tracer.snapshot()
        problems += run.check(samples)
    problems += _check_history(recorder, sim.PARTITIONS, sim.REPLICAS)
    if sim.outcome(samples) != sim.outcome(plain_samples):
        problems.append("tracing changed the simulated outcome")
    return {
        "totals": totals,
        "cpu_s": cost["cpu_s"],
        "overhead": cost["cpu_ref_s"] / plain_cost["cpu_ref_s"],
        "denominators": _denominators(samples, sim.REPLICAS, events),
        "problems": problems,
    }


def _write_out(out: str, tracer: Tracer, metrics: dict) -> None:
    """Write the kept spans (JSON lines) and the layer table to ``out``."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "spans.jsonl"), "w") as spans:
        for seq, parent, name, start, end, txn in tracer.spans:
            spans.write(json.dumps({
                "id": seq, "parent": parent, "name": name,
                "start_ns": start, "end_ns": end,
                "txn": str(txn) if txn is not None else None,
            }) + "\n")
    with open(os.path.join(out, "layers.json"), "w") as table:
        json.dump(metrics, table, indent=2)


def traced_run(workload: str, seed: int, seconds: float, root: str) -> dict:
    """The per-layer run of one workload; prints the table, writes it and
    the spans under ``root``/perfbench-out/, and returns the metrics."""
    tracer = Tracer()
    if workload.startswith("tcp-"):
        result = _traced_tcp(workload, seed, seconds, tracer)
    else:
        result = _traced_sim(seed, tracer)
    d = result["denominators"]
    layer = _layer_metrics(result["totals"], result["cpu_s"], d)
    layer["trace.overhead_pct"] = (result["overhead"] - 1.0) * 100.0
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    for name, metric in metrics.items():
        print(f"{name:<38} {metric['value']:14.4f} {metric['unit']}")
    self_us = sum(ns for ns in result["totals"]["self_ns"].values()) / 1000.0
    print(f"{'(self times + residual)':<38} "
          f"{self_us / d['commits'] + layer['loop.residual_us_per_commit']:14.4f} us "
          f"= traced total {layer['trace.cpu_us_per_commit']:.4f} us per commit")
    out = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}")
    _write_out(out, tracer, metrics)
    print(f"spans and layer table written to {out}")
    txns = d["txns"]
    return {
        "metrics": metrics,
        "attempted": txns,
        "failed": txns - d["commits"],
        "problems": result["problems"],
    }
