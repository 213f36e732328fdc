"""Asyncio-backed runtime: the same protocol cores over real sockets.

An :class:`AioWorld` holds the node directory (``node_id -> (host, port)``)
and mints :class:`AioNodeRuntime` instances.  Each node runtime owns an
:class:`~repro.net.asyncio_transport.AioTransport`; ``send`` posts to it
synchronously — no task per send, one buffered write per destination and
loop iteration, FIFO per link — so protocol cores stay non-blocking,
matching the fire-and-forget semantics of the simulated transport.  A
send to the node itself is handed over in process, by reference, as the
simulated network does.  ``execute`` runs work FIFO per node, and
``close`` cancels every timer the runtime armed.

Integration tests build small clusters on localhost ports and verify that
the unmodified SDUR and Paxos cores commit transactions over real TCP.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.errors import ConfigurationError
from repro.net.asyncio_transport import AioTransport
from repro.obs.recorder import (
    NULL_RECORDER,
    ObsRecorder,
    default_tracing,
    register_recorder,
)
from repro.runtime.base import Runtime, TimerHandle
from repro.sim.rng import RngRegistry


class AioWorld:
    """Directory and shared state for an asyncio deployment."""

    def __init__(
        self,
        directory: dict[str, tuple[str, int]],
        seed: int = 0,
        obs: ObsRecorder | None = None,
    ) -> None:
        self.directory = dict(directory)
        self.rng = RngRegistry(seed)
        self.obs: ObsRecorder = obs if obs is not None else NULL_RECORDER
        if self.obs.enabled:
            # Wall-clock tracing (the asyncio loop's clock is monotonic).
            self.obs.bind_clock(time.monotonic)
            if default_tracing():
                register_recorder(self.obs)
        self._runtimes: dict[str, AioNodeRuntime] = {}
        #: Optional static one-way delay estimates for the delaying technique.
        self.delay_estimates: dict[tuple[str, str], float] = {}

    def runtime_for(self, node_id: str) -> "AioNodeRuntime":
        if node_id not in self.directory:
            raise ConfigurationError(f"node {node_id!r} not in directory")
        runtime = self._runtimes.get(node_id)
        if runtime is None:
            runtime = AioNodeRuntime(self, node_id)
            self._runtimes[node_id] = runtime
        return runtime

    async def start_all(self) -> None:
        """Start the transports of every runtime created so far."""
        await asyncio.gather(*(runtime.start() for runtime in self._runtimes.values()))

    async def close_all(self) -> None:
        await asyncio.gather(*(runtime.close() for runtime in self._runtimes.values()))


class _AioTimer:
    """Cancellable ``loop.call_later`` handle, tracked while armed so that
    closing the runtime can cancel it."""

    __slots__ = ("_armed", "_handle")

    def __init__(self, armed: set["_AioTimer"], delay: float, callback: Callable[[], None]) -> None:
        self._armed = armed
        self._handle = asyncio.get_running_loop().call_later(delay, self._fire, callback)
        armed.add(self)

    def _fire(self, callback: Callable[[], None]) -> None:
        self._armed.discard(self)
        callback()

    def cancel(self) -> None:
        self._handle.cancel()
        self._armed.discard(self)


class AioNodeRuntime(Runtime):
    """Per-node :class:`Runtime` over asyncio TCP."""

    def __init__(self, world: AioWorld, node_id: str) -> None:
        self.world = world
        self.node_id = node_id
        self.obs = world.obs
        self._handler: Callable[[str, Any], None] | None = None
        self._transport: AioTransport | None = None
        self._timers: set[_AioTimer] = set()
        #: Costed work not yet run, in submission order (head is running).
        self._work: deque[tuple[float, Callable[[], None]]] = deque()
        self._closed = False

    async def start(self) -> None:
        """Bind the TCP endpoint; requires :meth:`listen` to have been called."""
        if self._handler is None:
            raise ConfigurationError(f"{self.node_id}: listen() must be called before start()")
        self._transport = AioTransport(
            self.node_id, self.world.directory, self._handler, obs=self.obs
        )
        await self._transport.start()

    async def close(self) -> None:
        """Cancel armed timers and queued work; later calls are no-ops."""
        self._closed = True
        for timer in list(self._timers):
            timer.cancel()
        self._work.clear()
        if self._transport is not None:
            await self._transport.close()

    # -- Runtime interface ---------------------------------------------
    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def send(self, dst: str, msg: Any) -> None:
        if self._transport is not None:
            self._transport.post(dst, msg)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        timer = _AioTimer(self._timers, delay, callback)
        if self._closed:
            timer.cancel()
        return timer

    def listen(self, handler: Callable[[str, Any], None]) -> None:
        self._handler = handler

    def rng(self, name: str) -> random.Random:
        return self.world.rng.stream(f"{self.node_id}.{name}")

    def execute(self, cost: float, fn: Callable[[], None]) -> None:
        # Real nodes pay real CPU; an artificial cost is modelled as a
        # delay.  Work runs FIFO: anything submitted behind costed work
        # waits for it, so only zero-cost work on an idle node runs inline.
        if self._closed:
            return
        if cost <= 0 and not self._work:
            fn()
            return
        self._work.append((cost, fn))
        if len(self._work) == 1:
            self.set_timer(cost, self._run_head)

    def _run_head(self) -> None:
        try:
            self._work[0][1]()
        finally:
            self._work.popleft()
            if self._work:
                self.set_timer(self._work[0][0], self._run_head)

    def latency_estimate(self, dst: str) -> float:
        return self.world.delay_estimates.get((self.node_id, dst), 0.0)
