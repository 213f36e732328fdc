"""Unit tests for the asyncio-backed runtime: timers, FIFO work, teardown."""

import asyncio
import socket
from dataclasses import dataclass

from repro.core.transaction import TxnId
from repro.net.message import Message, message
from repro.obs.recorder import SpanRecorder
from repro.runtime.aio import AioWorld


@message
@dataclass(frozen=True)
class _RuntimePing(Message):
    tid: TxnId
    n: int = 0


def _world(names, obs=None):
    sockets = [socket.socket() for _ in names]
    for sock in sockets:
        sock.bind(("127.0.0.1", 0))
    directory = {name: sock.getsockname() for name, sock in zip(names, sockets)}
    for sock in sockets:
        sock.close()
    return AioWorld(directory, obs=obs)


async def _started(names, obs=None):
    world = _world(names, obs)
    inboxes = {}
    for name in names:
        inbox = inboxes[name] = []
        world.runtime_for(name).listen(lambda src, msg, inbox=inbox: inbox.append((src, msg)))
    await world.start_all()
    return world, inboxes


class TestTimers:
    def test_periodic_timer_never_fires_after_close_all(self):
        async def body():
            world, _ = await _started(["a"])
            runtime = world.runtime_for("a")
            fired = []

            def tick():
                fired.append(runtime.now())
                runtime.set_timer(0.01, tick)

            runtime.set_timer(0.01, tick)
            await asyncio.sleep(0.05)
            assert fired
            await world.close_all()
            count = len(fired)
            await asyncio.sleep(0.05)  # five periods
            assert len(fired) == count
            assert not runtime._timers

        asyncio.run(body())

    def test_cancelled_and_fired_timers_are_not_retained(self):
        async def body():
            world, _ = await _started(["a"])
            runtime = world.runtime_for("a")
            fired = []
            runtime.set_timer(0.0, lambda: fired.append(1))
            runtime.set_timer(10.0, lambda: fired.append(2)).cancel()
            await asyncio.sleep(0.01)
            assert fired == [1]
            assert not runtime._timers
            await world.close_all()

        asyncio.run(body())


class TestExecute:
    def test_costed_work_is_not_overtaken(self):
        async def body():
            world, _ = await _started(["a"])
            runtime = world.runtime_for("a")
            ran = []
            runtime.execute(0.02, lambda: ran.append("a"))
            runtime.execute(0, lambda: ran.append("b"))
            runtime.execute(0.01, lambda: ran.append("c"))
            assert ran == []
            await asyncio.sleep(0.1)
            assert ran == ["a", "b", "c"]
            runtime.execute(0, lambda: ran.append("d"))  # idle again: inline
            assert ran[-1] == "d"
            await world.close_all()

        asyncio.run(body())

    def test_queued_work_is_dropped_on_close(self):
        async def body():
            world, _ = await _started(["a"])
            runtime = world.runtime_for("a")
            ran = []
            runtime.execute(0.02, lambda: ran.append("a"))
            await world.close_all()
            runtime.execute(0, lambda: ran.append("b"))
            await asyncio.sleep(0.05)
            assert ran == []

        asyncio.run(body())


class TestSelfDelivery:
    def test_self_send_is_delivered_by_reference_and_traced(self):
        async def body():
            obs = SpanRecorder()
            world, inboxes = await _started(["a"], obs=obs)
            msg = _RuntimePing(tid=TxnId("c", 1))
            world.runtime_for("a").send("a", msg)
            await asyncio.sleep(0)
            assert inboxes["a"] == [("a", msg)] and inboxes["a"][0][1] is msg
            assert [e.kind for e in obs.events] == ["net.send", "net.recv"]
            await world.close_all()

        asyncio.run(body())

    def test_nothing_is_delivered_after_close(self):
        async def body():
            world, inboxes = await _started(["a", "b"])
            a = world.runtime_for("a")
            a.send("a", _RuntimePing(tid=TxnId("c", 1)))  # queued, then closed
            await a.close()
            await world.close_all()
            a.send("a", _RuntimePing(tid=TxnId("c", 2)))
            a.send("b", _RuntimePing(tid=TxnId("c", 3)))
            await asyncio.sleep(0.05)
            assert inboxes == {"a": [], "b": []}

        asyncio.run(body())
