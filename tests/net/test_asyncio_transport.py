"""Integration tests for the real TCP transport (localhost)."""

import asyncio
from dataclasses import dataclass

import pytest

import repro.net.asyncio_transport as asyncio_transport
from repro.net.asyncio_transport import AioTransport
from repro.net.message import Message, message


@message
@dataclass(frozen=True)
class _Echo(Message):
    text: str
    payload: bytes = b""


def free_ports(n):
    import socket

    sockets, ports = [], []
    for _ in range(n):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


async def _run_pair(test_body):
    port_a, port_b = free_ports(2)
    directory = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
    inbox_a, inbox_b = [], []
    ta = AioTransport("a", directory, lambda src, msg: inbox_a.append((src, msg)))
    tb = AioTransport("b", directory, lambda src, msg: inbox_b.append((src, msg)))
    await ta.start()
    await tb.start()
    try:
        await test_body(ta, tb, inbox_a, inbox_b)
    finally:
        await ta.close()
        await tb.close()


async def _drain(predicate, timeout=3.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.01)


class TestAioTransport:
    def test_round_trip_message(self):
        async def body(ta, tb, inbox_a, inbox_b):
            await ta.send("b", _Echo(text="hello"))
            await _drain(lambda: inbox_b)
            assert inbox_b == [("a", _Echo(text="hello"))]
            await tb.send("a", _Echo(text="back"))
            await _drain(lambda: inbox_a)
            assert inbox_a == [("b", _Echo(text="back"))]

        asyncio.run(_run_pair(body))

    def test_many_messages_in_order_per_connection(self):
        async def body(ta, tb, inbox_a, inbox_b):
            for i in range(50):
                await ta.send("b", _Echo(text=str(i)))
            await _drain(lambda: len(inbox_b) == 50)
            assert [m.text for _, m in inbox_b] == [str(i) for i in range(50)]

        asyncio.run(_run_pair(body))

    def test_binary_payload(self):
        async def body(ta, tb, inbox_a, inbox_b):
            blob = bytes(range(256))
            await ta.send("b", _Echo(text="bin", payload=blob))
            await _drain(lambda: inbox_b)
            assert inbox_b[0][1].payload == blob

        asyncio.run(_run_pair(body))

    def test_send_to_down_peer_is_dropped_silently(self):
        async def body(ta, tb, inbox_a, inbox_b):
            await tb.close()
            await ta.send("b", _Echo(text="into the void"))  # must not raise

        asyncio.run(_run_pair(body))

    def test_unknown_destination_raises(self):
        async def body(ta, tb, inbox_a, inbox_b):
            from repro.errors import TransportError

            with pytest.raises(TransportError):
                await ta.send("ghost", _Echo(text="?"))

        asyncio.run(_run_pair(body))


def _counting_codec(monkeypatch):
    """Wrap the codec transports resolve, counting encodes and decodes."""
    counts = {"encode": 0, "decode": 0}
    resolve = asyncio_transport.get_codec

    def counted(name):
        encode, decode = resolve(name)

        def counted_encode(msg):
            counts["encode"] += 1
            return encode(msg)

        def counted_decode(data):
            counts["decode"] += 1
            return decode(data)

        return counted_encode, counted_decode

    monkeypatch.setattr(asyncio_transport, "get_codec", counted)
    return counts


async def _cluster(names, started=None):
    """Transports for ``names`` with an inbox each; ``started`` limits
    which of them listen (default: all)."""
    ports = free_ports(len(names))
    directory = {name: ("127.0.0.1", port) for name, port in zip(names, ports)}
    inboxes = {name: [] for name in names}
    transports = {
        name: AioTransport(name, directory, lambda src, msg, box=inboxes[name]: box.append((src, msg)))
        for name in names
    }
    for name in started if started is not None else names:
        await transports[name].start()
    return transports, inboxes


async def _close(transports):
    for transport in transports.values():
        await transport.close()


class TestWirePath:
    def test_fan_out_encodes_once(self, monkeypatch):
        counts = _counting_codec(monkeypatch)

        async def body():
            transports, inboxes = await _cluster(["a", "b", "c", "d"])
            try:
                msg = _Echo(text="fan-out")
                for dst in ("b", "c", "d"):
                    transports["a"].post(dst, msg)
                await _drain(lambda: all(inboxes[n] for n in ("b", "c", "d")))
                assert counts["encode"] == 1
                assert counts["decode"] == 3
                assert all(inboxes[n] == [("a", msg)] for n in ("b", "c", "d"))
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_frames_posted_before_the_connection_arrive_in_order(self):
        async def body():
            transports, inboxes = await _cluster(["a", "b"])
            try:
                for i in range(20):
                    transports["a"].post("b", _Echo(text=str(i)))
                    if i % 5 == 4:
                        await asyncio.sleep(0)  # flushes while still connecting
                await _drain(lambda: len(inboxes["b"]) == 20)
                assert [m.text for _, m in inboxes["b"]] == [str(i) for i in range(20)]
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_frames_split_across_reads_are_reassembled(self):
        big = bytes(range(256)) * 400  # > 64 KiB once base64-encoded

        async def body():
            transports, inboxes = await _cluster(["a", "b"])
            try:
                sent = []
                for i in range(300):
                    msg = _Echo(text=str(i), payload=big if i in (7, 150) else b"")
                    sent.append(msg)
                    transports["a"].post("b", msg)
                    if i % 40 == 0:
                        await asyncio.sleep(0)
                await _drain(lambda: len(inboxes["b"]) == len(sent))
                assert [m for _, m in inboxes["b"]] == sent
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_self_send_skips_the_codec(self, monkeypatch):
        counts = _counting_codec(monkeypatch)

        async def body():
            transports, inboxes = await _cluster(["a"])
            try:
                msg = _Echo(text="me")
                transports["a"].post("a", msg)
                assert inboxes["a"] == []  # handed over on a later iteration
                await _drain(lambda: inboxes["a"])
                assert inboxes["a"][0][1] is msg
                assert counts == {"encode": 0, "decode": 0}
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_down_peer_drops_then_delivers_once_up(self):
        async def body():
            transports, inboxes = await _cluster(["a", "b"], started=["a"])
            try:
                transports["a"].post("b", _Echo(text="lost"))
                await _drain(lambda: not transports["a"]._connecting)
                await transports["b"].start()
                transports["a"].post("b", _Echo(text="kept"))
                await _drain(lambda: inboxes["b"])
                await asyncio.sleep(0.05)
                assert [m.text for _, m in inboxes["b"]] == ["kept"]
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_raising_handler_keeps_the_link(self):
        async def body():
            reports = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: reports.append(ctx))
            transports, inboxes = await _cluster(["a", "b"])
            seen = []

            def handler(src, msg):
                seen.append(msg.text)
                if msg.text == "boom":
                    raise ValueError("handler failure")

            transports["b"].handler = handler
            try:
                for text in ("one", "boom", "two", "three"):
                    transports["a"].post("b", _Echo(text=text))
                await _drain(lambda: len(seen) == 4)
                assert seen == ["one", "boom", "two", "three"]
                assert len(reports) == 1
                assert "b" in reports[0]["message"] and "_Echo" in reports[0]["message"]
                assert isinstance(reports[0]["exception"], ValueError)
            finally:
                await _close(transports)

        asyncio.run(body())

    def test_closing_mid_flood_reports_nothing(self):
        async def body():
            reports = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: reports.append(ctx))
            transports, inboxes = await _cluster(["a", "b"])
            for i in range(200):
                transports["a"].post("b", _Echo(text=str(i), payload=b"x" * 512))
                transports["b"].post("a", _Echo(text=str(i), payload=b"y" * 512))
                if i % 20 == 0:
                    await asyncio.sleep(0)
            await _close(transports)
            transports["a"].post("b", _Echo(text="after close"))  # a no-op
            await asyncio.sleep(0.1)
            assert reports == []

        asyncio.run(body())
