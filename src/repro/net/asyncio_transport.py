"""Real TCP transport for the asyncio runtime.

Frames are length-prefixed (4-byte big-endian) messages produced by the
selected wire codec — the JSON codec of :mod:`repro.net.message` by
default (its bytes fixed by a golden test), or the packed codec
of :mod:`repro.net.codec` (``codec="packed"``) — wrapped in an
:class:`Envelope` carrying the sender's node id.  Both endpoints must run
the same codec.  :meth:`AioTransport.post` is synchronous, with no task
per send: it encodes into a per-destination outbox (once per object on a
fan-out) and one flush per loop iteration writes each destination's
frames in one buffered write, opening connections lazily.  Links are FIFO
and quasi-reliable as in the paper's model: on connection failure queued
frames are dropped and higher layers — Paxos — recover.  A node's
messages to itself are handed over in process, by reference: no codec,
no socket, never lost.  A raising handler is reported to the loop's
exception handler and its link keeps delivering.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import TransportError
from repro.net.codec import get_codec
from repro.net.message import Message, message
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, traced_tid as _traced_tid

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024
_READ_CHUNK = 64 * 1024


@message
@dataclass(frozen=True)
class Envelope(Message):
    """Wire wrapper adding the sender id to a payload message."""

    src: str
    payload: Any


def _frame(data: bytes) -> bytes:
    if len(data) > _MAX_FRAME:
        raise TransportError(f"frame too large: {len(data)} bytes")
    return len(data).to_bytes(_LEN_BYTES, "big") + data


def _take_frames(buffer: bytearray) -> list[bytes]:
    """Remove and return every complete frame at the head of ``buffer``."""
    frames, offset, size = [], 0, len(buffer)
    while size - offset >= _LEN_BYTES:
        length = int.from_bytes(buffer[offset : offset + _LEN_BYTES], "big")
        if length > _MAX_FRAME:
            raise TransportError(f"peer announced oversized frame: {length} bytes")
        end = offset + _LEN_BYTES + length
        if end > size:
            break
        frames.append(bytes(buffer[offset + _LEN_BYTES : end]))
        offset = end
    del buffer[:offset]
    return frames


class AioTransport:
    """One node's TCP endpoint: listens for peers and sends to a directory."""

    def __init__(
        self,
        node_id: str,
        directory: dict[str, tuple[str, int]],
        handler: Callable[[str, Any], None],
        obs: ObsRecorder | None = None,
        codec: str = "json",
    ) -> None:
        if node_id not in directory:
            raise TransportError(f"node {node_id!r} missing from directory")
        self.node_id = node_id
        self.directory = directory
        self.handler = handler
        self.codec = codec
        self._encode, self._decode = get_codec(codec)
        self.obs = obs if obs is not None else NULL_RECORDER
        self._server: asyncio.AbstractServer | None = None
        self._writers: dict[str, asyncio.StreamWriter] = {}
        #: Frames posted since the last flush, per destination.
        self._outbox: dict[str, list[bytes]] = {}
        #: Frames waiting for a connection being opened, per destination.
        self._connecting: dict[str, list[bytes]] = {}
        #: The last message posted this iteration and its frame (fan-out).
        self._last: tuple[Any, bytes] | None = None
        #: Reader task -> its connection's writer (closed to end it).
        self._readers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._connects: set[asyncio.Task] = set()
        self._closed = False

    async def start(self) -> None:
        """Bind and start accepting peer connections."""
        host, port = self.directory[self.node_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._readers[task] = writer
        buffer = bytearray()
        try:
            while not self._closed:
                try:
                    chunk = await reader.read(_READ_CHUNK)
                except ConnectionError:
                    break
                if not chunk:
                    break
                buffer += chunk
                for frame in _take_frames(buffer):
                    envelope = self._decode(frame)
                    if not isinstance(envelope, Envelope):
                        raise TransportError(
                            f"expected Envelope, got {type(envelope).__name__}"
                        )
                    self._receive(envelope.src, envelope.payload)
        finally:
            del self._readers[task]
            writer.close()

    def _receive(self, src: str, msg: Any) -> None:
        """Hand one message to the handler; a raising handler is reported,
        not fatal to the link."""
        if self._closed:
            return
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self.obs.event("net.recv", self.node_id, tid, src=src, msg=type(msg).__name__)
        try:
            self.handler(src, msg)
        except Exception as exc:
            asyncio.get_running_loop().call_exception_handler({
                "message": f"{self.node_id}: handler raised on "
                f"{type(msg).__name__} from {src}",
                "exception": exc,
            })

    def post(self, dst: str, msg: Any) -> None:
        """Queue ``msg`` for ``dst`` without awaiting; drops silently on
        connection failure.  A self-send is delivered in process."""
        if self._closed:
            return
        if dst not in self.directory:
            raise TransportError(f"unknown destination {dst!r}")
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self.obs.event("net.send", self.node_id, tid, dst=dst, msg=type(msg).__name__)
        if dst == self.node_id:
            asyncio.get_running_loop().call_soon(self._receive, dst, msg)
            return
        last = self._last
        if last is None or last[0] is not msg:
            last = self._last = (msg, _frame(self._encode(Envelope(src=self.node_id, payload=msg))))
        if not self._outbox:
            asyncio.get_running_loop().call_soon(self._flush)
        self._outbox.setdefault(dst, []).append(last[1])

    async def send(self, dst: str, msg: Any) -> None:
        """Awaitable form of :meth:`post`."""
        self.post(dst, msg)

    def _flush(self) -> None:
        outbox, self._outbox, self._last = self._outbox, {}, None
        if self._closed:
            return
        for dst, frames in outbox.items():
            writer = self._writers.get(dst)
            if writer is not None and not writer.is_closing():
                writer.write(b"".join(frames))
            elif dst in self._connecting:
                self._connecting[dst] += frames
            else:
                self._connecting[dst] = frames
                task = asyncio.get_running_loop().create_task(self._connect(dst))
                self._connects.add(task)
                task.add_done_callback(self._connects.discard)

    async def _connect(self, dst: str) -> None:
        host, port = self.directory[dst]
        try:
            _, writer = await asyncio.open_connection(host, port)
        except OSError:
            del self._connecting[dst]  # Peer down: quasi-reliable link drops them.
            return
        self._writers[dst] = writer
        writer.write(b"".join(self._connecting.pop(dst)))

    async def close(self) -> None:
        """Stop accepting and tear down all connections.

        Readers end on the end-of-stream that closing their connection
        causes, not by cancellation, so nothing reports a cancelled task.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in [*self._writers.values(), *self._readers.values()]:
            writer.close()
        self._writers.clear()
        for task in self._connects:
            task.cancel()
        await asyncio.gather(*self._readers, *self._connects, return_exceptions=True)
