"""Golden wire bytes: the JSON codec's output is a compatibility contract.

``golden_frames.jsonl`` holds, one per line and in :data:`GOLDEN` order,
the bytes the JSON encoder produced for each sample before the encoder
was rewritten around per-class field caches.  WAL entries and
checkpoints written by older builds are these same bytes, so the encoder
must reproduce every line exactly and the decoder must read each back to
an equal value.  Never regenerate the fixture from the current encoder:
a mismatch means the wire format changed, not that the file is stale.

The samples cover one instance of every registered message type (the
protocol messages of the wire-coverage test plus the transport envelope,
checkpoint, and multicast messages) and every value shape the codec
carries: bytes, sets, tuples, string-keyed and non-string-keyed dicts,
dunder-looking string keys, nested lists, str-enum members and scalars.
"""

import os
from dataclasses import dataclass, field

import pytest

from repro.consensus.messages import Accept, Chosen
from repro.consensus.multicast import AmcastFinal, AmcastStart, AmcastSubmit, TimestampProposal
from repro.core.checkpoint import (
    CheckpointReply,
    CheckpointRequest,
    ServerCheckpoint,
    WindowRecord,
)
from repro.core.transaction import Outcome, ReadsetDigest
from repro.net.asyncio_transport import Envelope
from repro.net.message import Message, decode_message, encode_message, message, registry
from tests.net.test_wire_coverage import BLOOM_PROJ, PROJ, SAMPLES, TID

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_frames.jsonl")


@message
@dataclass(frozen=True)
class _GoldenValues(Message):
    """Carries one value of each shape the codec knows."""

    data: bytes = b""
    tags: frozenset = frozenset()
    pair: tuple = ()
    table: dict = field(default_factory=dict)
    items: list = field(default_factory=list)


RECORD = WindowRecord(
    tid=TID,
    version=3,
    readset=ReadsetDigest.exact(["0/a"]),
    ws_keys=frozenset({"0/b", "0/a"}),
    is_global=True,
)
CHECKPOINT = ServerCheckpoint(
    partition="p0",
    next_instance=12,
    sc=9,
    dc=2,
    reorder_threshold=4,
    chains={"0/a": ((0, None), (4, "v")), "0/b": ((2, [1, 2.5]),)},
    gc_horizon=1,
    window=(RECORD,),
    window_floor=1,
)

GOLDEN = SAMPLES + [
    TID,
    PROJ,
    BLOOM_PROJ.readset,
    Envelope(src="s1", payload=Accept(group="p0", ballot=(3, 1), instance=9, value=PROJ)),
    Envelope(src="s2", payload=Chosen(group="p0", instance=9, value=PROJ)),
    RECORD,
    CHECKPOINT,
    CheckpointRequest(reply_to="s4"),
    CheckpointReply(partition="p0", blob=encode_message(CHECKPOINT)),
    CheckpointReply(partition="p1", blob=None),
    AmcastSubmit(mid="m1", groups=("g0", "g1"), payload={"k": [1, 2]}),
    AmcastStart(mid="m1", groups=("g0",), payload=("x", b"\x00\x01")),
    TimestampProposal(mid="m1", group="g0", ts=7),
    AmcastFinal(mid="m1", ts=8),
    _GoldenValues(
        data=bytes(range(256)),
        tags=frozenset({"b", "a", "c", "10", "2"}),
        pair=("x", 1, ("nested", 2.5), None, True),
        table={1: "int key", (2, "t"): [3], TID: {"inner": False}, "s": b"\xff"},
        items=[None, True, False, -1, 2**40, 0.1, "é\n\"q\"", [[], {}], frozenset({3, 1, 2})],
    ),
    _GoldenValues(table={"__msg__": "sneaky", "plain": 1}, items=[Outcome.COMMIT, {"__set__": []}]),
    _GoldenValues(table={"a": {"b": {"c": (1,)}}, "": 0}),
]


def _lines() -> list[bytes]:
    with open(FIXTURE, "rb") as handle:
        return handle.read().splitlines()


def test_fixture_covers_every_registered_message():
    covered = {type(sample).__name__ for sample in GOLDEN}
    protocol = {name for name, cls in registry.items() if cls.__module__.startswith("repro.")}
    assert protocol <= covered, f"messages without golden bytes: {protocol - covered}"
    assert len(_lines()) == len(GOLDEN)


@pytest.mark.parametrize(
    "index", range(len(GOLDEN)), ids=[f"{i}-{type(s).__name__}" for i, s in enumerate(GOLDEN)]
)
def test_encoder_reproduces_golden_bytes(index):
    assert encode_message(GOLDEN[index]) == _lines()[index]


@pytest.mark.parametrize(
    "index", range(len(GOLDEN)), ids=[f"{i}-{type(s).__name__}" for i, s in enumerate(GOLDEN)]
)
def test_golden_bytes_decode_to_the_sample(index):
    decoded = decode_message(_lines()[index])
    assert decoded == GOLDEN[index]
    assert type(decoded) is type(GOLDEN[index])
