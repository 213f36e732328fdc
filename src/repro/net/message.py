"""Tagged-dataclass message codec.

Every protocol message in the system is a frozen dataclass registered with
the :func:`message` decorator.  Registration assigns a wire tag (the class
name by default) and enables encoding to a compact JSON wire format that
round-trips the Python value types we actually use in messages:

* dataclass messages (nested arbitrarily),
* ``bytes`` (base64), ``frozenset``/``set``, ``tuple``,
* dicts with non-string keys,
* ``None``, ``bool``, ``int``, ``float``, ``str``, lists.

Each registered class gets an encoder built once from its field names,
values are dispatched on their exact type, and decoding is one pass of
the JSON scanner with an object hook.  The bytes are a compatibility
contract — WAL entries and checkpoints are stored in them — held by the
golden-bytes test ``tests/net/test_golden_wire.py``.

The simulated transport can be configured to round-trip every message
through this codec, which proves in tests that nothing unserializable ever
crosses a (simulated) wire; the asyncio transport uses it for real.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from collections.abc import Callable
from typing import Any, Type, TypeVar

from repro.errors import CodecError


class Message:
    """Marker base class for protocol messages (all are dataclasses)."""

    __slots__ = ()


_T = TypeVar("_T")

#: Wire tag -> message class.
registry: dict[str, type] = {}


def message(cls: Type[_T]) -> Type[_T]:
    """Class decorator registering a dataclass as a wire message.

    The class must already be a dataclass (apply ``@dataclass(frozen=True)``
    below this decorator) and its name must be unique across the process.
    """
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls.__name__} must be a dataclass to be a message")
    tag = cls.__name__
    existing = registry.get(tag)
    if existing is not None and existing is not cls:
        raise CodecError(f"duplicate message tag {tag!r}")
    registry[tag] = cls
    _ENCODERS[cls] = _message_encoder(tag, tuple(f.name for f in dataclasses.fields(cls)))
    return cls


# ----------------------------------------------------------------------
# Encoding: value -> JSON-ready tree, dispatched on the exact type
# ----------------------------------------------------------------------
def _message_encoder(tag: str, names: tuple[str, ...]) -> Callable[[Any], Any]:
    def encode(value: Any) -> Any:
        fields = {}
        for name in names:
            item = getattr(value, name)
            fields[name] = item if type(item) in _SCALARS else _tree(item)
        return {"__msg__": tag, "f": fields}

    return encode


def _dict_tree(value: dict) -> Any:
    if all(isinstance(key, str) and not key.startswith("__") for key in value):
        return {key: _tree(item) for key, item in value.items()}
    return {"__dict__": [[_tree(key), _tree(item)] for key, item in value.items()]}


_SCALARS = frozenset({type(None), bool, int, float, str})
#: Base types in the order the wire format resolves them; subclasses
#: (str enums, named tuples, ...) encode as their first matching base.
_BASE_ENCODERS: tuple[tuple[tuple[type, ...], Callable[[Any], Any]], ...] = (
    (tuple(_SCALARS), lambda value: value),
    ((bytes,), lambda value: {"__b64__": base64.b64encode(value).decode("ascii")}),
    ((set, frozenset), lambda value: {"__set__": [_tree(item) for item in sorted(value, key=repr)]}),
    ((tuple,), lambda value: {"__tup__": [_tree(item) for item in value]}),
    ((list,), lambda value: [_tree(item) for item in value]),
    ((dict,), _dict_tree),
)
#: Exact type -> encoder, filled on first sight; :func:`message` adds messages.
_ENCODERS: dict[type, Callable[[Any], Any]] = {}


def _tree(value: Any) -> Any:
    """The JSON-ready form of ``value``: markers for non-JSON shapes."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    encode = _ENCODERS.get(kind)
    if encode is None:
        if dataclasses.is_dataclass(kind):
            raise CodecError(f"dataclass {kind.__name__} is not a registered message")
        encode = next((enc for kinds, enc in _BASE_ENCODERS if issubclass(kind, kinds)), None)
        if encode is None:
            raise CodecError(f"cannot encode value of type {kind.__name__}: {value!r}")
        _ENCODERS[kind] = encode
    return encode(value)


# ----------------------------------------------------------------------
# Decoding: one pass of the JSON scanner with a marker-object hook
# ----------------------------------------------------------------------
_MARKERS: dict[str, Callable[[Any], Any]] = {
    "__b64__": base64.b64decode,
    "__set__": frozenset,
    "__tup__": tuple,
    "__dict__": dict,
}


def _object_hook(obj: dict) -> Any:
    if "__msg__" in obj:
        cls = registry.get(obj["__msg__"])
        if cls is None:
            raise CodecError(f"unknown message tag {obj['__msg__']!r}")
        return cls(**obj["f"])
    if len(obj) == 1:
        for key, value in obj.items():
            decode = _MARKERS.get(key)
            if decode is not None:
                return decode(value)
    return obj


# ``check_circular`` is off: the tree is rebuilt per message, so a cycle
# in a message recurses in :func:`_tree` before the JSON encoder sees it.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_JSON_DECODER = json.JSONDecoder(object_hook=_object_hook)


def encode_message(msg: Any) -> bytes:
    """Serialize a registered message to its JSON wire bytes."""
    try:
        return _JSON_ENCODER.encode(_tree(msg)).encode()
    except (TypeError, ValueError) as exc:
        raise CodecError(f"failed to encode {msg!r}") from exc


def decode_message(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode_message`."""
    try:
        return _JSON_DECODER.decode(data.decode())
    except (TypeError, ValueError, KeyError) as exc:
        raise CodecError(f"failed to decode {data[:80]!r}") from exc


def roundtrip(msg: Any) -> Any:
    """Encode then decode (used by the paranoid simulated transport)."""
    return decode_message(encode_message(msg))
