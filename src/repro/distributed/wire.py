"""Binary wire format for :mod:`repro.distributed.messages` payloads.

The loopback fabric passes live Python objects between handlers; the TCP
transport (:mod:`repro.distributed.transport`) needs those same payloads
as bytes.  This module is the codec: a tagged, recursive binary encoding
that round-trips every payload the protocol produces **bit-exactly** —
numpy arrays keep their dtype (including byte order), shape and contents;
0-d arrays stay 0-d; numpy scalars stay numpy scalars; dataclass payload
objects (``ViTConfig``, ``HeaderSpec``, ``DeviceProfile``, datasets) are
rebuilt through registered codecs.

Framing.  A frame is::

    MAGIC(4) | body_length u32 | crc32(body) u32 | body

All integers are big-endian.  ``read_frame``/``decode_frame`` verify the
magic, bound the length by ``max_frame`` and check the CRC before any
body byte is interpreted; a truncated, oversized or corrupted frame
raises :class:`WireError` — never a hang, never a silently short read.
The CRC is transport framing overhead and is **not** part of
``Message.nbytes``: Table-I byte accounting is carried inside the
message (``nbytes`` is transmitted verbatim), exactly as the in-process
fabric computes it.

``encode_message``/``decode_message`` preserve every ``Message`` field —
``nbytes``, ``sequence``, ``checksum`` and ``attempts`` travel with the
payload — so the receiving fabric sees the same object the sender's
would have, and checksum verification under an armed fault policy keeps
its meaning across the wire.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.distributed.messages import Message, MessageKind

__all__ = [
    "WireError",
    "MAGIC",
    "MAX_FRAME",
    "HEADER_SIZE",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "frame",
    "decode_frame",
    "frame_header",
    "register_codec",
]


class WireError(RuntimeError):
    """A malformed, truncated or corrupted wire frame/body."""


MAGIC = b"RWF1"
#: Hard ceiling on a single frame body (256 MiB) — a garbage length
#: prefix must not provoke a multi-gigabyte allocation.
MAX_FRAME = 1 << 28
#: Frame header: magic + body length + body CRC32.
HEADER_SIZE = 12

_HEADER = struct.Struct(">4sII")
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Value tags.  One byte each; decode rejects anything else.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_BIGINT = b"I"  # decimal string, for |int| >= 2**63
_T_FLOAT = b"f"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"u"
_T_DICT = b"m"
_T_SET = b"e"
_T_FROZENSET = b"z"
_T_NDARRAY = b"a"
_T_NPSCALAR = b"g"
_T_OBJECT = b"o"  # registered codec: name + encoded state
_T_KIND = b"k"
_T_MESSAGE = b"M"


# ---------------------------------------------------------------------------
# Registered object codecs
# ---------------------------------------------------------------------------
#: name -> (cls, to_state, from_state).  ``to_state`` maps the object to
#: an encodable value; ``from_state`` rebuilds an equal object.
# reprolint: guarded -- populated by _register_builtin_codecs at import; later
# register_codec calls are a startup-time API, sequenced before any transport thread
_CODECS: Dict[str, Tuple[type, Callable[[Any], Any], Callable[[Any], Any]]] = {}
#: Exact-type dispatch for encoding (no subclass surprises).
# reprolint: guarded -- mutated only by register_codec, same startup-time sequencing
_CODEC_BY_TYPE: Dict[type, str] = {}


def register_codec(
    name: str,
    cls: type,
    to_state: Callable[[Any], Any],
    from_state: Callable[[Any], Any],
) -> None:
    """Register a payload object type for wire transport.

    ``to_state(obj)`` must return a value built from already-encodable
    types; ``from_state(state)`` must rebuild an object whose payload
    semantics equal the original.  Registration is idempotent for the
    same class; a name collision with a different class raises.
    """
    existing = _CODECS.get(name)
    if existing is not None and existing[0] is not cls:
        raise ValueError(f"wire codec {name!r} already bound to {existing[0]!r}")
    _CODECS[name] = (cls, to_state, from_state)
    _CODEC_BY_TYPE[cls] = name


def _register_builtin_codecs() -> None:
    from repro.data.dataset import ArrayDataset
    from repro.hw.profiles import DeviceProfile
    from repro.models.blocks import HeaderSpec
    from repro.models.vit import ViTConfig

    # A dataclass travels as its fields, in declaration order.
    register_codec("vit_config", ViTConfig, asdict, lambda s: ViTConfig(**s))
    register_codec(
        "header_spec",
        HeaderSpec,
        lambda h: {"seq": h.to_sequence(), "repeats": h.repeats},
        lambda s: HeaderSpec.from_sequence(s["seq"], repeats=s["repeats"]),
    )
    register_codec("device_profile", DeviceProfile, asdict, lambda s: DeviceProfile(**s))
    register_codec(
        "array_dataset",
        ArrayDataset,
        lambda d: {
            "images": d.images,
            "labels": d.labels,
            "num_classes": d.num_classes,
            "name": d.name,
        },
        lambda s: ArrayDataset(
            s["images"], s["labels"], s["num_classes"], name=s["name"]
        ),
    )


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------
def encode_value(value: Any) -> bytes:
    """Encode any payload value to the tagged binary form."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def _encode(out: bytearray, value: Any) -> None:
    # bool before int: bool is an int subclass.
    if value is None:
        out += _T_NONE
    elif value is True:
        out += _T_TRUE
    elif value is False:
        out += _T_FALSE
    elif isinstance(value, np.ndarray):
        _encode_ndarray(out, value)
    elif isinstance(value, np.generic):
        _encode_npscalar(out, value)
    elif type(value) is int or isinstance(value, int) and not isinstance(value, bool):
        if _I64_MIN <= value <= _I64_MAX:
            out += _T_INT
            out += _I64.pack(value)
        else:
            text = str(value).encode("ascii")
            out += _T_BIGINT
            out += _U32.pack(len(text))
            out += text
    elif isinstance(value, float):
        out += _T_FLOAT
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += _T_STR
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (bytes, bytearray)):
        out += _T_BYTES
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, Message):
        out += _T_MESSAGE
        _encode(out, _message_state(value))
    elif isinstance(value, MessageKind):
        data = value.value.encode("utf-8")
        out += _T_KIND
        out += _U32.pack(len(data))
        out += data
    elif type(value) in _CODEC_BY_TYPE:
        name = _CODEC_BY_TYPE[type(value)]
        data = name.encode("utf-8")
        out += _T_OBJECT
        out += _U32.pack(len(data))
        out += data
        _encode(out, _CODECS[name][1](value))
    elif isinstance(value, list):
        out += _T_LIST
        out += _U32.pack(len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, tuple):
        out += _T_TUPLE
        out += _U32.pack(len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, dict):
        out += _T_DICT
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode(out, key)
            _encode(out, item)
    elif isinstance(value, (set, frozenset)):
        # Encode members in a deterministic order so equal sets produce
        # equal bytes regardless of hash-iteration order.
        members = [encode_value(v) for v in value]
        members.sort()
        out += _T_FROZENSET if isinstance(value, frozenset) else _T_SET
        out += _U32.pack(len(members))
        for blob in members:
            out += blob
    else:
        raise WireError(
            f"cannot encode {type(value).__name__!r} for the wire; "
            f"register a codec with repro.distributed.wire.register_codec"
        )


def _encode_ndarray(out: bytearray, array: np.ndarray) -> None:
    if array.dtype.hasobject or array.dtype.names is not None:
        raise WireError(f"cannot encode object/structured dtype {array.dtype!r}")
    descr = array.dtype.str.encode("ascii")
    contiguous = np.ascontiguousarray(array)
    out += _T_NDARRAY
    out += _U8.pack(len(descr))
    out += descr
    out += _U8.pack(array.ndim)
    for dim in array.shape:
        out += _U64.pack(dim)
    out += contiguous.tobytes()


def _encode_npscalar(out: bytearray, value: np.generic) -> None:
    array = np.asarray(value)
    if array.dtype.hasobject:
        raise WireError(f"cannot encode numpy scalar of dtype {array.dtype!r}")
    descr = array.dtype.str.encode("ascii")
    out += _T_NPSCALAR
    out += _U8.pack(len(descr))
    out += descr
    out += array.tobytes()


def _message_state(message: Message) -> Dict[str, Any]:
    return {
        "sender": message.sender,
        "receiver": message.receiver,
        "kind": message.kind,
        "payload": message.payload,
        "nbytes": message.nbytes,
        "sequence": message.sequence,
        "checksum": message.checksum,
        "attempts": message.attempts,
    }


def _message_from_state(state: Dict[str, Any]) -> Message:
    try:
        return Message(
            sender=state["sender"],
            receiver=state["receiver"],
            kind=state["kind"],
            payload=state["payload"],
            nbytes=state["nbytes"],
            sequence=state["sequence"],
            checksum=state["checksum"],
            attempts=state["attempts"],
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed message state: {exc}") from exc


# ---------------------------------------------------------------------------
# Value decoding
# ---------------------------------------------------------------------------
class _Reader:
    """Bounds-checked cursor over a frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise WireError(
                f"truncated wire body: wanted {count} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} remain"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def done(self) -> bool:
        return self.pos == len(self.data)


def decode_value(data: bytes) -> Any:
    """Decode a body produced by :func:`encode_value`.

    Trailing garbage after the encoded value is a :class:`WireError` —
    a frame carries exactly one value.
    """
    reader = _Reader(bytes(data))
    value = _decode(reader)
    if not reader.done():
        raise WireError(
            f"{len(reader.data) - reader.pos} trailing byte(s) after wire value"
        )
    return value


def _decode(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _T_BIGINT:
        (length,) = _U32.unpack(reader.take(4))
        text = reader.take(length)
        try:
            return int(text.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(f"malformed bigint literal: {exc}") from exc
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        (length,) = _U32.unpack(reader.take(4))
        try:
            return reader.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed utf-8 string: {exc}") from exc
    if tag == _T_BYTES:
        (length,) = _U32.unpack(reader.take(4))
        return reader.take(length)
    if tag == _T_LIST:
        (count,) = _U32.unpack(reader.take(4))
        return [_decode(reader) for _ in range(count)]
    if tag == _T_TUPLE:
        (count,) = _U32.unpack(reader.take(4))
        return tuple(_decode(reader) for _ in range(count))
    if tag == _T_DICT:
        (count,) = _U32.unpack(reader.take(4))
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key = _decode(reader)
            result[key] = _decode(reader)
        return result
    if tag in (_T_SET, _T_FROZENSET):
        (count,) = _U32.unpack(reader.take(4))
        members = [_decode(reader) for _ in range(count)]
        return frozenset(members) if tag == _T_FROZENSET else set(members)
    if tag == _T_NDARRAY:
        return _decode_ndarray(reader)
    if tag == _T_NPSCALAR:
        return _decode_npscalar(reader)
    if tag == _T_KIND:
        (length,) = _U32.unpack(reader.take(4))
        text = reader.take(length)
        try:
            return MessageKind(text.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(f"unknown message kind on wire: {exc}") from exc
    if tag == _T_MESSAGE:
        state = _decode(reader)
        if not isinstance(state, dict) or not isinstance(
            state.get("kind"), MessageKind
        ):
            raise WireError("malformed message state on wire")
        return _message_from_state(state)
    if tag == _T_OBJECT:
        (length,) = _U32.unpack(reader.take(4))
        try:
            name = reader.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed codec name: {exc}") from exc
        codec = _CODECS.get(name)
        if codec is None:
            raise WireError(f"no wire codec registered for {name!r}")
        state = _decode(reader)
        try:
            return codec[2](state)
        except WireError:
            raise
        # reprolint: broad-except -- decode boundary: any codec rejection of hostile
        # or truncated wire state is re-raised as WireError with the codec named
        except Exception as exc:
            raise WireError(f"codec {name!r} rejected wire state: {exc}") from exc
    raise WireError(f"unknown wire tag {tag!r} at offset {reader.pos - 1}")


def _decode_dtype(reader: _Reader) -> np.dtype:
    (descr_len,) = _U8.unpack(reader.take(1))
    descr = reader.take(descr_len)
    try:
        dtype = np.dtype(descr.decode("ascii"))
    except (UnicodeDecodeError, TypeError) as exc:
        raise WireError(f"malformed dtype descriptor {descr!r}: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise WireError(f"refusing to decode dtype {dtype!r}")
    return dtype


def _decode_ndarray(reader: _Reader) -> np.ndarray:
    dtype = _decode_dtype(reader)
    (ndim,) = _U8.unpack(reader.take(1))
    shape: List[int] = []
    for _ in range(ndim):
        (dim,) = _U64.unpack(reader.take(8))
        shape.append(dim)
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * dtype.itemsize
    if nbytes > MAX_FRAME:
        raise WireError(f"array of {nbytes} bytes exceeds the frame ceiling")
    raw = reader.take(nbytes)
    # ``frombuffer`` views read-only memory; copy to a writable C-order
    # array so decoded payloads behave exactly like loopback ones.
    return np.frombuffer(raw, dtype=dtype).reshape(tuple(shape)).copy()


def _decode_npscalar(reader: _Reader) -> np.generic:
    dtype = _decode_dtype(reader)
    raw = reader.take(dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype)[0]


# ---------------------------------------------------------------------------
# Messages and frames
# ---------------------------------------------------------------------------
def encode_message(message: Message) -> bytes:
    """Encode a full :class:`Message` (all fields preserved verbatim)."""
    return encode_value(message)


def decode_message(data: bytes) -> Message:
    """Decode :func:`encode_message` output back to an equal ``Message``."""
    value = decode_value(data)
    if not isinstance(value, Message):
        raise WireError(f"wire body is a {type(value).__name__}, not a Message")
    return value


def frame(body: bytes) -> bytes:
    """Wrap an encoded body in the length-prefixed, CRC-checked frame."""
    if len(body) > MAX_FRAME:
        raise WireError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def frame_header(header: bytes, max_frame: int = MAX_FRAME) -> Tuple[int, int]:
    """Validate a 12-byte frame header; return ``(body_length, crc)``."""
    if len(header) != HEADER_SIZE:
        raise WireError(f"short frame header: {len(header)} bytes")
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds the {max_frame}-byte cap")
    return length, crc


def check_body(body: bytes, length: int, crc: int) -> bytes:
    """Verify a frame body against its header; return the body."""
    if len(body) != length:
        raise WireError(f"truncated frame: header promised {length}, got {len(body)}")
    if zlib.crc32(body) != crc:
        raise WireError("frame CRC mismatch (corrupted in transit)")
    return body


# reprolint: unreached -- check on outside input: the frame-validation fuzz tests drive
# truncated, corrupted and trailing-byte frames through it
def decode_frame(data: bytes) -> Tuple[Any, bytes]:
    """Decode one frame from a byte string; return ``(value, rest)``.

    Raises :class:`WireError` for truncated or corrupted input; never
    returns a partial value.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(f"truncated frame: {len(data)} bytes, header needs 12")
    length, crc = frame_header(bytes(data[:HEADER_SIZE]))
    end = HEADER_SIZE + length
    if len(data) < end:
        raise WireError(
            f"truncated frame: header promised {length} body bytes, "
            f"only {len(data) - HEADER_SIZE} present"
        )
    body = check_body(bytes(data[HEADER_SIZE:end]), length, crc)
    return decode_value(body), bytes(data[end:])


_register_builtin_codecs()
