"""Canonical binary encoding for transcripts and classical payloads.

Self-describing, length-prefixed, deterministic: the same object graph
always encodes to the same bytes, which golden-file and round-trip
tests rely on. Supported values: None, bool, int (arbitrary size),
float, bytes, str, list, dict (insertion order preserved), and numpy
arrays of bool/uint/int/float dtypes. Decoding accepts only canonical
bytes (one spelling per int, array dtype and bool array byte; no
repeated dict key) nested at most MAX_DEPTH lists and dicts deep.
Decoded arrays are read-only views into the decoded buffer, not copies.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .bits import int_array
from .hbg import DealerOpening, NaorOpening
from .hbnizk import HbProof, RepRevealAll, RepUseful


class WireError(ValueError):
    """Malformed or truncated wire data."""


MAX_DEPTH = 64


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"X"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_DICT = b"D"
_TAG_ARRAY = b"A"


def _len(n: int) -> bytes:
    return struct.pack(">I", n)


def _encode_into(obj, out: list) -> None:
    """Append the encoding of obj to out as a list of byte pieces.

    `encode` joins the pieces once, so a large array or bytes payload is
    copied exactly once, into the result."""
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
        mag = abs(obj)
        body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
        out.append(_TAG_INT + (b"\x01" if obj < 0 else b"\x00") + _len(len(body)) + body)
    elif isinstance(obj, (float, np.floating)):
        out.append(_TAG_FLOAT + struct.pack(">d", float(obj)))
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_TAG_BYTES + _len(len(obj)))
        out.append(bytes(obj))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(_TAG_STR + _len(len(data)) + data)
    elif isinstance(obj, (list, tuple)):
        out.append(_TAG_LIST + _len(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        out.append(_TAG_DICT + _len(len(obj)))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise WireError("dict keys must be strings")
            _encode_into(key, out)
            _encode_into(value, out)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "buif":
            raise WireError(f"unsupported array dtype {obj.dtype}")
        le = obj.dtype.newbyteorder("<")
        dt = le.str.encode("ascii")
        # no copy when obj is already little-endian and C-contiguous
        raw = np.ascontiguousarray(obj.astype(le, copy=False))
        shape = b"".join(_len(dim) for dim in obj.shape)
        out.append(_TAG_ARRAY + _len(len(dt)) + dt + bytes([obj.ndim]) + shape + _len(raw.nbytes))
        out.append(raw)  # joined through the buffer protocol
    else:
        raise WireError(f"cannot encode {type(obj).__name__}")


def encode(obj, prefix: bytes = b"") -> bytes:
    """prefix followed by the encoding of obj, joined in one copy."""
    out: list = [prefix]
    _encode_into(obj, out)
    return b"".join(out)


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise WireError("truncated wire data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def take_len(self) -> int:
        (n,) = struct.unpack(">I", self.take(4))
        if n > len(self.data):
            raise WireError("length field exceeds payload")
        return n


def _decode_from(r: _Reader, depth: int = 0):
    tag = r.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        sign = r.take(1)[0]
        body = r.take(r.take_len())
        if sign > 1 or not body or (len(body) > 1 and body[0] == 0) or (sign and body == b"\x00"):
            raise WireError("non-canonical int")
        value = int.from_bytes(body, "big")
        return -value if sign else value
    if tag == _TAG_FLOAT:
        (v,) = struct.unpack(">d", r.take(8))
        return v
    if tag == _TAG_BYTES:
        return r.take(r.take_len()).tobytes()
    if tag == _TAG_STR:
        try:
            return str(r.take(r.take_len()), "utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("bad string payload") from exc
    if tag in (_TAG_LIST, _TAG_DICT) and depth >= MAX_DEPTH:
        raise WireError(f"nesting deeper than {MAX_DEPTH}")
    if tag == _TAG_LIST:
        return [_decode_from(r, depth + 1) for _ in range(r.take_len())]
    if tag == _TAG_DICT:
        out = {}
        for _ in range(r.take_len()):
            key = _decode_from(r, depth + 1)
            if not isinstance(key, str) or key in out:
                raise WireError("dict keys must decode to distinct strings")
            out[key] = _decode_from(r, depth + 1)
        return out
    if tag == _TAG_ARRAY:
        try:
            dt = np.dtype(field := str(r.take(r.take_len()), "ascii"))
        except (TypeError, ValueError, UnicodeDecodeError) as exc:
            raise WireError("bad array dtype") from exc
        # the one spelling encode writes: the little-endian dtype's str
        if dt.kind not in "buif" or dt.newbyteorder("<").str != field:
            raise WireError(f"unsupported or non-canonical array dtype {field!r}")
        ndim = r.take(1)[0]
        shape = tuple(r.take_len() for _ in range(ndim))
        raw = r.take(r.take_len())
        if len(raw) != math.prod(shape) * dt.itemsize:  # Python ints: an int64 product can wrap
            raise WireError("array payload size mismatch")
        if dt.kind == "b" and np.frombuffer(raw, dtype=np.uint8).max(initial=0) > 1:
            raise WireError("bool array bytes must be 0 or 1")
        try:
            arr = np.frombuffer(raw, dtype=dt).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise WireError(f"array of {ndim} dimensions") from exc
        arr.flags.writeable = False
        return arr
    raise WireError(f"unknown tag {bytes(tag)!r}")


def decode(data: bytes | bytearray | memoryview):
    """The object encoded in data. Arrays come back as read-only views
    into data (no copy), so data must not change while they are in
    use; bytes and str leaves are copies of their own payload."""
    try:
        view = memoryview(data).cast("B")
    except TypeError as exc:
        raise WireError(f"cannot decode {type(data).__name__}") from exc
    r = _Reader(view)
    obj = _decode_from(r)
    if r.pos != len(view):
        raise WireError("trailing bytes after payload")
    return obj


# ---------------------------------------------------------------------
# payload adapters for protocol objects that cross serialization lines
# ---------------------------------------------------------------------


def opening_payload(opening) -> dict:
    if isinstance(opening, NaorOpening):
        return {"kind": "naor", "seeds": opening.seeds}
    if isinstance(opening, DealerOpening):
        return {"kind": "dealer", "receipt": opening.receipt}
    raise WireError("unknown opening type")


def opening_from_payload(payload: dict):
    """The opening in payload; WireError unless a naor opening's seeds are an integer array."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "naor":
        if not int_array(payload.get("seeds")):
            raise WireError("a naor opening's seeds must be an integer array")
        return NaorOpening(payload["seeds"])
    if kind == "dealer" and isinstance(payload.get("receipt"), bytes):
        return DealerOpening(payload["receipt"])
    raise WireError("unknown opening payload")


def hbproof_payload(proof) -> list:
    out = []
    for rep in proof.reps:
        if isinstance(rep, RepRevealAll):
            out.append({"kind": "all"})
        elif isinstance(rep, RepUseful):
            out.append({"kind": "useful", "map": list(rep.vertex_map)})
        else:
            raise WireError("unknown repetition proof")
    return out


def hbproof_from_payload(payload: list):
    if not isinstance(payload, list):
        raise WireError("proof payload must be a list")
    reps = []
    for item in payload:
        kind = item.get("kind") if isinstance(item, dict) else None
        if kind == "all":
            reps.append(RepRevealAll())
        elif kind == "useful":
            vertex_map = item.get("map")
            # exactly ints: int() would floor 1.5 and accept True
            if not isinstance(vertex_map, list) or any(type(v) is not int for v in vertex_map):
                raise WireError("a useful repetition's map must be a list of ints")
            reps.append(RepUseful(tuple(vertex_map)))
        else:
            raise WireError("unknown repetition payload")
    return HbProof(tuple(reps))


__all__ = [
    "WireError",
    "decode",
    "encode",
    "hbproof_from_payload",
    "hbproof_payload",
    "opening_from_payload",
    "opening_payload",
]
