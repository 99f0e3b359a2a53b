"""Canonical binary encoding for transcripts and classical payloads.

Self-describing, length-prefixed, deterministic: the same object graph
always encodes to the same bytes, which golden-file and round-trip
tests rely on. Supported values: None, bool, int (arbitrary size),
float, bytes, str, list, dict (insertion order preserved), and numpy
arrays of bool/uint/int/float dtypes. Decoding accepts only canonical
bytes (each int has exactly one encoding) nested at most MAX_DEPTH
lists and dicts deep.
"""

from __future__ import annotations

import struct

import numpy as np


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


def _emit_len(out: bytearray, n: int) -> None:
    out += struct.pack(">I", n)


def _encode_into(obj, out: bytearray) -> None:
    if obj is None:
        out += _TAG_NONE
    elif obj is True:
        out += _TAG_TRUE
    elif obj is False:
        out += _TAG_FALSE
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
        out += _TAG_INT
        sign = 1 if obj < 0 else 0
        mag = abs(obj)
        body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
        out.append(sign)
        _emit_len(out, len(body))
        out += body
    elif isinstance(obj, (float, np.floating)):
        out += _TAG_FLOAT
        out += struct.pack(">d", float(obj))
    elif isinstance(obj, (bytes, bytearray)):
        out += _TAG_BYTES
        _emit_len(out, len(obj))
        out += bytes(obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out += _TAG_STR
        _emit_len(out, len(data))
        out += data
    elif isinstance(obj, (list, tuple)):
        out += _TAG_LIST
        _emit_len(out, len(obj))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        out += _TAG_DICT
        _emit_len(out, len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise WireError("dict keys must be strings")
            _encode_into(key, out)
            _encode_into(value, out)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "buif":
            raise WireError(f"unsupported array dtype {obj.dtype}")
        out += _TAG_ARRAY
        dt = obj.dtype.newbyteorder("<").str.encode("ascii")
        _emit_len(out, len(dt))
        out += dt
        out.append(obj.ndim)
        for dim in obj.shape:
            _emit_len(out, dim)
        raw = np.ascontiguousarray(obj.astype(obj.dtype.newbyteorder("<"))).tobytes()
        _emit_len(out, len(raw))
        out += raw
    else:
        raise WireError(f"cannot encode {type(obj).__name__}")


def encode(obj) -> bytes:
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
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
        return r.take(r.take_len())
    if tag == _TAG_STR:
        try:
            return r.take(r.take_len()).decode("utf-8")
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
            if not isinstance(key, str):
                raise WireError("dict keys must decode to strings")
            out[key] = _decode_from(r, depth + 1)
        return out
    if tag == _TAG_ARRAY:
        try:
            dt = np.dtype(r.take(r.take_len()).decode("ascii"))
        except (TypeError, ValueError, UnicodeDecodeError) as exc:
            raise WireError("bad array dtype") from exc
        if dt.kind not in "buif":
            raise WireError(f"unsupported array dtype {dt}")
        ndim = r.take(1)[0]
        shape = tuple(r.take_len() for _ in range(ndim))
        raw = r.take(r.take_len())
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        if len(raw) != count * dt.itemsize:
            raise WireError("array payload size mismatch")
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    raise WireError(f"unknown tag {tag!r}")


def decode(data: bytes):
    r = _Reader(data)
    obj = _decode_from(r)
    if r.pos != len(data):
        raise WireError("trailing bytes after payload")
    return obj


# ---------------------------------------------------------------------
# payload adapters for protocol objects that cross serialization lines
# ---------------------------------------------------------------------


def opening_payload(opening) -> dict:
    from .hbg import DealerOpening, NaorOpening, SubsetOpening

    if isinstance(opening, NaorOpening):
        return {"kind": "naor", "seeds": opening.seeds}
    if isinstance(opening, SubsetOpening):
        return {"kind": "subset", "positions": opening.positions, "seeds": opening.seeds}
    if isinstance(opening, DealerOpening):
        return {"kind": "dealer", "receipt": opening.receipt}
    raise WireError("unknown opening type")


def opening_from_payload(payload: dict):
    from .hbg import DealerOpening, NaorOpening, SubsetOpening

    kind = payload.get("kind")
    if kind == "naor":
        return NaorOpening(np.asarray(payload["seeds"], dtype=np.uint64))
    if kind == "subset":
        return SubsetOpening(
            np.asarray(payload["positions"], dtype=np.int64),
            np.asarray(payload["seeds"], dtype=np.uint64),
        )
    if kind == "dealer":
        return DealerOpening(payload["receipt"])
    raise WireError("unknown opening payload")


def hbproof_payload(proof) -> list:
    from .hbnizk import RepRevealAll, RepUseful

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
    from .hbnizk import HbProof, RepRevealAll, RepUseful

    reps = []
    for item in payload:
        kind = item.get("kind")
        if kind == "all":
            reps.append(RepRevealAll())
        elif kind == "useful":
            reps.append(RepUseful(tuple(int(v) for v in item["map"])))
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
