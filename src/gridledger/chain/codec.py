"""Canonical binary encoding shared by every ledger structure.

Fixed-width little-endian integers, IEEE doubles encoded bitwise, and
u32-length-prefixed containers; decoding is strict and rejects trailing
bytes.  Two encoders that receive equal values always produce equal bytes,
so digests over encodings are stable across processes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence

__all__ = [
    "CodecError",
    "Reader",
    "Writer",
    "digest",
    "hexdigest",
]


class CodecError(ValueError):
    """Malformed, truncated or over-long canonical bytes."""


def digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def hexdigest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class Writer:
    """Append-only canonical encoder."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, v: int) -> "Writer":
        if not 0 <= v < 2 ** 8:
            raise CodecError(f"u8 out of range: {v}")
        self._parts.append(v.to_bytes(1, "little"))
        return self

    def u32(self, v: int) -> "Writer":
        if not 0 <= v < 2 ** 32:
            raise CodecError(f"u32 out of range: {v}")
        self._parts.append(v.to_bytes(4, "little"))
        return self

    def u64(self, v: int) -> "Writer":
        if not 0 <= v < 2 ** 64:
            raise CodecError(f"u64 out of range: {v}")
        self._parts.append(v.to_bytes(8, "little"))
        return self

    def f64(self, v: float) -> "Writer":
        self._parts.append(struct.pack("<d", v))
        return self

    def raw(self, b: bytes) -> "Writer":
        self._parts.append(bytes(b))
        return self

    def blob(self, b: bytes) -> "Writer":
        self.u32(len(b))
        self._parts.append(bytes(b))
        return self

    def text(self, s: str) -> "Writer":
        return self.blob(s.encode("utf-8"))

    def f64_list(self, vs: Sequence[float]) -> "Writer":
        self.u32(len(vs))
        self._parts.append(struct.pack(f"<{len(vs)}d", *vs))
        return self

    def take(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Strict decoder over one canonical byte string."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def _need(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise CodecError(
                f"truncated: wanted {count} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}")
        out = self._data[self._pos:self._pos + count]
        self._pos += count
        return out

    def u8(self) -> int:
        return self._need(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._need(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self._need(8), "little")

    def blob(self) -> bytes:
        return self._need(self.u32())

    def f64_list(self) -> List[float]:
        count = self.u32()
        if self._pos + 8 * count > len(self._data):
            raise CodecError(f"truncated f64 list of {count} entries")
        return list(struct.unpack(f"<{count}d", self._need(8 * count)))

    def done(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes at offset "
                f"{self._pos}")
