"""Wire format v3: the canonical byte encoding used for signing and hashing.

Rules: fields are encoded in declaration order. An integer is raw
big-endian bytes, as wide as its domain: a transaction's variant tag is 1
byte, an ECU id or ECU-list count 2 bytes, and every other integer
(timestamps, sequence numbers) 8 bytes. A
fixed-width field (a 32-byte digest or public key, a 64-byte signature) is
written raw, its width fixed by its type. Only a variable-length field
carries a 4-byte big-endian length prefix: a UTF-8 string, or nested wire
bytes whose length nothing else fixes. A list is an element count followed
by the elements' fields. Every field has one width, so decoding is
canonical: it must consume the input exactly, and what decodes re-encodes
to the same bytes.
"""

from __future__ import annotations

import struct
from typing import Callable, TypeVar

T = TypeVar("T")

U8 = struct.Struct(">B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")

U64_MAX = 2**64 - 1


class WireError(ValueError):
    """Raised when bytes do not parse as well-formed wire format v3, or a
    value cannot be encoded in it.
    """


def encode_bytes(value: bytes) -> bytes:
    """A variable-length field: u32 length prefix, then the bytes."""
    return U32.pack(len(value)) + value


def encode_fixed(value: bytes, n: int) -> bytes:
    """A fixed-width field: the ``n`` bytes of ``value``, unprefixed."""
    if len(value) != n:
        raise WireError(f"expected {n}-byte field, got {len(value)}")
    return value


def _encode_int(fmt: struct.Struct, value: int) -> bytes:
    try:
        return fmt.pack(value)
    except struct.error:
        raise WireError(f"integer out of u{8 * fmt.size} range: {value!r}") from None


def encode_u8(value: int) -> bytes:
    return _encode_int(U8, value)


def encode_u16(value: int) -> bytes:
    return _encode_int(U16, value)


def encode_u64(value: int) -> bytes:
    return _encode_int(U64, value)


def encode_str(value: str) -> bytes:
    return encode_bytes(value.encode("utf-8"))


class Reader:
    """Sequential field reader from offset ``pos`` of ``data``, enforcing
    exact consumption to the end of ``data``.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    def read_bytes(self) -> bytes:
        end = self._pos + 4
        if end > len(self._data):
            raise WireError("truncated length prefix")
        (length,) = U32.unpack_from(self._data, self._pos)
        self._pos = end + length
        if self._pos > len(self._data):
            raise WireError("field overruns buffer")
        return self._data[end : self._pos]

    def read_u8(self) -> int:
        return self.read_fixed(1)[0]

    def read_u16(self) -> int:
        return U16.unpack(self.read_fixed(2))[0]

    def read_u64(self) -> int:
        return U64.unpack(self.read_fixed(8))[0]

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid UTF-8 in string field") from exc

    def read_with_bytes(self, read: Callable[["Reader"], T]) -> tuple[T, bytes]:
        """``read(self)`` and the bytes it read."""
        start = self._pos
        value = read(self)
        return value, self._data[start : self._pos]

    def read_fixed(self, n: int) -> bytes:
        """The next ``n`` raw bytes."""
        start = self._pos
        end = start + n
        if end > len(self._data):
            raise WireError(f"expected {n}-byte field, got {len(self._data) - start}")
        self._pos = end
        return self._data[start:end]

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def finish(self) -> None:
        if self.remaining:
            raise WireError(f"{self.remaining} trailing bytes")
