"""Wire format v1: the canonical byte encoding used for signing and hashing.

Rules: fields are encoded in declaration order; every field is a 4-byte
big-endian length prefix followed by the raw bytes; integer fields encode
as 8 big-endian bytes (so they appear as ``00000008`` + value); strings
are UTF-8; a list is an integer element count followed by the elements'
fields. Decoding must consume the input exactly.
"""

from __future__ import annotations

import struct

U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")

U64_MAX = 2**64 - 1


class WireError(ValueError):
    """Raised when bytes do not parse as well-formed wire format v1."""


def encode_bytes(value: bytes) -> bytes:
    return U32.pack(len(value)) + value


def encode_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise WireError(f"integer out of u64 range: {value}")
    return U32.pack(8) + U64.pack(value)


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

    def read_u64(self) -> int:
        raw = self.read_bytes()
        if len(raw) != 8:
            raise WireError(f"integer field must be 8 bytes, got {len(raw)}")
        return U64.unpack(raw)[0]

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid UTF-8 in string field") from exc

    def read_fixed(self, expected_len: int) -> bytes:
        raw = self.read_bytes()
        if len(raw) != expected_len:
            raise WireError(f"expected {expected_len}-byte field, got {len(raw)}")
        return raw

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def finish(self) -> None:
        if not self.exhausted:
            raise WireError(f"{len(self._data) - self._pos} trailing bytes")
