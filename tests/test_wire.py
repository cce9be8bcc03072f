from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecuchain.wire import (
    Reader,
    WireError,
    encode_bytes,
    encode_fixed,
    encode_str,
    encode_u8,
    encode_u16,
    encode_u64,
)


def test_u64_layout():
    assert encode_u64(0) == bytes.fromhex("00" * 8)
    assert encode_u64(1) == bytes.fromhex("00" * 7 + "01")
    assert encode_u64(2**64 - 1) == bytes.fromhex("ff" * 8)


def test_u64_range_checked():
    with pytest.raises(WireError):
        encode_u64(-1)
    with pytest.raises(WireError):
        encode_u64(2**64)


def test_u8_and_u16_layout_and_range_checked():
    assert encode_u8(3) == b"\x03"
    assert encode_u16(0xFFFF) == b"\xff\xff"
    r = Reader(encode_u8(255) + encode_u16(258))
    assert (r.read_u8(), r.read_u16()) == (255, 258)
    r.finish()
    for encode, past in ((encode_u8, 256), (encode_u16, 0x10000)):
        for value in (-1, past):
            with pytest.raises(WireError, match=f"u{8 * len(encode(0))} range"):
                encode(value)
    with pytest.raises(WireError):
        Reader(b"\x01").read_u16()


def test_fixed_layout_and_length_checked():
    assert encode_fixed(b"ab", 2) == b"ab"
    assert encode_fixed(b"", 0) == b""
    with pytest.raises(WireError):
        encode_fixed(b"x" * 31, 32)
    with pytest.raises(WireError):
        encode_fixed(b"x" * 33, 32)


def test_bytes_layout():
    assert encode_bytes(b"") == b"\x00\x00\x00\x00"
    assert encode_bytes(b"ab") == b"\x00\x00\x00\x02ab"


def test_reader_roundtrip():
    buf = encode_bytes(b"payload") + encode_u64(77) + encode_str("héllo")
    r = Reader(buf)
    assert r.read_bytes() == b"payload"
    assert r.read_u64() == 77
    assert r.read_str() == "héllo"
    r.finish()


def test_reader_rejects_trailing_bytes():
    r = Reader(encode_u64(1) + b"\x00")
    r.read_u64()
    with pytest.raises(WireError):
        r.finish()


def test_reader_rejects_truncation():
    buf = encode_bytes(b"abcdef")
    with pytest.raises(WireError):
        Reader(buf[:3]).read_bytes()
    with pytest.raises(WireError):
        Reader(buf[:-2]).read_bytes()


def test_reader_rejects_wrong_integer_width():
    # Integers carry no width prefix: fewer than 8 bytes is a truncated u64.
    with pytest.raises(WireError):
        Reader(bytes.fromhex("00" * 7)).read_u64()
    r = Reader(bytes.fromhex("00" * 8) + b"\x01")
    assert r.read_u64() == 0
    with pytest.raises(WireError):
        r.read_u64()


def test_read_fixed_enforces_length():
    r = Reader(b"x" * 31)
    with pytest.raises(WireError):
        r.read_fixed(32)
    r = Reader(b"x" * 32 + b"y" * 64)
    assert r.read_fixed(32) == b"x" * 32
    assert r.read_fixed(64) == b"y" * 64
    r.finish()


def test_reader_rejects_invalid_utf8():
    with pytest.raises(WireError):
        Reader(encode_bytes(b"\xff\xfe")).read_str()


@given(
    fields=st.lists(
        st.one_of(
            st.binary(max_size=64),
            st.integers(min_value=0, max_value=2**64 - 1),
            st.text(max_size=32),
        ),
        max_size=12,
    )
)
def test_field_sequence_roundtrip(fields):
    encoded = b"".join(
        encode_bytes(f)
        if isinstance(f, bytes)
        else encode_u64(f)
        if isinstance(f, int)
        else encode_str(f)
        for f in fields
    )
    r = Reader(encoded)
    for f in fields:
        if isinstance(f, bytes):
            assert r.read_bytes() == f
        elif isinstance(f, int):
            assert r.read_u64() == f
        else:
            assert r.read_str() == f
    r.finish()
