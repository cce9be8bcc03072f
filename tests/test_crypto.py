from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecuchain.crypto import (
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    derive_seed,
    generate_keypair,
    sha256,
    verify,
)

# Published SHA-256 test vectors.
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)
SHA256_ABC = bytes.fromhex(
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
)


def test_sha256_test_vectors():
    assert sha256(b"") == SHA256_EMPTY
    assert sha256(b"abc") == SHA256_ABC


def test_sha256_pure_function():
    rng = random.Random(0)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 64))
        assert sha256(data) == sha256(data)


def test_keypair_deterministic_from_seed():
    seed = derive_seed(b"some-seed")
    a = generate_keypair(seed)
    b = generate_keypair(seed)
    assert a.public == b.public
    assert len(a.public) == PUBLIC_KEY_LEN
    msg = b"same signer, same bytes"
    assert a.sign(msg) == b.sign(msg)


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        generate_keypair(b"short")


def test_distinct_seeds_distinct_publics():
    publics = {
        generate_keypair(derive_seed(b"k", i.to_bytes(4, "big"))).public
        for i in range(1000)
    }
    assert len(publics) == 1000


def test_sign_verify_roundtrip(vehicle_keys):
    msg = b"attestation payload"
    sig = vehicle_keys.sign(msg)
    assert len(sig) == SIGNATURE_LEN
    assert verify(vehicle_keys.public, msg, sig)


def test_verify_rejects_flipped_message_bit(vehicle_keys):
    msg = bytearray(b"attestation payload")
    sig = vehicle_keys.sign(bytes(msg))
    msg[3] ^= 0x01
    assert not verify(vehicle_keys.public, bytes(msg), sig)


def test_verify_rejects_wrong_public_key(vehicle_keys, rsu_keys):
    sig = vehicle_keys.sign(b"msg")
    assert not verify(rsu_keys.public, b"msg", sig)


def test_verify_malformed_signature_is_false_not_error(vehicle_keys):
    sig = vehicle_keys.sign(b"msg")
    assert not verify(vehicle_keys.public, b"msg", sig[:-1])
    assert not verify(vehicle_keys.public, b"msg", b"")
    assert not verify(b"\x00" * 31, b"msg", sig)


def test_empty_message_signs_and_verifies(vehicle_keys):
    sig = vehicle_keys.sign(b"")
    assert verify(vehicle_keys.public, b"", sig)


@settings(max_examples=25, deadline=None)
@given(message=st.binary(max_size=256), pos=st.integers(min_value=0, max_value=10_000))
def test_single_byte_mutation_breaks_verification(message, pos):
    keys = generate_keypair(derive_seed(b"prop-key"))
    sig = keys.sign(message)
    assert verify(keys.public, message, sig)
    mutated_sig = bytearray(sig)
    mutated_sig[pos % len(sig)] ^= 0x40
    assert not verify(keys.public, message, bytes(mutated_sig))
    if message:
        mutated_msg = bytearray(message)
        mutated_msg[pos % len(message)] ^= 0x40
        assert not verify(keys.public, bytes(mutated_msg), sig)
