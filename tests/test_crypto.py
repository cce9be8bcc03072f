from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import ecuchain.crypto
from ecuchain.crypto import (
    PUBLIC_KEY_LEN,
    SEED_LEN,
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


_KEYS = generate_keypair(derive_seed(b"malformed"))
_ARGS = {"key": _KEYS.public, "message": b"msg", "sig": _KEYS.sign(b"msg")}
_NOT_BYTES = {
    "bytearray": bytearray,
    "memoryview": memoryview,
    "str": bytes.hex,
    "None": lambda _: None,
}


def _with(position: str, value) -> tuple:
    args = dict(_ARGS, **{position: value})
    return args["key"], args["message"], args["sig"]


# Arguments that verify must turn away before C sees them: a value that is
# not ``bytes`` in each position, and a key or signature a byte short or
# long, which C would read past or misread.
MALFORMED_ARGUMENTS = [
    *[
        pytest.param(*_with(position, convert(_ARGS[position])), id=f"{position}-{name}")
        for position in _ARGS
        for name, convert in _NOT_BYTES.items()
    ],
    pytest.param(*_with("key", _ARGS["key"][:-1]), id="key-31-bytes"),
    pytest.param(*_with("key", _ARGS["key"] + b"\x00"), id="key-33-bytes"),
    pytest.param(*_with("sig", _ARGS["sig"][:-1]), id="sig-63-bytes"),
    pytest.param(*_with("sig", _ARGS["sig"] + b"\x00"), id="sig-65-bytes"),
]


@pytest.mark.parametrize("public, message, sig", MALFORMED_ARGUMENTS)
def test_verify_malformed_argument_is_false_not_error(public, message, sig):
    assert verify(_ARGS["key"], _ARGS["message"], _ARGS["sig"])
    assert verify(public, message, sig) is False


# The identity point's encoding as a public key, and a signature whose R is
# that point and whose s is 0: [s]B = R + [k]A holds for every message k.
IDENTITY_KEY = b"\x01" + bytes(31)
IDENTITY_FORGERY = b"\x01" + bytes(31) + bytes(32)


@pytest.mark.parametrize(
    "message", [b"", b"msg", bytes(64), b"\xff" * 1000], ids=["empty", "msg", "zeros-64", "ff-1000"]
)
def test_verify_rejects_identity_key_forgery(message):
    assert not verify(IDENTITY_KEY, message, IDENTITY_FORGERY)


# RFC 8032 section 7.1, TEST 1.
RFC8032_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
RFC8032_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
RFC8032_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def test_rfc8032_test_1():
    keys = generate_keypair(RFC8032_SEED)
    assert keys.public == RFC8032_PUBLIC
    assert keys.sign(b"") == RFC8032_SIGNATURE
    assert verify(RFC8032_PUBLIC, b"", RFC8032_SIGNATURE)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.binary(min_size=SEED_LEN, max_size=SEED_LEN),
    message=st.binary(max_size=512),
)
def test_matches_reference_implementation(seed, message):
    """``cryptography`` (OpenSSL) derives the same key and signature bytes,
    and each side verifies the other's signature."""
    keys = generate_keypair(seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    assert keys.public == reference.public_key().public_bytes_raw()
    sig, reference_sig = keys.sign(message), reference.sign(message)
    assert sig == reference_sig
    assert verify(keys.public, message, reference_sig)
    Ed25519PublicKey.from_public_bytes(keys.public).verify(sig, message)


def test_import_without_libsodium_is_an_import_error_naming_it():
    code = (
        "import ctypes.util\n"
        "ctypes.util.find_library = lambda name: None\n"
        "try:\n"
        "    import ecuchain.crypto\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    package_root = Path(ecuchain.crypto.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(package_root)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "libsodium" in result.stdout


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
