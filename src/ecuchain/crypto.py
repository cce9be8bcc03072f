"""Hashing, seeded key pairs and signatures shared by every other module.

Ed25519 keeps runs reproducible: signing is deterministic and key pairs
derive from explicit 32-byte seeds, never from ambient randomness, so a
scenario replayed with the same seed emits byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64
SEED_LEN = 32

ZERO_DIGEST = b"\x00" * DIGEST_LEN

# Type aliases; all three are raw byte strings of the fixed lengths above.
Digest = bytes
PublicKey = bytes
Signature = bytes


def sha256(data: bytes) -> Digest:
    """SHA-256 of ``data`` as a 32-byte digest."""
    return hashlib.sha256(data).digest()


def derive_seed(*parts: bytes) -> bytes:
    """Stable 32-byte seed from labelled parts (key derivation for scenarios)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 key pair; ``public`` (32 raw bytes) is the node's identity."""

    public: PublicKey
    _signer: Ed25519PrivateKey = field(repr=False, compare=False)

    def sign(self, message: bytes) -> Signature:
        return self._signer.sign(message)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a key pair from a 32-byte seed; equal seeds give equal pairs."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    signer = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(public=signer.public_key().public_bytes_raw(), _signer=signer)


def verify(public: PublicKey, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` was produced over ``message`` by the key matching
    ``public``. Malformed key or signature bytes verify as False, never raise.
    """
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(sig, message)
    except (InvalidSignature, ValueError, TypeError):
        return False
    return True
