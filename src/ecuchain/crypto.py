"""Hashing, seeded key pairs and signatures shared by every other module.

Ed25519 keeps runs reproducible: signing is deterministic and key pairs
derive from explicit 32-byte seeds, never from ambient randomness, so a
scenario replayed with the same seed emits byte-identical artifacts.
Signing and verifying call the system libsodium through ``ctypes``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
from dataclasses import dataclass, field

DIGEST_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64
SEED_LEN = 32

ZERO_DIGEST = b"\x00" * DIGEST_LEN

# Type aliases; all three are raw byte strings of the fixed lengths above.
Digest = bytes
PublicKey = bytes
Signature = bytes


def _load_sodium() -> ctypes.CDLL:
    path = ctypes.util.find_library("sodium")
    if path is None:
        raise ImportError("libsodium not found (Debian/Ubuntu: install libsodium23)")
    lib = ctypes.CDLL(path)
    if lib.sodium_init() < 0:
        raise ImportError("libsodium's sodium_init() failed")
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    for function, argtypes in (
        (lib.crypto_sign_ed25519_seed_keypair, [buf, buf, buf]),
        (lib.crypto_sign_ed25519_detached, [buf, ctypes.c_void_p, buf, size, buf]),
        (lib.crypto_sign_ed25519_verify_detached, [buf, buf, size, buf]),
    ):
        function.argtypes, function.restype = argtypes, ctypes.c_int
    return lib


_sodium = _load_sodium()


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
    _secret: bytes = field(repr=False, compare=False)  # libsodium's seed ‖ public

    def sign(self, message: bytes) -> Signature:
        sig = ctypes.create_string_buffer(SIGNATURE_LEN)
        _sodium.crypto_sign_ed25519_detached(sig, None, message, len(message), self._secret)
        return sig.raw


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a key pair from a 32-byte seed; equal seeds give equal pairs."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    public = ctypes.create_string_buffer(PUBLIC_KEY_LEN)
    secret = ctypes.create_string_buffer(SEED_LEN + PUBLIC_KEY_LEN)
    _sodium.crypto_sign_ed25519_seed_keypair(public, secret, seed)
    return KeyPair(public=public.raw, _secret=secret.raw)


def verify(public: PublicKey, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` was produced over ``message`` by the key matching
    ``public``. Anything but ``bytes`` of the right lengths verifies as False,
    never raises, and never reaches C, which would read past a short buffer.
    libsodium also rejects small-order and non-canonical keys and ``R``.
    """
    if not (isinstance(public, bytes) and isinstance(message, bytes) and isinstance(sig, bytes)):
        return False
    if len(public) != PUBLIC_KEY_LEN or len(sig) != SIGNATURE_LEN:
        return False
    return _sodium.crypto_sign_ed25519_verify_detached(sig, message, len(message), public) == 0
