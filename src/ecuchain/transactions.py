"""Transaction variants, challenge/response records and verdicts.

Every signed structure exposes ``signing_bytes()`` (canonical wire-format
v3 bytes with the signature field ``sig`` omitted) and ``to_bytes()``
(signing bytes plus the raw 64-byte signature appended). Each transaction
encoding starts with its 1-byte variant tag so a signature can never be
replayed across types. Digests and public keys are written raw. An ECU id
and an ECU-list count are u16, so a vehicle has at most ``MAX_ECUS`` ECUs,
and each ECU record is one packed ``>H32sQ`` struct (id, firmware digest,
last-write time), 42 bytes. A challenge record embeds its response's wire
bytes unprefixed: the response's own ECU count fixes their length. The only
length prefix inside a transaction is on a request's query string.
``signed`` is the one way to sign any of them (``signed_wire`` also hands
back the wire bytes it encoded, for the ledger to keep), and ``signed_by``
the one way to check a signature where it enters a tier; a field past its
wire width (an ECU id or list past ``MAX_ECUS``, an integer past u64)
cannot be encoded, so it fails ``signed_by``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import TypeVar, Union

from . import crypto
from .crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    Digest,
    KeyPair,
    PublicKey,
    Signature,
)
from .ecu import EcuRecord
from .wire import (
    Reader,
    WireError,
    encode_fixed,
    encode_str,
    encode_u8,
    encode_u16,
    encode_u64,
)

TAG_GENESIS = 0
TAG_UPDATE = 1
TAG_REQUEST = 2
TAG_CHALLENGE_RECORD = 3


class Verdict(Enum):
    """Outcome of verifying a challenge response at a roadside unit."""

    VALID = "Valid"
    UNKNOWN_VEHICLE = "UnknownVehicle"
    BAD_SIGNATURE = "BadSignature"
    STATE_MISMATCH = "StateMismatch"
    SUBSET_MISMATCH = "SubsetMismatch"
    STALE_TIMESTAMP = "StaleTimestamp"


# The largest ECU id and the longest ECU list: both are a u16 on the wire.
MAX_ECUS = 0xFFFF

# One ECU record: ecu_id (u16), firmware digest (32 bytes), last-write ts (u64).
# ``32s`` would pad a short digest, but ``EcuRecord`` only holds 32-byte ones.
ECU_RECORD = struct.Struct(">H32sQ")


def _encode_ecu_list(records: tuple[EcuRecord, ...]) -> bytes:
    pack = ECU_RECORD.pack
    try:
        packed = [pack(r.ecu_id, r.firmware_digest, r.last_write_ts) for r in records]
    except struct.error as exc:
        raise WireError(f"ECU record not encodable: {exc}") from None
    return encode_u16(len(records)) + b"".join(packed)


def _read_ecu_list(r: Reader) -> tuple[EcuRecord, ...]:
    count = r.read_u16()
    if count > r.remaining // ECU_RECORD.size:
        raise WireError(f"ECU list of {count} records overruns buffer")
    raw = r.read_fixed(count * ECU_RECORD.size)
    return tuple(EcuRecord(*fields) for fields in ECU_RECORD.iter_unpack(raw))


@dataclass(frozen=True, slots=True)
class GenesisTx:
    """Vehicle registration: full ECU inventory plus its Merkle state root,
    signed by the manufacturer that assembled the vehicle.
    """

    state_root: Digest
    ts: int
    ecu_list: tuple[EcuRecord, ...]
    vehicle_pk: PublicKey
    maker_pk: PublicKey
    sig: Signature

    def signing_bytes(self) -> bytes:
        return b"".join(
            (
                encode_u8(TAG_GENESIS),
                encode_fixed(self.state_root, DIGEST_LEN),
                encode_u64(self.ts),
                _encode_ecu_list(self.ecu_list),
                encode_fixed(self.vehicle_pk, PUBLIC_KEY_LEN),
                encode_fixed(self.maker_pk, PUBLIC_KEY_LEN),
            )
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)


@dataclass(frozen=True, slots=True)
class UpdateTx:
    """Authorized maintenance of one ECU, signed by the manufacturer or
    technician that performed it. ``ecu_id``, ``firmware_digest`` and ``ts``
    are the ECU's new record (``ts`` is its last-write time); ``new_root`` is
    the vehicle's state root with that record in place.
    """

    new_root: Digest
    ts: int
    vehicle_pk: PublicKey
    maintainer_pk: PublicKey
    ecu_id: int
    firmware_digest: Digest
    sig: Signature

    def signing_bytes(self) -> bytes:
        return b"".join(
            (
                encode_u8(TAG_UPDATE),
                encode_fixed(self.new_root, DIGEST_LEN),
                encode_u64(self.ts),
                encode_fixed(self.vehicle_pk, PUBLIC_KEY_LEN),
                encode_fixed(self.maintainer_pk, PUBLIC_KEY_LEN),
                encode_u16(self.ecu_id),
                encode_fixed(self.firmware_digest, DIGEST_LEN),
            )
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)


@dataclass(frozen=True, slots=True)
class RequestTx:
    """Insurer evidence request, stored on the authority audit block."""

    insurer_pk: PublicKey
    query: str
    ts: int
    sig: Signature

    def signing_bytes(self) -> bytes:
        return b"".join(
            (
                encode_u8(TAG_REQUEST),
                encode_fixed(self.insurer_pk, PUBLIC_KEY_LEN),
                encode_str(self.query),
                encode_u64(self.ts),
            )
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)


@dataclass(frozen=True, slots=True)
class ChallengeResponse:
    """Vehicle's answer to a challenge: current state root plus the raw
    records of the requested ECU subset, signed by the vehicle.
    """

    state_root: Digest
    subset: tuple[EcuRecord, ...]
    ts: int
    vehicle_pk: PublicKey
    sig: Signature

    def signing_bytes(self) -> bytes:
        return b"".join(
            (
                encode_fixed(self.state_root, DIGEST_LEN),
                _encode_ecu_list(self.subset),
                encode_u64(self.ts),
                encode_fixed(self.vehicle_pk, PUBLIC_KEY_LEN),
            )
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)


def read_challenge_response(r: Reader) -> ChallengeResponse:
    return ChallengeResponse(
        state_root=r.read_fixed(DIGEST_LEN),
        subset=_read_ecu_list(r),
        ts=r.read_u64(),
        vehicle_pk=r.read_fixed(PUBLIC_KEY_LEN),
        sig=r.read_fixed(SIGNATURE_LEN),
    )


def decode_challenge_response(data: bytes) -> ChallengeResponse:
    r = Reader(data)
    resp = read_challenge_response(r)
    r.finish()
    return resp


@dataclass(frozen=True, slots=True)
class ChallengeRecordTx:
    """A verified challenge response countersigned by the recording RSU.
    The response's wire bytes are embedded whole, with no length prefix.
    """

    response: ChallengeResponse
    rsu_pk: PublicKey
    sig: Signature

    def signing_bytes(self) -> bytes:
        return b"".join(
            (
                encode_u8(TAG_CHALLENGE_RECORD),
                self.response.to_bytes(),
                encode_fixed(self.rsu_pk, PUBLIC_KEY_LEN),
            )
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)


Transaction = Union[GenesisTx, UpdateTx, RequestTx, ChallengeRecordTx]


@dataclass(frozen=True, slots=True)
class Challenge:
    """RSU's twofold challenge: prove the state root and reveal the raw
    records of a randomly selected ECU subset. Challenges are unsigned;
    freshness relies on the response-timestamp check.
    """

    rsu_pk: PublicKey
    vehicle_pk: PublicKey
    subset_indices: tuple[int, ...]
    issued_ts: int


def tx_signer(tx: Transaction) -> PublicKey:
    """The public key whose signature ``tx.sig`` must be."""
    if isinstance(tx, GenesisTx):
        return tx.maker_pk
    if isinstance(tx, UpdateTx):
        return tx.maintainer_pk
    if isinstance(tx, RequestTx):
        return tx.insurer_pk
    return tx.rsu_pk


S = TypeVar("S")


def signed_wire(unsigned: S, keys: KeyPair) -> tuple[S, bytes]:
    """``unsigned`` with ``sig`` set to ``keys``' signature over its signing
    bytes, which are encoded once, here, and the signed object's wire bytes
    (the signing bytes followed by the signature).
    """
    message = unsigned.signing_bytes()
    sig = keys.sign(message)
    return replace(unsigned, sig=sig), message + encode_fixed(sig, SIGNATURE_LEN)


def signed(unsigned: S, keys: KeyPair) -> S:
    """``unsigned`` signed by ``keys``, as ``signed_wire`` signs it."""
    return signed_wire(unsigned, keys)[0]


def signed_by(obj, signer: PublicKey) -> bool:
    """True iff ``obj.sig`` is ``signer``'s signature over ``obj``'s signing
    bytes. Never raises: fields the wire format cannot encode cannot carry a
    valid signature, and malformed key or signature bytes do not verify.
    """
    try:
        message = obj.signing_bytes()
    except WireError:
        return False
    return crypto.verify(signer, message, obj.sig)


def tx_vehicle(tx: Transaction) -> PublicKey | None:
    """The vehicle a transaction is addressed to; None for audit-only txs."""
    if isinstance(tx, (GenesisTx, UpdateTx)):
        return tx.vehicle_pk
    if isinstance(tx, ChallengeRecordTx):
        return tx.response.vehicle_pk
    return None


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tag = r.read_u8()
    tx: Transaction
    if tag == TAG_GENESIS:
        tx = GenesisTx(
            state_root=r.read_fixed(DIGEST_LEN),
            ts=r.read_u64(),
            ecu_list=_read_ecu_list(r),
            vehicle_pk=r.read_fixed(PUBLIC_KEY_LEN),
            maker_pk=r.read_fixed(PUBLIC_KEY_LEN),
            sig=r.read_fixed(SIGNATURE_LEN),
        )
    elif tag == TAG_UPDATE:
        tx = UpdateTx(
            new_root=r.read_fixed(DIGEST_LEN),
            ts=r.read_u64(),
            vehicle_pk=r.read_fixed(PUBLIC_KEY_LEN),
            maintainer_pk=r.read_fixed(PUBLIC_KEY_LEN),
            ecu_id=r.read_u16(),
            firmware_digest=r.read_fixed(DIGEST_LEN),
            sig=r.read_fixed(SIGNATURE_LEN),
        )
    elif tag == TAG_REQUEST:
        tx = RequestTx(
            insurer_pk=r.read_fixed(PUBLIC_KEY_LEN),
            query=r.read_str(),
            ts=r.read_u64(),
            sig=r.read_fixed(SIGNATURE_LEN),
        )
    elif tag == TAG_CHALLENGE_RECORD:
        tx = ChallengeRecordTx(
            response=read_challenge_response(r),
            rsu_pk=r.read_fixed(PUBLIC_KEY_LEN),
            sig=r.read_fixed(SIGNATURE_LEN),
        )
    else:
        raise WireError(f"unknown transaction tag {tag}")
    r.finish()
    return tx
