"""Transaction variants, challenge/response records and verdicts.

A signed type's wire-format v3 layout is its ``WIRE`` table, and
``Signable`` walks that table for ``signing_bytes()`` (a transaction's
1-byte variant ``TAG``, so a signature cannot be replayed across types,
then the fields), ``to_bytes()`` (the signing bytes plus the raw 64-byte
signature) and ``read()``. Digests and public keys are raw. An ECU id and
an ECU-list count are u16, so a vehicle has at most ``MAX_ECUS`` ECUs; an
ECU record is one packed ``>H32sQ`` struct. A challenge record embeds its
response's wire bytes unprefixed (the response's ECU count fixes their
length); the only length prefix in a transaction is on a request's query.
``signed`` is the one way to sign any of them (``signed_wire`` also returns
the wire bytes it encoded, for the ledger to keep), and ``signed_by`` the
one way to check a signature where it enters a tier; a field past its wire
width (an ECU id or list past ``MAX_ECUS``, an integer past u64) cannot be
encoded, so it fails ``signed_by``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, ClassVar, NamedTuple, Optional, TypeVar, Union, get_args

from . import crypto
from .crypto import SIGNATURE_LEN, Digest, KeyPair, PublicKey, Signature
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


class Codec(NamedTuple):
    """How one field type is written and read."""

    encode: Callable[[Any], bytes]
    read: Callable[[Reader], Any]


# Codecs call ``encode_u64``, ``encode_str`` and ``to_bytes`` by name, not
# as stored function objects, so that the e2ebench tracer sees every call.
# ``RAW32`` is a digest or a public key: both are 32 bytes.
RAW32 = Codec(lambda v: encode_fixed(v, 32), lambda r: r.read_fixed(32))
UINT16 = Codec(encode_u16, Reader.read_u16)
UINT64 = Codec(lambda v: encode_u64(v), Reader.read_u64)
TEXT = Codec(lambda v: encode_str(v), Reader.read_str)
ECU_LIST = Codec(_encode_ecu_list, _read_ecu_list)


def _read_verdict(r: Reader) -> Verdict:
    name = r.read_str()
    try:
        return Verdict(name)
    except ValueError:
        raise WireError(f"unknown verdict {name!r}") from None


VERDICT = Codec(lambda v: encode_str(v.value), _read_verdict)

S = TypeVar("S")


class Signable:
    """Base of the signed types, slotted dataclasses whose last field is
    ``sig``. On the wire, one is its ``TAG`` byte if set, then the fields
    ``WIRE`` names (field name -> codec, in declaration order, ``sig`` left
    out), then ``sig``.
    """

    __slots__ = ()
    TAG: ClassVar[Optional[int]] = None
    WIRE: ClassVar[dict[str, Codec]]

    # Loops, not comprehensions: a Python 3.11 comprehension costs a frame.
    def signing_bytes(self) -> bytes:
        parts = [] if self.TAG is None else [encode_u8(self.TAG)]
        for name, (encode, _) in self.WIRE.items():
            parts.append(encode(getattr(self, name)))
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + encode_fixed(self.sig, SIGNATURE_LEN)

    @classmethod
    def read(cls: type[S], r: Reader) -> S:
        values = []
        for _, read in cls.WIRE.values():
            values.append(read(r))
        return cls(*values, r.read_fixed(SIGNATURE_LEN))


@dataclass(frozen=True, slots=True)
class GenesisTx(Signable):
    """Vehicle registration: full ECU inventory plus its Merkle state root,
    signed by the manufacturer that assembled the vehicle.
    """

    state_root: Digest
    ts: int
    ecu_list: tuple[EcuRecord, ...]
    vehicle_pk: PublicKey
    maker_pk: PublicKey
    sig: Signature

    TAG = TAG_GENESIS
    WIRE = dict(
        state_root=RAW32, ts=UINT64, ecu_list=ECU_LIST, vehicle_pk=RAW32, maker_pk=RAW32
    )


@dataclass(frozen=True, slots=True)
class UpdateTx(Signable):
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

    TAG = TAG_UPDATE
    WIRE = dict(
        new_root=RAW32, ts=UINT64, vehicle_pk=RAW32, maintainer_pk=RAW32,
        ecu_id=UINT16, firmware_digest=RAW32,
    )


@dataclass(frozen=True, slots=True)
class RequestTx(Signable):
    """Insurer evidence request, stored on the authority audit block."""

    insurer_pk: PublicKey
    query: str
    ts: int
    sig: Signature

    TAG = TAG_REQUEST
    WIRE = dict(insurer_pk=RAW32, query=TEXT, ts=UINT64)


@dataclass(frozen=True, slots=True)
class ChallengeResponse(Signable):
    """Vehicle's answer to a challenge: current state root plus the raw
    records of the requested ECU subset, signed by the vehicle.
    """

    state_root: Digest
    subset: tuple[EcuRecord, ...]
    ts: int
    vehicle_pk: PublicKey
    sig: Signature

    WIRE = dict(state_root=RAW32, subset=ECU_LIST, ts=UINT64, vehicle_pk=RAW32)


def decode_challenge_response(data: bytes) -> ChallengeResponse:
    r = Reader(data)
    resp = ChallengeResponse.read(r)
    r.finish()
    return resp


RESPONSE = Codec(lambda v: v.to_bytes(), ChallengeResponse.read)


@dataclass(frozen=True, slots=True)
class ChallengeRecordTx(Signable):
    """A verified challenge response countersigned by the recording RSU.
    The response's wire bytes are embedded whole, with no length prefix.
    """

    response: ChallengeResponse
    rsu_pk: PublicKey
    sig: Signature

    TAG = TAG_CHALLENGE_RECORD
    WIRE = dict(response=RESPONSE, rsu_pk=RAW32)


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


_BY_TAG = {cls.TAG: cls for cls in get_args(Transaction)}


def read_transaction(r: Reader) -> Transaction:
    """The next transaction in ``r``: its tag, then its type's fields. A
    transaction's bytes fix their own length, so a reader can find where it
    ends by reading it.
    """
    tag = r.read_u8()
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise WireError(f"unknown transaction tag {tag}")
    return cls.read(r)


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tx = read_transaction(r)
    r.finish()
    return tx
