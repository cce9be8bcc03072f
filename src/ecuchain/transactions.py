"""Transaction variants, challenge/response records and verdicts.

A signed type's wire-format v3 layout is its ``WIRE`` table, and
``Signable`` walks that table for ``signing_bytes()`` (a transaction's
1-byte variant ``TAG``, so a signature cannot be replayed across types,
then the fields), ``to_bytes()`` (the signing bytes plus the raw 64-byte
signature) and ``read()``; ``decode`` reads one value from bytes.
Digests and public keys are raw. An ECU id and an ECU-list count are
u16, so a vehicle has at most ``MAX_ECUS`` ECUs. Every ECU list is a
u16 count, then one packed struct per item (``_packed``). An ECU record
(``ecu.EcuRecord``) is a ``>32sQ`` row, its digest and write time, and
its id is its position: a genesis inventory lists every ECU in id order,
so it stores rows alone, and a response pairs each record it reveals
with its id, one ``>H32sQ`` struct. A challenge record keeps, of the
Valid response it records, only what the fold over its block
(``ledger.apply_entry``) cannot derive: the u16 ids of its k ECUs, its
``ts`` and the vehicle's signature. The state root and the ECU records
are the state's, which the fold holds, so it rebuilds the response and
checks that signature. The only length
prefix in a transaction is on a request's query. A response (106 + 42k
B) names no vehicle, and a record (171 + 2k B) stores none. A
transaction's owner is the key of the block that keeps it (the audit
block's, for a request), and its signer's signature covers that key
after the tag without storing it. Each signed type names its signer's
key field in ``SIGNER``; a response, signed by its owner, has none.
``signed_wire(unsigned, keys, owner)`` is the one way to sign and
returns the wire bytes that are sent and kept, and
``signed_by(tx, wire, owner)`` the one way to check a signature, over
the bytes ``tx`` was decoded from. A
``LedgerHead`` is not a transaction: the authority validators sign it,
with no owner, to seal a tier ledger (see ``ledger.SealedHead``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, ClassVar, NamedTuple, Optional, TypeVar, Union, get_args

from . import crypto
from .crypto import SIGNATURE_LEN, Digest, KeyPair, PublicKey, Signature
from .ecu import EcuRecord
from .wire import (
    U16,
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
# Not a transaction tag: a head can never be read as a ledger entry.
TAG_LEDGER_HEAD = 4


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

# One response entry: ECU id (u16), firmware digest (32 bytes), last-write
# ts (u64). ``32s`` would pad a short digest, but ``EcuRecord`` only holds
# 32-byte ones.
ECU_RECORD = struct.Struct(">H32sQ")
# One genesis inventory row: the same without the id, which is its position.
INVENTORY_RECORD = struct.Struct(">32sQ")


def _read_verdict(r: Reader) -> Verdict:
    value = r.read_str()
    try:
        return Verdict(value)
    except ValueError:
        raise WireError(f"unknown verdict {value!r}") from None


class Codec(NamedTuple):
    """How one field type is written and read."""

    encode: Callable[[Any], bytes]
    read: Callable[[Reader], Any]


def _packed(
    record: struct.Struct, row: Callable[[Any], tuple], item: Callable[[tuple], Any]
) -> Codec:
    """A u16 count, then one ``record`` struct per item: ``row`` gives an
    item's struct fields and ``item`` builds one back from them.
    """

    def encode(items) -> bytes:
        pack = record.pack
        try:
            packed = [pack(*row(x)) for x in items]
        except struct.error as exc:
            raise WireError(f"list item not encodable: {exc}") from None
        return encode_u16(len(items)) + b"".join(packed)

    def read(r: Reader) -> tuple:
        count = r.read_u16()
        if count > r.remaining // record.size:
            raise WireError(f"list of {count} items overruns buffer")
        return tuple(map(item, record.iter_unpack(r.read_fixed(count * record.size))))

    return Codec(encode, read)


# Codecs call ``encode_u64``, ``encode_str`` and ``to_bytes`` by name, not
# as stored function objects, so that the e2ebench tracer sees every call.
# ``RAW32`` is a digest or a public key: both are 32 bytes.
RAW32 = Codec(lambda v: encode_fixed(v, 32), lambda r: r.read_fixed(32))
UINT16 = Codec(encode_u16, Reader.read_u16)
UINT64 = Codec(lambda v: encode_u64(v), Reader.read_u64)
TEXT = Codec(lambda v: encode_str(v), Reader.read_str)
ECU_LIST = _packed(
    ECU_RECORD,
    lambda p: (p[0], p[1].firmware_digest, p[1].last_write_ts),
    lambda f: (f[0], EcuRecord(f[1], f[2])),
)
INVENTORY = _packed(
    INVENTORY_RECORD, lambda r: (r.firmware_digest, r.last_write_ts), lambda f: EcuRecord(*f)
)
ECU_IDS = _packed(U16, lambda i: (i,), lambda f: f[0])
SIG64 = Codec(lambda v: encode_fixed(v, SIGNATURE_LEN), lambda r: r.read_fixed(SIGNATURE_LEN))
VERDICT = Codec(lambda v: encode_str(v.value), _read_verdict)


S = TypeVar("S")


class Signable:
    """Base of the signed types, slotted dataclasses whose last field is
    ``sig``. On the wire, one is its ``TAG`` byte if set, then the fields
    ``WIRE`` names (field name -> codec, in declaration order, ``sig`` left
    out), then ``sig``. ``SIGNER`` names the field holding the key that
    signs it, or is None where its owner signs it.
    """

    __slots__ = ()
    TAG: ClassVar[Optional[int]] = None
    WIRE: ClassVar[dict[str, Codec]]
    SIGNER: ClassVar[Optional[str]]

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
    """Vehicle registration: the full ECU inventory, in id order, signed by
    the manufacturer that assembled the vehicle. It stores no state root:
    the root is a function of the inventory, and each side computes it when
    it first needs it.
    """

    ts: int
    ecu_list: tuple[EcuRecord, ...]
    vehicle_pk: PublicKey
    maker_pk: PublicKey
    sig: Signature

    TAG = TAG_GENESIS
    WIRE = dict(ts=UINT64, ecu_list=INVENTORY, vehicle_pk=RAW32, maker_pk=RAW32)
    SIGNER = "maker_pk"


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
    SIGNER = "maintainer_pk"


@dataclass(frozen=True, slots=True)
class RequestTx(Signable):
    """Insurer evidence request, stored on the authority audit block."""

    insurer_pk: PublicKey
    query: str
    ts: int
    sig: Signature

    TAG = TAG_REQUEST
    WIRE = dict(insurer_pk=RAW32, query=TEXT, ts=UINT64)
    SIGNER = "insurer_pk"


@dataclass(frozen=True, slots=True)
class ChallengeResponse(Signable):
    """Vehicle's answer to a challenge: current state root plus the raw
    records of the requested ECU subset, each paired with its id, signed
    by the challenged vehicle, which it does not name (its ``SIGNER`` is
    None).
    """

    state_root: Digest
    subset: tuple[tuple[int, EcuRecord], ...]
    ts: int
    sig: Signature

    WIRE = dict(state_root=RAW32, subset=ECU_LIST, ts=UINT64)
    SIGNER = None


@dataclass(frozen=True, slots=True)
class ChallengeRecordTx(Signable):
    """A Valid challenge response as the recording RSU countersigns it:
    the ids of the ECUs it reported, in its order, its ``ts`` and the
    vehicle's signature. It does not store the challenged vehicle's key,
    its owner, which the RSU's signature covers, nor the response's root
    and records, which are its owner's state (see ``ledger.apply_entry``).
    """

    ecu_ids: tuple[int, ...]
    ts: int
    vehicle_sig: Signature
    rsu_pk: PublicKey
    sig: Signature

    TAG = TAG_CHALLENGE_RECORD
    WIRE = dict(ecu_ids=ECU_IDS, ts=UINT64, vehicle_sig=SIG64, rsu_pk=RAW32)
    SIGNER = "rsu_pk"


Transaction = Union[GenesisTx, UpdateTx, RequestTx, ChallengeRecordTx]


@dataclass(frozen=True, slots=True)
class LedgerHead(Signable):
    """A tier ledger as one authority validator sealed it: its block count,
    the seal time and a Merkle root over one leaf per block, in creation
    order (``ledger.head_root``).
    """

    count: int
    ts: int
    merkle_root: Digest
    validator_pk: PublicKey
    sig: Signature

    TAG = TAG_LEDGER_HEAD
    WIRE = dict(count=UINT64, ts=UINT64, merkle_root=RAW32, validator_pk=RAW32)
    SIGNER = "validator_pk"


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


def _message(signed: Signable, body: bytes, owner: PublicKey) -> bytes:
    """What signs ``signed``'s signing bytes ``body``: the tag, ``owner``,
    then the rest; just ``body`` if ``owner`` signs (no ``SIGNER``), as
    Ed25519 hashes the signer's key into the signature.
    """
    return body[:1] + owner + body[1:] if owner and signed.SIGNER else body


def signed_wire(unsigned: Signable, keys: KeyPair, owner: PublicKey = b"") -> bytes:
    """The wire bytes of ``unsigned`` signed by ``keys``: its signing bytes,
    encoded once, here, followed by ``keys``' signature over them and
    ``owner`` (see ``_message``).
    """
    body = unsigned.signing_bytes()
    return body + encode_fixed(keys.sign(_message(unsigned, body, owner)), SIGNATURE_LEN)


def signed_by(tx: Signable, wire: bytes, owner: PublicKey = b"") -> bool:
    """True iff ``tx.sig`` signs ``wire``, the bytes ``tx`` was decoded
    from (canonically, so its signing bytes then ``tx.sig``), and ``owner``
    as ``signed_wire`` signed them, under the key in ``tx``'s ``SIGNER``
    field, or under ``owner`` for a type with none (a response). Malformed
    key or signature bytes are False.
    """
    key = getattr(tx, tx.SIGNER) if tx.SIGNER else owner
    return crypto.verify(key, _message(tx, wire[:-SIGNATURE_LEN], owner), tx.sig)


def decode(cls: type[S], data: bytes) -> S:
    """``data`` as exactly one ``cls``, behind its ``TAG`` byte if it has
    one; raises ``WireError`` otherwise.
    """
    r = Reader(data)
    if cls.TAG is not None and r.read_u8() != cls.TAG:
        raise WireError(f"not a {cls.__name__}")
    value = cls.read(r)
    r.finish()
    return value


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
