"""Appendable-block ledger: one block per identity, one record per entry.

Appending needs no consensus round, and block headers are decoupled from
the entry list so old entries can move to external archive storage without
breaking block integrity.

An entry is the archive's record ``(seq, payload)``: its sequence number
``seq``, its 0-based index in the block's full history (entries pruned to
the archive included), and its transaction's wire bytes. The block, the
archive and the bytes hold that one record type, so pruning archives the
removed entries as they are and replay puts the archive's records back in
front of the retained ones.

The write path takes bytes and works out the rest:
``Ledger.create_block(owner_pk, genesis)`` opens a block and hashes
nothing; ``append_entry(block, wire)`` gives the entry the next sequence
number; ``Ledger.replace_block(block)`` stores a block under its header's
owner. The ledger keeps the wire bytes a transaction arrived as (or that
``signed_wire`` just made), and pruning, archiving and
``Ledger.serialize`` reuse them: the ledger never encodes a transaction,
and its write path decodes none.

The ledger verifies nothing on the way in: the protocol has already
verified each transaction where it entered the tier, or the tier has
just made it. Only the audit decodes and verifies: ``validate_block``
decodes each retained entry once and checks, with ``signed_by`` over
the kept bytes, that its signature covers the block's owner key, so an
entry verifies in the block it was signed for only, whatever its type.
``reconstruct_history`` runs it over every archived entry too, then
folds ``apply_entry`` over what it decoded, so an audit trusts neither
the append path, the archive nor the place an entry was put. Bytes from
disk or the wire (``FileArchive.read``, ``deserialize_ledger``) are
decoded once on the way in, to find where a record ends and to reject
what does not parse, and only their bytes are kept.

A block's bytes hold no hash: a link between entries or between headers
needs no key to compute, so it would bind nothing. What binds a ledger as
a whole is a signed head, which only the authority tier keeps. The
authority validators each sign a ``LedgerHead``: the block count, a
timestamp and a Merkle root with one leaf per block in creation order,
over its owner key, its tip seq and its tip payload's hash.
``Ledger.validate(head, validators)`` checks that each of the authority
tier's validators signed the head and that the blocks are an append-only
continuation of it (``head_holds``). A ledger checked with no head is
checked block by block.

In bytes, a checksum detects corruption and signatures detect tampering.
Each block ends with a CRC32 of its bytes, which catches every single-bit
flip. An edit that re-seals the CRC still fails the audit: a changed
payload or ``owner_pk`` fails its signatures and a changed ``seq`` the
consecutive sequence (starting at 0 for a lone entry). Against a head,
so does a deleted or reordered block and a block cut back past its
sealed tip, unless the cut block's seqs are also shifted past that tip:
seqs are not signed, and a sealed tip that has left the block looks
archived.

Bytes are wire format v3 (see ``wire``), and a block stores only what the
ledger cannot derive. A header is the owner key (32 raw bytes): a
genesis's signed ``ts`` already dates the registration. The archive
address is not stored: ``BlockHeader.external_address`` is
``external_address(owner_pk)``. A block is its header, each entry's record
(the 8-byte sequence number, then the payload, which fixes its own length)
and a big-endian CRC32 of all that: 8 bytes of framing per entry and 4 per
block. No entry count is stored: ``decode_block`` reads records until the
checksummed body ends. ``Ledger.serialize`` writes the magic ``ECULA``,
then each block behind a u32 length until the data ends, and not the
head; it differs from ``ECUL9`` in its headers, which no longer hold a
creation time, and in its genesis and update signatures, which now cover
the owner key. There is no reader for older layouts (magics ``ECUL1`` to
``ECUL9``): such bytes raise ``WireError``.

Pruning keeps the last two entries (previous and current state) and
archives each removed entry exactly once, as it is, when it leaves the
block. A ``FileArchive`` file starts with the marker ``ECUA7``; ``ECUA6``
marked the genesis and update signatures before it, ``ECUA5`` the
challenge record before that, ``ECUA4`` the genesis before that, and the
three earlier archive layouts had none: a file in any of them raises
``ArchiveError``. A ledger restored by
``deserialize_ledger`` continues each block's sequence.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from ._kernels import merkle_root
from .crypto import PUBLIC_KEY_LEN, ZERO_DIGEST, Digest, PublicKey, sha256
from .ecu import EcuState, compute_state_root, update_ecu
from .transactions import (
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    LedgerHead,
    Transaction,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    read_transaction,
    signed_by,
)
from .wire import (
    U32,
    Reader,
    WireError,
    encode_bytes,
    encode_fixed,
    encode_u64,
)

LEDGER_MAGIC = b"ECULA"
# First bytes of every ``FileArchive`` file.
ARCHIVE_MAGIC = b"ECUA7"


class LedgerError(ValueError):
    """Violation of a ledger precondition (duplicate block, unknown block...)."""


class ArchiveError(RuntimeError):
    """Archive storage could not be written or read."""


@dataclass(frozen=True, slots=True)
class BlockHeader:
    owner_pk: PublicKey

    @property
    def external_address(self) -> str:
        """Where pruning archives this block's entries: derived, not stored."""
        return external_address(self.owner_pk)

    def to_bytes(self) -> bytes:
        return encode_fixed(self.owner_pk, PUBLIC_KEY_LEN)


def external_address(owner_pk: PublicKey) -> str:
    """Archive locator of ``owner_pk``'s block."""
    return "ar://" + owner_pk.hex()[:16]


class LedgerEntry(NamedTuple):
    """One entry, which is also the archive's record: its sequence number
    and its transaction's wire bytes.
    """

    seq: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class AppendableBlock:
    """Header plus entries. Once a block has been pruned, its first entry
    is past sequence number 0 and the entries before it are in the archive.
    """

    header: BlockHeader
    entries: tuple[LedgerEntry, ...]

    def to_bytes(self) -> bytes:
        body = self.header.to_bytes() + write_records(self.entries)
        return body + U32.pack(zlib.crc32(body))


def write_records(entries: Iterable[LedgerEntry]) -> bytes:
    """``entries`` back to back, each as ``read_record`` reads it: the
    8-byte sequence number, then the payload.
    """
    return b"".join(encode_u64(seq) + payload for seq, payload in entries)


def read_record(r: Reader) -> LedgerEntry:
    """The next record ``r`` reads; raises ``WireError`` unless the payload
    decodes.
    """
    seq = r.read_u64()
    _, payload = r.read_with_bytes(read_transaction)
    return LedgerEntry(seq, payload)


def decode_block(data: bytes) -> AppendableBlock:
    """Raises ``WireError`` unless the trailing CRC32 matches, checked
    first, and the bytes before it parse exactly: a header, then whole
    records up to the end.
    """
    body = data[: -U32.size]
    if len(data) < U32.size or U32.pack(zlib.crc32(body)) != data[-U32.size :]:
        raise WireError("block checksum mismatch")
    r = Reader(body)
    header = BlockHeader(owner_pk=r.read_fixed(PUBLIC_KEY_LEN))
    entries = []
    while r.remaining:
        entries.append(read_record(r))
    return AppendableBlock(header=header, entries=tuple(entries))


def validate_block(block: AppendableBlock) -> bool:
    """True iff the block has entries, their sequence numbers are
    consecutive (a lone entry's is 0), and every payload decodes and its
    signature verifies over the block's owner key. Reads each entry as a
    ``(seq, payload)`` pair, so archive records given as plain tuples
    replay too. Decodes each payload once. Never raises.

    Nothing here binds a retained block's first seq: a pruned block starts
    past 0, so a block whose seqs were all shifted by the same amount
    passes, and only the archive replay in ``reconstruct_history`` rejects
    it.
    """
    return _verified_transactions(block) is not None


def _verified_transactions(block: AppendableBlock) -> Optional[list[Transaction]]:
    """Each entry's transaction if ``validate_block``'s checks pass, else None."""
    if not block.entries:
        return None
    owner = block.header.owner_pk
    txs = []
    try:
        first = block.entries[0][0] if len(block.entries) > 1 else 0
        for i, (seq, payload) in enumerate(block.entries):
            if seq != first + i:
                return None
            tx = decode_transaction(payload)
            if not signed_by(tx, payload, owner):
                return None
            txs.append(tx)
    except Exception:
        return None
    return txs


@dataclass
class VehicleProfile:
    """A vehicle's ECU state and last recorded response ts: the fold of ``apply_entry``."""

    state: EcuState
    last_response_ts: Optional[int] = None


def response_verdict(profile: VehicleProfile, response: ChallengeResponse) -> Verdict:
    """Valid, or the first rule ``response`` breaks: dated after the last
    recorded one (StaleTimestamp), with the profile's state root
    (StateMismatch) and records (SubsetMismatch).
    """
    if profile.last_response_ts is not None and response.ts <= profile.last_response_ts:
        return Verdict.STALE_TIMESTAMP
    if response.state_root != compute_state_root(profile.state):
        return Verdict.STATE_MISMATCH
    known = profile.state.records
    for rec in response.subset:
        if rec.ecu_id >= len(known) or rec != known[rec.ecu_id]:
            return Verdict.SUBSET_MISMATCH
    return Verdict.VALID


def apply_entry(profile: Optional[VehicleProfile], tx: Transaction) -> VehicleProfile:
    """The profile after ``tx``, the next entry of a vehicle's history
    (None before its genesis). Raises ``ValueError`` naming the rule ``tx``
    breaks: a genesis opens a history, and nothing else does; an update is
    one ``update_ecu`` accepts, dated after its ECU's last write, and its
    ``new_root`` the updated state's root; a record's response is Valid by
    ``response_verdict``.
    """
    if (profile is None) != isinstance(tx, GenesisTx):
        raise ValueError("a genesis opens a history, and nothing else does")
    if profile is None:
        return VehicleProfile(EcuState(records=tx.ecu_list))
    if isinstance(tx, UpdateTx):
        state = update_ecu(profile.state, tx.ecu_id, tx.firmware_digest, tx.ts)
        if tx.ts == profile.state.records[tx.ecu_id].last_write_ts:
            raise ValueError("update not dated after its ECU's last write")
        if compute_state_root(state) != tx.new_root:
            raise ValueError("update new_root does not match the updated state")
        return VehicleProfile(state, profile.last_response_ts)
    if isinstance(tx, ChallengeRecordTx):
        verdict = response_verdict(profile, tx.response.value)
        if verdict is not Verdict.VALID:
            raise ValueError(f"recorded response is {verdict.value}")
        return VehicleProfile(profile.state, tx.response.value.ts)
    raise ValueError(f"a {type(tx).__name__} is no vehicle entry")


def append_entry(block: AppendableBlock, wire: bytes) -> AppendableBlock:
    """Block with ``wire`` as its newest entry, at the next sequence
    number: the bytes a transaction arrived as, or that ``signed_wire``
    made. Decodes and checks nothing (see the module docstring);
    ``validate_block`` checks the entry's signature at audit.
    """
    seq = block.entries[-1].seq + 1 if block.entries else 0
    return replace(block, entries=block.entries + (LedgerEntry(seq, wire),))


class Archive:
    """Append-only record store keyed by external address.

    A record is a pruned ``LedgerEntry``, ``(seq, payload)``, as it left
    the block. Pruning writes one record per sequence number, when the
    entry leaves the block.
    """

    def append_many(self, address: str, records: Iterable[LedgerEntry]) -> None:
        raise NotImplementedError

    def read(self, address: str) -> list[LedgerEntry]:
        raise NotImplementedError


class MemoryArchive(Archive):
    def __init__(self):
        self._store: dict[str, list[LedgerEntry]] = {}

    def append_many(self, address, records):
        self._store.setdefault(address, []).extend(records)

    def read(self, address):
        return list(self._store.get(address, []))


class FileArchive(Archive):
    """One append-only file per address under ``root``: the marker
    ``ARCHIVE_MAGIC``, then each record as ``read_record`` reads it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, address: str) -> Path:
        return self.root / (sha256(address.encode("utf-8")).hex()[:24] + ".arc")

    def append_many(self, address, records):
        blob = write_records(records)
        try:
            with open(self._path(address), "ab") as fh:
                created = fh.tell() == 0
                if created:
                    blob = ARCHIVE_MAGIC + blob
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            if created:  # the new name survives a crash once the directory is synced
                fd = os.open(self.root, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        except OSError as exc:
            raise ArchiveError(f"archive write failed: {exc}") from exc

    def read(self, address):
        path = self._path(address)
        if not path.exists():
            return []
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ArchiveError(f"archive read failed: {exc}") from exc
        if not data.startswith(ARCHIVE_MAGIC):
            raise ArchiveError(f"not an archive file: no {ARCHIVE_MAGIC.decode()} marker")
        records = []
        r = Reader(data, len(ARCHIVE_MAGIC))
        while r.remaining:
            if r.remaining < 8:
                raise ArchiveError("truncated archive record header")
            try:
                records.append(read_record(r))
            except WireError as exc:
                raise ArchiveError(f"corrupt archive record: {exc}") from exc
        return records


def prune_to_two(
    block: AppendableBlock, archive: Archive
) -> tuple[AppendableBlock, int]:
    """Move all but the last two entries to the archive and keep the last
    two.

    The removed entries are archived once, as they are, in one
    ``append_many`` call. Returns the pruned block and the number of
    entries removed. On archive failure the exception propagates before any
    block mutation, so the caller keeps the block unchanged.
    """
    if len(block.entries) <= 2:
        return block, 0
    removed = block.entries[:-2]
    archive.append_many(block.header.external_address, removed)
    return replace(block, entries=block.entries[-2:]), len(removed)


def reconstruct_history(
    block: AppendableBlock, archive: Archive
) -> list[LedgerEntry]:
    """The block's full entry sequence, verified: the archive's records
    followed by the retained entries.

    Pruning archives each removed entry once, in sequence order, since
    every prune appends past the last. Raises LedgerError if the block has
    no entries, if the seqs are not 0, 1, 2, ... in order (a gap, a repeat
    or a stray), if the history fails ``validate_block``, which decodes
    each payload once, or if folding ``apply_entry`` over those
    transactions breaks a rule; that error names the seq and the rule.
    """
    if not block.entries:
        raise LedgerError("block has no entries")
    history = archive.read(block.header.external_address) + list(block.entries)
    if [seq for seq, _ in history] != list(range(len(history))):
        raise LedgerError("archive sequence has gaps or strays")
    txs = _verified_transactions(replace(block, entries=tuple(history)))
    if txs is None:
        raise LedgerError("archived history does not validate")
    profile = None
    for seq, tx in enumerate(txs):
        try:
            profile = apply_entry(profile, tx)
        except ValueError as exc:
            raise LedgerError(f"seq {seq}: {exc}") from None
    return history


class SealedHead(NamedTuple):
    """A ledger's signed head as the authority tier keeps it: ``signed``
    holds the wire bytes of each validator's ``LedgerHead``. ``tips`` holds
    each covered block's tip ``(seq, sha256(payload))`` in creation order:
    the head's Merkle root commits to them, and the check needs them to
    allow later appends.
    """

    signed: tuple[bytes, ...]
    tips: tuple[tuple[int, Digest], ...]


def block_tip(block: AppendableBlock) -> tuple[int, Digest]:
    seq, payload = block.entries[-1]
    return seq, sha256(payload)


def head_root(blocks: Iterable[AppendableBlock], tips: Iterable[tuple[int, Digest]]) -> Digest:
    """Merkle root with one leaf per block, ``sha256(owner_pk ‖ u64 tip
    seq ‖ tip payload hash)``, in order; ``ZERO_DIGEST`` for no blocks.
    """
    leaves = [
        sha256(block.header.owner_pk + encode_u64(seq) + digest)
        for block, (seq, digest) in zip(blocks, tips)
    ]
    return merkle_root(leaves) if leaves else ZERO_DIGEST


def head_holds(
    head: SealedHead, validators: Collection[PublicKey], blocks: Sequence[AppendableBlock]
) -> bool:
    """True iff each of ``validators``, once and alone, signed one and the
    same ``LedgerHead`` in ``head``, and ``blocks``, in creation order, are
    an append-only continuation of it: every sealed block still exists, in
    order, with the same owner; its tip seq is at least the sealed
    one; and where the sealed tip is still retained, its payload hash
    matches. ``blocks`` must each pass ``validate_block``. Signed bytes
    that do not decode, and a signature missing, repeated or by any other
    key, make it False.
    """
    sealed, signers = set(), []
    try:
        for wire in head.signed:
            signed = decode(LedgerHead, wire)
            if not signed_by(signed, wire):
                return False
            signers.append(signed.validator_pk)
            sealed.add((signed.count, signed.ts, signed.merkle_root))
    except WireError:
        return False
    if sorted(signers) != sorted(set(validators)) or len(sealed) != 1:
        return False
    ((count, _, root),) = sealed
    covered = blocks[:count]
    if len(covered) != count or len(head.tips) != count:
        return False
    if head_root(covered, head.tips) != root:
        return False
    for block, (seq, digest) in zip(covered, head.tips):
        first, last = block.entries[0].seq, block.entries[-1].seq
        if last < seq or (first <= seq and sha256(block.entries[seq - first].payload) != digest):
            return False
    return True


class Ledger:
    """All blocks of one tier, keyed by owner public key. Owned and mutated
    by a single node actor; blocks handed out are immutable snapshots.
    """

    def __init__(self):
        self.blocks: dict[PublicKey, AppendableBlock] = {}

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def creation_order(self) -> tuple[PublicKey, ...]:
        """Block owners, oldest block first: ``blocks`` keeps insertion order."""
        return tuple(self.blocks)

    def create_block(self, owner_pk: PublicKey, genesis: bytes) -> AppendableBlock:
        """Open a block for ``owner_pk`` whose first entry keeps
        ``genesis``, the wire bytes of a transaction the caller has
        verified.
        """
        if owner_pk in self.blocks:
            raise LedgerError("block exists")
        block = AppendableBlock(
            header=BlockHeader(owner_pk=owner_pk),
            entries=(LedgerEntry(0, genesis),),
        )
        self.blocks[owner_pk] = block
        return block

    def replace_block(self, block: AppendableBlock) -> None:
        """Store ``block`` in place of its owner's block."""
        if block.header.owner_pk not in self.blocks:
            raise LedgerError("unknown block")
        self.blocks[block.header.owner_pk] = block

    def lookup(self, pk: PublicKey) -> Optional[AppendableBlock]:
        return self.blocks.get(pk)

    def serialize(self) -> bytes:
        parts = [encode_bytes(LEDGER_MAGIC)]
        for block in self.blocks.values():
            parts.append(encode_bytes(block.to_bytes()))
        return b"".join(parts)

    def validate(
        self, head: Optional[SealedHead] = None, validators: Collection[PublicKey] = ()
    ) -> bool:
        """Every block validates under its owner key and, given the head
        the authority tier keeps and its validator keys, the blocks are
        consistent with that head (``head_holds``). With no head, the
        ledger is checked block by block.
        """
        for pk, block in self.blocks.items():
            if block.header.owner_pk != pk or not validate_block(block):
                return False
        return head is None or head_holds(head, validators, tuple(self.blocks.values()))


def deserialize_ledger(data: bytes) -> Ledger:
    r = Reader(data)
    if r.read_bytes() != LEDGER_MAGIC:
        raise WireError("bad ledger magic")
    ledger = Ledger()
    while r.remaining:
        block = decode_block(r.read_bytes())
        pk = block.header.owner_pk
        if pk in ledger.blocks:
            raise WireError("duplicate block owner")
        ledger.blocks[pk] = block
    return ledger
