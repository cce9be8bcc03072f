"""Appendable-block ledger: one block per identity, hash-linked entries.

Appending needs no consensus round, and block headers are decoupled from
the entry list so old entries can move to external archive storage without
breaking block integrity.

An entry keeps its payload as wire bytes, not as a decoded transaction:
``append_entry`` encodes the transaction it is given once (or takes the
bytes ``signed_wire`` just produced), and linking, pruning, archiving and
``Ledger.serialize`` reuse those bytes and never encode a transaction
again. ``LedgerEntry.transaction`` decodes on demand.

The ledger verifies no signature on the way in: ``Ledger.create_block``
and ``append_entry`` link a transaction whose signature the protocol has
already verified where it entered the tier, or that the tier has just
made. Only the audit decodes and verifies: ``validate_block`` decodes each
retained entry once and checks its signature over the kept bytes minus
the trailing signature (decoding is canonical, so those are the signing
bytes), and ``reconstruct_history`` runs it over every archived entry too,
so an audit trusts neither the append path nor the archive. Bytes from
disk or the wire (``FileArchive.read``, ``deserialize_ledger``) are
decoded once on the way in, to find where a record ends and to reject
what does not parse, and only their bytes are kept.

Each entry carries its sequence number ``seq``: its 0-based index in the
block's full history, including entries pruned to the archive.

Link discipline: an entry's ``prev_link`` is the SHA-256 of the preceding
entry's *content* (payload bytes and sequence number, not its own
prev_link), or the block header hash for the first entry. Keeping the
predecessor's prev_link out of the link input means pruning can re-anchor
the first retained entry to the header without disturbing any other link.
Tamper evidence rests on signed payloads plus bound sequence numbers: every
payload carries a signature, every sequence number but the newest is bound
by its successor's link, and the sequence numbers of a block are
consecutive, starting at 0 for a lone entry.

Bytes are wire format v3 (see ``wire``). A header is the owner key and the
previous header hash (32 raw bytes each), the creation timestamp (8 bytes)
and the external address (a length-prefixed string); an entry is its
payload's wire bytes behind a u32 length, the 32-byte ``prev_link`` and the
8-byte sequence number, 44 bytes of framing; a block is its header, an
8-byte entry count and the entries. ``Ledger.serialize`` writes the magic
``ECUL4``, an 8-byte block count and each block behind a u32 length. There
is no reader for older layouts (magics ``ECUL1`` to ``ECUL3``): such bytes
raise ``WireError``.

Pruning keeps the last two entries (previous and current state) and
re-anchors the first of them to the header. Each removed entry is
archived exactly once, when it leaves the block, under the block's
external address as ``(seq, payload)``: its sequence number and its
transaction's wire bytes, with no entry framing. An archived ``prev_link``
would add nothing: a link hashes only its predecessor's payload and
sequence number, both in the record beside it, so replay rebuilds every
link, the re-anchored head's original one included. A ``FileArchive``
file starts with the marker ``ECUA4``; the three earlier archive layouts
had none, and a file in any of them raises ``ArchiveError``. Sequence
numbers are serialized with the entries, so a ledger restored by
``deserialize_ledger`` continues the sequence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from . import crypto
from .crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    ZERO_DIGEST,
    Digest,
    PublicKey,
    sha256,
)
from .transactions import (
    Transaction,
    decode_transaction,
    read_transaction,
    tx_signer,
    tx_vehicle,
)
from .wire import (
    U64,
    Reader,
    WireError,
    encode_bytes,
    encode_fixed,
    encode_str,
    encode_u64,
)

LEDGER_MAGIC = b"ECUL4"
# First bytes of every ``FileArchive`` file.
ARCHIVE_MAGIC = b"ECUA4"


class LedgerError(ValueError):
    """Violation of a ledger precondition (duplicate block, foreign owner...)."""


class ArchiveError(RuntimeError):
    """Archive storage could not be written or read."""


@dataclass(frozen=True, slots=True)
class BlockHeader:
    owner_pk: PublicKey
    prev_header_hash: Digest
    created_ts: int
    external_address: str

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                encode_fixed(self.owner_pk, PUBLIC_KEY_LEN),
                encode_fixed(self.prev_header_hash, DIGEST_LEN),
                encode_u64(self.created_ts),
                encode_str(self.external_address),
            )
        )


def header_hash(header: BlockHeader) -> Digest:
    return sha256(header.to_bytes())


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One linked entry; ``payload`` is its transaction's wire bytes."""

    payload: bytes
    prev_link: Digest
    seq: int

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                encode_bytes(self.payload),
                encode_fixed(self.prev_link, DIGEST_LEN),
                encode_u64(self.seq),
            )
        )

    def transaction(self) -> Transaction:
        """The payload decoded; raises ``WireError`` if it does not decode."""
        return decode_transaction(self.payload)


def _link(payload_bytes: bytes, seq: int) -> Digest:
    return sha256(encode_bytes(payload_bytes) + encode_u64(seq))


def entry_link(entry: LedgerEntry) -> Digest:
    """Link target for the entry's successor: hash of payload and sequence
    number.
    """
    return _link(entry.payload, entry.seq)


@dataclass(frozen=True, slots=True)
class AppendableBlock:
    """Header plus hash-linked entries. Once a block has been pruned, its
    first entry is past sequence number 0 and the entries before it are in
    the archive.
    """

    header: BlockHeader
    entries: tuple[LedgerEntry, ...]

    def to_bytes(self) -> bytes:
        parts = [self.header.to_bytes(), encode_u64(len(self.entries))]
        parts.extend(e.to_bytes() for e in self.entries)
        return b"".join(parts)


def read_entry(r: Reader) -> LedgerEntry:
    """The next entry from bytes off disk or the wire: raises ``WireError``
    unless its payload decodes, and keeps only the payload's bytes.
    """
    entry = LedgerEntry(
        payload=r.read_bytes(), prev_link=r.read_fixed(DIGEST_LEN), seq=r.read_u64()
    )
    decode_transaction(entry.payload)
    return entry


def read_block(r: Reader) -> AppendableBlock:
    header = BlockHeader(
        owner_pk=r.read_fixed(PUBLIC_KEY_LEN),
        prev_header_hash=r.read_fixed(DIGEST_LEN),
        created_ts=r.read_u64(),
        external_address=r.read_str(),
    )
    count = r.read_u64()
    if count > 10_000_000:
        raise WireError(f"implausible entry count {count}")
    entries = tuple(read_entry(r) for _ in range(count))
    return AppendableBlock(header=header, entries=entries)


def decode_block(data: bytes) -> AppendableBlock:
    r = Reader(data)
    block = read_block(r)
    r.finish()
    return block


def validate_block(block: AppendableBlock) -> bool:
    """True iff the block has entries, the header anchor and every entry
    link hold, every payload decodes and its owner and signature verify,
    and the sequence numbers are consecutive (a lone entry's is 0).
    Decodes each payload once. Never raises.
    """
    if not block.entries:
        return False
    try:
        expected = header_hash(block.header)
        seq = block.entries[0].seq if len(block.entries) > 1 else 0
        for entry in block.entries:
            if entry.prev_link != expected or entry.seq != seq:
                return False
            data = entry.payload
            tx = entry.transaction()
            owner = tx_vehicle(tx)
            if owner is not None and owner != block.header.owner_pk:
                return False
            # Decoding is canonical, so the wire bytes are the signing bytes
            # followed by the signature.
            if not crypto.verify(tx_signer(tx), data[:-SIGNATURE_LEN], tx.sig):
                return False
            expected = _link(data, seq)
            seq += 1
    except Exception:
        return False
    return True


def validate_block_bytes(data: bytes) -> bool:
    try:
        block = decode_block(data)
    except WireError:
        return False
    return validate_block(block)


def append_entry(
    block: AppendableBlock, tx: Transaction, wire: Optional[bytes] = None
) -> AppendableBlock:
    """Block with ``tx`` linked in as its newest entry; rejects entries
    addressed to a different owner. The entry keeps ``wire``, which must be
    ``tx``'s wire bytes (``signed_wire`` returns them), or else encodes
    ``tx`` once. Does not verify the signature: callers pass transactions
    they have verified (see the module docstring).
    """
    owner = tx_vehicle(tx)
    if owner is not None and owner != block.header.owner_pk:
        raise LedgerError("ownership")
    if block.entries:
        prev, seq = entry_link(block.entries[-1]), block.entries[-1].seq + 1
    else:
        prev, seq = header_hash(block.header), 0
    payload = tx.to_bytes() if wire is None else wire
    entry = LedgerEntry(payload=payload, prev_link=prev, seq=seq)
    return replace(block, entries=block.entries + (entry,))


class Archive:
    """Append-only record store keyed by external address.

    A record is ``(seq, payload)``: a pruned entry's sequence number and its
    transaction's wire bytes, with no entry framing. Pruning writes one
    record per sequence number, when the entry leaves the block.
    """

    def append_many(self, address: str, records: Iterable[tuple[int, bytes]]) -> None:
        raise NotImplementedError

    def read(self, address: str) -> list[tuple[int, bytes]]:
        raise NotImplementedError


class MemoryArchive(Archive):
    def __init__(self):
        self._store: dict[str, list[tuple[int, bytes]]] = {}

    def append_many(self, address, records):
        self._store.setdefault(address, []).extend(records)

    def read(self, address):
        return list(self._store.get(address, []))

    def addresses(self) -> list[str]:
        return sorted(self._store)


class FileArchive(Archive):
    """One append-only file per address under ``root``: the marker
    ``ARCHIVE_MAGIC``, then each record as its 8-byte big-endian sequence
    number followed by the payload. A payload fixes its own length, so a
    record has no length prefix; ``read`` decodes each payload to find
    where it ends.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, address: str) -> Path:
        return self.root / (sha256(address.encode("utf-8")).hex()[:24] + ".arc")

    def append_many(self, address, records):
        blob = b"".join(U64.pack(seq) + data for seq, data in records)
        try:
            with open(self._path(address), "ab") as fh:
                if fh.tell() == 0:
                    blob = ARCHIVE_MAGIC + blob
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
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
            seq = r.read_u64()
            start = len(data) - r.remaining
            try:
                read_transaction(r)
            except WireError as exc:
                raise ArchiveError(f"corrupt archive record: {exc}") from exc
            records.append((seq, data[start : len(data) - r.remaining]))
        return records


def prune_to_two(
    block: AppendableBlock, archive: Archive
) -> tuple[AppendableBlock, int]:
    """Move all but the last two entries to the archive, and re-anchor the
    first retained entry to the header hash.

    Each removed entry is archived once, as ``(seq, payload)``, in one
    ``append_many`` call; a removed head that was re-anchored by an earlier
    prune still holds its original payload. Returns the pruned block and
    the number of entries removed. On archive failure the exception
    propagates before any block mutation, so the caller keeps the block
    unchanged.
    """
    if len(block.entries) <= 2:
        return block, 0
    removed = block.entries[:-2]
    keep_first, keep_last = block.entries[-2:]
    archive.append_many(
        block.header.external_address, [(e.seq, e.payload) for e in removed]
    )
    relinked = replace(keep_first, prev_link=header_hash(block.header))
    return replace(block, entries=(relinked, keep_last)), len(removed)


def reconstruct_history(
    block: AppendableBlock, archive: Archive
) -> list[LedgerEntry]:
    """Rebuild and verify the block's full original entry sequence from the
    archive plus the retained entries.

    Pruning archives each removed entry once, as ``(seq, payload)``, in
    sequence order, since every prune appends past the last. Each archived
    entry's ``prev_link`` is rebuilt from its predecessor (the header hash
    for sequence number 0), and so is the original link of a retained head
    that pruning re-anchored. ``validate_block`` then decodes each payload,
    once, and checks the rebuilt history. Raises LedgerError if the block
    has no entries, if the sequence numbers of the records and the retained
    entries are not 0, 1, 2, ... in order (a gap, a repeat or a stray), or
    if the rebuilt history fails ``validate_block``.
    """
    if not block.entries:
        raise LedgerError("block has no entries")
    records = archive.read(block.header.external_address)
    seqs = [seq for seq, _ in records] + [e.seq for e in block.entries]
    if seqs != list(range(len(seqs))):
        raise LedgerError("archive sequence has gaps or strays")
    sequence = []
    prev = header_hash(block.header)
    for seq, payload in records:
        sequence.append(LedgerEntry(payload=payload, prev_link=prev, seq=seq))
        prev = _link(payload, seq)
    head, *rest = block.entries
    sequence.append(replace(head, prev_link=prev))
    sequence.extend(rest)
    if not validate_block(replace(block, entries=tuple(sequence))):
        raise LedgerError("archived history does not validate")
    return sequence


class Ledger:
    """All blocks of one tier, keyed by owner public key. Owned and mutated
    by a single node actor; blocks handed out are immutable snapshots.
    """

    def __init__(self):
        self.blocks: dict[PublicKey, AppendableBlock] = {}
        self._last_header_hash: Digest = ZERO_DIGEST

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def creation_order(self) -> tuple[PublicKey, ...]:
        """Block owners, oldest block first: ``blocks`` keeps insertion order."""
        return tuple(self.blocks)

    def create_block(
        self,
        owner_pk: PublicKey,
        genesis: Transaction,
        ts: int,
        external_address: str,
    ) -> AppendableBlock:
        """Open a block for ``owner_pk`` holding ``genesis`` as first entry;
        ``append_entry`` rejects a genesis addressed to another owner. The
        caller has verified the genesis signature. Header chains to the most
        recently created block's header.
        """
        if owner_pk in self.blocks:
            raise LedgerError("block exists")
        header = BlockHeader(
            owner_pk=owner_pk,
            prev_header_hash=self._last_header_hash,
            created_ts=ts,
            external_address=external_address,
        )
        block = append_entry(AppendableBlock(header=header, entries=()), genesis)
        self.blocks[owner_pk] = block
        self._last_header_hash = header_hash(header)
        return block

    def replace_block(self, owner_pk: PublicKey, block: AppendableBlock) -> None:
        if owner_pk not in self.blocks:
            raise LedgerError("unknown block")
        self.blocks[owner_pk] = block

    def lookup(self, pk: PublicKey) -> Optional[AppendableBlock]:
        return self.blocks.get(pk)

    def serialize(self) -> bytes:
        parts = [encode_bytes(LEDGER_MAGIC), encode_u64(len(self.blocks))]
        for block in self.blocks.values():
            parts.append(encode_bytes(block.to_bytes()))
        return b"".join(parts)

    def serialized_size(self) -> int:
        return len(self.serialize())

    def validate(self) -> bool:
        """Every block validates and the header chain follows creation order."""
        prev = ZERO_DIGEST
        for pk, block in self.blocks.items():
            if block.header.owner_pk != pk or block.header.prev_header_hash != prev:
                return False
            if not validate_block(block):
                return False
            prev = header_hash(block.header)
        return True


def deserialize_ledger(data: bytes) -> Ledger:
    r = Reader(data)
    if r.read_bytes() != LEDGER_MAGIC:
        raise WireError("bad ledger magic")
    count = r.read_u64()
    ledger = Ledger()
    for _ in range(count):
        block = decode_block(r.read_bytes())
        pk = block.header.owner_pk
        if pk in ledger.blocks:
            raise WireError("duplicate block owner")
        ledger.blocks[pk] = block
        ledger._last_header_hash = header_hash(block.header)
    r.finish()
    return ledger
