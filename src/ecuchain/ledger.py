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
the append path, the archive nor the place an entry was put. Of a
challenge record's two signatures, ``validate_block`` checks only the
RSU's: the vehicle's covers a response whose root and ECU records are
the vehicle's state, which only the fold holds, so the fold rebuilds
that response (``recorded_response``) and checks it. Bytes from
disk or the wire (``FileArchive.read``, ``deserialize_ledger``) are
decoded once on the way in, to reject what does not parse (and, in a
block, to find where a record ends), and only their bytes are kept.

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
checksummed body ends. ``Ledger.serialize`` writes the magic ``ECULB``,
then each block behind a u32 length until the data ends, and not the
head; it differs from ``ECULA`` in its challenge records, which no
longer embed their response: they keep its ECU ids, its ``ts`` and the
vehicle's signature. There is no reader for older layouts (magics
``ECUL1`` to ``ECULA``): such bytes raise ``WireError``.

Pruning keeps the last two entries (previous and current state) and
archives each removed entry exactly once, as it is, when it leaves the
block. A ``FileArchive`` keeps one log per root, grown in pre-zeroed
1 MiB chunks: the marker ``ECUAA``, then one frame per append (u32 body
length, u32 CRC32 of the body seeded with the frame's log offset, then the
body: the address field and the appended records, each its 8-byte seq and
its payload), then zeros. Each append writes its frame into the zeros and
fsyncs the log once. A frame is valid only at the offset it was written
at, so reopening needs one rule: the first bad frame is a torn last
append, cut back, unless a frame valid where it sits follows it, which
raises ``ArchiveError``. A log behind any other marker, or none, raises
``ArchiveError``. A ledger restored by ``deserialize_ledger`` continues
each block's sequence.
"""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from ._kernels import merkle_root
from .crypto import PUBLIC_KEY_LEN, ZERO_DIGEST, Digest, PublicKey, sha256
from .ecu import EcuState, compute_state_root, subset_report, update_ecu
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
    encode_str,
    encode_u64,
)

LEDGER_MAGIC = b"ECULB"
# First bytes of every ``FileArchive`` log.
ARCHIVE_MAGIC = b"ECUAA"
# A log frame's header: the body's length and its CRC32, seeded with the frame's offset.
FRAME_HEADER = struct.Struct(">II")
# What a ``FileArchive`` log grows by, in zeros written and fsynced.
ARCHIVE_CHUNK = 1 << 20
_ZEROS = bytes(1 << 16)


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


@dataclass(frozen=True, slots=True)
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


def recorded_response(state: EcuState, record: ChallengeRecordTx) -> ChallengeResponse:
    """The response ``record`` stands for, against ``state``: the state's
    root, its records of the ECUs ``record`` names, selected by
    ``subset_report`` as the vehicle selects them, then ``record``'s
    ``ts`` and the vehicle's signature. A Valid response's root and
    records are the state's, and wire bytes re-encode canonically, so if
    ``state`` is the one the response was checked against, ``to_bytes()``
    is the wire the vehicle sent. Raises ``subset_report``'s
    ``ValueError`` if ``record`` names an ECU twice or one ``state`` lacks.
    """
    subset = tuple(subset_report(state, record.ecu_ids))
    return ChallengeResponse(compute_state_root(state), subset, record.ts, record.vehicle_sig)


def apply_entry(
    profile: Optional[VehicleProfile], tx: Transaction, owner: PublicKey
) -> VehicleProfile:
    """The profile after ``tx``, the next entry of the history of
    ``owner``'s block (None before its genesis). Raises ``ValueError``
    naming the rule ``tx`` breaks: a genesis opens a history, and nothing
    else does; an update is one ``update_ecu`` accepts, dated after its
    ECU's last write, and its ``new_root`` the updated state's root; a
    record names distinct ECUs the state has, and the response it stands
    for (``recorded_response``) is Valid by ``response_verdict`` and
    signed by ``owner``, its vehicle.
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
        response = recorded_response(profile.state, tx)
        # Its root and records are the state's, so only its ts can fail here.
        verdict = response_verdict(profile, response)
        if verdict is Verdict.VALID and not signed_by(response, response.to_bytes(), owner):
            verdict = Verdict.BAD_SIGNATURE
        if verdict is not Verdict.VALID:
            raise ValueError(f"recorded response is {verdict.value}")
        return VehicleProfile(profile.state, tx.ts)
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


def _frame(address: str, records: Iterable[LedgerEntry], pos: int) -> bytes:
    """One log frame, one per ``append_many`` call, to be written at log
    offset ``pos``: u32 body length, u32 CRC32 of the body seeded with
    ``pos`` (modulo 2**32), then the body, which is the address field and
    the batch's records as ``write_records`` writes them. The seed makes
    the frame valid at ``pos`` only.
    """
    body = encode_str(address) + write_records(records)
    return FRAME_HEADER.pack(len(body), zlib.crc32(body, pos)) + body


def _frame_at(data, pos: int, base: int = 0) -> Optional[tuple[str, int, int]]:
    """The address, the offset where the records start and the end of the
    frame that starts at ``pos`` in ``data`` (bytes or ``_LogBytes``
    whose first byte is at log offset ``base``); None unless one does: it
    fits, its body starts with an address field and its CRC32, seeded
    with its log offset ``base + pos``, matches. The CRC32 is taken a chunk at a time, so
    a length read from stray bytes costs no more memory.
    """
    header = data[pos : pos + FRAME_HEADER.size]
    if len(header) < FRAME_HEADER.size:
        return None
    length, crc = FRAME_HEADER.unpack(header)
    start, end = pos + FRAME_HEADER.size, pos + FRAME_HEADER.size + length
    if length < U32.size or end > len(data):
        return None
    field = U32.size + U32.unpack(data[start : start + U32.size])[0]
    if field > length:
        return None
    check = base + pos
    for at in range(start, end, ARCHIVE_CHUNK):
        check = zlib.crc32(data[at : min(at + ARCHIVE_CHUNK, end)], check)
    if check != crc:
        return None
    try:
        address = Reader(data[start : start + field]).read_str()
    except WireError:
        return None
    return address, start + field, end


class _LogBytes:
    """A log's bytes, sliced as ``log[start:stop]`` and read on demand: a
    slice that the last piece read does not hold preads a new piece, the
    slice or ``ARCHIVE_CHUNK`` bytes if more, so a scan holds no more.
    """

    def __init__(self, fd: int, size: int):
        self._fd, self._size = fd, size
        self._base, self._piece = 0, b""

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, span: slice) -> bytes:
        start, stop = span.start, min(span.stop, self._size)
        if start >= stop:
            return b""
        if start < self._base or stop > self._base + len(self._piece):
            want = min(max(stop - start, ARCHIVE_CHUNK), self._size - start)
            self._base, self._piece = start, _pread(self._fd, want, start)
        return self._piece[start - self._base : stop - self._base]


def _pread(fd: int, size: int, pos: int) -> bytes:
    """``size`` bytes of ``fd`` from ``pos``, in as many reads of at most
    ``ARCHIVE_CHUNK`` as it takes (one ``os.pread`` may return fewer
    bytes than asked); ``ArchiveError`` if the file ends first.
    """
    parts = []
    while size:
        part = os.pread(fd, min(size, ARCHIVE_CHUNK), pos)
        if not part:
            raise ArchiveError(f"archive log ends before offset {pos + size}")
        parts.append(part)
        size -= len(part)
        pos += len(part)
    return b"".join(parts)


def _pwrite(fd: int, data, pos: int) -> None:
    """All of ``data`` to ``fd`` at ``pos``, in as many writes as it takes."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, pos)
        if not written:
            raise OSError(f"no bytes written at offset {pos}")
        view, pos = view[written:], pos + written


def _write_zeros(fd: int, start: int, stop: int) -> None:
    """Zeros over ``[start, stop)`` of ``fd``, then an fsync."""
    zeros = memoryview(_ZEROS)
    for pos in range(start, stop, len(zeros)):
        _pwrite(fd, zeros[: stop - pos], pos)
    os.fsync(fd)


class FileArchive(Archive):
    """One append-only log per ``root``, ``archive.log``: the marker
    ``ARCHIVE_MAGIC``, then one frame per ``append_many`` call
    (``_frame``), then zeros. A zero length field ends the frames.

    The log grows by ``ARCHIVE_CHUNK`` zeros at a time, fsynced before a
    frame lands in them, so an append overwrites blocks the file already
    has: each ``append_many`` is one write of its frame at the end of the
    data, then one ``os.fsync`` of the log. The first append
    creates the log whole: its first chunk is written and fsynced under a
    temporary name, renamed into place, and the directory fsynced. The
    constructor only makes ``root``.

    An in-memory index maps each address to its frames' offsets and sizes,
    never their payloads; ``read`` preads each frame and checks its CRC32,
    its address, and that its records decode. A log that was already there
    is scanned once, on first use, a piece at a time. The scan stops where
    no valid frame starts. Each frame's CRC32 is seeded with its offset,
    so a frame is valid only where it was written, and one rule follows:
    the bad frame is a torn tail unless some offset up to the last
    non-zero byte holds a frame valid there, which is corruption in the
    middle and raises ``ArchiveError``. Since an append is one frame, a
    crash before its fsync returned leaves one bad frame (cut short,
    failing its CRC32, any of its bytes lost, its header too), and the
    next append overwrites it with its frame and zeros. A log behind any
    other marker, or none, raises ``ArchiveError``. One writer per root.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._log = self.root / "archive.log"
        self._fd: Optional[int] = None
        # Per address, each frame's offset and size in turn.
        self._index: dict[str, array] = {}
        # End of the frames, end of the bytes that may be non-zero, file size.
        self._end = self._dirty = self._size = 0

    def _opened(self) -> bool:
        """Whether the log exists; scans it at the first call that finds it."""
        if self._fd is not None:
            return True
        try:
            fd = os.open(self._log, os.O_RDWR)
        except FileNotFoundError:
            return False
        try:
            size = os.fstat(fd).st_size
            log = _LogBytes(fd, size)
            if log[0 : len(ARCHIVE_MAGIC)] != ARCHIVE_MAGIC:
                raise ArchiveError(f"not an archive log: no {ARCHIVE_MAGIC.decode()} marker")
            index, pos = {}, len(ARCHIVE_MAGIC)
            while (frame := _frame_at(log, pos)) is not None:
                address, _, end = frame
                index.setdefault(address, array("Q")).extend((pos, end - pos))
                pos = end
            dirty = pos
            for at in range(pos, size, len(_ZEROS)):
                piece = log[at : at + len(_ZEROS)]
                if piece != _ZEROS[: len(piece)]:
                    dirty = at + len(piece.rstrip(b"\0"))
            if any(_frame_at(log, q) for q in range(pos + 1, dirty)):
                raise ArchiveError(f"corrupt archive frame at offset {pos}")
        except BaseException:
            os.close(fd)
            raise
        weakref.finalize(self, os.close, fd)
        self._fd, self._index = fd, index
        self._size, self._end, self._dirty = size, pos, dirty
        return True

    def _create(self) -> None:
        tmp = self.root / "archive.log.new"
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _pwrite(fd, ARCHIVE_MAGIC, 0)
            _write_zeros(fd, len(ARCHIVE_MAGIC), ARCHIVE_CHUNK)
            os.rename(tmp, self._log)
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except BaseException:
            os.close(fd)
            raise
        weakref.finalize(self, os.close, fd)
        self._fd, self._size = fd, ARCHIVE_CHUNK
        self._end = self._dirty = len(ARCHIVE_MAGIC)

    def append_many(self, address, records):
        try:
            if not self._opened():
                self._create()
            frame = _frame(address, records, self._end)
            # Zeros past the frame clear what a failed or torn append left.
            data = frame.ljust(self._dirty - self._end, b"\0")
            stop = self._end + len(data)
            if stop > self._size:
                size = self._size + -(-(stop - self._size) // ARCHIVE_CHUNK) * ARCHIVE_CHUNK
                _write_zeros(self._fd, self._size, size)
                self._size = size
            self._dirty = stop
            _pwrite(self._fd, data, self._end)
            os.fsync(self._fd)
        except OSError as exc:
            raise ArchiveError(f"archive write failed: {exc}") from exc
        self._index.setdefault(address, array("Q")).extend((self._end, len(frame)))
        self._end += len(frame)
        self._dirty = self._end

    def read(self, address):
        try:
            if not self._opened():
                return []
            spans = self._index.get(address, array("Q"))
            frames = [(pos, _pread(self._fd, n, pos)) for pos, n in zip(spans[::2], spans[1::2])]
        except OSError as exc:
            raise ArchiveError(f"archive read failed: {exc}") from exc
        records = []
        for pos, data in frames:
            frame = _frame_at(data, 0, pos)
            if frame is None or frame[0] != address or frame[2] != len(data):
                raise ArchiveError("corrupt archive frame")
            r = Reader(data, frame[1])
            try:
                while r.remaining:
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
    profile, owner = None, block.header.owner_pk
    for seq, tx in enumerate(txs):
        try:
            profile = apply_entry(profile, tx, owner)
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
