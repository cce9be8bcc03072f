"""Each pruned entry is archived exactly once, as its sequence number and
original payload, also across a restart.

Pruning archives a removed entry when it leaves the block, and never the
entries the block keeps, so the archive and the block split the history
between them with no overlap. ``reconstruct_history`` puts the archive's
records in front of the block's entries, accepts only the sequence 0, 1,
2, ... in order, and only a history that passes ``validate_block``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import random
import stat
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import append, keys_for, state_of
from ecuchain.ledger import (
    ARCHIVE_CHUNK,
    ARCHIVE_MAGIC,
    ArchiveError,
    FileArchive,
    Ledger,
    LedgerError,
    MemoryArchive,
    decode_block,
    deserialize_ledger,
    prune_to_two,
    reconstruct_history,
    validate_block,
)
from ecuchain.protocol import (
    RoadsideTier,
    apply_upper_update,
    audit,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    submit_request,
)
from ecuchain.sim import MaintenancePlanEntry, SimConfig, build_world, run
from ecuchain.transactions import (
    MAX_ECUS,
    ChallengeRecordTx,
    GenesisTx,
    RequestTx,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    signed_wire,
)
from ecuchain.wire import U64_MAX
from test_ledger import record_tx
from test_protocol import make_update

MAX_APPENDS = 48  # 12 prunes after 4 appends each


@functools.lru_cache(maxsize=None)
def _payloads():
    """A genesis and ``MAX_APPENDS`` signed challenge records for one vehicle."""
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    state = state_of(4)
    genesis = decode(GenesisTx, make_genesis(maker, vehicle.public, state, ts=0))
    records = tuple(record_tx(vehicle, state, rsu, ts=i + 1) for i in range(MAX_APPENDS))
    return genesis, records


def assert_archived_once(block, archive, originals):
    """The archive and the block never overlap: the archive's keys are
    exactly the sequence numbers before the block's head, in order, each
    record holding that entry's original payload, and the block holds the
    rest of the history. The replayed history is every original in order.
    """
    archived = archive.read(block.header.external_address)
    head_seq = block.entries[0].seq
    assert [seq for seq, _ in archived] == list(range(head_seq))
    assert [data for _, data in archived] == [e.payload for e in originals[:head_seq]]
    assert [e.seq for e in block.entries] == list(range(head_seq, len(originals)))
    assert [e.payload for e in block.entries] == [e.payload for e in originals[head_seq:]]
    assert reconstruct_history(block, archive) == originals


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=12))
def test_interleaved_appends_and_prunes_archive_each_entry_once(runs):
    """Each run appends 1-4 entries, then, if its flag is set, restarts the
    ledger from its serialized bytes, then prunes.
    """
    genesis, records = _payloads()
    archive = MemoryArchive()
    pk = genesis.vehicle_pk
    ledger = Ledger()
    block = ledger.create_block(pk, genesis.to_bytes())
    originals = [block.entries[0]]
    pending = iter(records)
    for appends, restart in runs:
        for tx in itertools.islice(pending, appends):
            block = append(block, tx)
            originals.append(block.entries[-1])
        if restart:
            ledger.replace_block(block)
            ledger = deserialize_ledger(ledger.serialize())
            assert ledger.lookup(pk) == block
            block = ledger.lookup(pk)
        block, _ = prune_to_two(block, archive)
        assert_archived_once(block, archive, originals)


def _roadside_ops(ops, archive):
    """One registered 8-ECU vehicle on a roadside tier over ``archive``,
    then ``ops``: ``True`` is a recorded response, ``False`` an authorized
    update. Yields the tier after the registration and after each op.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    authority = new_authority_tier(
        validators=(keys_for("transport"), keys_for("legal")),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    register_rsu(authority, rsu.public)
    roadside = RoadsideTier(archive=archive)
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    yield roadside
    for i, is_record in enumerate(ops):
        ts = 10 + i
        if is_record:
            _encounter(authority, rsu, roadside, vehicle, state, ts)
        else:
            state, update = make_update(maker, vehicle.public, state, i % 8, b"fw%d" % i, ts)
            apply_upper_update(authority, roadside, update)
        yield roadside


@settings(max_examples=15, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=10))
def test_records_and_updates_archive_each_entry_once(ops):
    steps = _roadside_ops(ops, MemoryArchive())
    pk = keys_for("vehicle").public
    originals = list(next(steps).ledger.lookup(pk).entries)
    for roadside in steps:
        block = roadside.ledger.lookup(pk)
        originals.append(block.entries[-1])
        assert_archived_once(block, roadside.archive, originals)


def _encounter(authority, rsu, roadside, vehicle, state, ts):
    challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(ts), ts)
    response = build_response(vehicle, state, challenge, ts)
    assert record_response(authority, roadside, rsu, challenge, response) is Verdict.VALID


# -- tampered archive ------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
u64s = st.integers(0, U64_MAX)
VALUES = {
    "sig": st.binary(min_size=64, max_size=64),
    "vehicle_sig": st.binary(min_size=64, max_size=64),
    "ts": u64s,
    "ecu_id": st.integers(0, MAX_ECUS),
    "last_write_ts": u64s,
}
SIGNER_FIELD = {GenesisTx: "maker_pk", UpdateTx: "maintainer_pk", ChallengeRecordTx: "rsu_pk"}


def _changed(draw, obj, name):
    current = getattr(obj, name)
    value = draw(VALUES.get(name, digests).filter(lambda v: v != current))
    return dataclasses.replace(obj, **{name: value})


def _changed_content(draw, tx, kind):
    """``tx`` (a genesis, an update or a challenge record) with its state
    root, owner key or one of its ECUs changed. Only an update stores a
    state root, and only a genesis and an update name their owner; a
    genesis stores its ECU records without ids, and a record stores only
    its ECUs' ids.
    """
    if kind == "state root":
        return _changed(draw, tx, "new_root")
    if kind == "owner key":
        return _changed(draw, tx, "vehicle_pk")
    if isinstance(tx, UpdateTx):
        return _changed(draw, tx, draw(st.sampled_from(["ecu_id", "firmware_digest"])))
    if isinstance(tx, ChallengeRecordTx):
        ids = list(tx.ecu_ids)
        i = draw(st.integers(0, len(ids) - 1))
        ids[i] = draw(VALUES["ecu_id"].filter(lambda v: v != ids[i]))
        return dataclasses.replace(tx, ecu_ids=tuple(ids))
    records = list(tx.ecu_list)
    i = draw(st.integers(0, len(records) - 1))
    attr = draw(st.sampled_from(["firmware_digest", "last_write_ts"]))
    records[i] = _changed(draw, records[i], attr)
    return dataclasses.replace(tx, ecu_list=tuple(records))


@st.composite
def changed_payload(draw, tx):
    """``tx`` with one field changed: its signature, timestamp, signer key
    (the RSU's, for a challenge record), one ECU, its state root (an
    update's), its owner key (not for a challenge record, which names
    none) or a challenge record's vehicle signature.
    """
    kinds = ["sig", "ts", "signer key", "ecu"]
    if isinstance(tx, UpdateTx):
        kinds.append("state root")
    if isinstance(tx, ChallengeRecordTx):
        kinds.append("vehicle sig")
    else:
        kinds.append("owner key")
    kind = draw(st.sampled_from(kinds))
    if kind in ("sig", "ts"):
        return _changed(draw, tx, kind)
    if kind == "signer key":
        return _changed(draw, tx, SIGNER_FIELD[type(tx)])
    if kind == "vehicle sig":
        return _changed(draw, tx, "vehicle_sig")
    return _changed_content(draw, tx, kind)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=8), st.data())
def test_tampered_archive_history_fails_replay(ops, data):
    """The payload of one archived entry or of the block's head changed,
    every sequence number left in order: the replay checks signatures and
    owners, and raises.
    """
    *_, roadside = _roadside_ops(ops, MemoryArchive())
    block = roadside.ledger.lookup(keys_for("vehicle").public)
    history = reconstruct_history(block, roadside.archive)
    head_seq = block.entries[0].seq
    i = data.draw(st.integers(0, head_seq), label="archived entry or head")
    history[i] = history[i]._replace(
        payload=data.draw(changed_payload(decode_transaction(history[i].payload))).to_bytes()
    )
    block = dataclasses.replace(block, entries=tuple(history[head_seq:]))
    with tempfile.TemporaryDirectory() as tmp:
        for archive in (MemoryArchive(), FileArchive(tmp)):
            archive.append_many(block.header.external_address, history[:head_seq])
            with pytest.raises(LedgerError, match="does not validate"):
                reconstruct_history(block, archive)


@pytest.mark.parametrize("file_backed", [False, True])
def test_restarted_roadside_continues_the_archive_sequence(tmp_path, file_backed):
    """Five encounters, a restart from the serialized ledger, one more
    encounter: the audit trail equals an uninterrupted run's.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    state = state_of(8)
    genesis = make_genesis(maker, vehicle.public, state, 0)
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    register_rsu(authority, rsu.public)

    def registered(archive):
        roadside = RoadsideTier(archive=archive)
        initialize_vehicle(authority, roadside, genesis)
        return roadside

    uninterrupted = registered(MemoryArchive())
    roadside = registered(FileArchive(tmp_path) if file_backed else MemoryArchive())
    for ts in range(10, 15):
        _encounter(authority, rsu, uninterrupted, vehicle, state, ts)
        _encounter(authority, rsu, roadside, vehicle, state, ts)
    restarted = RoadsideTier(
        ledger=deserialize_ledger(roadside.ledger.serialize()),
        archive=FileArchive(tmp_path) if file_backed else roadside.archive,
        profiles=roadside.profiles,
    )
    _encounter(authority, rsu, uninterrupted, vehicle, state, 15)
    _encounter(authority, rsu, restarted, vehicle, state, 15)

    block = restarted.ledger.lookup(vehicle.public)
    assert restarted.ledger.validate()
    assert block == uninterrupted.ledger.lookup(vehicle.public)
    archived = restarted.archive.read(block.header.external_address)
    assert [seq for seq, _ in archived] == [0, 1, 2, 3, 4]
    assert [e.seq for e in block.entries] == [5, 6]
    assert archived == uninterrupted.archive.read(block.header.external_address)
    history = reconstruct_history(block, restarted.archive)
    assert len(history) == 7
    assert history == reconstruct_history(block, uninterrupted.archive)


def _pruned_block():
    """A block holding entries 4 and 5 of 6, with 0-3 in its archive."""
    genesis, records = _payloads()
    archive = MemoryArchive()
    block = Ledger().create_block(genesis.vehicle_pk, genesis.to_bytes())
    for tx in records[:5]:
        block = append(block, tx)
    block, _ = prune_to_two(block, archive)
    return block, archive.read(block.header.external_address)


def _repeated_seq(block, records):
    """The parent layout: the block's head archived as well as kept."""
    return block, records + [(block.entries[0].seq, block.entries[0].payload)]


def _prefix_mismatch(block, records):
    """Entries in order, but one record filed under another number."""
    (_, data), *rest = records
    return block, [(len(records), data), *rest]


def _no_entries(block, records):
    return dataclasses.replace(block, entries=()), records


def _shifted_seqs(block, records):
    """The retained entries renumbered from 4, 5 to 104, 105 in the block's
    bytes, under a re-sealed CRC. ``validate_block`` accepts the decoded
    block, as nothing binds a retained block's first seq; the archive
    replay must not.
    """
    body = bytearray(block.to_bytes()[:-4])
    at = len(block.header.to_bytes())  # past the header
    for entry in block.entries:
        body[at : at + 8] = (entry.seq + 100).to_bytes(8, "big")
        at += 8 + len(entry.payload)
    shifted = decode_block(bytes(body) + zlib.crc32(body).to_bytes(4, "big"))
    assert [e.seq for e in shifted.entries] == [104, 105]
    return shifted, records


@pytest.mark.parametrize(
    "corrupt",
    [_repeated_seq, _prefix_mismatch, _no_entries, _shifted_seqs],
    ids=["repeated-seq", "prefix-mismatch", "no-entries", "shifted-seqs"],
)
def test_reconstruct_rejects_strays_with_ledger_error(corrupt):
    block, records = corrupt(*_pruned_block())
    archive = MemoryArchive()
    archive.append_many(block.header.external_address, records)
    with pytest.raises(LedgerError):
        reconstruct_history(block, archive)


def _audits(ledger, archive, tier) -> bool:
    """True iff ``ledger`` validates against the roadside head ``tier``
    keeps, and every block's history replays.
    """
    try:
        for block in ledger.blocks.values():
            reconstruct_history(block, archive)
    except LedgerError:
        return False
    return ledger.validate(tier.roadside_head, tier.validator_pks)


def test_a_block_cut_after_its_genesis_fails_the_audit():
    world = build_world(SimConfig(n_vehicles=1, n_rsus=1, n_rounds=1, seed=7))
    run(world)
    ledger, archive = world.roadside.ledger, world.roadside.archive
    (vehicle,) = world.vehicles
    block = ledger.lookup(vehicle.pk)
    genesis, _record = block.entries
    assert _audits(ledger, archive, world.authority_tier)
    # The block's bytes cut where its second record starts, re-sealed.
    body = block.to_bytes()[: len(block.header.to_bytes()) + 8 + len(genesis.payload)]
    cut = decode_block(body + zlib.crc32(body).to_bytes(4, "big"))
    assert cut.entries == (genesis,)
    ledger.replace_block(cut)
    assert not _audits(ledger, archive, world.authority_tier)


def test_file_archive_reads_thousands_of_records_like_memory(tmp_path):
    genesis, records = _payloads()
    block = Ledger().create_block(genesis.vehicle_pk, genesis.to_bytes())
    for tx in records[:5]:
        block = append(block, tx)
    blobs = [entry.payload for entry in block.entries]
    batch = [(seq, blobs[seq % len(blobs)]) for seq in range(3000)]
    file_archive, memory = FileArchive(tmp_path), MemoryArchive()
    for archive in (file_archive, memory):
        archive.append_many("ar://many", batch[:1000])
        archive.append_many("ar://many", batch[1000:])
    assert file_archive.read("ar://many") == memory.read("ar://many") == batch


def _log(root) -> bytes:
    return (root / "archive.log").read_bytes()


def _frame_offsets(data: bytes) -> list[int]:
    """Where each frame of a log starts, and where the frames end: each
    frame's u32 length says where the next one starts, up to a zero
    length.
    """
    offsets = [len(ARCHIVE_MAGIC)]
    while length := int.from_bytes(data[offsets[-1] : offsets[-1] + 4], "big"):
        offsets.append(offsets[-1] + 8 + length)
    return offsets


def _resealed(data: bytes, start: int, body: bytes) -> bytes:
    """``data`` with the frame at ``start`` replaced by one holding ``body``
    under a matching length and a CRC32 seeded with ``start``.
    """
    end = start + 8 + int.from_bytes(data[start : start + 4], "big")
    frame = len(body).to_bytes(4, "big") + zlib.crc32(body, start).to_bytes(4, "big") + body
    return data[:start] + frame + data[end:]


def test_file_archive_read_rejects_truncated_and_corrupt_records(tmp_path):
    """A frame in the middle of the log that fails its CRC32, or whose
    length was zeroed, raises on reopen, and a frame whose bytes changed
    under the open archive raises at the next read. A frame re-sealed
    around a record cut short or followed by a stray byte raises at
    ``read``. A last frame cut short or failing its CRC32, with only zeros
    after it, is an append whose fsync never returned: the reopened
    archive reads the records before it.
    """
    genesis, records = _payloads()
    payloads = [genesis.to_bytes(), records[0].to_bytes(), records[1].to_bytes()]
    archive = FileArchive(tmp_path)
    for seq, payload in enumerate(payloads):
        archive.append_many("ar://bad", [(seq, payload)])
    whole = _log(tmp_path)
    _, middle, last, end = _frame_offsets(whole)
    # The middle frame's body starts with its address field and seq 1.
    assert whole[middle + 8 :][:20] == (8).to_bytes(4, "big") + b"ar://bad" + (1).to_bytes(8, "big")
    assert whole[end:] == bytes(ARCHIVE_CHUNK - end) and len(whole) == ARCHIVE_CHUNK
    expected = list(enumerate(payloads))

    def reopened(data):
        (tmp_path / "archive.log").write_bytes(data)
        return FileArchive(tmp_path).read("ar://bad")

    flipped = bytearray(whole)
    flipped[middle + 100] ^= 0x01
    (tmp_path / "archive.log").write_bytes(flipped)
    with pytest.raises(ArchiveError, match="corrupt archive frame"):
        archive.read("ar://bad")
    for corrupt in (flipped, whole[:middle] + bytes(4) + whole[middle + 4 :]):
        with pytest.raises(ArchiveError, match=f"corrupt archive frame at offset {middle}"):
            reopened(bytes(corrupt))
    body = whole[middle + 8 : last]
    for resealed in (body[:-3], body + b"\x00"):
        with pytest.raises(ArchiveError, match="corrupt archive record"):
            reopened(_resealed(whole, middle, resealed))
    flipped = bytearray(whole)
    flipped[end - 1] ^= 0x01
    for torn in (whole[: end - 3], bytes(flipped)):
        assert reopened(torn) == expected[:2]
    assert reopened(whole) == expected


def test_a_flipped_length_bit_in_the_middle_raises_on_reopen(tmp_path):
    """A log of four one-record frames with any one of the 32 bits of the
    third frame's length flipped: the fourth frame is still valid where it
    was written, so a reopen raises, and never reads the first two records
    as if a torn tail followed them.
    """
    genesis, records = _payloads()
    archive = FileArchive(tmp_path)
    for seq, tx in enumerate((genesis, *records[:3])):
        archive.append_many("ar://len", [(seq, tx.to_bytes())])
    whole = _log(tmp_path)
    third = _frame_offsets(whole)[2]
    for bit in range(32):
        flipped = bytearray(whole)
        flipped[third + bit // 8] ^= 0x80 >> bit % 8
        (tmp_path / "archive.log").write_bytes(flipped)
        with pytest.raises(ArchiveError, match=f"corrupt archive frame at offset {third}$"):
            FileArchive(tmp_path).read("ar://len")


def _fsyncs(monkeypatch, root):
    """A list that each ``os.fsync`` appends to: ``"dir"`` for ``root``,
    else the log's size and where its frames end (see ``_frame_offsets``).
    """
    fsync, synced = os.fsync, []

    def recording_fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            synced.append("dir" if os.path.samestat(st, os.stat(root)) else "other dir")
        else:
            synced.append((st.st_size, _frame_offsets(os.pread(fd, st.st_size, 0))[-1]))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


def test_each_append_ends_with_one_fsync_of_the_log(tmp_path, monkeypatch):
    """The first append to a fresh root fsyncs the zeroed chunk, the
    directory that now names the log, then the frame; each later append
    fsyncs the log once, after its frame is written, and one that crosses
    a chunk fsyncs the new zeroed chunk first.
    """
    genesis, _ = _payloads()
    payload = genesis.to_bytes()
    # A frame's header and address field, then 8 bytes of seq per record.
    head, record = 8 + 4 + len("ar://sync"), 8 + len(payload)
    synced = _fsyncs(monkeypatch, tmp_path)
    archive = FileArchive(tmp_path)
    assert synced == [] and not os.listdir(tmp_path)
    archive.append_many("ar://sync", [(0, payload)])
    end = len(ARCHIVE_MAGIC) + head + record
    assert synced == [(ARCHIVE_CHUNK, len(ARCHIVE_MAGIC)), "dir", (ARCHIVE_CHUNK, end)]
    assert os.listdir(tmp_path) == ["archive.log"]
    del synced[:]
    archive.append_many("ar://sync", [(1, payload)])
    end += head + record
    assert synced == [(ARCHIVE_CHUNK, end)]
    del synced[:]
    fill = (ARCHIVE_CHUNK - end - head) // record
    archive.append_many("ar://sync", [(2 + i, payload) for i in range(fill)])
    end += head + fill * record
    assert synced == [(ARCHIVE_CHUNK, end)]
    del synced[:]
    archive.append_many("ar://sync", [(2 + fill, payload)])
    assert synced == [(2 * ARCHIVE_CHUNK, end), (2 * ARCHIVE_CHUNK, end + head + record)]
    assert [seq for seq, _ in FileArchive(tmp_path).read("ar://sync")] == list(range(3 + fill))


def test_each_append_after_a_reopen_ends_with_one_fsync_of_the_log(tmp_path, monkeypatch):
    """Reopened over a log whose last append was torn, the first append
    overwrites the torn frame and fsyncs the log once, and so does each
    later one; one that crosses a chunk fsyncs the new zeroed chunk first.
    """
    genesis, _ = _payloads()
    payload = genesis.to_bytes()
    head, record = 8 + 4 + len("ar://sync"), 8 + len(payload)
    archive = FileArchive(tmp_path)
    archive.append_many("ar://sync", [(0, payload)])
    archive.append_many("ar://sync", [(1, payload)])
    whole = _log(tmp_path)
    end = _frame_offsets(whole)[-1]
    (tmp_path / "archive.log").write_bytes(whole[: end - 40] + bytes(40) + whole[end:])
    synced = _fsyncs(monkeypatch, tmp_path)
    archive = FileArchive(tmp_path)
    assert archive.read("ar://sync") == [(0, payload)] and synced == []
    archive.append_many("ar://sync", [(1, payload)])
    assert synced == [(ARCHIVE_CHUNK, end)]
    del synced[:]
    fill = (ARCHIVE_CHUNK - end - head) // record
    archive.append_many("ar://sync", [(2 + i, payload) for i in range(fill)])
    end += head + fill * record
    assert synced == [(ARCHIVE_CHUNK, end)]
    del synced[:]
    archive.append_many("ar://sync", [(2 + fill, payload)])
    assert synced == [(2 * ARCHIVE_CHUNK, end), (2 * ARCHIVE_CHUNK, end + head + record)]
    assert [seq for seq, _ in FileArchive(tmp_path).read("ar://sync")] == list(range(3 + fill))


ADDRESSES = ["ar://a", "ar://bb", "ar://ccc", "ar://dddd"]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=10),
    st.data(),
)
def test_file_archive_reads_like_memory_across_a_reopen(batches, data):
    """Any interleaving of ``append_many`` calls on 1-4 addresses, with
    batches of 1-4 records and one batch larger than a chunk, reads the
    same from a ``FileArchive`` as from a ``MemoryArchive``, before and
    after the root is reopened at a drawn point.
    """
    genesis, records = _payloads()
    payloads = [genesis.to_bytes()] + [tx.to_bytes() for tx in records]
    big = data.draw(st.integers(0, len(batches)), label="big batch before")
    reopen = data.draw(st.integers(0, len(batches) + 1), label="reopen before")
    big_size = ARCHIVE_CHUNK // min(map(len, payloads)) + 1
    batches.insert(big, (data.draw(st.integers(0, 3), label="big batch address"), big_size))
    memory, seqs = MemoryArchive(), itertools.count()
    with tempfile.TemporaryDirectory() as root:
        archive = FileArchive(root)
        for i, (address, size) in enumerate(batches):
            if i == reopen:
                archive = FileArchive(root)
            batch = [(seq, payloads[seq % len(payloads)]) for seq in itertools.islice(seqs, size)]
            for each in (archive, memory):
                each.append_many(ADDRESSES[address], batch)
        for each in (archive, FileArchive(root)):
            for address in ADDRESSES:
                assert each.read(address) == memory.read(address)


def test_a_reopened_archive_reads_every_acknowledged_record_after_a_torn_append(tmp_path):
    """The last append is one frame of two records. The log cut at every
    byte of that frame, and, separately, with each of its bytes zeroed,
    with its bytes zeroed from its start up to each byte (its header and
    first record lost, its second record kept) and from each byte on, as
    a crash before the append's fsync returned can leave it: a reopened
    archive reads every earlier record (and the last two, where zeroing
    changed nothing), and its next append lands after them and reads back,
    also after another reopen.
    """
    genesis, records = _payloads()
    payloads = [tx.to_bytes() for tx in records[:3]] + [genesis.to_bytes()]
    archive = FileArchive(tmp_path / "source")
    archive.append_many("ar://a", [(0, payloads[0]), (1, payloads[1])])
    archive.append_many("ar://b", [(0, payloads[2])])
    archive.append_many("ar://a", [(2, payloads[3]), (3, payloads[2])])
    del archive
    whole = _log(tmp_path / "source")
    acknowledged = _frame_offsets(whole)
    *_, last, end = acknowledged
    before = {"ar://a": [(0, payloads[0]), (1, payloads[1])], "ar://b": [(0, payloads[2])]}
    after = {**before, "ar://a": before["ar://a"] + [(2, payloads[3]), (3, payloads[2])]}
    # Shorter than the last frame, so zeros must clear what is left of it.
    assert len(payloads[0]) < len(payloads[3]) + len(payloads[2])
    root = tmp_path / "crashed"
    root.mkdir()

    def recovers(data, appends=True):
        expected, frames = (after, acknowledged) if data == whole else (before, acknowledged[:-1])
        (root / "archive.log").write_bytes(data)
        archive = FileArchive(root)
        assert {a: archive.read(a) for a in expected} == expected
        if not appends:
            return
        added = [(len(expected["ar://a"]), payloads[0])]
        archive.append_many("ar://a", added)
        log = _log(root)
        offsets = _frame_offsets(log)
        assert offsets[:-1] == frames
        assert not any(log[offsets[-1] :])
        for reader in (archive, FileArchive(root)):
            assert reader.read("ar://a") == expected["ar://a"] + added
            assert reader.read("ar://b") == expected["ar://b"]

    # The zeros past the frames are cut to a few, so each case is quick.
    whole = whole[: end + 64]
    for at in range(last, end):
        recovers(whole[:at])
        recovers(whole[:at] + b"\x00" + whole[at + 1 :])
        recovers(whole[:last] + bytes(at - last) + whole[at:], appends=False)
        recovers(whole[:at] + bytes(end - at) + whole[end:], appends=False)


def _log_with_a_frame_in_its_last(root):
    """A log of two appends to ``ar://a``, whose second record's payload
    holds a frame for ``ar://b``, valid at the offset of the log's first
    frame; the log's bytes, where its last frame starts, where the frame
    inside it starts and where the frames end.
    """
    archive = FileArchive(root)
    archive.append_many("ar://a", [(0, _payloads()[0].to_bytes())])
    inner = _resealed(_log(root), len(ARCHIVE_MAGIC), b"\x00\x00\x00\x06ar://b" + bytes(8))
    inner = inner[len(ARCHIVE_MAGIC) : _frame_offsets(inner)[1]]
    archive.append_many("ar://a", [(1, b"\x01" * 40 + inner + b"\x01" * 40)])
    whole = _log(root)
    _, last, end = _frame_offsets(whole)
    return whole, last, whole.index(inner, last), end


def test_a_torn_append_whose_kept_bytes_hold_a_frame_is_cut_back(tmp_path):
    """A payload may hold the bytes of a valid frame, but a frame is valid
    only at the offset it was written at. Where a torn append kept its
    frame's header, and lost bytes from any later one on, the frame inside
    it is not mistaken for a record written after it.
    """
    genesis, _ = _payloads()
    whole, last, _, end = _log_with_a_frame_in_its_last(tmp_path)
    for at in range(last + 8, end):
        (tmp_path / "archive.log").write_bytes(whole[:at] + bytes(end - at) + whole[end:])
        assert FileArchive(tmp_path).read("ar://a") == [(0, genesis.to_bytes())]
        assert FileArchive(tmp_path).read("ar://b") == []


def test_a_torn_append_that_lost_its_header_and_kept_a_frame_is_cut_back(tmp_path):
    """A torn append that lost its length field, its bytes zeroed from its
    start through each byte up to the frame its payload holds, and kept
    that frame: the frame is valid only where it was made, so the reopen
    reads the record before the torn append, and none for ``ar://b``.
    """
    genesis, _ = _payloads()
    whole, last, inner, _ = _log_with_a_frame_in_its_last(tmp_path)
    for at in range(last + 4, inner + 1):
        (tmp_path / "archive.log").write_bytes(whole[:last] + bytes(at - last) + whole[at:])
        assert FileArchive(tmp_path).read("ar://a") == [(0, genesis.to_bytes())]
        assert FileArchive(tmp_path).read("ar://b") == []


def test_short_reads_neither_lose_nor_overwrite_acknowledged_frames(tmp_path, monkeypatch):
    """``os.pread`` may return fewer bytes than asked. A reopen that gets
    a few bytes per call still reads every record and appends after them;
    a read that finds the log ending before its size raises, and is never
    taken for a torn tail.
    """
    genesis, records = _payloads()
    payloads = [genesis.to_bytes()] + [tx.to_bytes() for tx in records[:3]]
    archive = FileArchive(tmp_path)
    for seq, payload in enumerate(payloads):
        archive.append_many("ar://short", [(seq, payload)])
    whole = _log(tmp_path)
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, pos: pread(fd, min(n, 7), pos))
    reopened = FileArchive(tmp_path)
    assert reopened.read("ar://short") == list(enumerate(payloads))
    reopened.append_many("ar://short", [(4, payloads[0])])
    assert _frame_offsets(_log(tmp_path))[:-1] == _frame_offsets(whole)
    monkeypatch.setattr(os, "pread", lambda fd, n, pos: pread(fd, n, pos) if pos < 600 else b"")
    with pytest.raises(ArchiveError, match="archive log ends before"):
        FileArchive(tmp_path).read("ar://short")
    monkeypatch.undo()
    assert FileArchive(tmp_path).read("ar://short") == list(enumerate(payloads + payloads[:1]))


def test_a_sims_log_holds_one_frame_per_append(tmp_path):
    """After a small run on a ``FileArchive``, the log's frames end at the
    marker plus, per ``append_many`` call, 8 bytes of frame header and the
    address field (u32 length and UTF-8), and per archived record its
    8-byte seq and its payload; zeros fill the rest of its whole chunks.
    """
    config = SimConfig(n_vehicles=3, n_rsus=2, n_rounds=3, ecus_per_vehicle=4, seed=5)
    archive = FileArchive(tmp_path)
    appends, append_many = [], archive.append_many

    def counting(address, records):
        records = list(records)
        appends.append((address, len(records)))
        append_many(address, records)

    archive.append_many = counting
    world = build_world(config, archive=archive)
    run(world)
    size = len(ARCHIVE_MAGIC) + sum(8 + 4 + len(address.encode()) for address, _ in appends)
    records = 0
    for block in world.roadside.ledger.blocks.values():
        for _, payload in archive.read(block.header.external_address):
            records += 1
            size += 8 + len(payload)
    log = _log(tmp_path)
    # A vehicle's history is its genesis and one record per encounter, and
    # its block retains the last two.
    assert records == sum(n for _, n in appends) == config.n_vehicles * (config.encounters_per_vehicle - 1) == 15
    assert _frame_offsets(log)[-1] == size
    assert log[size:] == bytes(ARCHIVE_CHUNK - size) and len(log) == ARCHIVE_CHUNK


# -- an entry moved to another block ---------------------------------------------------
# Every entry's signature covers the key of the block it was made for (a
# vehicle's, or the audit block's for a request), and the audit checks it
# under the key of the block that keeps it.

RELOCATION = SimConfig(
    n_vehicles=3, n_rsus=2, n_rounds=2, ecus_per_vehicle=4, seed=11,
    maintenance=(MaintenancePlanEntry(vehicle=2, ecu=0, round=1),),
)
# A history is the genesis at seq 0, then one record per encounter (and the
# third vehicle's update at seq 2); a block retains the last two, and the
# archive keeps the rest. The audit block, after the vehicles' blocks, keeps
# two requests and prunes nothing.
RETAINED_FROM = RELOCATION.encounters_per_vehicle - 1
AUDIT = RELOCATION.n_vehicles


@functools.lru_cache(maxsize=None)
def _relocation_run():
    """A run's world, after two insurer requests, and each block's full
    history, verified, in creation order: the vehicles' blocks, then the
    audit block.
    """
    world = build_world(RELOCATION)
    run(world)
    tier, insurer = world.authority_tier, world.insurer
    for ts, query in enumerate(("claim 1", "claim 2"), 1):
        request = RequestTx(insurer_pk=insurer.public, query=query, ts=ts, sig=b"")
        submit_request(tier, signed_wire(request, insurer, tier.audit_pk))
    ledger, archive = world.roadside.ledger, world.roadside.archive
    histories = [reconstruct_history(ledger.blocks[pk], archive) for pk in ledger.creation_order]
    histories.append(list(tier.ledger.blocks[tier.audit_pk].entries))
    return world, tuple(histories)


def _relocated(target, t, payload):
    """Both tiers of the run, restored, with ``payload`` in place of the
    entry at seq ``t`` of the ``target``-th block's history, and that
    block. Every entry stays retained or archived as in the run.
    """
    world, histories = _relocation_run()
    tier = world.authority_tier
    roadside = RoadsideTier(ledger=deserialize_ledger(world.roadside.ledger.serialize()))
    authority = dataclasses.replace(tier, ledger=deserialize_ledger(tier.ledger.serialize()))
    owners = [*roadside.ledger.creation_order, tier.audit_pk]
    for i, (pk, history) in enumerate(zip(owners, histories)):
        ledger = authority.ledger if i == AUDIT else roadside.ledger
        history = list(history)
        if i == target:
            history[t] = history[t]._replace(payload=payload)
        block = ledger.blocks[pk]
        head_seq = block.entries[0].seq
        roadside.archive.append_many(block.header.external_address, history[:head_seq])
        ledger.blocks[pk] = dataclasses.replace(block, entries=tuple(history[head_seq:]))
    target_ledger = authority.ledger if target == AUDIT else roadside.ledger
    return authority, roadside, target_ledger.blocks[owners[target]]


def assert_moved_record_fails_the_audit(source, s, target, t):
    """The entry at seq ``s`` of the ``source``-th block's history, put at
    seq ``t`` of the ``target``-th block's, fails a vehicle block's replay
    and, where the block retains it, ``validate_block``, ``Ledger.validate``
    and ``protocol.audit``.
    """
    _, histories = _relocation_run()
    assert source != target
    authority, roadside, block = _relocated(target, t, histories[source][s].payload)
    if target != AUDIT:
        with pytest.raises(LedgerError, match="does not validate"):
            reconstruct_history(block, roadside.archive)
    if t >= block.entries[0].seq:
        assert validate_block(block) is False
        assert (authority.ledger if target == AUDIT else roadside.ledger).validate() is False
        assert audit(authority, roadside) is False


def test_the_relocation_run_audits_before_any_move():
    _, histories = _relocation_run()
    authority, roadside, block = _relocated(1, 2, histories[1][2].payload)
    assert block.entries[0].seq == RETAINED_FROM
    assert audit(authority, roadside)
    for block in roadside.ledger.blocks.values():
        reconstruct_history(block, roadside.archive)
    kinds = [type(decode_transaction(entry.payload)) for entry in histories[2]]
    assert kinds[:3] == [GenesisTx, ChallengeRecordTx, UpdateTx]
    assert [len(history) for history in histories] == [5, 5, 6, 2]


@pytest.mark.parametrize(
    "source, s, t",
    [
        pytest.param(0, 4, 4, id="retained-to-block"),
        pytest.param(0, 1, 4, id="archived-to-block"),
        pytest.param(0, 4, 1, id="retained-to-archive"),
        pytest.param(0, 1, 2, id="archived-to-archive"),
        pytest.param(AUDIT, 0, 4, id="request-to-block"),
        pytest.param(AUDIT, 1, 1, id="request-to-archive"),
        pytest.param(2, 0, 4, id="genesis-to-block"),
        pytest.param(2, 2, 4, id="update-to-block"),
    ],
)
def test_a_record_moved_to_another_vehicles_block_fails_the_audit(source, s, t):
    assert RETAINED_FROM == 3
    assert_moved_record_fails_the_audit(source, s, 1, t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_record_moved_to_any_other_block_fails_the_audit(data):
    """Any entry, a genesis, an update, a challenge record or a request,
    moved to any seq of any other block of either tier.
    """
    _, histories = _relocation_run()
    blocks = st.integers(0, AUDIT)
    source = data.draw(blocks, label="source")
    s = data.draw(st.integers(0, len(histories[source]) - 1), label="s")
    target = data.draw(blocks.filter(lambda i: i != source), label="target")
    t = data.draw(st.integers(0, len(histories[target]) - 1), label="t")
    assert_moved_record_fails_the_audit(source, s, target, t)


def test_a_moved_record_signed_again_for_its_new_block_fails_only_the_replay():
    """The same record, signed by the same RSU for the vehicle whose block
    now keeps it, passes every signature and owner check, but its response
    contradicts that vehicle's history: the replay's fold rejects it.
    """
    world, histories = _relocation_run()
    record = decode_transaction(histories[0][4].payload)
    (rsu,) = [keys for keys in world.rsus if keys.public == record.rsu_pk]
    target = decode_transaction(histories[1][0].payload).vehicle_pk
    resigned = signed_wire(dataclasses.replace(record, sig=b""), rsu, target)
    assert resigned[:-64] == histories[0][4].payload[:-64]
    _, roadside, block = _relocated(1, 4, resigned)
    assert validate_block(block) and roadside.ledger.validate()
    with pytest.raises(LedgerError, match="seq 4: recorded response is"):
        reconstruct_history(block, roadside.archive)
