"""Each pruned entry is archived exactly once, as its sequence number and
original payload, also across a restart.

Pruning archives a removed entry when it leaves the block, and never the
entries the block keeps, so the archive and the block split the history
between them with no overlap. ``reconstruct_history`` rebuilds every
link, accepts only the sequence 0, 1, 2, ... in order, and only a history
that passes ``validate_block``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, state_of
from ecuchain.ledger import (
    ARCHIVE_MAGIC,
    ArchiveError,
    FileArchive,
    Ledger,
    LedgerError,
    MemoryArchive,
    append_entry,
    deserialize_ledger,
    entry_link,
    prune_to_two,
    reconstruct_history,
)
from ecuchain.protocol import (
    RoadsideTier,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
)
from ecuchain.transactions import (
    MAX_ECUS,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    UpdateTx,
    Verdict,
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
    genesis = make_genesis(maker, vehicle.public, state, ts=0)
    records = tuple(record_tx(vehicle, state, rsu, ts=i + 1) for i in range(MAX_APPENDS))
    return genesis, records


def assert_archived_once(block, archive, originals):
    """The archive and the block never overlap: the archive's keys are
    exactly the sequence numbers before the block's head, in order, each
    record holding that entry's original payload, and the block holds the
    rest of the history. The replayed history is every original in order,
    links included.
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
    block = ledger.create_block(pk, genesis, 0, "ar://once")
    originals = [block.entries[0]]
    pending = iter(records)
    for appends, restart in runs:
        for tx in itertools.islice(pending, appends):
            block = append_entry(block, tx)
            originals.append(block.entries[-1])
        if restart:
            ledger.replace_block(pk, block)
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
    roadside = RoadsideTier(archive=archive)
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
    yield roadside
    for i, is_record in enumerate(ops):
        ts = 10 + i
        if is_record:
            _encounter(rsu, roadside, vehicle, state, ts)
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


def _encounter(rsu, roadside, vehicle, state, ts):
    challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(ts), ts)
    response = build_response(vehicle, state, challenge, ts)
    assert record_response(rsu, roadside, challenge, response) is Verdict.VALID


# -- tampered archive ------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
u64s = st.integers(0, U64_MAX)
VALUES = {
    "sig": st.binary(min_size=64, max_size=64),
    "ts": u64s,
    "ecu_id": st.integers(0, MAX_ECUS),
    "last_write_ts": u64s,
}
SIGNER_FIELD = {GenesisTx: "maker_pk", UpdateTx: "maintainer_pk", ChallengeRecordTx: "rsu_pk"}
ROOT_FIELD = {GenesisTx: "state_root", UpdateTx: "new_root", ChallengeResponse: "state_root"}
ECU_LIST_FIELD = {GenesisTx: "ecu_list", ChallengeResponse: "subset"}


def _changed(draw, obj, name):
    current = getattr(obj, name)
    value = draw(VALUES.get(name, digests).filter(lambda v: v != current))
    return dataclasses.replace(obj, **{name: value})


def _changed_content(draw, tx, kind):
    """``tx`` (a genesis, an update or a response) with its state root,
    timestamp, owner key or one ECU record changed.
    """
    if kind == "state root":
        return _changed(draw, tx, ROOT_FIELD[type(tx)])
    if kind == "ts":
        return _changed(draw, tx, "ts")
    if kind == "owner key":
        return _changed(draw, tx, "vehicle_pk")
    if isinstance(tx, UpdateTx):
        return _changed(draw, tx, draw(st.sampled_from(["ecu_id", "firmware_digest"])))
    name = ECU_LIST_FIELD[type(tx)]
    records = list(getattr(tx, name))
    i = draw(st.integers(0, len(records) - 1))
    attr = draw(st.sampled_from(["ecu_id", "firmware_digest", "last_write_ts"]))
    records[i] = _changed(draw, records[i], attr)
    return dataclasses.replace(tx, **{name: tuple(records)})


@st.composite
def changed_payload(draw, tx):
    """``tx`` with one field changed: its signature, state root, timestamp,
    owner key, signer key (the RSU's, for a challenge record) or one ECU
    record.
    """
    kind = draw(
        st.sampled_from(["sig", "state root", "ts", "owner key", "signer key", "ecu record"])
    )
    if kind == "sig":
        return _changed(draw, tx, "sig")
    if kind == "signer key":
        return _changed(draw, tx, SIGNER_FIELD[type(tx)])
    if isinstance(tx, ChallengeRecordTx):
        return dataclasses.replace(tx, response=_changed_content(draw, tx.response, kind))
    return _changed_content(draw, tx, kind)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=8), st.data())
def test_tampered_archive_history_fails_replay(ops, data):
    """The payload of one archived entry or of the block's re-anchored head
    changed, and its successor's ``prev_link`` recomputed, so every link
    still holds: the replay checks signatures and owners as well, and
    raises.
    """
    *_, roadside = _roadside_ops(ops, MemoryArchive())
    block = roadside.ledger.lookup(keys_for("vehicle").public)
    history = reconstruct_history(block, roadside.archive)
    head_seq = block.entries[0].seq
    i = data.draw(st.integers(0, head_seq), label="archived entry or head")
    history[i] = dataclasses.replace(
        history[i], payload=data.draw(changed_payload(history[i].transaction())).to_bytes()
    )
    history[i + 1] = dataclasses.replace(history[i + 1], prev_link=entry_link(history[i]))
    head = dataclasses.replace(history[head_seq], prev_link=block.entries[0].prev_link)
    block = dataclasses.replace(block, entries=(head, history[head_seq + 1]))
    records = [(e.seq, e.payload) for e in history[:head_seq]]
    with tempfile.TemporaryDirectory() as tmp:
        for archive in (MemoryArchive(), FileArchive(tmp)):
            archive.append_many(block.header.external_address, records)
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

    def registered(archive):
        authority = new_authority_tier(
            validators=(keys_for("transport"),),
            authorized_makers=(maker.public,),
            authorized_insurers=(),
        )
        roadside = RoadsideTier(archive=archive)
        initialize_vehicle(authority, roadside, genesis, 0)
        return roadside

    uninterrupted = registered(MemoryArchive())
    roadside = registered(FileArchive(tmp_path) if file_backed else MemoryArchive())
    for ts in range(10, 15):
        _encounter(rsu, uninterrupted, vehicle, state, ts)
        _encounter(rsu, roadside, vehicle, state, ts)
    restarted = RoadsideTier(
        ledger=deserialize_ledger(roadside.ledger.serialize()),
        archive=FileArchive(tmp_path) if file_backed else roadside.archive,
        profiles=roadside.profiles,
    )
    _encounter(rsu, uninterrupted, vehicle, state, 15)
    _encounter(rsu, restarted, vehicle, state, 15)

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
    block = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://stray")
    for tx in records[:5]:
        block = append_entry(block, tx)
    block, _ = prune_to_two(block, archive)
    return block, archive.read("ar://stray")


def _repeated_seq(block, records):
    """The parent layout: the block's head archived as well as kept."""
    return block, records + [(block.entries[0].seq, block.entries[0].payload)]


def _prefix_mismatch(block, records):
    """Entries in order, but one record filed under another number."""
    (_, data), *rest = records
    return block, [(len(records), data), *rest]


def _no_entries(block, records):
    return dataclasses.replace(block, entries=()), records


@pytest.mark.parametrize(
    "corrupt",
    [_repeated_seq, _prefix_mismatch, _no_entries],
    ids=["repeated-seq", "prefix-mismatch", "no-entries"],
)
def test_reconstruct_rejects_strays_with_ledger_error(corrupt):
    block, records = corrupt(*_pruned_block())
    archive = MemoryArchive()
    archive.append_many(block.header.external_address, records)
    with pytest.raises(LedgerError):
        reconstruct_history(block, archive)


def test_file_archive_reads_thousands_of_records_like_memory(tmp_path):
    genesis, records = _payloads()
    block = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://many")
    for tx in records[:5]:
        block = append_entry(block, tx)
    blobs = [entry.payload for entry in block.entries]
    batch = [(seq, blobs[seq % len(blobs)]) for seq in range(3000)]
    file_archive, memory = FileArchive(tmp_path), MemoryArchive()
    for archive in (file_archive, memory):
        archive.append_many("ar://many", batch[:1000])
        archive.append_many("ar://many", batch[1000:])
    assert file_archive.read("ar://many") == memory.read("ar://many") == batch


def test_file_archive_read_rejects_truncated_and_corrupt_records(tmp_path):
    genesis, _ = _payloads()
    entry = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://bad").entries[0]
    archive = FileArchive(tmp_path)
    archive.append_many("ar://bad", [(0, entry.payload)])
    path = archive._path("ar://bad")
    whole = path.read_bytes()
    record = whole[len(ARCHIVE_MAGIC) :]
    assert record == bytes(8) + entry.payload  # sequence number 0, then the payload
    path.write_bytes(whole + b"\x00" * 5)
    with pytest.raises(ArchiveError, match="truncated archive record header"):
        archive.read("ar://bad")
    path.write_bytes(whole + record[:-3])
    with pytest.raises(ArchiveError, match="corrupt archive record"):
        archive.read("ar://bad")
