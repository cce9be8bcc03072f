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

from conftest import append, embedded, keys_for, state_of
from ecuchain.ledger import (
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
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
)
from ecuchain.sim import SimConfig, build_world, run
from ecuchain.transactions import (
    MAX_ECUS,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
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
    block = ledger.create_block(pk, genesis.to_bytes(), 0)
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
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
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
    "ts": u64s,
    "ecu_id": st.integers(0, MAX_ECUS),
    "last_write_ts": u64s,
}
SIGNER_FIELD = {GenesisTx: "maker_pk", UpdateTx: "maintainer_pk", ChallengeRecordTx: "rsu_pk"}
# A genesis stores no root.
ROOT_FIELD = {UpdateTx: "new_root", ChallengeResponse: "state_root"}
# Each ECU list's field and the record fields it stores: a genesis inventory
# stores no ECU ids, which are the records' positions.
ECU_LIST_FIELD = {
    GenesisTx: ("ecu_list", ["firmware_digest", "last_write_ts"]),
    ChallengeResponse: ("subset", ["ecu_id", "firmware_digest", "last_write_ts"]),
}


def _changed(draw, obj, name):
    current = getattr(obj, name)
    value = draw(VALUES.get(name, digests).filter(lambda v: v != current))
    return dataclasses.replace(obj, **{name: value})


def _changed_content(draw, tx, kind):
    """``tx`` (a genesis, an update or a response) with its state root,
    timestamp, owner key or one ECU record changed. A genesis has no state
    root, and its ECU records no stored id.
    """
    if kind == "state root":
        return _changed(draw, tx, ROOT_FIELD[type(tx)])
    if kind == "ts":
        return _changed(draw, tx, "ts")
    if kind == "owner key":
        return _changed(draw, tx, "vehicle_pk")
    if isinstance(tx, UpdateTx):
        return _changed(draw, tx, draw(st.sampled_from(["ecu_id", "firmware_digest"])))
    name, stored = ECU_LIST_FIELD[type(tx)]
    records = list(getattr(tx, name))
    i = draw(st.integers(0, len(records) - 1))
    attr = draw(st.sampled_from(stored))
    records[i] = _changed(draw, records[i], attr)
    return dataclasses.replace(tx, **{name: tuple(records)})


@st.composite
def changed_payload(draw, tx):
    """``tx`` with one field changed: its signature, state root (not for a
    genesis), timestamp, owner key (not for a challenge record, which names
    none), signer key (the RSU's, for a challenge record) or one ECU record.
    """
    content = tx.response.value if isinstance(tx, ChallengeRecordTx) else tx
    kinds = ["sig", "state root", "ts", "owner key", "signer key", "ecu record"]
    if type(content) not in ROOT_FIELD:
        kinds.remove("state root")
    if isinstance(tx, ChallengeRecordTx):
        kinds.remove("owner key")
    kind = draw(st.sampled_from(kinds))
    if kind == "sig":
        return _changed(draw, tx, "sig")
    if kind == "signer key":
        return _changed(draw, tx, SIGNER_FIELD[type(tx)])
    changed = _changed_content(draw, content, kind)
    if isinstance(tx, ChallengeRecordTx):
        return dataclasses.replace(tx, response=embedded(changed))
    return changed


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
        initialize_vehicle(authority, roadside, genesis, 0)
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
    block = Ledger().create_block(genesis.vehicle_pk, genesis.to_bytes(), 0)
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
    block = Ledger().create_block(genesis.vehicle_pk, genesis.to_bytes(), 0)
    for tx in records[:5]:
        block = append(block, tx)
    blobs = [entry.payload for entry in block.entries]
    batch = [(seq, blobs[seq % len(blobs)]) for seq in range(3000)]
    file_archive, memory = FileArchive(tmp_path), MemoryArchive()
    for archive in (file_archive, memory):
        archive.append_many("ar://many", batch[:1000])
        archive.append_many("ar://many", batch[1000:])
    assert file_archive.read("ar://many") == memory.read("ar://many") == batch


def test_file_archive_read_rejects_truncated_and_corrupt_records(tmp_path):
    genesis, _ = _payloads()
    block = Ledger().create_block(genesis.vehicle_pk, genesis.to_bytes(), 0)
    entry = block.entries[0]
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


def test_first_append_to_an_address_also_syncs_the_directory(tmp_path, monkeypatch):
    """A new archive file's name is durable only once its directory is
    synced: the first append to an address syncs the file and the
    directory, and each later append syncs only the file.
    """
    genesis, _ = _payloads()
    fsync, synced = os.fsync, []

    def recording_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    archive = FileArchive(tmp_path)
    archive.append_many("ar://sync", [(0, genesis.to_bytes())])
    assert synced == ["file", "dir"]
    archive.append_many("ar://sync", [(1, genesis.to_bytes())])
    assert synced == ["file", "dir", "file"]
    assert [seq for seq, _ in archive.read("ar://sync")] == [0, 1]



# -- a record moved to another vehicle's block -------------------------------------------
# A challenge record names no vehicle: its RSU's signature covers the key of
# the vehicle it was made for, and the audit checks it under the key of the
# block that keeps it.

RELOCATION = SimConfig(n_vehicles=3, n_rsus=2, n_rounds=2, ecus_per_vehicle=4, seed=11)
# A history is the genesis at seq 0, then one record per encounter; a block
# retains the last two, and the archive keeps the rest.
RECORD_SEQS = range(1, RELOCATION.encounters_per_vehicle + 1)
RETAINED_FROM = RELOCATION.encounters_per_vehicle - 1


@functools.lru_cache(maxsize=None)
def _relocation_run():
    """A run's RSU keys, its serialized roadside ledger and each block's
    full history, verified, in creation order.
    """
    world = build_world(RELOCATION)
    run(world)
    ledger, archive = world.roadside.ledger, world.roadside.archive
    histories = [reconstruct_history(ledger.blocks[pk], archive) for pk in ledger.creation_order]
    return world.rsus, ledger.serialize(), histories


def _relocated(target, t, payload):
    """The run's roadside ledger, restored, and an archive, with ``payload``
    in place of the entry at seq ``t`` of the ``target``-th block's history,
    and that block. Every entry stays retained or archived as in the run.
    """
    _, blob, histories = _relocation_run()
    ledger, archive = deserialize_ledger(blob), MemoryArchive()
    for i, (pk, history) in enumerate(zip(ledger.creation_order, histories)):
        history = list(history)
        if i == target:
            history[t] = history[t]._replace(payload=payload)
        block = ledger.blocks[pk]
        head_seq = block.entries[0].seq
        archive.append_many(block.header.external_address, history[:head_seq])
        ledger.blocks[pk] = dataclasses.replace(block, entries=tuple(history[head_seq:]))
    return ledger, archive, ledger.blocks[ledger.creation_order[target]]


def assert_moved_record_fails_the_audit(source, s, target, t):
    """The record at seq ``s`` of the ``source``-th block's history, put at
    seq ``t`` of the ``target``-th block's, fails its replay and, where that
    block retains it, ``validate_block`` and ``Ledger.validate``.
    """
    _, _, histories = _relocation_run()
    payload = histories[source][s].payload
    assert isinstance(decode_transaction(payload), ChallengeRecordTx)
    ledger, archive, block = _relocated(target, t, payload)
    with pytest.raises(LedgerError, match="does not validate"):
        reconstruct_history(block, archive)
    if t >= block.entries[0].seq:
        assert validate_block(block) is False
        assert ledger.validate() is False


def test_the_relocation_run_audits_before_any_move():
    _, _, histories = _relocation_run()
    ledger, archive, block = _relocated(1, 2, histories[1][2].payload)
    assert block.entries[0].seq == RETAINED_FROM
    assert ledger.validate()
    for block in ledger.blocks.values():
        reconstruct_history(block, archive)


@pytest.mark.parametrize(
    "s, t",
    [(4, 4), (1, 4), (4, 1), (1, 2)],
    ids=["retained-to-block", "archived-to-block", "retained-to-archive", "archived-to-archive"],
)
def test_a_record_moved_to_another_vehicles_block_fails_the_audit(s, t):
    assert RETAINED_FROM == 3
    assert_moved_record_fails_the_audit(0, s, 1, t)


@settings(max_examples=30, deadline=None)
@given(
    st.permutations(range(RELOCATION.n_vehicles)),
    st.sampled_from(RECORD_SEQS),
    st.sampled_from(RECORD_SEQS),
)
def test_any_record_moved_to_any_other_block_fails_the_audit(owners, s, t):
    source, target, *_ = owners
    assert_moved_record_fails_the_audit(source, s, target, t)


def test_a_moved_record_signed_again_for_its_new_block_fails_only_the_replay():
    """The same record, signed by the same RSU for the vehicle whose block
    now keeps it, passes every signature and owner check, but its response
    contradicts that vehicle's history: the replay's fold rejects it.
    """
    rsus, _, histories = _relocation_run()
    record = decode_transaction(histories[0][4].payload)
    (rsu,) = [keys for keys in rsus if keys.public == record.rsu_pk]
    target = decode_transaction(histories[1][0].payload).vehicle_pk
    resigned = signed_wire(dataclasses.replace(record, sig=b""), rsu, target)
    assert resigned[:-64] == histories[0][4].payload[:-64]
    ledger, archive, block = _relocated(1, 4, resigned)
    assert validate_block(block) and ledger.validate()
    with pytest.raises(LedgerError, match="seq 4: recorded response is"):
        reconstruct_history(block, archive)
