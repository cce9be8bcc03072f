"""The audit replays the entry rules: ``reconstruct_history`` folds
``apply_entry`` over a vehicle's history, so a validly signed entry in a
place where the protocol would never have put it fails the replay, and
the roadside tier's profiles are that fold's cache. A challenge record
keeps only the response's ECU ids, ts and signature: the fold rebuilds
the response from the vehicle's state and checks that signature.
"""

from __future__ import annotations

import dataclasses
import functools
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, record_of, state_of
from ecuchain import ledger as ledger_module
from ecuchain import transactions as transactions_module
from ecuchain.ledger import (
    FileArchive,
    LedgerEntry,
    LedgerError,
    MemoryArchive,
    apply_entry,
    deserialize_ledger,
    reconstruct_history,
    recorded_response,
    validate_block,
)
from ecuchain.protocol import (
    MAX_RESPONSE_DELAY_MS,
    RoadsideTier,
    build_response,
    initialize_vehicle,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
)
from ecuchain.sim import (
    MaintenancePlanEntry,
    SimConfig,
    build_world,
    load_config,
    parse_config,
    run,
)
from ecuchain.transactions import (
    Challenge,
    ChallengeResponse,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    signed_wire,
)
from ecuchain.wire import U64_MAX
from test_protocol import make_update

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "demo.cfg"
SMALL = SimConfig(n_vehicles=3, n_rsus=2, n_rounds=2, ecus_per_vehicle=4, seed=7)
# Two updates, one on a vehicle that a later attack gets revoked, and four
# attacks: three on registered vehicles and one by a phantom.
ADVERSARIAL = parse_config(
    """
    n_vehicles = 4
    n_rsus = 2
    ecus_per_vehicle = 6
    n_rounds = 3
    seed = 5
    maintenance = 1,2,1
    maintenance = 2,0,3
    attack = fake-data,0,2
    attack = ecu-reversal,2,4
    attack = replay,3,2
    attack = sybil,1,1
    """
)


@functools.lru_cache(maxsize=None)
def _run():
    """The SMALL run's world, its serialized roadside ledger and each
    block's full history, in creation order.
    """
    world = build_world(SMALL)
    run(world)
    ledger, archive = world.roadside.ledger, world.roadside.archive
    histories = tuple(
        tuple(reconstruct_history(ledger.blocks[pk], archive)) for pk in ledger.creation_order
    )
    return world, ledger.serialize(), histories


def _payloads(i):
    _, _, histories = _run()
    return [entry.payload for entry in histories[i]]


def _replay(i, payloads):
    """``reconstruct_history`` of the run's ``i``-th block with
    ``payloads`` as its history, numbered from 0: the block retains the
    last two and the archive holds the rest.
    """
    _, blob, _ = _run()
    ledger = deserialize_ledger(blob)
    block = ledger.blocks[ledger.creation_order[i]]
    entries = [LedgerEntry(seq, payload) for seq, payload in enumerate(payloads)]
    archive = MemoryArchive()
    archive.append_many(block.header.external_address, entries[:-2])
    return reconstruct_history(dataclasses.replace(block, entries=tuple(entries[-2:])), archive)


def test_the_run_replays_as_recorded():
    _, _, histories = _run()
    assert [len(history) for history in histories] == [5, 5, 5]
    for i, history in enumerate(histories):
        assert _replay(i, _payloads(i)) == list(history)


# -- one test per hole: each history below passed the replay before it folded the rules --


def test_two_archived_records_swapped_fail_the_replay():
    payloads = _payloads(0)
    payloads[1], payloads[2] = payloads[2], payloads[1]
    with pytest.raises(LedgerError, match="seq 2: recorded response is StaleTimestamp"):
        _replay(0, payloads)


def test_a_duplicated_record_fails_the_replay():
    payloads = _payloads(0)
    payloads[2] = payloads[1]
    with pytest.raises(LedgerError, match="seq 2: recorded response is StaleTimestamp"):
        _replay(0, payloads)


def test_a_genesis_copied_to_seq_1_fails_the_replay():
    payloads = _payloads(1)
    payloads[1] = payloads[0]
    with pytest.raises(LedgerError, match="seq 1: a genesis opens a history"):
        _replay(1, payloads)


def test_a_record_at_seq_0_fails_the_replay():
    with pytest.raises(LedgerError, match="seq 0: a genesis opens a history"):
        _replay(1, _payloads(1)[1:])


def test_the_two_retained_records_swapped_fail_the_replay():
    payloads = _payloads(2)
    payloads[3], payloads[4] = payloads[4], payloads[3]
    with pytest.raises(LedgerError, match="seq 4: recorded response is StaleTimestamp"):
        _replay(2, payloads)


def test_a_registered_rsus_record_of_a_contradicting_response_fails_the_replay():
    """The vehicle signs a fresh response whose state root is not its
    registered one, and a registered RSU countersigns it for the vehicle's
    block: every signature and owner check passes, only the rule fails.
    """
    world, blob, _ = _run()
    vehicle, rsu = world.vehicles[0], world.rsus[0]
    state = world.roadside.profiles[vehicle.pk].state
    last = recorded_response(state, decode_transaction(_payloads(0)[-1]))
    contradicting = dataclasses.replace(last, state_root=bytes(32), ts=last.ts + 1, sig=b"")
    response = signed_wire(contradicting, vehicle.keys)
    record = signed_wire(record_of(decode(ChallengeResponse, response), rsu.public), rsu, vehicle.pk)
    block = deserialize_ledger(blob).blocks[vehicle.pk]
    tip = (block.entries[-1], LedgerEntry(block.entries[-1].seq + 1, record))
    assert validate_block(dataclasses.replace(block, entries=tip))
    with pytest.raises(LedgerError, match="seq 5: recorded response is BadSignature"):
        _replay(0, _payloads(0) + [record])


def _tip_signed_again(**changes):
    """Vehicle 0's history with ``changes`` made to its tip record, which
    the registered RSU that signed it signs again for the vehicle's block.
    The run's ledger with that tip in its place validates.
    """
    world, blob, _ = _run()
    vehicle, payloads = world.vehicles[0], _payloads(0)
    tip = decode_transaction(payloads[-1])
    (rsu,) = [rsu for rsu in world.rsus if rsu.public == tip.rsu_pk]
    payloads[-1] = signed_wire(dataclasses.replace(tip, sig=b"", **changes), rsu, vehicle.pk)
    ledger = deserialize_ledger(blob)
    block = ledger.blocks[vehicle.pk]
    ledger.blocks[vehicle.pk] = dataclasses.replace(
        block, entries=(block.entries[0], block.entries[1]._replace(payload=payloads[-1]))
    )
    assert ledger.validate()
    return payloads


def test_a_registered_rsus_record_of_a_forged_vehicle_signature_fails_the_replay():
    """A registered RSU signs, for the vehicle's block, a record whose
    vehicle signature is forged: the RSU's signature and the owner check
    pass, and the ledger validates, but the response the record stands
    for is not the vehicle's.
    """
    with pytest.raises(LedgerError, match="seq 4: recorded response is BadSignature"):
        _replay(0, _tip_signed_again(vehicle_sig=bytes(64)))


def test_a_registered_rsus_record_that_names_an_ecu_twice_fails_the_replay():
    """A registered RSU signs, for the vehicle's block, a record that
    names one ECU twice. The fold selects the records a record names as
    the vehicle selects them, with ``subset_report``, so it refuses the
    repeat by name instead of rebuilding a response no vehicle would sign.
    """
    ids = decode_transaction(_payloads(0)[-1]).ecu_ids
    payloads = _tip_signed_again(ecu_ids=(ids[0], *ids[:-1]))
    with pytest.raises(LedgerError, match="seq 4: duplicate ECU index"):
        _replay(0, payloads)


def test_a_duplicated_update_fails_the_replay():
    """The same signed update twice in a row: the copy is not dated after
    its ECU's last write, which the first one set.
    """
    world, _, _ = _run()
    vehicle = world.vehicles[0]
    state = world.roadside.profiles[vehicle.pk].state
    _, update = make_update(world.maker, vehicle.pk, state, 1, b"fw-v2", ts=1)
    assert len(_replay(0, _payloads(0) + [update])) == 6
    with pytest.raises(LedgerError, match="seq 6: update not dated after its ECU's last write"):
        _replay(0, _payloads(0) + [update, update])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_any_swap_or_substitution_within_a_history_fails_the_replay(data):
    """Swapping two entries of a vehicle's history, or putting one of its
    validly signed entries in place of another, raises ``LedgerError`` and
    nothing else.
    """
    i = data.draw(st.integers(0, SMALL.n_vehicles - 1), label="block")
    payloads = _payloads(i)
    at = st.integers(0, len(payloads) - 1)
    a, b = data.draw(st.lists(at, min_size=2, max_size=2, unique=True), label="entries")
    if data.draw(st.booleans(), label="swap"):
        payloads[a], payloads[b] = payloads[b], payloads[a]
    else:
        payloads[a] = payloads[b]
    with pytest.raises(LedgerError):
        _replay(i, payloads)


# -- a record stands for the response the vehicle sent ----------------------------------


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_the_fold_rebuilds_a_recorded_response_byte_for_byte(data):
    """From 1 to 30 ECUs, any subset and any timestamps: the response
    that the fold rebuilds from the vehicle's state and the record that
    ``record_response`` kept is the wire the vehicle sent, byte for byte,
    and the history replays.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    n = data.draw(st.integers(1, 30), label="ECUs")
    written = data.draw(st.integers(0, U64_MAX), label="last write")
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    subset = tuple(data.draw(ids, label="subset"))
    issued = data.draw(st.integers(0, U64_MAX - MAX_RESPONSE_DELAY_MS), label="issued")
    ts = data.draw(st.integers(issued, issued + MAX_RESPONSE_DELAY_MS), label="ts")
    authority = new_authority_tier((keys_for("transport"),), (maker.public,), ())
    register_rsu(authority, rsu.public)
    roadside = RoadsideTier()
    state = state_of(n, ts=written)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    challenge = Challenge(rsu.public, vehicle.public, subset, issued)
    wire = build_response(vehicle, state, challenge, ts)
    assert record_response(authority, roadside, rsu, challenge, wire) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle.public)
    record = decode_transaction(block.entries[-1].payload)
    assert len(block.entries[-1].payload) == 171 + 2 * len(subset)
    assert recorded_response(state, record).to_bytes() == wire
    assert len(reconstruct_history(block, roadside.archive)) == 2


# -- the profiles are the fold's cache, and the fold reuses the audit's decode -----------


def _fold(history, owner):
    profile = None
    for _, payload in history:
        profile = apply_entry(profile, decode_transaction(payload), owner)
    return profile


@pytest.mark.parametrize(
    "config", [load_config(DEMO_CONFIG), ADVERSARIAL], ids=["demo", "adversarial"]
)
def test_each_roadside_profile_is_the_fold_of_its_history(config):
    assert config.maintenance and config.attacks
    world = build_world(config)
    result = run(world)
    roadside = world.roadside
    assert result.report.revoked and set(roadside.profiles) == set(roadside.ledger.blocks)
    updated = 0
    for pk, block in roadside.ledger.blocks.items():
        history = reconstruct_history(block, roadside.archive)
        assert _fold(history, pk) == roadside.profiles[pk]
        updated += sum(isinstance(decode_transaction(p), UpdateTx) for _, p in history)
    assert updated == len(config.maintenance)


@pytest.mark.parametrize(
    "archive",
    [
        "memory",
        pytest.param(
            "file",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="FileArchive.read parses each payload to find where it ends, "
                "and the replay parses it again (ROADMAP item 23)",
            ),
        ),
    ],
)
def test_the_replay_decodes_each_entry_once(monkeypatch, tmp_path, archive):
    """The replay decodes each entry of each history once, and parses each
    once in all: every parse goes through ``read_transaction``, the
    archive's own included.
    """
    world = build_world(SMALL, archive=FileArchive(tmp_path) if archive == "file" else None)
    run(world)
    roadside = world.roadside
    blocks = [roadside.ledger.blocks[pk] for pk in roadside.ledger.creation_order]
    histories = [reconstruct_history(block, roadside.archive) for block in blocks]
    decoded, parsed = [], []

    def decoding(data, _original=ledger_module.decode_transaction):
        decoded.append(data)
        return _original(data)

    def parsing(r, _original=transactions_module.read_transaction):
        parsed.append(r)
        return _original(r)

    monkeypatch.setattr(ledger_module, "decode_transaction", decoding)
    monkeypatch.setattr(ledger_module, "read_transaction", parsing)
    monkeypatch.setattr(transactions_module, "read_transaction", parsing)
    for block in blocks:
        reconstruct_history(block, roadside.archive)
    assert decoded == [entry.payload for history in histories for entry in history]
    assert len(parsed) == len(decoded)


# -- the whole run, attack-free ----------------------------------------------------------------


@st.composite
def attack_free_configs(draw):
    """1-8 vehicles, 1-4 RSUs, 1-3 rounds, 1-30 ECUs, up to 4 maintenance
    visits and any seed: a config ``validate`` accepts, with no attack.
    """
    n_vehicles, n_rsus = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    n_rounds, n_ecus = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    visits = st.builds(
        MaintenancePlanEntry,
        st.integers(0, n_vehicles - 1),
        st.integers(0, n_ecus - 1),
        st.integers(0, n_rsus * n_rounds - 1),
    )
    return SimConfig(
        n_vehicles=n_vehicles,
        n_rsus=n_rsus,
        ecus_per_vehicle=n_ecus,
        n_rounds=n_rounds,
        seed=draw(st.integers(0, U64_MAX)),
        maintenance=tuple(draw(st.lists(visits, max_size=4))),
    )


def _whole_run(config, archive):
    """The run of ``config`` on ``archive``: its world, its result, the
    serialized roadside ledger and the archive's records of each block.
    """
    world = build_world(config, archive=archive)
    result = run(world)
    ledger = world.roadside.ledger
    reads = [
        world.roadside.archive.read(ledger.blocks[pk].header.external_address)
        for pk in ledger.creation_order
    ]
    return world, result, ledger.serialize(), reads


@pytest.mark.parametrize("archive", ["memory", "file"])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(config=attack_free_configs())
def test_an_attack_free_run_replays_byte_identical_and_all_valid(archive, config):
    """Two runs of one attack-free config log, store and archive the same
    bytes; every encounter is Valid and the ledgers hold; each block
    replays to one entry per ``init``, ``maintenance`` and ``encounter``
    line of its vehicle; and the ledger survives a serialize round trip.
    """
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        archives = (FileArchive(first), FileArchive(second)) if archive == "file" else (None, None)
        world, result, blob, reads = _whole_run(config, archives[0])
        _, again, blob_again, reads_again = _whole_run(config, archives[1])
        assert again.event_log == result.event_log
        assert (blob_again, reads_again) == (blob, reads)
        report = result.report
        assert report.verdict_counts == {"Valid": report.encounters}
        assert report.encounters == config.n_vehicles * config.encounters_per_vehicle
        assert report.ledgers_valid
        entries = Counter(
            subject
            for _, kind, subject, _ in (line.split("\t") for line in result.event_log)
            if kind in ("init", "maintenance", "encounter")
        )
        ledger = world.roadside.ledger
        for pk in ledger.creation_order:
            history = reconstruct_history(ledger.blocks[pk], world.roadside.archive)
            assert len(history) == entries[world.subject_by_pk[pk]]
    assert deserialize_ledger(blob).serialize() == blob
