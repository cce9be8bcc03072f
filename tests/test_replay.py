"""The audit replays the entry rules: ``reconstruct_history`` folds
``apply_entry`` over a vehicle's history, so a validly signed entry in a
place where the protocol would never have put it fails the replay, and
the roadside tier's profiles are that fold's cache.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecuchain import ledger as ledger_module
from ecuchain.ledger import (
    LedgerEntry,
    LedgerError,
    MemoryArchive,
    apply_entry,
    deserialize_ledger,
    reconstruct_history,
    validate_block,
)
from ecuchain.sim import SimConfig, build_world, load_config, parse_config, run
from ecuchain.transactions import (
    ChallengeRecordTx,
    ChallengeResponse,
    Received,
    UpdateTx,
    decode,
    decode_transaction,
    signed_wire,
)
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
    last = decode_transaction(_payloads(0)[-1]).response.value
    contradicting = dataclasses.replace(last, state_root=bytes(32), ts=last.ts + 1, sig=b"")
    response = signed_wire(contradicting, vehicle.keys)
    received = Received(decode(ChallengeResponse, response), response)
    record = signed_wire(ChallengeRecordTx(received, rsu.public, b""), rsu, vehicle.pk)
    block = deserialize_ledger(blob).blocks[vehicle.pk]
    tip = (block.entries[-1], LedgerEntry(block.entries[-1].seq + 1, record))
    assert validate_block(dataclasses.replace(block, entries=tip))
    with pytest.raises(LedgerError, match="seq 5: recorded response is StateMismatch"):
        _replay(0, _payloads(0) + [record])


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


# -- the profiles are the fold's cache, and the fold reuses the audit's decode -----------


def _fold(history):
    profile = None
    for _, payload in history:
        profile = apply_entry(profile, decode_transaction(payload))
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
        assert _fold(history) == roadside.profiles[pk]
        updated += sum(isinstance(decode_transaction(p), UpdateTx) for _, p in history)
    assert updated == len(config.maintenance)


def test_the_replay_decodes_each_entry_once(monkeypatch):
    world, _, histories = _run()
    decoded = []

    def counting(data, _original=ledger_module.decode_transaction):
        decoded.append(data)
        return _original(data)

    monkeypatch.setattr(ledger_module, "decode_transaction", counting)
    roadside = world.roadside
    for pk in roadside.ledger.creation_order:
        reconstruct_history(roadside.ledger.blocks[pk], roadside.archive)
    assert decoded == [entry.payload for history in histories for entry in history]
