from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import keys_for, state_of
from ecuchain import _kernels
from ecuchain.crypto import sha256, verify
from ecuchain.ecu import compute_state_root, update_ecu
from ecuchain.ledger import Archive, ArchiveError
from ecuchain.protocol import (
    MAX_RESPONSE_DELAY_MS,
    ProtocolError,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    record_response,
    report_malicious,
    submit_request,
    verify_response,
)
from ecuchain.transactions import (
    ChallengeRecordTx,
    RequestTx,
    UpdateTx,
    Verdict,
    signed,
    signed_by,
)
from test_ecu_merkle import oracle_root


def make_update(maintainer_keys, vehicle_pk, state, ecu_id, firmware, ts):
    """Signed update transaction over a fresh state (mirrors maintenance)."""
    digest = sha256(firmware)
    new_state = update_ecu(state, ecu_id, digest, ts)
    unsigned = UpdateTx(
        new_root=compute_state_root(new_state),
        ts=ts,
        vehicle_pk=vehicle_pk,
        maintainer_pk=maintainer_keys.public,
        ecu_id=ecu_id,
        firmware_digest=digest,
        sig=b"",
    )
    return new_state, dataclasses.replace(
        unsigned, sig=maintainer_keys.sign(unsigned.signing_bytes())
    )


def signed_request(insurer_keys, query, ts):
    """Evidence request signed by the insurer."""
    unsigned = RequestTx(insurer_pk=insurer_keys.public, query=query, ts=ts, sig=b"")
    return signed(unsigned, insurer_keys)


def honest_round(roadside, rsu_keys, vehicle_keys, state, ts, rng=None, indices=None):
    rng = rng or random.Random(ts)
    challenge = issue_challenge(
        rsu_keys.public, vehicle_keys.public, len(state), rng, ts
    )
    if indices is not None:
        challenge = dataclasses.replace(challenge, subset_indices=tuple(indices))
    response = build_response(vehicle_keys, state, challenge, ts)
    return challenge, response


# -- genesis and initialization ------------------------------------------------


def test_make_genesis_root_matches_oracle(maker_keys, vehicle_keys, ecu_state8):
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=4)
    digests = [r.firmware_digest for r in ecu_state8.records]
    assert genesis.state_root == oracle_root(digests)
    assert len(genesis.ecu_list) == 8
    assert verify(maker_keys.public, genesis.signing_bytes(), genesis.sig)


def test_make_genesis_rejects_empty_state(maker_keys, vehicle_keys):
    with pytest.raises(ValueError):
        make_genesis(maker_keys, vehicle_keys.public, state_of(0), ts=0)


def test_initialize_registers_block(registered):
    _, roadside, vehicle_keys, _ = registered
    block = roadside.ledger.lookup(vehicle_keys.public)
    assert block is not None
    assert block.header.owner_pk == vehicle_keys.public
    assert vehicle_keys.public in roadside.profiles


def test_initialize_rejects_unauthorized_maker(tiers, vehicle_keys, ecu_state8):
    authority, roadside = tiers
    rogue = keys_for("rogue-maker")
    genesis = make_genesis(rogue, vehicle_keys.public, ecu_state8, ts=0)
    with pytest.raises(ProtocolError, match="unauthorized"):
        initialize_vehicle(authority, roadside, genesis, ts=0)
    assert len(roadside.ledger) == 0


def test_initialize_rejects_duplicate(registered, maker_keys, ecu_state8):
    authority, roadside, vehicle_keys, _ = registered
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=1)
    with pytest.raises(ProtocolError, match="already registered"):
        initialize_vehicle(authority, roadside, genesis, ts=1)


def test_initialize_rejects_bad_signature(tiers, maker_keys, vehicle_keys, ecu_state8):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    broken = dataclasses.replace(genesis, sig=bytes(64))
    with pytest.raises(ProtocolError, match="signature"):
        initialize_vehicle(authority, roadside, broken, ts=0)


def test_initialize_rejects_inconsistent_root(tiers, maker_keys, vehicle_keys, ecu_state8):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    forged = dataclasses.replace(genesis, state_root=sha256(b"lie"))
    forged = dataclasses.replace(
        forged, sig=maker_keys.sign(forged.signing_bytes())
    )
    with pytest.raises(ProtocolError, match="state root"):
        initialize_vehicle(authority, roadside, forged, ts=0)


def poison_root(state, root):
    """``state`` with a wrong root in its cache, as a vehicle could hold."""
    object.__setattr__(state, "_root", root)
    return state


def test_initialize_ignores_a_root_cached_on_the_vehicle_side(
    tiers, maker_keys, vehicle_keys
):
    authority, roadside = tiers
    state = poison_root(state_of(8), sha256(b"lie"))
    genesis = make_genesis(maker_keys, vehicle_keys.public, state, ts=0)
    assert genesis.state_root == sha256(b"lie")
    with pytest.raises(ProtocolError, match="state root"):
        initialize_vehicle(authority, roadside, genesis, ts=0)
    assert len(roadside.ledger) == 0


def test_update_ignores_a_root_cached_on_the_vehicle_side(registered, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    new_state = poison_root(
        update_ecu(state, 2, sha256(b"fw-v2"), ts=5), compute_state_root(state)
    )
    unsigned = UpdateTx(
        new_root=compute_state_root(new_state),
        ts=5,
        vehicle_pk=vehicle_keys.public,
        maintainer_pk=maker_keys.public,
        ecu_id=2,
        firmware_digest=sha256(b"fw-v2"),
        sig=b"",
    )
    update = dataclasses.replace(
        unsigned, sig=maker_keys.sign(unsigned.signing_bytes())
    )
    before = roadside.ledger.lookup(vehicle_keys.public)
    with pytest.raises(ProtocolError, match="new_root"):
        apply_upper_update(authority, roadside, update)
    assert roadside.ledger.lookup(vehicle_keys.public) == before
    assert roadside.profiles[vehicle_keys.public].state == state


def test_two_hundred_sequential_initializations(tiers, maker_keys):
    authority, roadside = tiers
    for i in range(200):
        keys = keys_for(f"fleet{i}")
        genesis = make_genesis(maker_keys, keys.public, state_of(4), ts=0)
        initialize_vehicle(authority, roadside, genesis, ts=i)
    assert len(roadside.ledger) == 200
    assert roadside.ledger.validate()
    assert len(authority.audit_log) == 200
    validator_pks = [v.public for v in authority.validators]
    assert all(ev.verify(validator_pks) for ev in authority.audit_log[:5])


# -- upper-tier update ----------------------------------------------------------


def test_update_then_challenge_valid(registered, rsu_keys, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    new_state, update = make_update(
        maker_keys, vehicle_keys.public, state, 3, b"fw-v2", ts=10
    )
    apply_upper_update(authority, roadside, update)
    assert compute_state_root(roadside.profiles[vehicle_keys.public].state) == update.new_root
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, new_state, ts=20)
    assert verify_response(roadside, challenge, response) is Verdict.VALID


def test_update_refreshes_subset_registry(registered, rsu_keys, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    new_state, update = make_update(maker_keys, vehicle_keys.public, state, 2, b"v2", ts=9)
    apply_upper_update(authority, roadside, update)
    # force the maintained ECU into the subset: still Valid
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, new_state, ts=30, indices=[2, 0, 1]
    )
    assert verify_response(roadside, challenge, response) is Verdict.VALID


def test_update_unknown_vehicle_rejected(tiers, maker_keys):
    authority, roadside = tiers
    ghost = keys_for("ghost")
    _, update = make_update(maker_keys, ghost.public, state_of(4), 0, b"fw", ts=1)
    with pytest.raises(ProtocolError, match="unknown vehicle"):
        apply_upper_update(authority, roadside, update)


def test_update_unauthorized_maintainer_rejected(registered):
    authority, roadside, vehicle_keys, state = registered
    rogue = keys_for("rogue-tech")
    _, update = make_update(rogue, vehicle_keys.public, state, 0, b"fw", ts=1)
    with pytest.raises(ProtocolError, match="unauthorized"):
        apply_upper_update(authority, roadside, update)


def test_update_tampered_metadata_rejected(registered, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    _, update = make_update(maker_keys, vehicle_keys.public, state, 1, b"fw", ts=1)
    tampered = dataclasses.replace(update, firmware_digest=sha256(b"other fw"))
    with pytest.raises(ProtocolError, match="signature"):
        apply_upper_update(authority, roadside, tampered)


# -- challenge issue/build ------------------------------------------------------


def test_issue_challenge_deterministic_subset():
    first = issue_challenge(b"\x01" * 32, b"\x02" * 32, 8, random.Random(42), ts=1)
    again = issue_challenge(b"\x01" * 32, b"\x02" * 32, 8, random.Random(42), ts=1)
    assert first.subset_indices == again.subset_indices
    assert len(first.subset_indices) == 3
    assert len(set(first.subset_indices)) == 3


def test_issue_challenge_small_vehicle():
    ch = issue_challenge(b"\x01" * 32, b"\x02" * 32, 2, random.Random(0), ts=1)
    assert sorted(ch.subset_indices) == [0, 1]


def test_issue_challenge_rejects_zero_ecus():
    with pytest.raises(ProtocolError):
        issue_challenge(b"\x01" * 32, b"\x02" * 32, 0, random.Random(0), ts=1)


def test_issue_challenge_subsets_vary_across_seeds():
    subsets = {
        issue_challenge(b"\x01" * 32, b"\x02" * 32, 8, random.Random(s), ts=1).subset_indices
        for s in range(100)
    }
    assert len(subsets) >= 2


def test_responses_from_one_state_compute_its_root_once(
    monkeypatch, vehicle_keys, rsu_keys
):
    calls = []
    original = _kernels.merkle_root

    def counting(digests):
        calls.append(len(digests))
        return original(digests)

    monkeypatch.setattr(_kernels, "merkle_root", counting)
    state = state_of(8)
    rng = random.Random(5)
    roots = set()
    for ts in range(1, 7):
        challenge = issue_challenge(rsu_keys.public, vehicle_keys.public, 8, rng, ts)
        roots.add(build_response(vehicle_keys, state, challenge, ts).state_root)
    assert calls == [8]
    assert roots == {oracle_root([r.firmware_digest for r in state.records])}


def test_build_response_rejects_foreign_challenge(vehicle_keys, rsu_keys):
    challenge = issue_challenge(
        rsu_keys.public, keys_for("someone-else").public, 4, random.Random(0), ts=1
    )
    with pytest.raises(ProtocolError, match="different vehicle"):
        build_response(vehicle_keys, state_of(4), challenge, ts=1)


def test_build_response_subset_mirrors_live_records(vehicle_keys, rsu_keys):
    state = state_of(8)
    challenge = issue_challenge(rsu_keys.public, vehicle_keys.public, 8, random.Random(1), ts=5)
    response = build_response(vehicle_keys, state, challenge, ts=5)
    assert verify(vehicle_keys.public, response.signing_bytes(), response.sig)
    for rec in response.subset:
        assert rec == state.records[rec.ecu_id]


def test_build_response_rejects_out_of_range_index(vehicle_keys, rsu_keys):
    challenge = issue_challenge(rsu_keys.public, vehicle_keys.public, 8, random.Random(1), ts=5)
    challenge = dataclasses.replace(challenge, subset_indices=(0, 9))
    with pytest.raises(ValueError, match="out of range"):
        build_response(vehicle_keys, state_of(8), challenge, ts=5)


# -- verify_response verdicts ---------------------------------------------------


def test_verdict_honest_first_encounter(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert verify_response(roadside, challenge, response) is Verdict.VALID


def test_verdict_unknown_vehicle(registered, rsu_keys):
    _, roadside, _, _ = registered
    ghost = keys_for("phantom")
    challenge, response = honest_round(roadside, rsu_keys, ghost, state_of(4), ts=7)
    assert verify_response(roadside, challenge, response) is Verdict.UNKNOWN_VEHICLE


def test_verdict_bad_signature(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    sig = bytearray(response.sig)
    sig[10] ^= 0xFF
    broken = dataclasses.replace(response, sig=bytes(sig))
    assert verify_response(roadside, challenge, broken) is Verdict.BAD_SIGNATURE


def test_verdict_stale_timestamp_on_replay(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    # replay at the next roadside unit
    rsu2 = keys_for("rsu-2")
    challenge2, _ = honest_round(roadside, rsu2, vehicle_keys, state, ts=20)
    assert verify_response(roadside, challenge2, response) is Verdict.STALE_TIMESTAMP


def test_response_outside_the_challenge_window_is_stale(registered, rsu_keys):
    """Recording a far-future response would pin ``last_response_ts`` and
    make the honest vehicle's next response stale, which revokes it.
    """
    _, roadside, vehicle_keys, state = registered
    profile = dataclasses.replace(roadside.profiles[vehicle_keys.public])
    challenge, _ = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    latest = challenge.issued_ts + MAX_RESPONSE_DELAY_MS
    for ts in (10**12, latest + 1, challenge.issued_ts - 1):
        response = build_response(vehicle_keys, state, challenge, ts)
        assert verify_response(roadside, challenge, response) is Verdict.STALE_TIMESTAMP
    assert roadside.profiles[vehicle_keys.public] == profile
    response = build_response(vehicle_keys, state, challenge, latest)
    assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=latest + 1)
    assert verify_response(roadside, challenge, response) is Verdict.VALID


def test_verdict_state_mismatch_on_silent_tamper(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    tampered = update_ecu(state, 4, sha256(b"malware"), ts=6)
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, tampered, ts=7)
    assert verify_response(roadside, challenge, response) is Verdict.STATE_MISMATCH


def test_verdict_subset_mismatch_on_reversal(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    # reinstall the original firmware image: digest identical, timestamp moved
    original = state.records[2].firmware_digest
    reverted = update_ecu(state, 2, original, ts=6)
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, reverted, ts=7, indices=[2, 0, 1]
    )
    assert verify_response(roadside, challenge, response) is Verdict.SUBSET_MISMATCH


def test_verdict_subset_mismatch_on_wrong_indices(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, state, ts=7, indices=[0, 1, 2]
    )
    challenge = dataclasses.replace(challenge, subset_indices=(0, 1, 3))
    assert verify_response(roadside, challenge, response) is Verdict.SUBSET_MISMATCH


def test_verdict_deterministic(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    verdicts = {verify_response(roadside, challenge, response) for _ in range(5)}
    assert verdicts == {Verdict.VALID}


# -- record_response and pruning -------------------------------------------------


def test_record_keeps_two_entries(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    assert len(block.entries) == 2  # genesis + record


def test_five_encounters_prune_to_two(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    for i in range(5):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=10 + i
        )
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    assert len(block.entries) == 2
    assert block.entries[0].seq == 4  # genesis + first three records moved out
    archived = roadside.archive.read(block.header.external_address)
    # genesis and the first three records; the block keeps the other two
    assert len({seq for seq, _ in archived}) == 4
    from ecuchain.ledger import reconstruct_history

    assert len(reconstruct_history(block, roadside.archive)) == 6


def test_five_encounters_archive_one_record_per_entry(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    for i in range(5):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=10 + i
        )
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    archived = roadside.archive.read(block.header.external_address)
    # genesis and the first three records, each once; the head stays in the block
    assert [seq for seq, _ in archived] == [0, 1, 2, 3]
    assert [seq for seq, _ in archived] + [e.seq for e in block.entries] == list(range(6))


def test_recorded_entry_countersignature_verifies(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    record = block.entries[-1].transaction()
    assert isinstance(record, ChallengeRecordTx)
    assert record.rsu_pk == rsu_keys.public
    assert verify(rsu_keys.public, record.signing_bytes(), record.sig)


def test_recorded_timestamps_strictly_increase(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    seen = []
    for i in range(6):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=100 + i * 3
        )
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
        seen.append(response.ts)
    assert seen == sorted(set(seen))


class FailingArchive(Archive):
    def append_many(self, address, records):
        raise ArchiveError("no space")

    def read(self, address):
        return []


def test_record_archive_failure_leaves_ledger_unchanged(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    # two successful rounds so the next record triggers a prune
    for i in range(2):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=5 + i)
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    before = roadside.ledger.lookup(vehicle_keys.public)
    before_ts = roadside.profiles[vehicle_keys.public].last_response_ts
    roadside.archive = FailingArchive()
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=50)
    with pytest.raises(ArchiveError):
        record_response(rsu_keys, roadside, challenge, response)
    assert roadside.ledger.lookup(vehicle_keys.public) == before
    assert roadside.profiles[vehicle_keys.public].last_response_ts == before_ts


# -- reporting and requests -------------------------------------------------------


def test_report_requires_non_valid_verdict(rsu_keys, vehicle_keys):
    with pytest.raises(ProtocolError, match="nothing to report"):
        report_malicious(rsu_keys, vehicle_keys.public, Verdict.VALID, ts=1)


def test_report_event_signature(rsu_keys, vehicle_keys):
    event = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=9)
    assert signed_by(event, rsu_keys.public)
    forged = dataclasses.replace(event, vehicle_pk=keys_for("scapegoat").public)
    assert not signed_by(forged, rsu_keys.public)


def test_submit_request_stores_on_audit_block(tiers, insurer_keys):
    authority, _ = tiers
    request = signed_request(insurer_keys, "incident 4711 evidence", ts=3)
    submit_request(authority, request)
    block = authority.ledger.lookup(authority.audit_pk)
    assert block.entries[-1].transaction() == request
    assert verify(insurer_keys.public, request.signing_bytes(), request.sig)
    assert authority.ledger.validate()


def test_submit_request_rejects_unauthorized(tiers):
    authority, _ = tiers
    rogue = keys_for("rogue-insurer")
    request = signed_request(rogue, "fishing", ts=3)
    before = authority.ledger.lookup(authority.audit_pk)
    with pytest.raises(ProtocolError, match="unauthorized"):
        submit_request(authority, request)
    assert authority.ledger.lookup(authority.audit_pk) == before
