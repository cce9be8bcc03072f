from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import keys_for, record_of, state_of
from ecuchain import _kernels
from ecuchain.crypto import KeyPair, sha256, verify
from ecuchain.ecu import EcuState, compute_state_root, update_ecu
from ecuchain.ledger import Archive, ArchiveError, external_address
from ecuchain.protocol import (
    MAX_RESPONSE_DELAY_MS,
    ProtocolError,
    ReportEvent,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    report_malicious,
    submit_request,
    verify_response,
)
from ecuchain.transactions import (
    TAG_CHALLENGE_RECORD,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    signed_by,
    signed_wire,
)
from test_ecu_merkle import oracle_root


def make_update(maintainer_keys, vehicle_pk, state, ecu_id, firmware, ts):
    """The new state and the wire bytes of the signed update transaction
    that moves ``state`` to it (mirrors maintenance).
    """
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
    return new_state, signed_wire(unsigned, maintainer_keys, vehicle_pk)


def signed_request(insurer_keys, query, ts, owner):
    """Wire bytes of an evidence request signed by the insurer over
    ``owner``, the audit block's key.
    """
    unsigned = RequestTx(insurer_pk=insurer_keys.public, query=query, ts=ts, sig=b"")
    return signed_wire(unsigned, insurer_keys, owner)


def verdict_of(roadside, challenge, wire):
    """``verify_response`` of the response ``wire``, decoded as
    ``record_response`` decodes it.
    """
    return verify_response(roadside, challenge, decode(ChallengeResponse, wire), wire)



def honest_round(roadside, rsu_keys, vehicle_keys, state, ts, rng=None, indices=None):
    rng = rng or random.Random(ts)
    challenge = issue_challenge(
        rsu_keys.public, vehicle_keys.public, len(state), rng, ts
    )
    if indices is not None:
        challenge = dataclasses.replace(challenge, subset_indices=tuple(indices))
    response = build_response(vehicle_keys, state, challenge, ts)
    return challenge, response


def genesis_of(maker_keys, vehicle_pk, state, ts):
    """``make_genesis``'s wire bytes decoded."""
    return decode(GenesisTx, make_genesis(maker_keys, vehicle_pk, state, ts))


# -- genesis and initialization ------------------------------------------------


def test_make_genesis_root_matches_oracle(maker_keys, vehicle_keys, ecu_state8):
    """A genesis stores its inventory and no root; the root the tier
    derives from that inventory is the oracle's.
    """
    genesis = genesis_of(maker_keys, vehicle_keys.public, ecu_state8, ts=4)
    digests = [r.firmware_digest for r in ecu_state8.records]
    assert genesis.ecu_list == ecu_state8.records
    assert compute_state_root(EcuState(records=genesis.ecu_list)) == oracle_root(digests)
    assert signed_by(genesis, genesis.to_bytes(), vehicle_keys.public)


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
        initialize_vehicle(authority, roadside, genesis)
    assert len(roadside.ledger) == 0


def test_initialize_rejects_duplicate(registered, maker_keys, ecu_state8):
    authority, roadside, vehicle_keys, _ = registered
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=1)
    with pytest.raises(ProtocolError, match="already registered"):
        initialize_vehicle(authority, roadside, genesis)


def test_initialize_rejects_bad_signature(tiers, maker_keys, vehicle_keys, ecu_state8):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    broken = genesis[:-64] + bytes(64)
    with pytest.raises(ProtocolError, match="signature"):
        initialize_vehicle(authority, roadside, broken)


@pytest.mark.parametrize("ecu_list", [()], ids=["empty"])
def test_initialize_rejects_an_unusable_ecu_list_as_protocol_error(
    tiers, maker_keys, vehicle_keys, ecu_list
):
    """An ECU list no ``EcuState`` can hold is a ``ProtocolError`` before
    the signature is checked, so an unsigned genesis that names an
    authorized maker cannot raise anything else, and changes nothing. An
    inventory reads back with ids 0 to n - 1, so only an empty one is
    left to refuse.
    """
    authority, roadside = tiers
    unsigned = GenesisTx(
        ts=0,
        ecu_list=ecu_list,
        vehicle_pk=vehicle_keys.public,
        maker_pk=maker_keys.public,
        sig=bytes(64),
    )
    with pytest.raises(ProtocolError, match="ECU list"):
        initialize_vehicle(authority, roadside, unsigned.to_bytes())
    assert len(roadside.ledger) == 0
    assert not roadside.profiles


def poison_root(state, root):
    """``state`` with a wrong root in its cache, as a vehicle could hold."""
    object.__setattr__(state, "_root", root)
    return state


def test_initialize_ignores_a_root_cached_on_the_vehicle_side(
    tiers, maker_keys, vehicle_keys
):
    """A genesis carries no root, so a wrong one cached on the vehicle's
    state never reaches the tier: the profile's root is the inventory's.
    """
    authority, roadside = tiers
    state = poison_root(state_of(8), sha256(b"lie"))
    genesis = make_genesis(maker_keys, vehicle_keys.public, state, ts=0)
    initialize_vehicle(authority, roadside, genesis)
    profile = roadside.profiles[vehicle_keys.public]
    assert compute_state_root(profile.state) == compute_state_root(state_of(8))


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
    update = signed_wire(unsigned, maker_keys, vehicle_keys.public)
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
        initialize_vehicle(authority, roadside, genesis)
    assert len(roadside.ledger) == 200
    assert roadside.ledger.validate()


# -- upper-tier update ----------------------------------------------------------


def test_update_then_challenge_valid(registered, rsu_keys, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    new_state, update = make_update(
        maker_keys, vehicle_keys.public, state, 3, b"fw-v2", ts=10
    )
    apply_upper_update(authority, roadside, update)
    new_root = decode(UpdateTx, update).new_root
    assert compute_state_root(roadside.profiles[vehicle_keys.public].state) == new_root
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, new_state, ts=20)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID


def test_update_refreshes_subset_registry(registered, rsu_keys, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    new_state, update = make_update(maker_keys, vehicle_keys.public, state, 2, b"v2", ts=9)
    apply_upper_update(authority, roadside, update)
    # force the maintained ECU into the subset: still Valid
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, new_state, ts=30, indices=[2, 0, 1]
    )
    assert verdict_of(roadside, challenge, response) is Verdict.VALID


def test_the_same_update_applied_twice_is_rejected_and_changes_nothing(registered, maker_keys):
    """An update must be dated after its ECU's last write, so its bytes,
    replayed by anyone who saw them, are refused the second time.
    """
    authority, roadside, vehicle_keys, state = registered
    _, update = make_update(maker_keys, vehicle_keys.public, state, 3, b"fw-v2", ts=10)
    apply_upper_update(authority, roadside, update)
    block = roadside.ledger.lookup(vehicle_keys.public)
    before = (block, roadside.archive.read(block.header.external_address))
    profile = dataclasses.replace(roadside.profiles[vehicle_keys.public])
    with pytest.raises(ProtocolError, match="not dated after its ECU's last write"):
        apply_upper_update(authority, roadside, update)
    assert (block, roadside.archive.read(block.header.external_address)) == before
    assert roadside.ledger.lookup(vehicle_keys.public) == block
    assert roadside.profiles[vehicle_keys.public] == profile


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
    tampered = dataclasses.replace(decode(UpdateTx, update), firmware_digest=sha256(b"other fw"))
    with pytest.raises(ProtocolError, match="signature"):
        apply_upper_update(authority, roadside, tampered.to_bytes())


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
        response = build_response(vehicle_keys, state, challenge, ts)
        roots.add(decode(ChallengeResponse, response).state_root)
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
    response = decode(ChallengeResponse, build_response(vehicle_keys, state, challenge, ts=5))
    assert verify(vehicle_keys.public, response.signing_bytes(), response.sig)
    for ecu_id, rec in response.subset:
        assert rec == state.records[ecu_id]


def test_build_response_rejects_out_of_range_index(vehicle_keys, rsu_keys):
    challenge = issue_challenge(rsu_keys.public, vehicle_keys.public, 8, random.Random(1), ts=5)
    challenge = dataclasses.replace(challenge, subset_indices=(0, 9))
    with pytest.raises(ValueError, match="out of range"):
        build_response(vehicle_keys, state_of(8), challenge, ts=5)


# -- verify_response verdicts ---------------------------------------------------


def test_verdict_honest_first_encounter(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID


def test_verdict_unknown_vehicle(registered, rsu_keys):
    _, roadside, _, _ = registered
    ghost = keys_for("phantom")
    challenge, response = honest_round(roadside, rsu_keys, ghost, state_of(4), ts=7)
    assert verdict_of(roadside, challenge, response) is Verdict.UNKNOWN_VEHICLE


def test_verdict_bad_signature(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    broken = bytearray(response)
    broken[-54] ^= 0xFF  # byte 10 of the signature
    assert verdict_of(roadside, challenge, bytes(broken)) is Verdict.BAD_SIGNATURE


def test_verdict_stale_timestamp_on_replay(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    # replay at the next roadside unit
    rsu2 = keys_for("rsu-2")
    challenge2, _ = honest_round(roadside, rsu2, vehicle_keys, state, ts=20)
    assert verdict_of(roadside, challenge2, response) is Verdict.STALE_TIMESTAMP


def test_response_outside_the_challenge_window_is_stale(registered, rsu_keys):
    """Recording a far-future response would pin ``last_response_ts`` and
    make the honest vehicle's next response stale, which revokes it.
    """
    authority, roadside, vehicle_keys, state = registered
    profile = dataclasses.replace(roadside.profiles[vehicle_keys.public])
    challenge, _ = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    latest = challenge.issued_ts + MAX_RESPONSE_DELAY_MS
    for ts in (10**12, latest + 1, challenge.issued_ts - 1):
        response = build_response(vehicle_keys, state, challenge, ts)
        assert verdict_of(roadside, challenge, response) is Verdict.STALE_TIMESTAMP
    assert roadside.profiles[vehicle_keys.public] == profile
    response = build_response(vehicle_keys, state, challenge, latest)
    assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=latest + 1)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID


def test_verdict_state_mismatch_on_silent_tamper(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    tampered = update_ecu(state, 4, sha256(b"malware"), ts=6)
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, tampered, ts=7)
    assert verdict_of(roadside, challenge, response) is Verdict.STATE_MISMATCH


def test_verdict_subset_mismatch_on_reversal(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    # reinstall the original firmware image: digest identical, timestamp moved
    original = state.records[2].firmware_digest
    reverted = update_ecu(state, 2, original, ts=6)
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, reverted, ts=7, indices=[2, 0, 1]
    )
    assert verdict_of(roadside, challenge, response) is Verdict.SUBSET_MISMATCH


def test_verdict_subset_mismatch_on_wrong_indices(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(
        roadside, rsu_keys, vehicle_keys, state, ts=7, indices=[0, 1, 2]
    )
    challenge = dataclasses.replace(challenge, subset_indices=(0, 1, 3))
    assert verdict_of(roadside, challenge, response) is Verdict.SUBSET_MISMATCH


def test_verdict_deterministic(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    verdicts = {verdict_of(roadside, challenge, response) for _ in range(5)}
    assert verdicts == {Verdict.VALID}


# -- record_response and pruning -------------------------------------------------


def test_record_keeps_two_entries(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    assert len(block.entries) == 2  # genesis + record


def test_five_encounters_prune_to_two(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    for i in range(5):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=10 + i
        )
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    assert len(block.entries) == 2
    assert block.entries[0].seq == 4  # genesis + first three records moved out
    archived = roadside.archive.read(block.header.external_address)
    # genesis and the first three records; the block keeps the other two
    assert len({seq for seq, _ in archived}) == 4
    from ecuchain.ledger import reconstruct_history

    assert len(reconstruct_history(block, roadside.archive)) == 6


def test_five_encounters_archive_one_record_per_entry(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    for i in range(5):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=10 + i
        )
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    archived = roadside.archive.read(block.header.external_address)
    # genesis and the first three records, each once; the head stays in the block
    assert [seq for seq, _ in archived] == [0, 1, 2, 3]
    assert [seq for seq, _ in archived] + [e.seq for e in block.entries] == list(range(6))


def test_recorded_entry_countersignature_verifies(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    block = roadside.ledger.lookup(vehicle_keys.public)
    record = decode_transaction(block.entries[-1].payload)
    assert isinstance(record, ChallengeRecordTx)
    assert record.rsu_pk == rsu_keys.public
    signing = record.signing_bytes()
    message = signing[:1] + vehicle_keys.public + signing[1:]
    assert verify(rsu_keys.public, message, record.sig)


def test_record_keeps_the_responses_ids_ts_and_signature_without_encoding_it(
    registered, rsu_keys, monkeypatch
):
    """A record keeps, of the response it records, only what the vehicle's
    state cannot give back: recording encodes no response, and the record
    is the tag, the ECU count and ids, the response's ts and signature,
    the RSU key and its signature over them with the vehicle's key after
    the tag.
    """
    authority, roadside, vehicle_keys, state = registered
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)

    def refuse(self):
        raise AssertionError("the response was encoded again")

    for method in ("signing_bytes", "to_bytes"):
        monkeypatch.setattr(ChallengeResponse, method, refuse)
    assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    payload = roadside.ledger.lookup(vehicle_keys.public).entries[-1].payload
    tag = bytes([TAG_CHALLENGE_RECORD])
    ids = b"".join(i.to_bytes(2, "big") for i in challenge.subset_indices)
    kept = (3).to_bytes(2, "big") + ids + (7).to_bytes(8, "big") + response[-64:]
    assert payload[:-64] == tag + kept + rsu_keys.public
    assert len(payload) == 171 + 2 * 3
    message = tag + vehicle_keys.public + kept + rsu_keys.public
    assert verify(rsu_keys.public, message, payload[-64:])
    monkeypatch.undo()
    assert decode_transaction(payload) == record_of(
        decode(ChallengeResponse, response), rsu_keys.public, payload[-64:]
    )


def test_recorded_timestamps_strictly_increase(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    seen = []
    for i in range(6):
        challenge, response = honest_round(
            roadside, rsu_keys, vehicle_keys, state, ts=100 + i * 3
        )
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
        seen.append(decode(ChallengeResponse, response).ts)
    assert seen == sorted(set(seen))


class FailingArchive(Archive):
    def append_many(self, address, records):
        raise ArchiveError("no space")

    def read(self, address):
        return []


def test_record_archive_failure_leaves_ledger_unchanged(registered, rsu_keys):
    authority, roadside, vehicle_keys, state = registered
    # two successful rounds so the next record triggers a prune
    for i in range(2):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=5 + i)
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    before = roadside.ledger.lookup(vehicle_keys.public)
    before_ts = roadside.profiles[vehicle_keys.public].last_response_ts
    roadside.archive = FailingArchive()
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=50)
    with pytest.raises(ArchiveError):
        record_response(authority, roadside, rsu_keys, challenge, response)
    assert roadside.ledger.lookup(vehicle_keys.public) == before
    assert roadside.profiles[vehicle_keys.public].last_response_ts == before_ts


# -- reporting and requests -------------------------------------------------------


def test_report_requires_non_valid_verdict(rsu_keys, vehicle_keys):
    with pytest.raises(ProtocolError, match="nothing to report"):
        report_malicious(rsu_keys, vehicle_keys.public, Verdict.VALID, ts=1)


def test_report_event_signature(rsu_keys, vehicle_keys):
    wire = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=9)
    event = decode(ReportEvent, wire)
    assert event.rsu_pk == rsu_keys.public and signed_by(event, wire)
    forged = dataclasses.replace(event, vehicle_pk=keys_for("scapegoat").public).to_bytes()
    assert not signed_by(decode(ReportEvent, forged), forged)


def test_submit_request_stores_on_audit_block(tiers, insurer_keys):
    authority, _ = tiers
    request = signed_request(insurer_keys, "incident 4711 evidence", ts=3, owner=authority.audit_pk)
    submit_request(authority, request)
    block = authority.ledger.lookup(authority.audit_pk)
    assert block.entries[-1].payload == request
    assert signed_by(decode(RequestTx, request), request, authority.audit_pk)
    assert authority.ledger.validate()


def test_audit_block_is_addressed_like_any_other_block(tiers, insurer_keys):
    """The audit block's archive address follows the one addressing rule,
    ``external_address`` of its owner.
    """
    authority, _ = tiers
    submit_request(authority, signed_request(insurer_keys, "q", ts=3, owner=authority.audit_pk))
    block = authority.ledger.lookup(authority.audit_pk)
    assert block.header.external_address == external_address(authority.audit_pk)


def test_authority_tier_starts_empty_and_first_request_opens_audit_block(
    insurer_keys, monkeypatch
):
    """The tier signs nothing and opens no block until an insurer request
    arrives: the first accepted request opens the audit block at seq 0,
    and the next one appends at seq 1.
    """
    validators = (keys_for("transport"), keys_for("legal"))
    signs = []
    real_sign = KeyPair.sign
    with monkeypatch.context() as m:
        m.setattr(KeyPair, "sign", lambda self, msg: signs.append(msg) or real_sign(self, msg))
        authority = new_authority_tier(
            validators=validators,
            authorized_makers=(),
            authorized_insurers=(insurer_keys.public,),
        )
    assert signs == []
    assert len(authority.ledger) == 0
    assert authority.audit_pk == validators[0].public
    first = signed_request(insurer_keys, "first", ts=3, owner=authority.audit_pk)
    second = signed_request(insurer_keys, "second", ts=5, owner=authority.audit_pk)
    submit_request(authority, first)
    block = authority.ledger.lookup(authority.audit_pk)
    assert [(e.seq, e.payload) for e in block.entries] == [(0, first)]
    submit_request(authority, second)
    block = authority.ledger.lookup(authority.audit_pk)
    assert [(e.seq, e.payload) for e in block.entries] == [(0, first), (1, second)]
    assert list(authority.ledger.blocks) == [authority.audit_pk]
    assert authority.ledger.validate()


def test_submit_request_rejects_unauthorized(tiers):
    authority, _ = tiers
    rogue = keys_for("rogue-insurer")
    request = signed_request(rogue, "fishing", ts=3, owner=authority.audit_pk)
    before = authority.ledger.lookup(authority.audit_pk)
    with pytest.raises(ProtocolError, match="unauthorized"):
        submit_request(authority, request)
    assert authority.ledger.lookup(authority.audit_pk) == before
