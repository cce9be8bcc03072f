"""Signatures are verified once, by the protocol, at the point where data
enters a tier.

The boundaries: ``initialize_vehicle`` (the genesis),
``apply_upper_update`` (the update), ``verify_response`` (vehicle
signature; only ``record_response`` runs it, and records only a Valid
response), ``submit_request`` (the insurer request) and
``AuthorityNode.receive_report`` (the report). Each checks with
``signed_by``, and they are its only callers; ``validate_block`` and
``AuditEvent.verify`` are the only other places that verify, and
``signed`` and ``AuthorityTier.countersign`` the only places that sign.
The ledger verifies nothing on the way in: ``Ledger.create_block`` and
``append_entry`` link what the protocol passed, and what a tier signed
itself, such as the RSU countersignature. ``validate_block`` re-verifies
every retained entry, and on replay every archived one. An update that is
signed but inconsistent with the state the roadside tier vouches for is
rejected as well, and no rejection changes either tier.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, state_of
from ecuchain import crypto
from ecuchain.ecu import EcuRecord, compute_state_root
from ecuchain.entities import AuthorityNode
from ecuchain.ledger import LedgerError, append_entry, validate_block
from ecuchain.protocol import (
    MAX_RESPONSE_DELAY_MS,
    ProtocolError,
    ReportEvent,
    RoadsideTier,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    report_malicious,
    submit_request,
    verify_response,
)
from ecuchain.transactions import (
    MAX_ECUS,
    TAG_UPDATE,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    UpdateTx,
    Verdict,
    decode_transaction,
    signed,
    signed_by,
)
from ecuchain.wire import U64_MAX, WireError
from test_protocol import honest_round, make_update, signed_request


@pytest.fixture
def verify_calls(monkeypatch):
    """Every crypto.verify call made while the test runs, as argument tuples.

    Patches each binding of the function in the ``ecuchain`` modules, so a
    call through a name imported with ``from .crypto import verify`` counts.
    """
    calls = []
    original = crypto.verify

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ecuchain" or name.startswith("ecuchain.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def forged_record(rsu_keys, response):
    record = ChallengeRecordTx(response=response, rsu_pk=rsu_keys.public, sig=b"")
    return dataclasses.replace(record, sig=bytes(64))


# -- signed_by ----------------------------------------------------------------------

SIGNER = keys_for("signer")
_STATE = state_of(4)
_RESPONSE = ChallengeResponse(
    state_root=compute_state_root(_STATE),
    subset=_STATE.records[:3],
    ts=5,
    vehicle_pk=SIGNER.public,
    sig=b"",
)
# One unsigned object of each signed type for SIGNER to sign, and the name
# of the field that holds SIGNER's key.
UNSIGNED = [
    (
        GenesisTx(
            state_root=_RESPONSE.state_root,
            ts=0,
            ecu_list=_STATE.records,
            vehicle_pk=keys_for("vehicle").public,
            maker_pk=SIGNER.public,
            sig=b"",
        ),
        "maker_pk",
    ),
    (
        UpdateTx(
            new_root=_RESPONSE.state_root,
            ts=9,
            vehicle_pk=keys_for("vehicle").public,
            maintainer_pk=SIGNER.public,
            ecu_id=1,
            firmware_digest=_STATE.records[1].firmware_digest,
            sig=b"",
        ),
        "maintainer_pk",
    ),
    (RequestTx(insurer_pk=SIGNER.public, query="q", ts=3, sig=b""), "insurer_pk"),
    (_RESPONSE, "vehicle_pk"),
    (
        ChallengeRecordTx(
            response=signed(_RESPONSE, SIGNER), rsu_pk=SIGNER.public, sig=b""
        ),
        "rsu_pk",
    ),
    (
        ReportEvent(
            rsu_pk=SIGNER.public,
            vehicle_pk=keys_for("vehicle").public,
            verdict=Verdict.STATE_MISMATCH,
            ts=3,
            sig=b"",
        ),
        "rsu_pk",
    ),
]


def ts_past_u64(obj):
    if isinstance(obj, ChallengeRecordTx):
        return dataclasses.replace(obj, response=ts_past_u64(obj.response))
    return dataclasses.replace(obj, ts=U64_MAX + 1)


@pytest.mark.parametrize(
    "unsigned, key_field", UNSIGNED, ids=[type(obj).__name__ for obj, _ in UNSIGNED]
)
def test_signed_by_accepts_only_the_signers_intact_signature(unsigned, key_field):
    obj = signed(unsigned, SIGNER)
    assert signed_by(obj, SIGNER.public)
    flipped = bytearray(obj.sig)
    flipped[17] ^= 0x01
    changed = [
        dataclasses.replace(obj, sig=bytes(flipped)),
        ts_past_u64(obj),
        *[dataclasses.replace(obj, **{key_field: pk}) for pk in wrong_widths(SIGNER.public)],
        *[dataclasses.replace(obj, sig=sig) for sig in wrong_widths(obj.sig)],
    ]
    for forged in changed:
        assert signed_by(forged, SIGNER.public) is False
    for signer in [keys_for("other").public, *wrong_widths(SIGNER.public)]:
        assert signed_by(obj, signer) is False


# -- submit_request and append_entry -----------------------------------------------


def test_append_rejects_forged_request(tiers, insurer_keys):
    authority, _ = tiers
    before = authority.ledger.lookup(authority.audit_pk)
    request = signed_request(insurer_keys, "q", ts=3)
    forged = dataclasses.replace(request, query="another query")
    with pytest.raises(ProtocolError, match="signature"):
        submit_request(authority, forged)
    assert authority.ledger.lookup(authority.audit_pk) == before


def test_validate_block_rechecks_entries_append_entry_trusted(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    _, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    block = roadside.ledger.lookup(vehicle_keys.public)
    appended = append_entry(block, forged_record(rsu_keys, response))
    assert validate_block(block)
    assert not validate_block(appended)


# -- protocol entry points ------------------------------------------------------


def test_initialize_bad_signature_leaves_tiers_unchanged(
    tiers, maker_keys, vehicle_keys, ecu_state8
):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    forged = dataclasses.replace(genesis, ts=1)
    audit_before = list(authority.audit_log)
    with pytest.raises(ProtocolError, match="signature"):
        initialize_vehicle(authority, roadside, forged, ts=0)
    assert len(roadside.ledger) == 0
    assert not roadside.profiles
    assert authority.audit_log == audit_before


def test_update_bad_signature_leaves_block_unchanged(registered, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    _, update = make_update(maker_keys, vehicle_keys.public, state, 1, b"fw", ts=1)
    forged = dataclasses.replace(update, sig=bytes(64))
    before = roadside.ledger.lookup(vehicle_keys.public)
    with pytest.raises(ProtocolError, match="signature"):
        apply_upper_update(authority, roadside, forged)
    assert roadside.ledger.lookup(vehicle_keys.public) == before


# -- verify counts -----------------------------------------------------------------


def test_honest_round_verifies_once(registered, rsu_keys, verify_calls):
    _, roadside, vehicle_keys, state = registered
    # Four rounds: the later ones prune, which must not verify either.
    for i in range(4):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7 + i)
        del verify_calls[:]
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
        assert verify_calls == [(vehicle_keys.public, response.signing_bytes(), response.sig)]


def test_initialize_verifies_once(tiers, maker_keys, vehicle_keys, ecu_state8, verify_calls):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    del verify_calls[:]
    initialize_vehicle(authority, roadside, genesis, ts=0)
    assert verify_calls == [(maker_keys.public, genesis.signing_bytes(), genesis.sig)]


def test_update_verifies_once(registered, maker_keys, verify_calls):
    authority, roadside, vehicle_keys, state = registered
    for i in range(3):
        state, update = make_update(maker_keys, vehicle_keys.public, state, i, b"fw", ts=i + 1)
        del verify_calls[:]
        apply_upper_update(authority, roadside, update)
        assert verify_calls == [(maker_keys.public, update.signing_bytes(), update.sig)]


def test_request_verifies_once(tiers, insurer_keys, verify_calls):
    authority, _ = tiers
    request = signed_request(insurer_keys, "incident 12", ts=3)
    del verify_calls[:]
    submit_request(authority, request)
    assert verify_calls == [(insurer_keys.public, request.signing_bytes(), request.sig)]


def test_report_verified_by_each_receiving_authority(
    tiers, rsu_keys, vehicle_keys, verify_calls
):
    tier, _ = tiers
    register_rsu(tier, rsu_keys.public, ts=0)
    authorities = [AuthorityNode(keys=keys_for(r)) for r in ("transport", "legal")]
    event = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=3)
    assert not verify_calls
    for authority in authorities:
        authority.receive_report(tier, event)
    assert len(verify_calls) == len(authorities)


# -- nothing unverified is recorded --------------------------------------------------


def hostile(kind, keys, challenge, response, last):
    """A hostile (challenge, response) made from an honest round and the
    last response the vehicle had recorded.
    """
    if kind == "zeroed-sig":
        return challenge, dataclasses.replace(response, sig=bytes(64))
    if kind == "made-up-root":
        return challenge, signed(
            dataclasses.replace(response, state_root=crypto.sha256(b"made up")), keys
        )
    if kind == "past-window":
        late = challenge.issued_ts + MAX_RESPONSE_DELAY_MS + 1
        return challenge, signed(dataclasses.replace(response, ts=late), keys)
    if kind == "replay":
        return challenge, last
    if kind == "unknown-vehicle":
        stranger = keys_for("stranger")
        return (
            dataclasses.replace(challenge, vehicle_pk=stranger.public),
            signed(dataclasses.replace(response, vehicle_pk=stranger.public), stranger),
        )
    assert kind == "other-vehicles-challenge"
    return dataclasses.replace(challenge, vehicle_pk=keys_for("other").public), response


HOSTILE = [
    ("zeroed-sig", Verdict.BAD_SIGNATURE),
    ("made-up-root", Verdict.STATE_MISMATCH),
    ("past-window", Verdict.STALE_TIMESTAMP),
    ("replay", Verdict.STALE_TIMESTAMP),
    ("unknown-vehicle", Verdict.UNKNOWN_VEHICLE),
    ("other-vehicles-challenge", Verdict.BAD_SIGNATURE),
]


@pytest.mark.parametrize("kind, expected", HOSTILE, ids=[kind for kind, _ in HOSTILE])
def test_record_response_records_nothing_unverified(registered, rsu_keys, kind, expected):
    authority, roadside, vehicle_keys, state = registered
    # Two recorded rounds: the next record would prune to the archive.
    for ts in (7, 8):
        challenge, last = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=ts)
        assert record_response(rsu_keys, roadside, challenge, last) is Verdict.VALID
    honest = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=20)
    challenge, response = hostile(kind, vehicle_keys, *honest, last)
    before = tier_snapshot(authority, roadside, vehicle_keys.public)
    assert verify_response(roadside, challenge, response) is expected
    assert record_response(rsu_keys, roadside, challenge, response) is expected
    assert tier_snapshot(authority, roadside, vehicle_keys.public) == before


def test_record_response_refuses_another_rsus_challenge(registered, rsu_keys, verify_calls):
    """An RSU records only answers to its own challenges: a Valid response
    to another RSU's challenge is refused before anything is verified.
    """
    authority, roadside, vehicle_keys, state = registered
    for ts in (7, 8):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=ts)
        assert record_response(rsu_keys, roadside, challenge, response) is Verdict.VALID
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=20)
    assert verify_response(roadside, challenge, response) is Verdict.VALID
    before = tier_snapshot(authority, roadside, vehicle_keys.public)
    del verify_calls[:]
    with pytest.raises(ProtocolError, match="another RSU"):
        record_response(keys_for("rsu2"), roadside, challenge, response)
    assert verify_calls == []
    assert tier_snapshot(authority, roadside, vehicle_keys.public) == before


# -- stale bytes ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _world():
    """One registered vehicle, a Valid response to a challenge and the
    record an RSU made of it. Shared by the property examples, which only
    ever hand the tier rejected objects.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    roadside = RoadsideTier()
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
    challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(3), ts=5)
    response = build_response(vehicle, state, challenge, ts=5)
    assert verify_response(roadside, challenge, response) is Verdict.VALID
    record = signed(
        ChallengeRecordTx(response=response, rsu_pk=rsu.public, sig=b""), rsu
    )
    return roadside, challenge, response, record


digests = st.binary(min_size=32, max_size=32)
RESPONSE_FIELDS = {
    "state_root": digests,
    "subset": st.lists(
        st.builds(
            EcuRecord,
            ecu_id=st.integers(0, 9),
            firmware_digest=digests,
            last_write_ts=st.integers(0, U64_MAX),
        ),
        max_size=4,
    ).map(tuple),
    "ts": st.integers(0, U64_MAX),
    "vehicle_pk": digests,
    "sig": st.binary(min_size=64, max_size=64),
}


@st.composite
def changed_response(draw, response):
    name = draw(st.sampled_from(sorted(RESPONSE_FIELDS)))
    value = draw(RESPONSE_FIELDS[name].filter(lambda v: v != getattr(response, name)))
    return name, dataclasses.replace(response, **{name: value})


@st.composite
def changed_record(draw, record):
    name = draw(st.sampled_from(["response", "rsu_pk", "sig"]))
    if name == "response":
        _, value = draw(changed_response(record.response))
    elif name == "rsu_pk":
        value = draw(digests.filter(lambda v: v != record.rsu_pk))
    else:
        value = draw(st.binary(min_size=64, max_size=64).filter(lambda v: v != record.sig))
    return dataclasses.replace(record, **{name: value})


def assert_fresh_encoding(tx):
    """The identities the verify-once path relies on: wire bytes are the
    signing bytes of the current fields plus the signature, and decode back
    to the same object.
    """
    assert len(tx.sig) == 64
    assert tx.to_bytes() == tx.signing_bytes() + tx.sig
    assert decode_transaction(tx.to_bytes()) == tx


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_changed_response_is_rejected(data):
    roadside, challenge, response, _ = _world()
    name, changed = data.draw(changed_response(response))
    verdict = verify_response(roadside, challenge, changed)
    if name == "vehicle_pk":
        assert verdict in (Verdict.UNKNOWN_VEHICLE, Verdict.BAD_SIGNATURE)
    else:
        assert verdict is Verdict.BAD_SIGNATURE
    if name != "sig":
        assert changed.signing_bytes() != response.signing_bytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_changed_record_is_rejected_by_append(data):
    """``append_entry`` links a changed record (unless it names another
    vehicle), and the audit rejects the block it makes.
    """
    roadside, _, response, record = _world()
    changed = data.draw(changed_record(record))
    block = roadside.ledger.lookup(response.vehicle_pk)
    if changed.response.vehicle_pk == response.vehicle_pk:
        assert not validate_block(append_entry(block, changed))
    else:
        with pytest.raises(LedgerError, match="ownership"):
            append_entry(block, changed)
    assert_fresh_encoding(changed)


def test_signed_record_encodes_its_current_fields():
    _, _, _, record = _world()
    assert_fresh_encoding(record)
    assert crypto.verify(record.rsu_pk, record.signing_bytes(), record.sig)


# -- out-of-range fields -------------------------------------------------------------

past_u64 = st.integers(min_value=U64_MAX + 1)


@st.composite
def unencodable_response(draw, response):
    """``response`` with ``ts`` or one subset-record integer outside u64
    (``EcuRecord`` itself rejects negative integers).
    """
    where = draw(st.sampled_from(["ts", "ecu_id", "last_write_ts"]))
    if where == "ts":
        ts = draw(st.one_of(past_u64, st.integers(max_value=-1)))
        return dataclasses.replace(response, ts=ts)
    value = draw(past_u64)
    i = draw(st.integers(0, len(response.subset) - 1))
    subset = list(response.subset)
    subset[i] = dataclasses.replace(subset[i], **{where: value})
    return dataclasses.replace(response, subset=tuple(subset))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unencodable_response_is_bad_signature(data):
    roadside, challenge, response, _ = _world()
    profile = dataclasses.replace(roadside.profiles[response.vehicle_pk])
    changed = data.draw(unencodable_response(response))
    assert verify_response(roadside, challenge, changed) is Verdict.BAD_SIGNATURE
    assert roadside.profiles[response.vehicle_pk] == profile


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_unencodable_response_from_unknown_vehicle_is_unknown(data):
    roadside, challenge, response, _ = _world()
    stranger = dataclasses.replace(response, vehicle_pk=keys_for("stranger").public)
    changed = data.draw(unencodable_response(stranger))
    assert verify_response(roadside, challenge, changed) is Verdict.UNKNOWN_VEHICLE


# -- maintenance updates -------------------------------------------------------------

UPDATED_ECU = 3


def _fresh_update_world():
    """One 8-ECU vehicle whose ECUs were all last written at 100, and an
    authorized update of ECU ``UPDATED_ECU`` at 200, signed but not applied.
    """
    maker, vehicle = keys_for("maker"), keys_for("vehicle")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    roadside = RoadsideTier()
    state = state_of(8, ts=100)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
    updated, update = make_update(
        maker, vehicle.public, state, UPDATED_ECU, b"fw-new", ts=200
    )
    return authority, roadside, maker, update, updated


# Shared by the property examples, which only ever hand the tiers rejected updates.
_update_world = functools.lru_cache(maxsize=None)(_fresh_update_world)


def tier_snapshot(authority, roadside, vehicle_pk):
    block = roadside.ledger.lookup(vehicle_pk)
    return (
        block,
        roadside.archive.read(block.header.external_address),
        dataclasses.replace(roadside.profiles[vehicle_pk]),
        list(authority.audit_log),
    )


def assert_update_rejected(update, match):
    authority, roadside, _, honest, _ = _update_world()
    before = tier_snapshot(authority, roadside, honest.vehicle_pk)
    with pytest.raises(ProtocolError, match=match):
        apply_upper_update(authority, roadside, update)
    assert tier_snapshot(authority, roadside, honest.vehicle_pk) == before


def test_update_world_accepts_its_honest_update():
    authority, roadside, _, update, updated = _fresh_update_world()
    apply_upper_update(authority, roadside, update)
    assert roadside.profiles[update.vehicle_pk].state == updated
    assert compute_state_root(roadside.profiles[update.vehicle_pk].state) == update.new_root


u64_or_not = st.one_of(st.integers(0, U64_MAX), past_u64, st.integers(max_value=-1))
UPDATE_FIELDS = {
    "new_root": digests,
    "ts": u64_or_not,
    "vehicle_pk": digests,
    "maintainer_pk": digests,
    "ecu_id": st.one_of(st.integers(0, MAX_ECUS), u64_or_not),
    "firmware_digest": digests,
    "sig": st.binary(min_size=64, max_size=64),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_changed_update_is_rejected(data):
    *_, update, _ = _update_world()
    name = data.draw(st.sampled_from(sorted(UPDATE_FIELDS)))
    value = data.draw(UPDATE_FIELDS[name].filter(lambda v: v != getattr(update, name)))
    changed = dataclasses.replace(update, **{name: value})
    assert_update_rejected(changed, "signature")
    limit = MAX_ECUS if name == "ecu_id" else U64_MAX
    if name not in ("ts", "ecu_id") or 0 <= value <= limit:
        assert_fresh_encoding(changed)


@st.composite
def inconsistent_update(draw, update):
    """(expected error, ``update`` with one field changed so that it no
    longer describes an update of the registered state), unsigned.
    """
    kind = draw(
        st.sampled_from(["new_root", "firmware_digest", "other_ecu", "unknown_ecu", "regression"])
    )
    if kind in ("new_root", "firmware_digest"):
        value = draw(digests.filter(lambda v: v != getattr(update, kind)))
        return "new_root", dataclasses.replace(update, **{kind: value})
    if kind == "other_ecu":
        ecu = draw(st.integers(0, 7).filter(lambda e: e != UPDATED_ECU))
        return "new_root", dataclasses.replace(update, ecu_id=ecu)
    if kind == "unknown_ecu":
        ecu = draw(st.integers(8, MAX_ECUS))
        return "unknown ecu_id", dataclasses.replace(update, ecu_id=ecu)
    return "regression", dataclasses.replace(update, ts=draw(st.integers(0, 99)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_resigned_inconsistent_update_is_rejected(data):
    _, _, maker, update, _ = _update_world()
    match, changed = data.draw(inconsistent_update(update))
    assert_update_rejected(signed(changed, maker), match)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["ecu_id", "ts"]), value=past_u64)
def test_update_past_u64_cannot_be_signed_and_is_rejected(name, value):
    _, _, maker, update, _ = _update_world()
    changed = dataclasses.replace(update, **{name: value})
    with pytest.raises(WireError):
        signed(changed, maker)
    assert_update_rejected(changed, "signature")


@pytest.mark.parametrize("ecu_id", [MAX_ECUS + 1, U64_MAX])
def test_update_past_the_ecu_limit_cannot_be_signed_and_is_rejected(ecu_id):
    """An ECU id past the u16 limit does not encode, so the update fails its
    signature check with ``ProtocolError``, not ``WireError``.
    """
    _, _, maker, update, _ = _update_world()
    changed = dataclasses.replace(update, ecu_id=ecu_id)
    with pytest.raises(WireError):
        signed(changed, maker)
    assert_update_rejected(changed, "update signature invalid")


def test_signed_update_encodes_its_current_fields():
    *_, update, _ = _update_world()
    assert_fresh_encoding(update)
    assert crypto.verify(update.maintainer_pk, update.signing_bytes(), update.sig)


# -- fixed-width fields of the wrong width ------------------------------------------
# Wire format v3 writes digests, keys and signatures raw, so a field of the
# wrong width cannot be encoded: each boundary rejects it with its own error.


def wrong_widths(value: bytes) -> list[bytes]:
    return [value[:-1], value + b"\x00"]


@pytest.mark.parametrize("name", ["state_root", "sig"])
def test_response_with_wrong_width_field_is_bad_signature(name):
    roadside, challenge, response, _ = _world()
    for value in wrong_widths(getattr(response, name)):
        changed = dataclasses.replace(response, **{name: value})
        assert verify_response(roadside, challenge, changed) is Verdict.BAD_SIGNATURE


@pytest.mark.parametrize("name", ["new_root", "vehicle_pk", "maintainer_pk", "firmware_digest"])
def test_update_with_wrong_width_field_is_rejected(name):
    *_, update, _ = _update_world()
    for value in wrong_widths(getattr(update, name)):
        assert_update_rejected(dataclasses.replace(update, **{name: value}), "signature")


def test_request_with_unencodable_field_is_rejected_by_append(tiers, insurer_keys):
    authority, _ = tiers
    before = authority.ledger.lookup(authority.audit_pk)
    request = signed_request(insurer_keys, "q", ts=3)
    changed = [dataclasses.replace(request, ts=U64_MAX + 1)] + [
        dataclasses.replace(request, insurer_pk=pk) for pk in wrong_widths(request.insurer_pk)
    ]
    for forged in changed:
        with pytest.raises(ProtocolError, match="signature"):
            submit_request(authority, forged)
    assert authority.ledger.lookup(authority.audit_pk) == before


def test_report_and_audit_event_with_wrong_width_key_do_not_verify(
    tiers, rsu_keys, vehicle_keys
):
    authority, _ = tiers
    register_rsu(authority, rsu_keys.public, ts=0)
    event = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=3)
    receiver = AuthorityNode(keys=keys_for("transport"))
    for pk in wrong_widths(event.vehicle_pk):
        changed = dataclasses.replace(event, vehicle_pk=pk)
        assert not signed_by(changed, changed.rsu_pk)
        with pytest.raises(ProtocolError, match="signature"):
            receiver.receive_report(authority, changed)
    assert receiver.reports == []
    audit = authority.countersign("register", vehicle_keys.public, ts=3)
    validators = [v.public for v in authority.validators]
    assert audit.verify(validators)
    for pk in wrong_widths(audit.subject_pk):
        assert not dataclasses.replace(audit, subject_pk=pk).verify(validators)


def test_update_with_metadata_string_layout_does_not_decode():
    *_, update, _ = _update_world()
    metadata = f"ecu=3;action=firmware-update;digest={update.firmware_digest.hex()};ts=200"
    old = b"".join(
        (
            TAG_UPDATE.to_bytes(1, "big"),
            update.new_root,
            update.ts.to_bytes(8, "big"),
            update.vehicle_pk,
            update.maintainer_pk,
            len(metadata).to_bytes(4, "big"),
            metadata.encode(),
            update.sig,
        )
    )
    with pytest.raises(WireError):
        decode_transaction(old)


# -- where signing and verifying happen ----------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "ecuchain"
# The functions allowed to call crypto.verify and KeyPair.sign; crypto.py,
# which defines both, is not searched. ``signed`` signs through
# ``signed_wire``, which also returns the wire bytes it encoded.
ALLOWED_SITES = {
    ("verify", "signed_by"),
    ("verify", "validate_block"),
    ("verify", "AuditEvent.verify"),
    ("sign", "signed_wire"),
    ("sign", "AuthorityTier.countersign"),
}


def scoped_calls(tree):
    """(call node, enclosing function) of each call in ``tree``; a method
    is named ``Class.method``.
    """

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, "")


def crypto_call_sites(tree):
    """(kind, enclosing function, line) of each ``crypto.verify(...)``,
    bare ``verify(...)`` and ``<anything>.sign(...)`` call in ``tree``.
    """
    found = []
    for node, scope in scoped_calls(tree):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "sign":
            found.append(("sign", scope, node.lineno))
        elif (isinstance(func, ast.Name) and func.id == "verify") or (
            isinstance(func, ast.Attribute)
            and func.attr == "verify"
            and isinstance(func.value, ast.Name)
            and func.value.id == "crypto"
        ):
            found.append(("verify", scope, node.lineno))
    return found


def test_signatures_are_made_and_checked_only_at_the_known_sites():
    sites = set()
    outside = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "crypto.py":
            continue
        for kind, scope, line in crypto_call_sites(ast.parse(path.read_text())):
            sites.add((kind, scope))
            if (kind, scope) not in ALLOWED_SITES:
                outside.append(f"{path.name}:{line} {kind} in {scope or 'module'}")
    assert outside == []
    assert sites == ALLOWED_SITES


# The functions allowed to call append_entry, verify_response and
# signed_by: an entry joins a block only through the first, a response is
# classified only by record_response, which records it only if it is Valid,
# and a signature is checked on the way in only where a transaction enters
# a tier.
BOUNDARY_SITES = {
    ("append_entry", "Ledger.create_block"),
    ("append_entry", "submit_request"),
    ("append_entry", "apply_upper_update"),
    ("append_entry", "record_response"),
    ("verify_response", "record_response"),
    ("signed_by", "initialize_vehicle"),
    ("signed_by", "apply_upper_update"),
    ("signed_by", "verify_response"),
    ("signed_by", "submit_request"),
    ("signed_by", "AuthorityNode.receive_report"),
}


def test_entries_are_appended_and_responses_verified_only_at_the_known_sites():
    sites = set()
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node, scope in scoped_calls(ast.parse(path.read_text())):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("append_entry", "verify_response", "signed_by"):
                continue
            sites.add((name, scope))
            if (name, scope) not in BOUNDARY_SITES:
                outside.append(f"{path.name}:{node.lineno} {name} in {scope or 'module'}")
    assert outside == []
    assert sites == BOUNDARY_SITES
