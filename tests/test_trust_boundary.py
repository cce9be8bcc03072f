"""Signatures are verified once, by the protocol, at the point where data
enters a tier, over the wire bytes that arrived.

The boundaries: ``initialize_vehicle`` (the genesis),
``apply_upper_update`` (the update), ``record_response`` (the vehicle's
response, which it decodes and classifies with ``verify_response``, and
records only if Valid), ``submit_request`` (the insurer request) and
``AuthorityNode.receive_report`` (the report). Each takes the sender's
wire bytes, decodes them once, rejects bytes that do not decode as it
rejects any other bad input, checks the sender's allow-list where there
is one, and only then checks the signature with ``signed_by(tx, wire,
owner)``, which reads the signer from the field the type's ``SIGNER``
names (a response's signer is its challenge's vehicle, which it does not
name) and checks that the signature covers ``owner``, the key of the
block the entry goes to (none for a report).
At audit, ``validate_block`` calls ``signed_by`` too, and so does the
fold's record rule (``apply_entry``), over the response it rebuilds for
a challenge record, so it is the only place that verifies, and
``signed_wire`` the only place that signs.
The ledger verifies nothing on the way in: ``Ledger.create_block`` and
``append_entry`` keep the bytes the protocol passed, and what a tier
signed itself, such as the RSU's challenge record. ``validate_block`` re-verifies every retained
entry, and on replay every archived one. An
update that is signed but inconsistent with the state the roadside tier
vouches for is rejected as well, and no rejection changes either tier.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, record_of, state_of
from ecuchain import crypto, protocol
from ecuchain.ecu import EcuRecord, compute_state_root
from ecuchain.entities import AuthorityNode
from ecuchain.ledger import append_entry, validate_block
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
)
from ecuchain.transactions import (
    MAX_ECUS,
    TAG_UPDATE,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    LedgerHead,
    RequestTx,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    signed_by,
    signed_wire,
)
from ecuchain.wire import U64_MAX, WireError
from test_protocol import honest_round, make_update, signed_request, verdict_of
from test_wire_format import hostile


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
    """A challenge record of the response ``response`` whose RSU signature
    is 64 zero bytes.
    """
    return record_of(decode(ChallengeResponse, response), rsu_keys.public, bytes(64))


def signature_of(wire, owner=b""):
    """The (message, signature) ``signed_by`` checks for ``wire`` signed
    over ``owner``: the owner key follows the tag.
    """
    return wire[:1] + owner + wire[1:-64], wire[-64:]


# -- signed_by ----------------------------------------------------------------------

SIGNER = keys_for("signer")
_STATE = state_of(4)
_VEHICLE = keys_for("vehicle").public
_RESPONSE = ChallengeResponse(
    state_root=compute_state_root(_STATE),
    subset=tuple(enumerate(_STATE.records[:3])),
    ts=5,
    sig=b"",
)
# One unsigned object of each signed type for SIGNER to sign; the field its
# type declares as ``SIGNER`` holds SIGNER's key. A response has no such
# field: it is signed by its owner, the challenged vehicle.
UNSIGNED = [
    GenesisTx(
        ts=0,
        ecu_list=_STATE.records,
        vehicle_pk=keys_for("vehicle").public,
        maker_pk=SIGNER.public,
        sig=b"",
    ),
    UpdateTx(
        new_root=_RESPONSE.state_root,
        ts=9,
        vehicle_pk=keys_for("vehicle").public,
        maintainer_pk=SIGNER.public,
        ecu_id=1,
        firmware_digest=_STATE.records[1].firmware_digest,
        sig=b"",
    ),
    RequestTx(insurer_pk=SIGNER.public, query="q", ts=3, sig=b""),
    _RESPONSE,
    record_of(decode(ChallengeResponse, signed_wire(_RESPONSE, keys_for("vehicle"))), SIGNER.public),
    ReportEvent(
        rsu_pk=SIGNER.public,
        vehicle_pk=keys_for("vehicle").public,
        verdict=Verdict.STATE_MISMATCH,
        ts=3,
        sig=b"",
    ),
    LedgerHead(
        count=1, ts=3, merkle_root=_RESPONSE.state_root, validator_pk=SIGNER.public, sig=b""
    ),
]
# The owner each type's signature covers: a response's is its signer, a
# genesis', an update's and a record's the vehicle whose block keeps it, a
# request's the audit block's; a report and a head have none.
OWNERS = {
    ChallengeResponse: SIGNER.public,
    GenesisTx: _VEHICLE,
    UpdateTx: _VEHICLE,
    ChallengeRecordTx: _VEHICLE,
    RequestTx: keys_for("transport").public,
}


@pytest.mark.parametrize("unsigned", UNSIGNED, ids=[type(obj).__name__ for obj in UNSIGNED])
def test_signed_by_accepts_only_the_signers_intact_signature(unsigned):
    """``signed_by`` accepts the bytes ``signed_wire`` made, and nothing
    that decodes from them with any one byte changed, with the signer
    field naming another key, or checked for another owner.
    """
    cls = type(unsigned)
    owner = OWNERS.get(cls, b"")
    wire = signed_wire(unsigned, SIGNER, owner)
    obj = decode(cls, wire)
    assert (getattr(obj, cls.SIGNER) if cls.SIGNER else owner) == SIGNER.public
    assert signed_by(obj, wire, owner)
    changed = []
    if cls.SIGNER:
        other = dataclasses.replace(obj, **{cls.SIGNER: keys_for("other").public})
        changed.append(other.to_bytes())
    for i in range(len(wire)):
        flipped = bytearray(wire)
        flipped[i] ^= 0x01
        changed.append(bytes(flipped))
    for forged in changed:
        try:
            tx = decode(cls, forged)
        except WireError:
            continue
        assert signed_by(tx, forged, owner) is False
    if owner:
        assert signed_by(obj, wire, keys_for("other").public) is False
        assert signed_by(obj, wire) is False


# -- submit_request and append_entry -----------------------------------------------


def test_append_rejects_forged_request(tiers, insurer_keys):
    authority, _ = tiers
    before = authority.ledger.lookup(authority.audit_pk)
    request = decode(RequestTx, signed_request(insurer_keys, "q", ts=3, owner=authority.audit_pk))
    forged = dataclasses.replace(request, query="another query")
    with pytest.raises(ProtocolError, match="signature"):
        submit_request(authority, forged.to_bytes())
    assert authority.ledger.lookup(authority.audit_pk) == before


def test_validate_block_rechecks_entries_append_entry_trusted(registered, rsu_keys):
    _, roadside, vehicle_keys, state = registered
    _, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7)
    block = roadside.ledger.lookup(vehicle_keys.public)
    record = forged_record(rsu_keys, response)
    appended = append_entry(block, record.to_bytes())
    assert validate_block(block)
    assert not validate_block(appended)


# -- protocol entry points ------------------------------------------------------


def test_initialize_bad_signature_leaves_tiers_unchanged(
    tiers, maker_keys, vehicle_keys, ecu_state8
):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    forged = dataclasses.replace(decode(GenesisTx, genesis), ts=1)
    with pytest.raises(ProtocolError, match="signature"):
        initialize_vehicle(authority, roadside, forged.to_bytes())
    assert len(roadside.ledger) == 0
    assert not roadside.profiles


def test_update_bad_signature_leaves_block_unchanged(registered, maker_keys):
    authority, roadside, vehicle_keys, state = registered
    _, update = make_update(maker_keys, vehicle_keys.public, state, 1, b"fw", ts=1)
    forged = update[:-64] + bytes(64)
    before = roadside.ledger.lookup(vehicle_keys.public)
    with pytest.raises(ProtocolError, match="signature"):
        apply_upper_update(authority, roadside, forged)
    assert roadside.ledger.lookup(vehicle_keys.public) == before


def test_every_entry_point_takes_wire_bytes():
    """No entry point takes a decoded transaction, response or report: each
    takes the bytes the sender sent, and names no signed type.
    """
    entry_points = [
        initialize_vehicle,
        apply_upper_update,
        record_response,
        submit_request,
        AuthorityNode.receive_report,
    ]
    signed_types = {type(obj) for obj in UNSIGNED} | {ReportEvent}
    for fn in entry_points:
        parameters = inspect.signature(fn, eval_str=True).parameters.values()
        annotations = [p.annotation for p in parameters]
        assert annotations.count(bytes) == 1, fn.__name__
        assert signed_types.isdisjoint(annotations), fn.__name__


# -- verify counts -----------------------------------------------------------------


def test_honest_round_verifies_once(registered, rsu_keys, verify_calls):
    authority, roadside, vehicle_keys, state = registered
    # Four rounds: the later ones prune, which must not verify either.
    for i in range(4):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=7 + i)
        del verify_calls[:]
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
        assert verify_calls == [(vehicle_keys.public, *signature_of(response))]


def test_initialize_verifies_once(tiers, maker_keys, vehicle_keys, ecu_state8, verify_calls):
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    del verify_calls[:]
    initialize_vehicle(authority, roadside, genesis)
    assert verify_calls == [(maker_keys.public, *signature_of(genesis, vehicle_keys.public))]


def test_update_verifies_once(registered, maker_keys, verify_calls):
    authority, roadside, vehicle_keys, state = registered
    for i in range(3):
        state, update = make_update(maker_keys, vehicle_keys.public, state, i, b"fw", ts=i + 1)
        del verify_calls[:]
        apply_upper_update(authority, roadside, update)
        assert verify_calls == [(maker_keys.public, *signature_of(update, vehicle_keys.public))]


def test_request_verifies_once(tiers, insurer_keys, verify_calls):
    authority, _ = tiers
    request = signed_request(insurer_keys, "incident 12", ts=3, owner=authority.audit_pk)
    del verify_calls[:]
    submit_request(authority, request)
    assert verify_calls == [(insurer_keys.public, *signature_of(request, authority.audit_pk))]


def test_update_from_an_unlisted_maintainer_costs_no_verify(registered, verify_calls):
    """The maintainer allow-list is checked before the signature, so an
    update from a key outside it is refused without a verify.
    """
    authority, roadside, vehicle_keys, state = registered
    rogue = keys_for("rogue-tech")
    _, update = make_update(rogue, vehicle_keys.public, state, 0, b"fw", ts=1)
    del verify_calls[:]
    with pytest.raises(ProtocolError, match="unauthorized maintainer"):
        apply_upper_update(authority, roadside, update)
    assert verify_calls == []


def test_request_from_an_unlisted_insurer_costs_no_verify(tiers, verify_calls):
    """The insurer allow-list is checked before the signature, so a request
    from a key outside it is refused without a verify.
    """
    authority, _ = tiers
    request = signed_request(keys_for("rogue-insurer"), "fishing", ts=3, owner=authority.audit_pk)
    del verify_calls[:]
    with pytest.raises(ProtocolError, match="unauthorized insurer"):
        submit_request(authority, request)
    assert verify_calls == []


def test_report_verified_by_each_receiving_authority(
    tiers, rsu_keys, vehicle_keys, verify_calls
):
    tier, _ = tiers
    register_rsu(tier, rsu_keys.public)
    authorities = [AuthorityNode(keys=keys_for(r)) for r in ("transport", "legal")]
    event = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=3)
    assert not verify_calls
    for authority in authorities:
        authority.receive_report(tier, event)
    assert verify_calls == [(rsu_keys.public, *signature_of(event))] * len(authorities)


# -- nothing unverified is recorded --------------------------------------------------


def hostile_round(kind, keys, challenge, response, last):
    """A hostile (challenge, response wire bytes) made from an honest round
    and the last response the vehicle had recorded. The vehicle "other" is
    registered; "stranger" and "unregistered" are not.
    """
    honest = decode(ChallengeResponse, response)
    if kind == "zeroed-sig":
        return challenge, response[:-64] + bytes(64)
    if kind == "made-up-root":
        return challenge, signed_wire(
            dataclasses.replace(honest, state_root=crypto.sha256(b"made up")), keys
        )
    if kind == "past-window":
        late = challenge.issued_ts + MAX_RESPONSE_DELAY_MS + 1
        return challenge, signed_wire(dataclasses.replace(honest, ts=late), keys)
    if kind == "replay":
        return challenge, last
    if kind == "unknown-vehicle":
        stranger = keys_for("stranger")
        return (
            dataclasses.replace(challenge, vehicle_pk=stranger.public),
            signed_wire(honest, stranger),
        )
    if kind == "unregistered-vehicles-challenge":
        return dataclasses.replace(challenge, vehicle_pk=keys_for("unregistered").public), response
    assert kind == "other-vehicles-challenge"
    return dataclasses.replace(challenge, vehicle_pk=keys_for("other").public), response


HOSTILE = [
    ("zeroed-sig", Verdict.BAD_SIGNATURE),
    ("made-up-root", Verdict.STATE_MISMATCH),
    ("past-window", Verdict.STALE_TIMESTAMP),
    ("replay", Verdict.STALE_TIMESTAMP),
    ("unknown-vehicle", Verdict.UNKNOWN_VEHICLE),
    ("other-vehicles-challenge", Verdict.BAD_SIGNATURE),
    ("unregistered-vehicles-challenge", Verdict.UNKNOWN_VEHICLE),
]


@pytest.mark.parametrize("kind, expected", HOSTILE, ids=[kind for kind, _ in HOSTILE])
def test_record_response_records_nothing_unverified(
    registered, maker_keys, rsu_keys, kind, expected
):
    authority, roadside, vehicle_keys, state = registered
    other = make_genesis(maker_keys, keys_for("other").public, state_of(8, b"other"), ts=0)
    initialize_vehicle(authority, roadside, other)
    # Two recorded rounds: the next record would prune to the archive.
    for ts in (7, 8):
        challenge, last = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=ts)
        assert record_response(authority, roadside, rsu_keys, challenge, last) is Verdict.VALID
    honest = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=20)
    challenge, response = hostile_round(kind, vehicle_keys, *honest, last)
    before = tier_snapshot(roadside, vehicle_keys.public)
    assert verdict_of(roadside, challenge, response) is expected
    assert record_response(authority, roadside, rsu_keys, challenge, response) is expected
    assert tier_snapshot(roadside, vehicle_keys.public) == before


def test_record_response_refuses_another_rsus_challenge(registered, rsu_keys, verify_calls):
    """An RSU records only answers to its own challenges: a Valid response
    to another RSU's challenge is refused before anything is verified.
    """
    authority, roadside, vehicle_keys, state = registered
    for ts in (7, 8):
        challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=ts)
        assert record_response(authority, roadside, rsu_keys, challenge, response) is Verdict.VALID
    challenge, response = honest_round(roadside, rsu_keys, vehicle_keys, state, ts=20)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID
    before = tier_snapshot(roadside, vehicle_keys.public)
    register_rsu(authority, keys_for("rsu2").public)
    del verify_calls[:]
    with pytest.raises(ProtocolError, match="another RSU"):
        record_response(authority, roadside, keys_for("rsu2"), challenge, response)
    assert verify_calls == []
    assert tier_snapshot(roadside, vehicle_keys.public) == before


def test_record_response_refuses_an_unregistered_rsu(registered, verify_calls, monkeypatch):
    """An RSU that ``register_rsu`` never admitted records nothing: its
    Valid response is refused before the bytes are decoded or verified.
    """
    authority, roadside, vehicle_keys, state = registered
    rogue = keys_for("rogue-rsu")
    challenge, response = honest_round(roadside, rogue, vehicle_keys, state, ts=7)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID
    before = tier_snapshot(roadside, vehicle_keys.public)
    decodes = []
    monkeypatch.setattr(protocol, "decode", lambda *args: decodes.append(args))
    del verify_calls[:]
    with pytest.raises(ProtocolError, match="unregistered RSU"):
        record_response(authority, roadside, rogue, challenge, response)
    assert verify_calls == [] and decodes == []
    assert tier_snapshot(roadside, vehicle_keys.public) == before


# -- stale bytes ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _world():
    """Both tiers with one registered vehicle and RSU, the wire bytes of a
    Valid response to a challenge and the record the RSU made of it.
    Shared by the property examples, which only ever hand the tier
    rejected bytes.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    register_rsu(authority, rsu.public)
    roadside = RoadsideTier()
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(3), ts=5)
    response = build_response(vehicle, state, challenge, ts=5)
    assert verdict_of(roadside, challenge, response) is Verdict.VALID
    unsigned = record_of(decode(ChallengeResponse, response), rsu.public)
    record = decode_transaction(signed_wire(unsigned, rsu, vehicle.public))
    return authority, roadside, challenge, response, record


digests = st.binary(min_size=32, max_size=32)
RESPONSE_FIELDS = {
    "state_root": digests,
    "subset": st.lists(
        st.tuples(
            st.integers(0, 9),
            st.builds(EcuRecord, firmware_digest=digests, last_write_ts=st.integers(0, U64_MAX)),
        ),
        max_size=4,
    ).map(tuple),
    "ts": st.integers(0, U64_MAX),
    "sig": st.binary(min_size=64, max_size=64),
}


@st.composite
def changed_response(draw, response):
    name = draw(st.sampled_from(sorted(RESPONSE_FIELDS)))
    value = draw(RESPONSE_FIELDS[name].filter(lambda v: v != getattr(response, name)))
    return name, dataclasses.replace(response, **{name: value})


RECORD_FIELDS = {
    "ecu_ids": st.lists(st.integers(0, 9), max_size=4).map(tuple),
    "ts": st.integers(0, U64_MAX),
    "vehicle_sig": st.binary(min_size=64, max_size=64),
    "rsu_pk": digests,
    "sig": st.binary(min_size=64, max_size=64),
}


@st.composite
def changed_record(draw, record):
    name = draw(st.sampled_from(sorted(RECORD_FIELDS)))
    value = draw(RECORD_FIELDS[name].filter(lambda v: v != getattr(record, name)))
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
    _, roadside, challenge, response, _ = _world()
    honest = decode(ChallengeResponse, response)
    name, changed = data.draw(changed_response(honest))
    assert verdict_of(roadside, challenge, changed.to_bytes()) is Verdict.BAD_SIGNATURE
    if name != "sig":
        assert changed.signing_bytes() != honest.signing_bytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_changed_record_is_rejected_by_append(data):
    """``append_entry`` adds a changed record, and the audit rejects the
    block it makes.
    """
    _, roadside, challenge, _, record = _world()
    changed = data.draw(changed_record(record))
    block = roadside.ledger.lookup(challenge.vehicle_pk)
    appended = append_entry(block, changed.to_bytes())
    assert appended.entries[-1].payload == changed.to_bytes()
    assert not validate_block(appended)
    assert_fresh_encoding(changed)


def test_signed_record_encodes_its_current_fields():
    """A record's signature covers its tag, then the challenged vehicle's
    key, which the record does not store, then the rest of its bytes.
    """
    _, _, challenge, _, record = _world()
    assert_fresh_encoding(record)
    signing = record.signing_bytes()
    message = signing[:1] + challenge.vehicle_pk + signing[1:]
    assert crypto.verify(record.rsu_pk, message, record.sig)
    assert not crypto.verify(record.rsu_pk, signing, record.sig)


# -- maintenance updates -------------------------------------------------------------

UPDATED_ECU = 3


def _fresh_update_world():
    """One 8-ECU vehicle whose ECUs were all last written at 100, and the
    wire bytes of an authorized update of ECU ``UPDATED_ECU`` at 200,
    signed but not applied.
    """
    maker, vehicle = keys_for("maker"), keys_for("vehicle")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    roadside = RoadsideTier()
    state = state_of(8, ts=100)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    updated, update = make_update(
        maker, vehicle.public, state, UPDATED_ECU, b"fw-new", ts=200
    )
    return authority, roadside, maker, update, updated


# Shared by the property examples, which only ever hand the tiers rejected updates.
_update_world = functools.lru_cache(maxsize=None)(_fresh_update_world)


def tier_snapshot(roadside, vehicle_pk):
    block = roadside.ledger.lookup(vehicle_pk)
    return (
        block,
        roadside.archive.read(block.header.external_address),
        dataclasses.replace(roadside.profiles[vehicle_pk]),
    )


def assert_update_rejected(update, match):
    authority, roadside, _, honest, _ = _update_world()
    vehicle_pk = decode(UpdateTx, honest).vehicle_pk
    before = tier_snapshot(roadside, vehicle_pk)
    with pytest.raises(ProtocolError, match=match):
        apply_upper_update(authority, roadside, update)
    assert tier_snapshot(roadside, vehicle_pk) == before


def test_update_world_accepts_its_honest_update():
    authority, roadside, _, wire, updated = _fresh_update_world()
    update = decode(UpdateTx, wire)
    apply_upper_update(authority, roadside, wire)
    assert roadside.profiles[update.vehicle_pk].state == updated
    assert compute_state_root(roadside.profiles[update.vehicle_pk].state) == update.new_root


UPDATE_FIELDS = {
    "new_root": digests,
    "ts": st.integers(0, U64_MAX),
    "vehicle_pk": digests,
    "maintainer_pk": digests,
    "ecu_id": st.integers(0, MAX_ECUS),
    "firmware_digest": digests,
    "sig": st.binary(min_size=64, max_size=64),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_changed_update_is_rejected(data):
    *_, update, _ = _update_world()
    honest = decode(UpdateTx, update)
    name = data.draw(st.sampled_from(sorted(UPDATE_FIELDS)))
    value = data.draw(UPDATE_FIELDS[name].filter(lambda v: v != getattr(honest, name)))
    changed = dataclasses.replace(honest, **{name: value})
    # A changed maintainer key is outside the allow-list, which is checked first.
    match = "unauthorized maintainer" if name == "maintainer_pk" else "signature"
    assert_update_rejected(changed.to_bytes(), match)
    assert_fresh_encoding(changed)


@st.composite
def inconsistent_update(draw, update):
    """(expected error, ``update`` with one field changed so that it no
    longer describes an update of the registered state), unsigned.
    """
    kind = draw(
        st.sampled_from(["new_root", "firmware_digest", "other_ecu", "unknown_ecu", "stale"])
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
    return "regression|after its ECU's last write", dataclasses.replace(
        update, ts=draw(st.integers(0, 100))
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_resigned_inconsistent_update_is_rejected(data):
    _, _, maker, update, _ = _update_world()
    match, changed = data.draw(inconsistent_update(decode(UpdateTx, update)))
    assert_update_rejected(signed_wire(changed, maker, changed.vehicle_pk), match)


def test_signed_update_encodes_its_current_fields():
    *_, wire, _ = _update_world()
    update = decode(UpdateTx, wire)
    assert_fresh_encoding(update)
    assert update.to_bytes() == wire
    assert signed_by(update, wire, update.vehicle_pk)


# -- fixed-width fields of the wrong width ------------------------------------------
# Wire format v3 writes digests, keys, integers and signatures raw, so a field
# sent one byte short or long shifts every byte after it: each boundary
# rejects such bytes with its own rejection.


def field_span(obj, name):
    """(start, end) of field ``name`` (``sig`` included) in ``obj.to_bytes()``."""
    start = 0 if obj.TAG is None else 1
    for field, (encode, _) in obj.WIRE.items():
        end = start + len(encode(getattr(obj, field)))
        if field == name:
            return start, end
        start = end
    assert name == "sig"
    return start, start + 64


def wrong_widths(obj, name) -> list[bytes]:
    """``obj``'s wire bytes with field ``name`` one byte short, then one
    byte long.
    """
    wire = obj.to_bytes()
    _, end = field_span(obj, name)
    return [wire[: end - 1] + wire[end:], wire[:end] + b"\x00" + wire[end:]]


@pytest.mark.parametrize("name", ["state_root", "sig"])
def test_response_with_wrong_width_field_is_bad_signature(name):
    authority, roadside, challenge, response, _ = _world()
    rsu = keys_for("rsu")
    profile = dataclasses.replace(roadside.profiles[challenge.vehicle_pk])
    for wire in wrong_widths(decode(ChallengeResponse, response), name):
        verdict = record_response(authority, roadside, rsu, challenge, wire)
        assert verdict is Verdict.BAD_SIGNATURE
    assert roadside.profiles[challenge.vehicle_pk] == profile


@pytest.mark.parametrize("name", ["new_root", "vehicle_pk", "maintainer_pk", "firmware_digest"])
def test_update_with_wrong_width_field_is_rejected(name):
    *_, update, _ = _update_world()
    for wire in wrong_widths(decode(UpdateTx, update), name):
        assert_update_rejected(wire, "does not decode")


def test_request_with_unencodable_field_is_rejected_by_append(tiers, insurer_keys):
    """A request whose ts or insurer key is not the width the wire format
    gives it does not decode, and so is not appended.
    """
    authority, _ = tiers
    before = authority.ledger.lookup(authority.audit_pk)
    request = decode(RequestTx, signed_request(insurer_keys, "q", ts=3, owner=authority.audit_pk))
    for name in ("ts", "insurer_pk"):
        for forged in wrong_widths(request, name):
            with pytest.raises(ProtocolError, match="does not decode"):
                submit_request(authority, forged)
    assert authority.ledger.lookup(authority.audit_pk) == before


def test_report_and_audit_event_with_wrong_width_key_do_not_verify(
    tiers, rsu_keys, vehicle_keys
):
    authority, _ = tiers
    register_rsu(authority, rsu_keys.public)
    event = report_malicious(rsu_keys, vehicle_keys.public, Verdict.STATE_MISMATCH, ts=3)
    receiver = AuthorityNode(keys=keys_for("transport"))
    for forged in wrong_widths(decode(ReportEvent, event), "vehicle_pk"):
        with pytest.raises(ProtocolError, match="does not decode"):
            receiver.receive_report(authority, forged)
    assert not authority.revoked


def test_update_with_metadata_string_layout_does_not_decode():
    *_, wire, _ = _update_world()
    update = decode(UpdateTx, wire)
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
    assert_update_rejected(old, "does not decode")


# -- hostile bytes at every entry point ----------------------------------------------


@functools.lru_cache(maxsize=None)
def _boundary_world():
    """Both tiers with a registered RSU and vehicle, the honest wire bytes
    each entry point takes, and one call per entry point. The honest bytes
    are only ever handed over mutated, so the world is shared.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    insurer = keys_for("insurer")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(insurer.public,),
    )
    register_rsu(authority, rsu.public)
    roadside = RoadsideTier()
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(3), ts=5)
    receiver = AuthorityNode(keys=keys_for("transport"))
    entry_points = {
        "genesis": (
            make_genesis(maker, keys_for("second").public, state, 0),
            lambda wire: initialize_vehicle(authority, roadside, wire),
        ),
        "update": (
            make_update(maker, vehicle.public, state, 3, b"fw-v2", ts=9)[1],
            lambda wire: apply_upper_update(authority, roadside, wire),
        ),
        "response": (
            build_response(vehicle, state, challenge, ts=5),
            lambda wire: record_response(authority, roadside, rsu, challenge, wire),
        ),
        "request": (
            signed_request(insurer, "incident 12", ts=3, owner=authority.audit_pk),
            lambda wire: submit_request(authority, wire),
        ),
        "report": (
            report_malicious(rsu, vehicle.public, Verdict.STATE_MISMATCH, ts=5),
            lambda wire: receiver.receive_report(authority, wire),
        ),
    }
    return authority, roadside, entry_points


def both_tiers(authority, roadside):
    return (
        roadside.ledger.serialize(),
        {pk: dataclasses.replace(p) for pk, p in roadside.profiles.items()},
        set(authority.revoked),
        set(authority.registered_rsus),
        authority.ledger.serialize(),
    )


@pytest.mark.parametrize("target", ["genesis", "update", "response", "request", "report"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_entry_points_reject_hostile_bytes_and_change_nothing(target, data):
    """Arbitrary bytes, and truncations and single-byte flips of honest
    wire bytes, at each entry point: the call returns a non-Valid verdict
    or raises ``ProtocolError``, nothing else, and leaves both tiers as
    they were.
    """
    authority, roadside, entry_points = _boundary_world()
    honest, call = entry_points[target]
    wire = data.draw(hostile([honest]))
    before = both_tiers(authority, roadside)
    try:
        verdict = call(wire)
    except ProtocolError:
        pass
    else:
        assert target == "response"
        assert isinstance(verdict, Verdict) and verdict is not Verdict.VALID
    assert both_tiers(authority, roadside) == before


# -- where signing and verifying happen ----------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "ecuchain"
# The functions allowed to call crypto.verify and KeyPair.sign; crypto.py,
# which defines both, is not searched. ``validate_block`` verifies through
# ``signed_by``.
ALLOWED_SITES = {
    ("verify", "signed_by"),
    ("sign", "signed_wire"),
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
# and a signature is checked only where a transaction enters a tier (a
# response's in verify_response, for record_response) and in the audit
# (a recorded response's in the fold's record rule, apply_entry).
BOUNDARY_SITES = {
    ("append_entry", "submit_request"),
    ("append_entry", "apply_upper_update"),
    ("append_entry", "record_response"),
    ("verify_response", "record_response"),
    ("signed_by", "initialize_vehicle"),
    ("signed_by", "apply_upper_update"),
    ("signed_by", "verify_response"),
    ("signed_by", "submit_request"),
    ("signed_by", "AuthorityNode.receive_report"),
    ("signed_by", "_verified_transactions"),
    ("signed_by", "apply_entry"),
    ("signed_by", "head_holds"),
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
