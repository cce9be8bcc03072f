"""The signed ledger head: the authority validators seal the roadside
ledger, and an audit against that head notices a rollback of the stored
bytes (a block deleted, reordered or re-dated, a tip cut back or replaced
by an older record), each edit re-sealed with its CRC32, while appends
after the seal still pass.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for
from ecuchain.ledger import LEDGER_MAGIC, SealedHead, decode_block, deserialize_ledger
from ecuchain.protocol import (
    RoadsideTier,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    seal_roadside,
)
from ecuchain.sim import SimConfig, build_world, run
from ecuchain.transactions import LedgerHead, Verdict, decode, signed_wire
from ecuchain.wire import U64_MAX, Reader, encode_bytes

SMALL = SimConfig(n_vehicles=3, n_rsus=2, n_rounds=2, ecus_per_vehicle=4, seed=7)


@functools.lru_cache(maxsize=None)
def _sealed() -> tuple[bytes, SealedHead, tuple[bytes, ...]]:
    """A run's serialized roadside ledger, the head the authority tier
    sealed for it when the run ended and the tier's validator keys.
    """
    world = build_world(SMALL)
    run(world)
    tier = world.authority_tier
    return world.roadside.ledger.serialize(), tier.roadside_head, tier.validator_pks


def _blocks(blob: bytes) -> list[bytes]:
    r = Reader(blob)
    r.read_bytes()
    blocks = []
    while r.remaining:
        blocks.append(r.read_bytes())
    return blocks


def _joined(blocks: list[bytes]) -> bytes:
    return encode_bytes(LEDGER_MAGIC) + b"".join(encode_bytes(b) for b in blocks)


def _audits(blocks: list[bytes], head=None, validators=()) -> bool:
    return deserialize_ledger(_joined(blocks)).validate(head, validators)


def _redated(block_bytes: bytes, ts: int) -> bytes:
    block = decode_block(block_bytes)
    header = dataclasses.replace(block.header, created_ts=ts)
    return dataclasses.replace(block, header=header).to_bytes()


def test_the_sealed_ledger_round_trips_and_validates_against_its_head():
    blob, head, validators = _sealed()
    restored = deserialize_ledger(blob)
    assert restored.serialize() == blob
    assert restored.validate(head, validators)


def test_deleting_the_newest_block_fails_against_the_head():
    blob, head, validators = _sealed()
    blocks = _blocks(blob)[:-1]
    assert _audits(blocks)
    assert not _audits(blocks, head, validators)


def test_redating_the_newest_block_fails_against_the_head():
    blob, head, validators = _sealed()
    blocks = _blocks(blob)
    blocks[-1] = _redated(blocks[-1], decode_block(blocks[-1]).header.created_ts + 1)
    assert _audits(blocks)
    assert not _audits(blocks, head, validators)


def test_a_head_signed_by_a_non_validator_fails():
    blob, head, validators = _sealed()
    stranger = keys_for("stranger")
    legal = decode(LedgerHead, head.signed[1])
    forged = signed_wire(dataclasses.replace(legal, sig=b""), stranger)
    named = dataclasses.replace(legal, validator_pk=stranger.public, sig=b"")
    strange = signed_wire(named, stranger)
    for signed in ((head.signed[0], forged), (head.signed[0], strange), (*head.signed, strange)):
        assert not _audits(_blocks(blob), head._replace(signed=signed), validators)


def test_a_rollback_resealed_by_a_stranger_fails():
    """The audited party deletes its newest block and seals the rest with
    its own key: a well-formed head, which names the stranger as its
    validator, and holds only for an audit that takes the stranger as one.
    """
    blob, head, validators = _sealed()
    blocks = _blocks(blob)[:-1]
    stranger = new_authority_tier([keys_for("stranger")], (), ())
    seal_roadside(stranger, RoadsideTier(ledger=deserialize_ledger(_joined(blocks))), ts=1)
    forged = stranger.roadside_head
    assert _audits(blocks, forged, stranger.validator_pks)
    assert not _audits(blocks, forged, validators)
    assert not _audits(_blocks(blob), forged, validators)


def test_a_head_without_one_validators_signature_fails():
    blob, head, validators = _sealed()
    for signed in (head.signed[:1], head.signed[1:], (head.signed[0], head.signed[0])):
        assert not _audits(_blocks(blob), head._replace(signed=signed), validators)
    assert not _audits(_blocks(blob), head, validators[:1])


def test_validators_that_signed_different_heads_fail():
    blob, head, validators = _sealed()
    legal = build_world(SMALL).authority_tier.validators[1]
    other = signed_wire(
        dataclasses.replace(decode(LedgerHead, head.signed[1]), ts=0, sig=b""), legal
    )
    assert not _audits(_blocks(blob), head._replace(signed=(head.signed[0], other)), validators)


@st.composite
def rollbacks(draw, blocks):
    """``blocks`` with one block deleted, two swapped, one re-dated, one
    cut where a record starts or one whose newest record's payload is an
    older one's, each edited block re-sealed.
    """
    blocks = list(blocks)
    indices = st.integers(0, len(blocks) - 1)
    kind = draw(st.sampled_from(["delete", "swap", "redate", "cut", "retip"]))
    if kind == "delete":
        del blocks[draw(indices)]
    elif kind == "swap":
        i, j = draw(st.lists(indices, min_size=2, max_size=2, unique=True))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif kind == "redate":
        i = draw(indices)
        ts = decode_block(blocks[i]).header.created_ts
        blocks[i] = _redated(blocks[i], draw(st.integers(0, U64_MAX).filter(lambda t: t != ts)))
    elif kind == "cut":
        i = draw(indices)
        block = decode_block(blocks[i])
        kept = draw(st.integers(0, len(block.entries) - 1))
        blocks[i] = dataclasses.replace(block, entries=block.entries[:kept]).to_bytes()
    else:
        i = draw(indices)
        block = decode_block(blocks[i])
        *older, tip = block.entries
        payload = draw(st.sampled_from([entry.payload for entry in older]))
        entries = (*older, tip._replace(payload=payload))
        blocks[i] = dataclasses.replace(block, entries=entries).to_bytes()
    return blocks


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_every_rollback_of_a_sealed_ledger_fails_against_its_head(data):
    """Each block of the sealed run holds two entries, so every block has
    an older record for a re-tipped one.
    """
    blob, head, validators = _sealed()
    assert _audits(_blocks(blob), head, validators)
    assert all(len(decode_block(b).entries) == 2 for b in _blocks(blob))
    assert not _audits(data.draw(rollbacks(_blocks(blob))), head, validators)


def test_appends_after_the_seal_still_validate():
    """A new block and new records, enough to archive a sealed tip, are an
    append-only continuation of the head.
    """
    world = build_world(SMALL)
    run(world)
    tier = world.authority_tier
    head = tier.roadside_head
    roadside, rsu, vehicle = world.roadside, world.rsus[0], world.vehicles[0]
    now = world.queue.now
    for ts in (now + 1, now + 2, now + 3):
        challenge = issue_challenge(rsu.public, vehicle.pk, 4, random.Random(ts), ts)
        response = vehicle.respond(challenge, ts)
        assert record_response(tier, roadside, rsu, challenge, response) is Verdict.VALID
    newcomer = world._new_vehicle(b"vehicle", SMALL.n_vehicles)
    genesis = make_genesis(world.maker, newcomer.pk, newcomer.ecu_state, ts=now)
    initialize_vehicle(world.authority_tier, roadside, genesis, ts=now)
    assert tier.roadside_head == head
    assert roadside.ledger.validate(head, tier.validator_pks)
    assert deserialize_ledger(roadside.ledger.serialize()).validate(head, tier.validator_pks)


@pytest.mark.xfail(
    strict=True,
    reason="head_holds skips the payload check when a sealed tip is no longer "
    "retained, and a block shifted past its tip looks archived",
)
def test_shifting_a_blocks_seqs_past_its_sealed_tip_fails_against_the_head():
    """Block 0 keeps its payloads under seqs moved 100 on, past the tip the
    head sealed. Only ``reconstruct_history`` against the archive notices
    today; a head that also fixed each block's archived count would.
    """
    blob, head, validators = _sealed()
    blocks = _blocks(blob)
    block = decode_block(blocks[0])
    assert [entry.seq for entry in block.entries] == [3, 4]
    entries = tuple(entry._replace(seq=entry.seq + 100) for entry in block.entries)
    blocks[0] = dataclasses.replace(block, entries=entries).to_bytes()
    assert _audits(blocks)
    assert not _audits(blocks, head, validators)
