from __future__ import annotations

import pytest

from ecuchain.crypto import derive_seed, generate_keypair, sha256
from ecuchain.ecu import EcuRecord, EcuState
from ecuchain.ledger import MemoryArchive, append_entry, decode_block, validate_block
from ecuchain.protocol import (
    RoadsideTier,
    initialize_vehicle,
    make_genesis,
    new_authority_tier,
    register_rsu,
)
from ecuchain.transactions import ChallengeRecordTx
from ecuchain.wire import WireError


def keys_for(label: str):
    return generate_keypair(derive_seed(b"test-key", label.encode()))


def validate_block_bytes(data: bytes) -> bool:
    """True iff ``data`` decodes to a block that ``validate_block`` accepts."""
    try:
        block = decode_block(data)
    except WireError:
        return False
    return validate_block(block)


def record_of(response, rsu_pk, sig=b""):
    """The challenge record of ``response`` by the RSU ``rsu_pk``: its ECU
    ids, its ts and its signature.
    """
    return ChallengeRecordTx(
        ecu_ids=tuple(rec.ecu_id for rec in response.subset),
        ts=response.ts,
        vehicle_sig=response.sig,
        rsu_pk=rsu_pk,
        sig=sig,
    )


def append(block, tx):
    """``append_entry`` of ``tx``'s encoding."""
    return append_entry(block, tx.to_bytes())


def state_of(n_ecus: int, tag: bytes = b"fw", ts: int = 0) -> EcuState:
    return EcuState(
        records=tuple(
            EcuRecord(
                ecu_id=e,
                firmware_digest=sha256(tag + e.to_bytes(4, "big")),
                last_write_ts=ts,
            )
            for e in range(n_ecus)
        )
    )


@pytest.fixture
def maker_keys():
    return keys_for("maker")


@pytest.fixture
def rsu_keys():
    return keys_for("rsu")


@pytest.fixture
def vehicle_keys():
    return keys_for("vehicle")


@pytest.fixture
def insurer_keys():
    return keys_for("insurer")


@pytest.fixture
def ecu_state8():
    return state_of(8)


@pytest.fixture
def tiers(maker_keys, insurer_keys, rsu_keys):
    """(authority, roadside) pair with the maker and insurer authorized and
    the ``rsu_keys`` RSU registered."""
    authority = new_authority_tier(
        validators=(keys_for("transport"), keys_for("legal")),
        authorized_makers=(maker_keys.public,),
        authorized_insurers=(insurer_keys.public,),
    )
    register_rsu(authority, rsu_keys.public)
    roadside = RoadsideTier(archive=MemoryArchive())
    return authority, roadside


@pytest.fixture
def registered(tiers, maker_keys, vehicle_keys, ecu_state8):
    """Tiers with one 8-ECU vehicle registered; returns (authority, roadside,
    vehicle keys, state)."""
    authority, roadside = tiers
    genesis = make_genesis(maker_keys, vehicle_keys.public, ecu_state8, ts=0)
    initialize_vehicle(authority, roadside, genesis)
    return authority, roadside, vehicle_keys, ecu_state8
