from __future__ import annotations

import dataclasses

import pytest

from conftest import keys_for, state_of
from ecuchain.crypto import sha256, verify
from ecuchain.ecu import compute_state_root
from ecuchain.entities import AuthorityNode, VehicleNode, perform_maintenance, tamper
from ecuchain.protocol import (
    ProtocolError,
    new_authority_tier,
    register_rsu,
    report_malicious,
)
from ecuchain.protocol import ReportEvent
from ecuchain.transactions import UpdateTx, Verdict, decode, signed_by
from test_ecu_merkle import oracle_root


def fresh_vehicle(n_ecus=8) -> VehicleNode:
    state = state_of(n_ecus)
    state = dataclasses.replace(
        state,
        records=tuple(
            dataclasses.replace(r, firmware_digest=sha256(b"image-%d" % r.ecu_id))
            for r in state.records
        ),
    )
    return VehicleNode(keys=keys_for("entity-vehicle"), ecu_state=state)


def test_maintenance_updates_state_and_signs():
    vehicle = fresh_vehicle()
    technician = keys_for("tech")
    update = decode(UpdateTx, perform_maintenance(technician, vehicle, 0, b"firmware v2", ts=42))
    digests = [r.firmware_digest for r in vehicle.ecu_state.records]
    assert update.new_root == oracle_root(digests)
    assert update.new_root == compute_state_root(vehicle.ecu_state)
    assert update.ecu_id == 0
    assert update.firmware_digest == sha256(b"firmware v2")
    assert update.ts == 42
    assert vehicle.ecu_state.records[0].last_write_ts == 42
    assert verify(technician.public, update.signing_bytes(), update.sig)


def test_tamper_changes_the_state_root():
    vehicle = fresh_vehicle()
    before = compute_state_root(vehicle.ecu_state)
    tamper(vehicle, 2, sha256(b"malware"), ts=5)
    assert compute_state_root(vehicle.ecu_state) != before


def test_tamper_with_identical_bytes_only_moves_timestamp():
    vehicle = fresh_vehicle()
    before = compute_state_root(vehicle.ecu_state)
    tamper(vehicle, 2, vehicle.ecu_state.records[2].firmware_digest, ts=5)
    assert compute_state_root(vehicle.ecu_state) == before
    assert vehicle.ecu_state.records[2].last_write_ts == 5


def tier_with_rsu(rsu):
    """An authority tier that has registered ``rsu``."""
    tier = new_authority_tier(
        validators=(keys_for("auth"),), authorized_makers=(), authorized_insurers=()
    )
    register_rsu(tier, rsu.public)
    return tier


def test_authority_accepts_valid_report():
    authority = AuthorityNode(keys=keys_for("auth"))
    rsu = keys_for("reporting-rsu")
    target = keys_for("bad-vehicle").public
    event = report_malicious(rsu, target, Verdict.STATE_MISMATCH, ts=3)
    tier = tier_with_rsu(rsu)
    authority.receive_report(tier, event)
    assert tier.revoked == {target}


def test_authority_rejects_forged_report():
    authority = AuthorityNode(keys=keys_for("auth"))
    rsu = keys_for("reporting-rsu")
    event = report_malicious(rsu, keys_for("v").public, Verdict.STALE_TIMESTAMP, ts=3)
    forged = dataclasses.replace(decode(ReportEvent, event), ts=4)
    tier = tier_with_rsu(rsu)
    with pytest.raises(ProtocolError, match="signature"):
        authority.receive_report(tier, forged.to_bytes())
    assert not tier.revoked


def test_authority_rejects_report_from_unregistered_rsu():
    """A report signed by a key no tier registered revokes nothing, though
    its signature verifies.
    """
    authority = AuthorityNode(keys=keys_for("auth"))
    tier = tier_with_rsu(keys_for("reporting-rsu"))
    stranger = keys_for("stranger")
    victim = keys_for("victim").public
    event = report_malicious(stranger, victim, Verdict.STATE_MISMATCH, ts=1)
    report = decode(ReportEvent, event)
    assert report.rsu_pk == stranger.public and signed_by(report, event)
    with pytest.raises(ProtocolError, match="unregistered RSU"):
        authority.receive_report(tier, event)
    assert not tier.revoked

