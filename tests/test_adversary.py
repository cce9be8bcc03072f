from __future__ import annotations

import math
import random

import pytest

from ecuchain.adversary import (
    REVERSAL_ECU_COUNT,
    AttackKind,
    DetectionOracle,
    assert_detected,
    default_oracle,
    inject,
)
from ecuchain.ecu import compute_state_root
from ecuchain.sim import AttackPlanEntry, SimConfig, build_world, run
from ecuchain.transactions import Verdict


def test_expected_verdict_map():
    assert default_oracle(AttackKind.FAKE_DATA).expected == {Verdict.STATE_MISMATCH}
    assert default_oracle(AttackKind.CODE_INJECTION).expected == {Verdict.STATE_MISMATCH}
    assert default_oracle(AttackKind.SYBIL).expected == {Verdict.UNKNOWN_VEHICLE}
    assert default_oracle(AttackKind.MASQUERADE).expected == {Verdict.UNKNOWN_VEHICLE}
    assert default_oracle(AttackKind.ECU_REVERSAL).expected == {Verdict.SUBSET_MISMATCH}
    assert default_oracle(AttackKind.REPLAY).expected == {Verdict.STALE_TIMESTAMP}


def test_oracle_rejects_valid_in_expected_set():
    with pytest.raises(ValueError):
        DetectionOracle(kind=AttackKind.SYBIL, expected=frozenset({Verdict.VALID}), bound=1)
    with pytest.raises(ValueError):
        DetectionOracle(kind=AttackKind.SYBIL, expected=frozenset(), bound=1)


def test_reversal_preserves_root_but_moves_timestamps():
    world = build_world(SimConfig(n_vehicles=1, ecus_per_vehicle=8, seed=13))
    vehicle = world.vehicles[0]
    before_root = compute_state_root(vehicle.ecu_state)
    before_ts = [r.last_write_ts for r in vehicle.ecu_state.records]
    inject(world, AttackKind.ECU_REVERSAL, 0, ts=500)
    assert compute_state_root(vehicle.ecu_state) == before_root
    after_ts = [r.last_write_ts for r in vehicle.ecu_state.records]
    moved = sum(1 for a, b in zip(before_ts, after_ts) if a != b)
    assert moved == REVERSAL_ECU_COUNT


def test_sybil_identity_has_no_block():
    world = build_world(SimConfig(n_vehicles=2, seed=14))
    subject = inject(world, AttackKind.SYBIL, 0, ts=500)
    assert subject == "x0"
    phantom = world.actors[subject]
    assert world.roadside.ledger.lookup(phantom.pk) is None


def test_replay_requires_prior_response():
    world = build_world(SimConfig(n_vehicles=1, seed=15))
    with pytest.raises(ValueError, match="replay"):
        inject(world, AttackKind.REPLAY, 0, ts=500)


def test_replay_resends_identical_response():
    world = build_world(
        SimConfig(
            n_vehicles=1,
            n_rsus=2,
            n_rounds=1,
            seed=16,
            attacks=(AttackPlanEntry(AttackKind.REPLAY, 0, 1),),
        )
    )
    vehicle = world.vehicles[0]
    result = run(world)
    # the replayed response is byte-identical to the stored one
    assert vehicle.last_response is not None
    res = assert_detected(result.event_log, default_oracle(AttackKind.REPLAY))
    assert res.passed and res.encounter_index == 1


@pytest.mark.parametrize(
    "kind",
    [
        AttackKind.FAKE_DATA,
        AttackKind.CODE_INJECTION,
        AttackKind.SYBIL,
        AttackKind.MASQUERADE,
        AttackKind.REPLAY,
    ],
)
def test_attacks_detected_at_next_encounter(kind):
    cfg = SimConfig(
        n_vehicles=3,
        n_rsus=2,
        n_rounds=2,
        seed=hash(kind.value) % 1000,
        attacks=(AttackPlanEntry(kind, 1, 1),),
    )
    result = run(build_world(cfg))
    res = assert_detected(result.event_log, default_oracle(kind))
    assert res.passed, res.reason
    assert res.encounter_index == 1
    assert res.verdict in default_oracle(kind).expected


def test_reversal_detected_within_bound_in_simulation():
    cfg = SimConfig(
        n_vehicles=1,
        n_rsus=5,
        n_rounds=7,
        ecus_per_vehicle=30,
        seed=18,
        attacks=(AttackPlanEntry(AttackKind.ECU_REVERSAL, 0, 1),),
    )
    result = run(build_world(cfg))
    res = assert_detected(result.event_log, default_oracle(AttackKind.ECU_REVERSAL))
    assert res.passed, res.reason


def test_honest_log_passes_null_oracle():
    result = run(build_world(SimConfig(n_vehicles=2, n_rsus=2, n_rounds=1, seed=19)))
    res = assert_detected(result.event_log, default_oracle(None))
    assert res.passed


def test_null_oracle_fails_on_detection():
    cfg = SimConfig(
        n_vehicles=2,
        n_rsus=2,
        n_rounds=1,
        seed=20,
        attacks=(AttackPlanEntry(AttackKind.FAKE_DATA, 0, 1),),
    )
    result = run(build_world(cfg))
    res = assert_detected(result.event_log, default_oracle(None))
    assert not res.passed


def test_reversal_detection_rate_rough_band():
    # hypergeometric ground truth for 3 flipped of 30, subset of 3
    p = 1 - math.comb(27, 3) / math.comb(30, 3)
    detections = 0
    trials = 200
    rng = random.Random(0xD)
    for _ in range(trials):
        hit = set(rng.sample(range(30), 3)) & set(rng.sample(range(30), 3))
        detections += bool(hit)
    assert abs(detections / trials - p) < 0.12  # coarse smoke; exact band in acceptance
