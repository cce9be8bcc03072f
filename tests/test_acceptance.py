"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from contextlib import contextmanager

from conftest import keys_for, state_of, validate_block_bytes
from ecuchain.adversary import (
    AttackKind,
    assert_detected,
    default_oracle,
    expected_verdict,
)
from ecuchain.bench import (
    bench_challenge,
    bench_create,
    bench_merkle,
    bench_storage,
    linear_fit,
)
from ecuchain.crypto import sha256
from ecuchain.ecu import compute_state_root, state_from_digests, update_ecu
from ecuchain.ledger import MemoryArchive, reconstruct_history
from ecuchain.protocol import (
    RoadsideTier,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    submit_request,
)
from ecuchain.sim import AttackPlanEntry, MaintenancePlanEntry, SimConfig, build_world, run
from ecuchain.transactions import Verdict
from ecuchain.entities import perform_maintenance, VehicleNode
from test_ecu_merkle import oracle_root
from test_protocol import signed_request, verdict_of


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    else:
        print(f"[criterion {num}] {name}: PASS")


# -- 1 ---------------------------------------------------------------------------


def test_criterion_1_merkle_oracle_equivalence():
    with criterion(1, "Merkle oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(0xACC1)
        mismatches = 0
        cases = 0
        sizes = list(range(1, 65)) + [rng.randint(1, 64) for _ in range(436)]
        for n in sizes:
            digests = [rng.randbytes(32) for _ in range(n)]
            got = compute_state_root(state_from_digests(digests))
            if got != oracle_root(digests):
                mismatches += 1
            cases += 1
        elapsed = time.perf_counter() - start
        assert cases >= 500
        assert mismatches == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- 2 ---------------------------------------------------------------------------


def _tamper_corpus():
    """Blocks with 1..10 entries covering all transaction kinds."""
    from conftest import append
    from ecuchain.ledger import Ledger, prune_to_two
    from test_ledger import record_tx

    maker = keys_for("acc2-maker")
    rsu = keys_for("acc2-rsu")
    blocks = []

    def vehicle_block(n_records: int, prune: bool):
        keys = keys_for(f"acc2-v{n_records}{prune}")
        state = state_of(4)
        ledger = Ledger()
        block = ledger.create_block(keys.public, make_genesis(maker, keys.public, state, 0))
        for i in range(n_records):
            block = append(block, record_tx(keys, state, rsu, ts=i + 1))
        if prune:
            block, _ = prune_to_two(block, MemoryArchive())
        return block

    blocks.append(vehicle_block(0, False))  # 1 entry
    blocks.append(vehicle_block(4, False))  # 5 entries
    blocks.append(vehicle_block(9, False))  # 10 entries
    blocks.append(vehicle_block(6, True))  # pruned back to 2
    insurer = keys_for("acc2-insurer")
    authority = new_authority_tier(
        validators=(keys_for("acc2-val1"), keys_for("acc2-val2")),
        authorized_makers=(maker.public,),
        authorized_insurers=(insurer.public,),
    )
    for ts, query in enumerate(("claims evidence", "second request"), 1):
        submit_request(authority, signed_request(insurer, query, ts, authority.audit_pk))
    blocks.append(authority.ledger.lookup(authority.audit_pk))  # 2 entries
    return blocks


def test_criterion_2_ledger_tamper_evidence():
    with criterion(2, "Ledger tamper evidence"):
        start = time.perf_counter()
        corpus = [block.to_bytes() for block in _tamper_corpus()]
        for data in corpus:
            assert validate_block_bytes(data), "unmutated block must validate"
        rng = random.Random(0xACC2)
        trials = 1000
        undetected = 0
        for t in range(trials):
            data = corpus[t % len(corpus)]
            pos = rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[pos] ^= 1 << rng.randrange(8)
            if validate_block_bytes(bytes(mutated)):
                undetected += 1
        elapsed = time.perf_counter() - start
        assert undetected == 0, f"{undetected}/{trials} mutations went undetected"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# -- 3 ---------------------------------------------------------------------------


def test_criterion_3_pruning_contract():
    with criterion(3, "Pruning contract"):
        maker = keys_for("acc3-maker")
        rsu = keys_for("acc3-rsu")
        vehicle = keys_for("acc3-vehicle")
        state = state_of(8)
        authority = new_authority_tier(
            validators=(keys_for("acc3-val"),),
            authorized_makers=(maker.public,),
            authorized_insurers=(),
        )
        register_rsu(authority, rsu.public)
        roadside = RoadsideTier(archive=MemoryArchive())
        genesis = make_genesis(maker, vehicle.public, state, ts=0)
        initialize_vehicle(authority, roadside, genesis)
        rng = random.Random(0xACC3)
        payloads = [genesis]
        for k in range(1, 21):
            challenge = issue_challenge(rsu.public, vehicle.public, 8, rng, ts=k * 100)
            response = build_response(vehicle, state, challenge, ts=k * 100)
            verdict = record_response(authority, roadside, rsu, challenge, response)
            assert verdict is Verdict.VALID
            block = roadside.ledger.lookup(vehicle.public)
            payloads.append(block.entries[-1].payload)
            assert len(block.entries) == min(k + 1, 2), f"k={k}"
            history = reconstruct_history(block, roadside.archive)
            assert [e.payload for e in history] == payloads, f"k={k}"


# -- 4 ---------------------------------------------------------------------------

FIRST_ENCOUNTER_KINDS = (
    AttackKind.FAKE_DATA,
    AttackKind.CODE_INJECTION,
    AttackKind.SYBIL,
    AttackKind.MASQUERADE,
    AttackKind.REPLAY,
)


def test_criterion_4_attack_detection():
    with criterion(4, "Attack detection"):
        # five immediate attack classes: 100 seeds each, detection at the
        # first post-attack encounter with the exact expected verdict
        for kind in FIRST_ENCOUNTER_KINDS:
            for seed in range(100):
                cfg = SimConfig(
                    n_vehicles=2,
                    n_rsus=2,
                    n_rounds=1,
                    ecus_per_vehicle=8,
                    seed=seed,
                    attacks=(AttackPlanEntry(kind, 1, 1),),
                )
                result = run(build_world(cfg))
                res = assert_detected(result.event_log, default_oracle(kind))
                assert res.passed, f"{kind.value} seed={seed}: {res.reason}"
                assert res.encounter_index == 1, f"{kind.value} seed={seed}"
                assert res.verdict in expected_verdict(kind)

        # reversal, uniform subsets: empirical per-encounter detection rate
        n_ecus, flipped = 30, 3
        p_expected = 1 - math.comb(n_ecus - flipped, 3) / math.comb(n_ecus, 3)
        maker = keys_for("acc4-maker")
        rsu = keys_for("acc4-rsu")
        vehicle = keys_for("acc4-vehicle")
        base_state = state_of(n_ecus)
        authority = new_authority_tier(
            validators=(keys_for("acc4-val"),),
            authorized_makers=(maker.public,),
            authorized_insurers=(),
        )
        roadside = RoadsideTier(archive=MemoryArchive())
        initialize_vehicle(
            authority, roadside, make_genesis(maker, vehicle.public, base_state, 0)
        )
        rng = random.Random(0xACC4)
        trials = 1000
        detections = 0
        for t in range(trials):
            reverted = base_state
            for ecu in rng.sample(range(n_ecus), flipped):
                reverted = update_ecu(
                    reverted, ecu, reverted.records[ecu].firmware_digest, ts=t + 1
                )
            challenge = issue_challenge(
                rsu.public, vehicle.public, n_ecus, rng, ts=t + 1
            )
            response = build_response(vehicle, reverted, challenge, ts=t + 1)
            verdict = verdict_of(roadside, challenge, response)
            assert verdict in (Verdict.VALID, Verdict.SUBSET_MISMATCH)
            detections += verdict is Verdict.SUBSET_MISMATCH
        rate = detections / trials
        assert abs(rate - 0.288) <= 0.05, f"rate {rate:.3f} vs 0.288±0.05"
        assert abs(rate - p_expected) <= 0.05, f"rate {rate:.3f} vs exact {p_expected:.3f}"

        # reversal with the subset forced onto a flipped ECU: always caught
        for seed in range(100):
            srng = random.Random(seed)
            flipped_ids = srng.sample(range(n_ecus), flipped)
            reverted = base_state
            for ecu in flipped_ids:
                reverted = update_ecu(
                    reverted, ecu, reverted.records[ecu].firmware_digest, ts=2000 + seed
                )
            challenge = issue_challenge(
                rsu.public, vehicle.public, n_ecus, srng, ts=2000 + seed
            )
            forced = (flipped_ids[0],) + tuple(
                i for i in challenge.subset_indices if i != flipped_ids[0]
            )[:2]
            challenge = dataclasses.replace(challenge, subset_indices=forced)
            response = build_response(vehicle, reverted, challenge, ts=2000 + seed)
            assert verdict_of(roadside, challenge, response) is Verdict.SUBSET_MISMATCH


# -- 5 ---------------------------------------------------------------------------


def test_criterion_5_zero_false_positives():
    with criterion(5, "Zero false positives"):
        counts = (10, 25, 50, 100, 200)
        for seed in range(50):
            cfg = SimConfig(
                n_vehicles=counts[seed % len(counts)],
                n_rsus=5,
                n_rounds=3,
                ecus_per_vehicle=8,
                seed=seed,
            )
            result = run(build_world(cfg))
            expected = cfg.n_vehicles * 15
            assert result.report.encounters == expected
            assert result.report.verdict_counts == {"Valid": expected}, (
                f"seed={seed}: {result.report.verdict_counts}"
            )


# -- 6 ---------------------------------------------------------------------------


def test_criterion_6_determinism():
    with criterion(6, "Determinism"):
        configs = [
            SimConfig(n_vehicles=3 + (i % 5), n_rsus=2 + (i % 2), n_rounds=2, seed=i * 17)
            for i in range(6)
        ]
        configs += [
            SimConfig(
                n_vehicles=5,
                n_rsus=2,
                n_rounds=2,
                seed=100 + i,
                attacks=(
                    AttackPlanEntry(kind, 1, 1),
                    AttackPlanEntry(AttackKind.REPLAY, 2, 2),
                ),
                maintenance=(MaintenancePlanEntry(0, 1, 1),),
            )
            for i, kind in enumerate(
                (AttackKind.FAKE_DATA, AttackKind.SYBIL, AttackKind.ECU_REVERSAL)
            )
        ]
        configs.append(SimConfig(n_vehicles=4, n_rsus=3, n_rounds=2, seed=424242))
        assert len(configs) >= 10
        for cfg in configs:
            world_a = build_world(cfg)
            result_a = run(world_a)
            world_b = build_world(cfg)
            result_b = run(world_b)
            assert result_a.event_log == result_b.event_log, cfg
            assert (
                world_a.roadside.ledger.serialize()
                == world_b.roadside.ledger.serialize()
            ), cfg
            assert (
                world_a.authority_tier.ledger.serialize()
                == world_b.authority_tier.ledger.serialize()
            ), cfg


# -- 7 ---------------------------------------------------------------------------


def test_criterion_7_evaluation_trends():
    with criterion(7, "Evaluation trend reproduction"):
        start = time.perf_counter()

        create = bench_create(seed=7)
        xs = [p.x for p in create.series]
        slope, _, r2 = linear_fit(xs, [p.mean_ms for p in create.series])
        assert slope >= 0, f"block-creation slope {slope:.4f}"
        assert r2 >= 0.8, f"block-creation r2 {r2:.3f}"

        challenge = bench_challenge(seed=7)
        slope, _, r2 = linear_fit(xs, [p.mean_ms for p in challenge.series])
        assert slope >= 0, f"challenge-validation slope {slope:.4f}"
        assert r2 >= 0.8, f"challenge-validation r2 {r2:.3f}"

        merkle = bench_merkle(seed=7)
        m_xs = [p.x for p in merkle.series]
        m_ys = [p.mean_ms for p in merkle.series]
        slope, _, r2 = linear_fit(m_xs, m_ys)
        assert slope >= 0 and r2 >= 0.9, f"merkle slope {slope:.5f} r2 {r2:.3f}"
        assert m_ys[m_xs.index(1000)] <= 100.0, f"1000-ECU root took {m_ys[-1]:.2f} ms"

        storage = bench_storage(seed=7)
        assert 500 <= storage.per_block_bytes <= 1500
        fleet = next(p for p in storage.storage if p.kind == "extrapolated")
        assert fleet.blocks == 5_600_000
        assert 2.5e9 <= fleet.bytes <= 7.5e9, f"{fleet.bytes / 1e9:.2f} GB"

        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"benchmark suite took {elapsed:.0f}s"


# -- 8 ---------------------------------------------------------------------------


def test_criterion_8_honest_end_to_end_flow():
    with criterion(8, "Honest end-to-end flow"):
        maker = keys_for("acc8-maker")
        technician = keys_for("acc8-tech")
        rsu1, rsu2 = keys_for("acc8-rsu1"), keys_for("acc8-rsu2")
        authority = new_authority_tier(
            validators=(keys_for("acc8-t"), keys_for("acc8-l")),
            authorized_makers=(maker.public, technician.public),
            authorized_insurers=(),
        )
        register_rsu(authority, rsu1.public)
        register_rsu(authority, rsu2.public)
        roadside = RoadsideTier(archive=MemoryArchive())
        images = [b"factory-image-%d" % e for e in range(8)]
        vehicle = VehicleNode(
            keys=keys_for("acc8-vehicle"),
            ecu_state=state_from_digests([sha256(img) for img in images]),
        )
        # initialization
        genesis = make_genesis(maker, vehicle.pk, vehicle.ecu_state, ts=0)
        initialize_vehicle(authority, roadside, genesis)
        # authorized maintenance update
        update = perform_maintenance(technician, vehicle, 2, b"patched-image", ts=100)
        apply_upper_update(authority, roadside, update)
        rng = random.Random(0xACC8)
        # first roadside encounter
        ch1 = issue_challenge(rsu1.public, vehicle.pk, 8, rng, ts=200)
        resp1 = vehicle.respond(ch1, ts=200)
        assert record_response(authority, roadside, rsu1, ch1, resp1) is Verdict.VALID
        # second encounter: the freshness check is now armed and passes
        assert roadside.profiles[vehicle.pk].last_response_ts == 200
        ch2 = issue_challenge(rsu2.public, vehicle.pk, 8, rng, ts=300)
        resp2 = vehicle.respond(ch2, ts=300)
        assert record_response(authority, roadside, rsu2, ch2, resp2) is Verdict.VALID
        # replaying encounter one at the second roadside unit is stale
        ch3 = issue_challenge(rsu2.public, vehicle.pk, 8, rng, ts=400)
        assert verdict_of(roadside, ch3, resp1) is Verdict.STALE_TIMESTAMP
