"""The benchmark's workloads: the simulator config each (workload, seed)
makes, and the oracle a run's event log is checked against.

The seed picks everything random in a workload (keys and challenge subsets
through ``SimConfig.seed``; maintenance targets and attack placement through
a generator seeded from the workload name and the seed), so the same seed
always gives the same config. The program receives only the config.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ecuchain.adversary import AttackKind, assert_detected, default_oracle
from ecuchain.sim import AttackPlanEntry, MaintenancePlanEntry, SimConfig

N_RSUS = 5

# fleet_honest: the ROADMAP's largest fleet with the paper's 8-ECU inventory.
HONEST_VEHICLES = 1000
HONEST_ECUS = 8
HONEST_ROUNDS = 1

# fleet_adversarial_audit: long per-vehicle histories (N_RSUS * ADV_ROUNDS
# encounters) on a file archive, with every attack kind planned once and a
# maintenance visit every ADV_MAINT_EVERY encounters of every vehicle that
# no attack mutates.
ADV_VEHICLES = 12
ADV_ECUS = 30
ADV_ROUNDS = 50
ADV_MAINT_EVERY = 10
IN_VEHICLE_ATTACKS = (
    AttackKind.FAKE_DATA,
    AttackKind.CODE_INJECTION,
    AttackKind.ECU_REVERSAL,
    AttackKind.REPLAY,
)
PHANTOM_ATTACKS = (AttackKind.SYBIL, AttackKind.MASQUERADE)


@dataclass(frozen=True)
class Workload:
    name: str
    file_archive: bool
    make_config: Callable[[int], SimConfig]


def _rng(name: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}")


def fleet_honest(seed: int) -> SimConfig:
    return SimConfig(
        n_vehicles=HONEST_VEHICLES,
        n_rsus=N_RSUS,
        ecus_per_vehicle=HONEST_ECUS,
        n_rounds=HONEST_ROUNDS,
        seed=seed,
    )


def fleet_adversarial_audit(seed: int) -> SimConfig:
    rng = _rng("fleet_adversarial_audit", seed)
    total = N_RSUS * ADV_ROUNDS
    # Attacks land in the second half of the run, so attacked vehicles also
    # build long histories; the reversal oracle needs `bound` encounters left.
    latest = total - default_oracle(AttackKind.ECU_REVERSAL).bound - 1
    victims = rng.sample(range(ADV_VEHICLES), len(IN_VEHICLE_ATTACKS))
    attacks = [
        AttackPlanEntry(kind, vehicle, rng.randrange(total // 2, latest))
        for kind, vehicle in zip(IN_VEHICLE_ATTACKS, victims)
    ]
    attacks += [
        AttackPlanEntry(kind, rng.randrange(ADV_VEHICLES), rng.randrange(total // 2, latest))
        for kind in PHANTOM_ATTACKS
    ]
    # An authorized update after a tamper would re-anchor the tampered state,
    # so attacked vehicles get no maintenance.
    maintenance = tuple(
        MaintenancePlanEntry(vehicle, rng.randrange(ADV_ECUS), encounter)
        for vehicle in range(ADV_VEHICLES)
        if vehicle not in victims
        for encounter in range(rng.randrange(ADV_MAINT_EVERY), total, ADV_MAINT_EVERY)
    )
    return SimConfig(
        n_vehicles=ADV_VEHICLES,
        n_rsus=N_RSUS,
        ecus_per_vehicle=ADV_ECUS,
        n_rounds=ADV_ROUNDS,
        seed=seed,
        attacks=tuple(attacks),
        maintenance=maintenance,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet_honest", False, fleet_honest),
        Workload("fleet_adversarial_audit", True, fleet_adversarial_audit),
    )
}


def _rows(event_log: list[str]) -> list[list[str]]:
    return [line.split("\t") for line in event_log]


def check_encounters(config: SimConfig, event_log: list[str]) -> tuple[int, int]:
    """(attempted, failed) encounter operations against the workload oracle.

    Every planned attack must fire and pass ``assert_detected`` with its
    ``default_oracle``. Every other vehicle must complete all its encounters
    with a Valid verdict; a non-valid verdict or a missing encounter (a
    refused vehicle stops arriving) of such a vehicle is one failed operation.
    """
    rows = _rows(event_log)
    triggers = [
        (kind.removeprefix("attack:"), subject)
        for _, kind, subject, _ in rows
        if kind.startswith("attack:")
    ]
    attacked = {subject for _, subject in triggers}
    attempted = failed = 0
    completed: Counter[str] = Counter()
    for _, kind, subject, verdict in rows:
        if kind == "encounter":
            attempted += 1
            if subject not in attacked:
                completed[subject] += 1
                failed += verdict != "Valid"
    for i in range(config.n_vehicles):
        subject = f"v{i}"
        if subject not in attacked:
            missing = max(0, config.encounters_per_vehicle - completed[subject])
            attempted += missing
            failed += missing
    unfired = max(0, len(config.attacks) - len(triggers))
    attempted += unfired
    failed += unfired
    for kind, subject in triggers:
        oracle = default_oracle(AttackKind(kind))
        failed += not assert_detected(event_log, oracle, subject=subject).passed
    return attempted, failed


def expected_history(event_log: list[str]) -> Counter[str]:
    """Ledger entries each vehicle's block must replay to: its genesis, one
    record per Valid encounter and one per maintenance update.
    """
    lengths: Counter[str] = Counter()
    for _, kind, subject, verdict in _rows(event_log):
        if kind == "init" or kind == "maintenance" or (
            kind == "encounter" and verdict == "Valid"
        ):
            lengths[subject] += 1
    return lengths
