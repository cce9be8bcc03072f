from __future__ import annotations

import dataclasses
import hashlib
import struct
from pathlib import Path

import pytest

from ecuchain.adversary import AttackKind
from ecuchain.crypto import KeyPair
from ecuchain.ecu import EcuRecord, EcuState, compute_state_root
from ecuchain.entities import AuthorityNode, perform_maintenance
from ecuchain import sim
from ecuchain.sim import (
    AttackPlanEntry,
    ConfigError,
    EventKind,
    EventQueue,
    MaintenancePlanEntry,
    SimConfig,
    SimEvent,
    build_world,
    event_log_text,
    load_config,
    parse_config,
    run,
)
from ecuchain.ledger import reconstruct_history
from ecuchain.protocol import apply_upper_update, record_response
from ecuchain.transactions import (
    MAX_ECUS,
    ChallengeRecordTx,
    ChallengeResponse,
    decode,
    decode_transaction,
)

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "demo.cfg"
# SHA-256 of the event log `ecuchain run --config scenarios/demo.cfg` writes.
DEMO_LOG_SHA256 = "8fc8c3bece77eaacb6e81684eee69b14a2673bbe4f050a394a488cc710671305"
# SHA-256 of the demo run's serialized roadside and authority ledgers, and
# of its archive records (see ``archive_digest``). The demo makes no insurer
# request, so its authority ledger is empty.
DEMO_ROADSIDE_LEDGER_SHA256 = "6d20fd1785afed9dad42e32decf5a3362b1b2e9bcd7d3c7dc0e392f07368870b"
DEMO_AUTHORITY_LEDGER_SHA256 = "872777b568d614f5d38a9a7463382eaf635e1713bc36193bc12cd3265c0a393a"
DEMO_ARCHIVE_SHA256 = "57c56c070ae694ef1267eb487406bdc58608fe73b4480ded46237dc16819e95b"

SMALL = SimConfig(n_vehicles=4, n_rsus=2, n_rounds=2, ecus_per_vehicle=4, seed=21)


# -- config ---------------------------------------------------------------------


def test_parse_config_full():
    cfg = parse_config(
        """
        # scenario
        n_vehicles = 6
        n_rsus = 3
        ecus_per_vehicle = 8
        n_rounds = 2
        seed = 99
        attack = replay,2,3
        attack = sybil,0,1
        maintenance = 1,4,2
        """
    )
    assert cfg.n_vehicles == 6
    assert cfg.attacks == (
        AttackPlanEntry(AttackKind.REPLAY, 2, 3),
        AttackPlanEntry(AttackKind.SYBIL, 0, 1),
    )
    assert cfg.maintenance == (MaintenancePlanEntry(1, 4, 2),)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("n_vehicels = 3")
    # Every message is delivered at once, so there is no latency key.
    with pytest.raises(ConfigError, match="line 1: unknown key 'link_latency_ms'"):
        parse_config("link_latency_ms = 0")


def test_parse_config_rejects_unknown_attack():
    with pytest.raises(ConfigError, match="unknown attack kind"):
        parse_config("attack = downgrade,0,1")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("n_vehicles = many")
    with pytest.raises(ConfigError):
        parse_config("n_vehicles = 0")
    with pytest.raises(ConfigError, match="out of range"):
        parse_config("n_vehicles = 3\nattack = sybil,7,1")
    with pytest.raises(ConfigError, match="replay"):
        parse_config("attack = replay,0,0")
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(f"seed = {seed}")
    assert parse_config(f"ecus_per_vehicle = {MAX_ECUS}").ecus_per_vehicle == MAX_ECUS
    with pytest.raises(ConfigError, match="ecus_per_vehicle"):
        parse_config(f"ecus_per_vehicle = {MAX_ECUS + 1}")


@pytest.mark.parametrize(
    "key",
    ["n_vehicles", "n_rsus", "ecus_per_vehicle", "n_rounds", "seed"],
)
def test_parse_config_rejects_repeated_scalar_key(key):
    """A repeated scalar key is an error, not a silent override (plan lines
    repeat: see ``test_parse_config_full``).
    """
    with pytest.raises(ConfigError, match=f"line 3: {key} given twice"):
        parse_config(f"{key} = 1\n\n{key} = 2")


@pytest.mark.parametrize(
    "line, message",
    [
        ("attack = sybil,0", "line 2: attack = kind,vehicle,round"),
        ("attack = downgrade,0,1", "line 2: unknown attack kind 'downgrade'"),
        ("attack = sybil,x,1", "line 2: attack vehicle must be an integer"),
        ("attack = sybil,0,1.5", "line 2: attack round must be an integer"),
        ("maintenance = 0,1,1,1", "line 2: maintenance = vehicle,ecu,round"),
        ("maintenance = 0,one,1", "line 2: maintenance ecu must be an integer"),
    ],
)
def test_a_malformed_plan_line_is_named_by_its_line(line, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(f"n_vehicles = 3\n{line}")


@pytest.mark.parametrize(
    "line, message",
    [
        ("attack = sybil,3,1", "attack vehicle 3 out of range"),
        ("attack = sybil,0,6", "attack round 6 out of range"),
        ("maintenance = -1,0,1", "maintenance vehicle -1 out of range"),
        ("maintenance = 0,4,1", "maintenance ecu 4 out of range"),
        ("maintenance = 0,0,6", "maintenance round 6 out of range"),
    ],
)
def test_a_plan_entry_out_of_range_is_named_by_its_field(line, message):
    config = "n_vehicles = 3\nn_rsus = 2\nn_rounds = 3\necus_per_vehicle = 4\n"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(config + line)


def test_each_planned_event_carries_its_plan_entry():
    """A maintenance visit and an attack fire their lead before the arrival
    they precede, and each carries the entry it was planned by.
    """
    config = parse_config("n_vehicles = 2\nmaintenance = 1,0,1\nattack = sybil,0,2")
    world = build_world(config)
    events = [world.queue.pop() for _ in range(len(world.queue))]
    planned = {e.kind: e for e in events if e.kind is not EventKind.ARRIVAL}
    (visit,), (attack,) = config.maintenance, config.attacks
    assert planned[EventKind.MAINTENANCE_VISIT] == SimEvent(
        world._arrival_ts(1, 1) - sim.MAINTENANCE_LEAD_MS, EventKind.MAINTENANCE_VISIT, "v1", visit
    )
    assert planned[EventKind.ATTACK_TRIGGER] == SimEvent(
        world._arrival_ts(0, 2) - sim.ATTACK_LEAD_MS, EventKind.ATTACK_TRIGGER, "v0", attack
    )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"n_vehicles = 2\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_config(path)


# -- event queue ------------------------------------------------------------------


def test_queue_rejects_scheduling_in_past():
    queue = EventQueue()
    queue.schedule(SimEvent(5, EventKind.ARRIVAL, "v0"))
    queue.pop()
    assert queue.now == 5
    with pytest.raises(ValueError, match="past"):
        queue.schedule(SimEvent(3, EventKind.ARRIVAL, "v0"))


def test_queue_pop_order_is_sorted():
    queue = EventQueue()
    for ts in (9, 1, 5, 3, 7):
        queue.schedule(SimEvent(ts, EventKind.ARRIVAL, "v0"))
    assert [queue.pop().fire_ts for _ in range(5)] == [1, 3, 5, 7, 9]


def test_queue_breaks_ties_by_kind_then_subject():
    queue = EventQueue()
    queue.schedule(SimEvent(4, EventKind.ARRIVAL, "v1"))
    queue.schedule(SimEvent(4, EventKind.ARRIVAL, "v0"))
    queue.schedule(SimEvent(4, EventKind.ATTACK_TRIGGER, "v9"))
    popped = [(e.kind, e.subject) for e in (queue.pop(), queue.pop(), queue.pop())]
    assert popped == [
        (EventKind.ATTACK_TRIGGER, "v9"),
        (EventKind.ARRIVAL, "v0"),
        (EventKind.ARRIVAL, "v1"),
    ]


# -- build_world -------------------------------------------------------------------


def test_build_world_registers_all_vehicles():
    world = build_world(SimConfig(n_vehicles=10, seed=1))
    assert len(world.roadside.ledger) == 10
    assert world.roadside.ledger.validate()


def test_the_run_end_audit_checks_the_head_sealed_at_build_then_reseals():
    """A block moved to the end of the creation order between the
    build-time seal and the run fails the run-end audit, which checks the
    head sealed when the world was built; the run then seals what its
    ledger holds.
    """
    world = build_world(SMALL)
    built = world.authority_tier.roadside_head
    blocks = world.roadside.ledger.blocks
    pk = world.roadside.ledger.creation_order[0]
    blocks[pk] = blocks.pop(pk)
    assert world.roadside.ledger.validate()
    assert run(world).report.ledgers_valid is False
    assert world.authority_tier.roadside_head != built
    assert run(build_world(SMALL)).report.ledgers_valid


def test_build_world_registers_each_rsu():
    world = build_world(SMALL)
    assert world.authority_tier.registered_rsus == {rsu.public for rsu in world.rsus}


def test_setup_signs_only_the_geneses_and_an_update_signs_nothing(monkeypatch):
    """The tiers sign nothing when they admit an RSU, register a vehicle or
    apply an update: set-up signs once per maker-signed genesis, then each
    validator once to seal the roadside ledger's head.
    """
    signers = []
    original = KeyPair.sign

    def counting(self, message):
        signers.append(self.public)
        return original(self, message)

    monkeypatch.setattr(KeyPair, "sign", counting)
    world = build_world(SimConfig(n_vehicles=3, n_rsus=2, seed=5))
    validators = [keys.public for keys in world.authority_tier.validators]
    assert signers == [world.maker.public] * 3 + validators
    vehicle = world.vehicles[0]
    update = perform_maintenance(world.technician, vehicle, 1, b"fw-v2", ts=5)
    del signers[:]
    apply_upper_update(world.authority_tier, world.roadside, update)
    assert signers == []
    assert world.roadside.profiles[vehicle.pk].state == vehicle.ecu_state


def test_build_world_deterministic():
    a = build_world(SMALL).roadside.ledger.serialize()
    b = build_world(SMALL).roadside.ledger.serialize()
    assert a == b


def test_seed_changes_key_material():
    a = build_world(SMALL).roadside.ledger.serialize()
    b = build_world(dataclasses.replace(SMALL, seed=SMALL.seed + 1)).roadside.ledger.serialize()
    assert a != b


def test_build_world_rejects_invalid_config():
    with pytest.raises(ConfigError):
        build_world(SimConfig(n_vehicles=0))


# -- runs --------------------------------------------------------------------------


def test_honest_run_all_valid():
    result = run(build_world(SMALL))
    assert result.report.verdict_counts == {"Valid": 16}
    assert result.report.encounters == 4 * 2 * 2
    assert result.report.revoked == ()
    assert result.report.ledgers_valid


def test_run_deterministic_replay():
    cfg = SimConfig(
        n_vehicles=5,
        n_rsus=2,
        n_rounds=2,
        seed=123,
        attacks=(AttackPlanEntry(AttackKind.FAKE_DATA, 1, 2),),
        maintenance=(MaintenancePlanEntry(0, 1, 1),),
    )
    first_world = build_world(cfg)
    first = run(first_world)
    second_world = build_world(cfg)
    second = run(second_world)
    assert first.event_log == second.event_log
    assert (
        first_world.roadside.ledger.serialize()
        == second_world.roadside.ledger.serialize()
    )
    assert (
        first_world.authority_tier.ledger.serialize()
        == second_world.authority_tier.ledger.serialize()
    )


def test_attack_detected_at_trigger_round():
    cfg = SimConfig(
        n_vehicles=3,
        n_rsus=2,
        n_rounds=2,
        seed=5,
        attacks=(AttackPlanEntry(AttackKind.CODE_INJECTION, 2, 2),),
    )
    result = run(build_world(cfg))
    encounters_v2 = [
        line.split("\t")
        for line in result.event_log
        if line.split("\t")[1] == "encounter" and line.split("\t")[2] == "v2"
    ]
    verdicts = [row[3] for row in encounters_v2]
    assert verdicts[:2] == ["Valid", "Valid"]
    assert verdicts[2] == "StateMismatch"
    assert len(verdicts) == 3  # revoked afterwards: no further encounters
    assert result.report.revoked == ("v2",)
    assert result.report.refused == 1


def test_revoked_vehicle_completes_zero_further_rounds():
    cfg = SimConfig(
        n_vehicles=2,
        n_rsus=3,
        n_rounds=3,
        seed=6,
        attacks=(AttackPlanEntry(AttackKind.FAKE_DATA, 0, 1),),
    )
    result = run(build_world(cfg))
    v0_rows = [l.split("\t") for l in result.event_log if l.split("\t")[2] == "v0"]
    kinds = [row[1] for row in v0_rows]
    assert kinds.count("encounter") == 2  # one valid, one detected
    assert "revoke" in kinds
    revoke_at = kinds.index("revoke")
    assert all(k == "refused" for k in kinds[revoke_at + 1 :])


def test_conservation_records_match_valid_verdicts():
    cfg = SimConfig(n_vehicles=3, n_rsus=2, n_rounds=4, ecus_per_vehicle=4, seed=77)
    world = build_world(cfg)
    result = run(world)
    from ecuchain.ledger import reconstruct_history

    for i, vehicle in enumerate(world.vehicles):
        valid = sum(
            1
            for line in result.event_log
            if line.split("\t")[1:4] == ["encounter", f"v{i}", "Valid"]
        )
        block = world.roadside.ledger.lookup(vehicle.pk)
        history = reconstruct_history(block, world.roadside.archive)
        records = sum(
            1 for e in history if isinstance(decode_transaction(e.payload), ChallengeRecordTx)
        )
        assert records == valid


def test_honest_vehicle_state_matches_ledger_profile():
    world = build_world(SMALL)
    run(world)
    for vehicle in world.vehicles:
        profile = world.roadside.profiles[vehicle.pk]
        assert compute_state_root(vehicle.ecu_state) == compute_state_root(profile.state)
        assert profile.state == vehicle.ecu_state


def test_challenge_covers_registered_ecus_not_the_vehicles_own():
    """A vehicle that grows its local state past the registered one is still
    challenged only over registered ECU indices.
    """
    world = build_world(SMALL)
    vehicle = world.vehicles[0]
    registered = len(world.roadside.profiles[vehicle.pk].state)
    vehicle.ecu_state = EcuState(
        records=vehicle.ecu_state.records
        + (EcuRecord(firmware_digest=bytes(32), last_write_ts=0),) * (1000 - registered)
    )
    challenges = []
    respond = vehicle.respond

    def recording_respond(challenge, ts):
        challenges.append(challenge)
        return respond(challenge, ts)

    vehicle.respond = recording_respond
    run(world)
    assert challenges
    assert all(i < registered for c in challenges for i in c.subset_indices)


def test_revocations_match_reports():
    cfg = SimConfig(
        n_vehicles=4,
        n_rsus=2,
        n_rounds=2,
        seed=8,
        attacks=(
            AttackPlanEntry(AttackKind.FAKE_DATA, 0, 1),
            AttackPlanEntry(AttackKind.REPLAY, 3, 2),
        ),
    )
    world = build_world(cfg)
    result = run(world)
    reported = {
        subject
        for _, kind, subject, _ in (line.split("\t") for line in result.event_log)
        if kind == "report"
    }
    assert set(result.report.revoked) == reported == {"v0", "v3"}
    assert world.authority_tier.revoked == {world.actors[s].pk for s in reported}


def test_each_report_is_checked_once(monkeypatch):
    """One authority checks each report: ``receive_report`` runs once per
    ``report`` line, and the report still revokes.
    """
    received = []
    original = AuthorityNode.receive_report

    def counting(self, tier, wire):
        received.append(wire)
        return original(self, tier, wire)

    monkeypatch.setattr(AuthorityNode, "receive_report", counting)
    cfg = dataclasses.replace(SMALL, attacks=(AttackPlanEntry(AttackKind.REPLAY, 1, 2),))
    world = build_world(cfg)
    result = run(world)
    reports = [line for line in result.event_log if line.split("\t")[1] == "report"]
    assert len(reports) == 1
    assert len(received) == len(reports)
    assert result.report.revoked == ("v1",)


def test_maintenance_keeps_vehicle_valid():
    cfg = SimConfig(
        n_vehicles=2,
        n_rsus=2,
        n_rounds=3,
        seed=31,
        maintenance=(
            MaintenancePlanEntry(0, 3, 1),
            MaintenancePlanEntry(0, 1, 4),
        ),
    )
    result = run(build_world(cfg))
    assert result.report.verdict_counts == {"Valid": 12}


def test_maintenance_after_tamper_is_rejected_and_logged():
    # Seed 1 injects the code into an ECU other than 3, so the maintained
    # vehicle's new root still holds the tampered ECU.
    cfg = SimConfig(
        n_vehicles=2,
        n_rsus=2,
        n_rounds=4,
        seed=1,
        attacks=(AttackPlanEntry(AttackKind.CODE_INJECTION, 0, 1),),
        maintenance=(MaintenancePlanEntry(0, 3, 5),),
    )
    world = build_world(cfg)
    vehicle = world.vehicles[0]
    registered = world.roadside.profiles[vehicle.pk].state
    result = run(world)
    assert "50500\tmaintenance-rejected\tv0\t-" in result.event_log
    assert not any(line.split("\t")[1] == "maintenance" for line in result.event_log)
    assert world.roadside.profiles[vehicle.pk].state == registered
    assert vehicle.ecu_state.records[3] != registered.records[3]
    block = world.roadside.ledger.lookup(vehicle.pk)
    # genesis and the one Valid encounter before the tamper
    assert len(reconstruct_history(block, world.roadside.archive)) == 2
    assert result.report.ledgers_valid


def test_demo_event_log_is_pinned():
    result = run(build_world(load_config(DEMO_CONFIG)))
    text = event_log_text(result.event_log)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEMO_LOG_SHA256


def archive_digest(world) -> str:
    """SHA-256 over each roadside block's archive, in block creation order:
    the address behind a u32 length, then each record as its u64 sequence
    number, a u32 length and its bytes.
    """
    h = hashlib.sha256()
    for pk in world.roadside.ledger.creation_order:
        address = world.roadside.ledger.blocks[pk].header.external_address
        encoded = address.encode("utf-8")
        h.update(struct.pack(">I", len(encoded)) + encoded)
        for seq, data in world.roadside.archive.read(address):
            h.update(struct.pack(">QI", seq, len(data)) + data)
    return h.hexdigest()


def test_demo_ledgers_and_archive_are_pinned():
    world = build_world(load_config(DEMO_CONFIG))
    run(world)
    assert hashlib.sha256(world.roadside.ledger.serialize()).hexdigest() == (
        DEMO_ROADSIDE_LEDGER_SHA256
    )
    assert hashlib.sha256(world.authority_tier.ledger.serialize()).hexdigest() == (
        DEMO_AUTHORITY_LEDGER_SHA256
    )
    assert archive_digest(world) == DEMO_ARCHIVE_SHA256


def test_recorded_response_is_dated_at_its_challenge(monkeypatch):
    recorded = []

    def spy(authority, roadside, rsu, challenge, wire):
        recorded.append((challenge.issued_ts, decode(ChallengeResponse, wire).ts))
        return record_response(authority, roadside, rsu, challenge, wire)

    monkeypatch.setattr(sim, "record_response", spy)
    world = build_world(SimConfig(n_vehicles=2, n_rsus=2, n_rounds=2, seed=2))
    run(world)
    assert len(recorded) == 8
    assert all(issued == ts for issued, ts in recorded)
    profile = world.roadside.profiles[world.vehicles[1].pk]
    assert profile.last_response_ts == max(issued for issued, _ in recorded)


def test_event_log_text_format():
    result = run(build_world(SimConfig(n_vehicles=1, n_rsus=1, n_rounds=1, seed=1)))
    text = event_log_text(result.event_log)
    assert text.endswith("\n")
    rows = [line.split("\t") for line in text.strip().split("\n")]
    assert all(len(row) == 4 for row in rows)
    assert rows[0][1] == "init"
    assert rows[-1][1] == "encounter"
