"""Deterministic discrete-event traffic simulator.

Vehicles travel a 1-D line of roadside units; every coverage entry runs a
challenge-response round, authorities receive reports, revoked vehicles
are refused. Simulated time drives all protocol timestamps, so identical
configurations (including the seed) replay to byte-identical event logs
and ledgers.

Scenario config files are flat ``key = value`` text; attack and
maintenance plans are repeated ``attack = kind,vehicle,round`` and
``maintenance = vehicle,ecu,round`` lines. The event log is one line per
event: tab-separated ``ts kind subject verdict``.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from . import adversary
from .adversary import AttackKind
from .crypto import PublicKey, derive_seed, generate_keypair, sha256
from .ecu import EcuRecord, EcuState
from .entities import AuthorityNode, VehicleNode, perform_maintenance
from .ledger import MemoryArchive
from .protocol import (
    MAX_RESPONSE_DELAY_MS,
    AuthorityTier,
    ProtocolError,
    RoadsideTier,
    apply_upper_update,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    report_malicious,
)
from .transactions import MAX_ECUS, Verdict
from .wire import U64_MAX

EPOCH_MS = 1_000
ROUND_SPACING_MS = 10_000
VEHICLE_STAGGER_MS = 10
MAINTENANCE_LEAD_MS = 500
ATTACK_LEAD_MS = 5
PHANTOM_LAG_MS = 3


class ConfigError(ValueError):
    """Scenario configuration is malformed or violates an invariant."""


@dataclass(frozen=True)
class AttackPlanEntry:
    kind: AttackKind
    vehicle: int
    round: int


@dataclass(frozen=True)
class MaintenancePlanEntry:
    vehicle: int
    ecu: int
    round: int


@dataclass(frozen=True)
class SimConfig:
    n_vehicles: int = 10
    n_rsus: int = 5
    ecus_per_vehicle: int = 8
    n_rounds: int = 3
    seed: int = 0
    link_latency_ms: int = 0
    attacks: tuple[AttackPlanEntry, ...] = ()
    maintenance: tuple[MaintenancePlanEntry, ...] = ()

    @property
    def encounters_per_vehicle(self) -> int:
        return self.n_rsus * self.n_rounds

    def validate(self) -> None:
        for name in ("n_vehicles", "n_rsus", "ecus_per_vehicle", "n_rounds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.ecus_per_vehicle > MAX_ECUS:
            raise ConfigError(f"ecus_per_vehicle must be <= {MAX_ECUS}")
        if not 0 <= self.seed <= U64_MAX:
            raise ConfigError(f"seed must be in [0, {U64_MAX}]")
        if self.link_latency_ms < 0:
            raise ConfigError("link_latency_ms must be nonnegative")
        if self.link_latency_ms > MAX_RESPONSE_DELAY_MS:
            # Every response would fall outside its challenge's window.
            raise ConfigError(f"link_latency_ms must be <= {MAX_RESPONSE_DELAY_MS}")
        total = self.encounters_per_vehicle
        for atk in self.attacks:
            if not 0 <= atk.vehicle < self.n_vehicles:
                raise ConfigError(f"attack target {atk.vehicle} out of range")
            if not 0 <= atk.round < total:
                raise ConfigError(f"attack round {atk.round} out of range")
            if atk.kind is AttackKind.REPLAY and atk.round < 1:
                raise ConfigError("replay needs a prior encounter (round >= 1)")
        for m in self.maintenance:
            if not 0 <= m.vehicle < self.n_vehicles:
                raise ConfigError(f"maintenance vehicle {m.vehicle} out of range")
            if not 0 <= m.ecu < self.ecus_per_vehicle:
                raise ConfigError(f"maintenance ecu {m.ecu} out of range")
            if not 0 <= m.round < total:
                raise ConfigError(f"maintenance round {m.round} out of range")


_INT_KEYS = {
    "n_vehicles",
    "n_rsus",
    "ecus_per_vehicle",
    "n_rounds",
    "seed",
    "link_latency_ms",
}


def parse_config(text: str) -> SimConfig:
    values: dict[str, int] = {}
    attacks: list[AttackPlanEntry] = []
    maintenance: list[MaintenancePlanEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        elif key == "attack":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: attack = kind,vehicle,round")
            try:
                kind = AttackKind(parts[0])
            except ValueError:
                raise ConfigError(f"line {lineno}: unknown attack kind {parts[0]!r}") from None
            try:
                attacks.append(AttackPlanEntry(kind, int(parts[1]), int(parts[2])))
            except ValueError:
                raise ConfigError(f"line {lineno}: vehicle and round must be integers") from None
        elif key == "maintenance":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: maintenance = vehicle,ecu,round")
            try:
                maintenance.append(
                    MaintenancePlanEntry(int(parts[0]), int(parts[1]), int(parts[2]))
                )
            except ValueError:
                raise ConfigError(f"line {lineno}: maintenance fields must be integers") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    config = SimConfig(attacks=tuple(attacks), maintenance=tuple(maintenance), **values)
    config.validate()
    return config


def load_config(path: str | Path) -> SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------


class EventKind(IntEnum):
    # Numeric order is the tie-break order at equal timestamps.
    ATTACK_TRIGGER = 0
    MAINTENANCE_VISIT = 1
    ARRIVAL = 2
    REPORT = 3


@dataclass(frozen=True, slots=True)
class SimEvent:
    fire_ts: int
    kind: EventKind
    subject: str
    data: tuple = ()


@dataclass
class SimClock:
    now: int = 0

    def advance(self, ts: int) -> None:
        if ts < self.now:
            raise ValueError(f"clock cannot move backwards ({ts} < {self.now})")
        self.now = ts


class EventQueue:
    """Min-heap ordered by (fire_ts, kind, subject, insertion seq)."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._heap: list[tuple[int, int, str, int, SimEvent]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: SimEvent) -> None:
        if event.fire_ts < self._clock.now:
            raise ValueError(
                f"scheduling in the past: {event.fire_ts} < {self._clock.now}"
            )
        heapq.heappush(
            self._heap,
            (event.fire_ts, int(event.kind), event.subject, self._seq, event),
        )
        self._seq += 1

    def pop(self) -> SimEvent:
        if not self._heap:
            raise IndexError("empty event queue")
        _, _, _, _, event = heapq.heappop(self._heap)
        self._clock.advance(event.fire_ts)
        return event


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    encounters: int
    verdict_counts: dict[str, int]
    revoked: tuple[str, ...]
    refused: int
    ledgers_valid: bool
    roadside_bytes: int


@dataclass
class RunResult:
    report: RunReport
    event_log: list[str]


class World:
    """All simulation state; built by build_world and driven by run."""

    def __init__(self, config: SimConfig, archive=None):
        config.validate()
        self.config = config
        self.clock = SimClock()
        self.queue = EventQueue(self.clock)
        self.event_log: list[str] = []
        seed64 = config.seed.to_bytes(8, "big")
        self.challenge_rng = random.Random(
            int.from_bytes(derive_seed(b"rng-challenge", seed64), "big")
        )
        self.attack_rng = random.Random(
            int.from_bytes(derive_seed(b"rng-attack", seed64), "big")
        )

        def keypair(label: bytes, i: int):
            return generate_keypair(
                derive_seed(b"node-key", seed64, label, i.to_bytes(8, "big"))
            )

        self.transport = AuthorityNode(keys=keypair(b"transport", 0))
        self.legal = AuthorityNode(keys=keypair(b"legal", 0))
        self.authorities = [self.transport, self.legal]
        self.maker = keypair(b"maker", 0)
        self.technician = keypair(b"technician", 0)
        self.insurer = keypair(b"insurer", 0)
        self.authority_tier: AuthorityTier = new_authority_tier(
            validators=(self.transport.keys, self.legal.keys),
            authorized_makers=(self.maker.public, self.technician.public),
            authorized_insurers=(self.insurer.public,),
            ts=0,
        )
        self.roadside = RoadsideTier(archive=archive or MemoryArchive())
        # An RSU's index in this list is its place on the 1-D road.
        self.rsus = [keypair(b"rsu", i) for i in range(config.n_rsus)]
        for rsu in self.rsus:
            register_rsu(self.authority_tier, rsu.public, ts=0)
        self.vehicles: list[VehicleNode] = []
        self.phantoms: list[VehicleNode] = []
        self.actors: dict[str, VehicleNode] = {}
        self.subject_by_pk: dict[PublicKey, str] = {}

    # -- construction helpers ------------------------------------------------

    def _firmware(self, label: bytes, vehicle: int, ecu: int) -> bytes:
        return derive_seed(
            label,
            self.config.seed.to_bytes(8, "big"),
            vehicle.to_bytes(8, "big"),
            ecu.to_bytes(8, "big"),
        )

    def _new_vehicle(self, label: bytes, index: int, honest: bool) -> VehicleNode:
        keys = generate_keypair(
            derive_seed(
                b"node-key",
                self.config.seed.to_bytes(8, "big"),
                label,
                index.to_bytes(8, "big"),
            )
        )
        images = [
            self._firmware(label + b"-fw", index, e)
            for e in range(self.config.ecus_per_vehicle)
        ]
        state = EcuState(
            records=tuple(
                EcuRecord(ecu_id=e, firmware_digest=sha256(img), last_write_ts=0)
                for e, img in enumerate(images)
            )
        )
        return VehicleNode(
            keys=keys,
            ecu_state=state,
            firmware_images=images,
            honest=honest,
        )

    def spawn_phantom(self, kind: AttackKind, target: int, ts: int) -> str:
        """Fabricated identity (no ledger block) placed on the road; its
        first arrival is scheduled just after the trigger.
        """
        index = len(self.phantoms)
        phantom = self._new_vehicle(b"phantom-" + kind.value.encode(), index, honest=False)
        self.phantoms.append(phantom)
        subject = f"x{index}"
        self.actors[subject] = phantom
        self.subject_by_pk[phantom.pk] = subject
        self.queue.schedule(
            SimEvent(ts + PHANTOM_LAG_MS, EventKind.ARRIVAL, subject, (0,))
        )
        return subject

    def log(self, ts: int, kind: str, subject: str, verdict: str = "-") -> None:
        self.event_log.append(f"{ts}\t{kind}\t{subject}\t{verdict}")

    def revoked(self, pk: PublicKey) -> bool:
        return any(pk in a.revocation_list for a in self.authorities)

    # -- event handlers -------------------------------------------------------

    def _arrival_ts(self, vehicle_index: int, encounter: int) -> int:
        return (
            EPOCH_MS
            + encounter * ROUND_SPACING_MS
            + vehicle_index * VEHICLE_STAGGER_MS
        )

    def _handle_arrival(self, event: SimEvent) -> None:
        (encounter,) = event.data
        vehicle = self.actors[event.subject]
        now = self.clock.now
        if self.revoked(vehicle.pk):
            self.log(now, "refused", event.subject)
            return
        rsu = self.rsus[encounter % self.config.n_rsus]
        latency = self.config.link_latency_ms
        # Challenge the ECUs the roadside registered, not the vehicle's own
        # count; a phantom has no profile.
        profile = self.roadside.profiles.get(vehicle.pk)
        ecu_count = len(profile.state) if profile else self.config.ecus_per_vehicle
        challenge = issue_challenge(
            rsu.public, vehicle.pk, ecu_count, self.challenge_rng, ts=now
        )
        response = vehicle.respond(challenge, ts=now + latency)
        verdict = record_response(rsu, self.roadside, challenge, response)
        self.log(now, "encounter", event.subject, verdict.value)
        if verdict is not Verdict.VALID:
            report = report_malicious(rsu, vehicle.pk, verdict, now + 2 * latency)
            self.queue.schedule(
                SimEvent(now + 2 * latency, EventKind.REPORT, event.subject, (report,))
            )
        if encounter + 1 < self.config.encounters_per_vehicle:
            self.queue.schedule(
                SimEvent(
                    event.fire_ts + ROUND_SPACING_MS,
                    EventKind.ARRIVAL,
                    event.subject,
                    (encounter + 1,),
                )
            )

    def _handle_maintenance(self, event: SimEvent) -> None:
        ecu_id, round_idx = event.data
        vehicle = self.actors[event.subject]
        firmware = self._firmware(
            b"maintenance-fw-r%d" % round_idx, int(event.subject[1:]), ecu_id
        )
        update = perform_maintenance(
            self.technician, vehicle, ecu_id, firmware, ts=self.clock.now
        )
        try:
            apply_upper_update(self.authority_tier, self.roadside, update)
        except ProtocolError:
            # A vehicle tampered with earlier: its new root keeps the
            # tampered ECU, so it is not the root of the vouched-for state.
            self.log(self.clock.now, "maintenance-rejected", event.subject)
            return
        self.log(self.clock.now, "maintenance", event.subject)

    def _handle_attack(self, event: SimEvent) -> None:
        kind, target = event.data
        subject = adversary.inject(self, kind, target, self.clock.now)
        self.log(self.clock.now, f"attack:{kind.value}", subject)

    def _handle_report(self, event: SimEvent) -> None:
        (report,) = event.data
        for authority in self.authorities:
            authority.receive_report(self.authority_tier, report)
        self.log(self.clock.now, "report", event.subject, report.verdict.value)
        self.log(self.clock.now, "revoke", event.subject)


def build_world(config: SimConfig, archive=None) -> World:
    """All nodes and both tier ledgers, with every vehicle initialized."""
    world = World(config, archive=archive)
    for i in range(config.n_vehicles):
        vehicle = world._new_vehicle(b"vehicle", i, honest=True)
        subject = f"v{i}"
        world.vehicles.append(vehicle)
        world.actors[subject] = vehicle
        world.subject_by_pk[vehicle.pk] = subject
        genesis = make_genesis(world.maker, vehicle.pk, vehicle.ecu_state, ts=0)
        initialize_vehicle(world.authority_tier, world.roadside, genesis, ts=0)
        world.log(0, "init", subject)
    for i in range(config.n_vehicles):
        world.queue.schedule(
            SimEvent(world._arrival_ts(i, 0), EventKind.ARRIVAL, f"v{i}", (0,))
        )
    for m in config.maintenance:
        world.queue.schedule(
            SimEvent(
                world._arrival_ts(m.vehicle, m.round) - MAINTENANCE_LEAD_MS,
                EventKind.MAINTENANCE_VISIT,
                f"v{m.vehicle}",
                (m.ecu, m.round),
            )
        )
    for atk in config.attacks:
        world.queue.schedule(
            SimEvent(
                world._arrival_ts(atk.vehicle, atk.round) - ATTACK_LEAD_MS,
                EventKind.ATTACK_TRIGGER,
                f"v{atk.vehicle}",
                (atk.kind, atk.vehicle),
            )
        )
    return world


_HANDLERS = {
    EventKind.ARRIVAL: World._handle_arrival,
    EventKind.MAINTENANCE_VISIT: World._handle_maintenance,
    EventKind.ATTACK_TRIGGER: World._handle_attack,
    EventKind.REPORT: World._handle_report,
}


def run(world: World) -> RunResult:
    """Drain the event queue; every verdict, report and revocation is logged."""
    while len(world.queue):
        event = world.queue.pop()
        _HANDLERS[event.kind](world, event)
    counts = Counter()
    encounters = 0
    refused = 0
    for line in world.event_log:
        _, kind, _, verdict = line.split("\t")
        if kind == "encounter":
            encounters += 1
            counts[verdict] += 1
        elif kind == "refused":
            refused += 1
    revoked = tuple(
        sorted(
            world.subject_by_pk.get(pk, pk.hex()[:12])
            for pk in world.transport.revocation_list
        )
    )
    report = RunReport(
        encounters=encounters,
        verdict_counts=dict(counts),
        revoked=revoked,
        refused=refused,
        ledgers_valid=world.roadside.ledger.validate()
        and world.authority_tier.ledger.validate(),
        roadside_bytes=world.roadside.ledger.serialized_size(),
    )
    return RunResult(report=report, event_log=list(world.event_log))


def event_log_text(log: list[str]) -> str:
    return "\n".join(log) + ("\n" if log else "")
