"""Deterministic discrete-event traffic simulator.

Vehicles travel a 1-D line of roadside units; every coverage entry runs a
challenge-response round. Every message is delivered at once: a
response is dated at its challenge's time, and a non-Valid verdict's
report reaches the transport authority within the encounter that raised
it. The authority checks the report once and revokes into the authority
tier, whose ``revoked`` set refuses the vehicle at its next arrival. No
insurer request is made, so the authority ledger stays empty. The
authority validators seal the roadside ledger's head twice, outside the
event loop: when the world is built, and when the queue has drained,
after the run-end audit has checked the blocks against the first head,
so that a run may only append to what was sealed. Simulated time, ``EventQueue.now`` (the fire
time of the last event popped), drives all protocol timestamps, so
identical configurations (including the seed) replay to byte-identical
event logs and ledgers.

Scenario config files are flat ``key = value`` text, each key given once
except the repeated ``attack = kind,vehicle,round`` and
``maintenance = vehicle,ecu,round`` plan lines. The event log is one line
per event: tab-separated ``ts kind subject verdict``.
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
from .crypto import KeyPair, PublicKey, derive_seed, generate_keypair, sha256
from .ecu import state_from_digests
from .entities import AuthorityNode, VehicleNode, perform_maintenance
from .ledger import MemoryArchive
from .protocol import (
    AuthorityTier,
    ProtocolError,
    RoadsideTier,
    apply_upper_update,
    audit,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    report_malicious,
    seal_roadside,
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


_INT_KEYS = {"n_vehicles", "n_rsus", "ecus_per_vehicle", "n_rounds", "seed"}


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
            if key in values:
                raise ConfigError(f"line {lineno}: {key} given twice")
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


@dataclass(frozen=True, slots=True)
class SimEvent:
    fire_ts: int
    kind: EventKind
    subject: str
    data: tuple = ()


class EventQueue:
    """Min-heap ordered by (fire_ts, kind, subject, insertion seq). ``now``
    is the simulated time: the fire time of the last popped event.
    """

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, str, int, SimEvent]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: SimEvent) -> None:
        if event.fire_ts < self.now:
            raise ValueError(f"scheduling in the past: {event.fire_ts} < {self.now}")
        heapq.heappush(
            self._heap,
            (event.fire_ts, int(event.kind), event.subject, self._seq, event),
        )
        self._seq += 1

    def pop(self) -> SimEvent:
        if not self._heap:
            raise IndexError("empty event queue")
        _, _, _, _, event = heapq.heappop(self._heap)
        self.now = event.fire_ts
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


@dataclass
class RunResult:
    report: RunReport
    event_log: list[str]


class World:
    """All simulation state; built by build_world and driven by run."""

    def __init__(self, config: SimConfig, archive=None):
        config.validate()
        self.config = config
        self.queue = EventQueue()
        self.event_log: list[str] = []
        # Encounter verdicts and refusals, counted as they are logged.
        self.verdict_counts: Counter[str] = Counter()
        self.refused = 0
        self.seed64 = config.seed.to_bytes(8, "big")
        self.challenge_rng = random.Random(
            int.from_bytes(derive_seed(b"rng-challenge", self.seed64), "big")
        )
        self.attack_rng = random.Random(
            int.from_bytes(derive_seed(b"rng-attack", self.seed64), "big")
        )
        # Revocation is tier state, so the transport authority alone checks
        # reports; the legal authority is only the tier's second validator.
        self.transport = AuthorityNode(keys=self._keypair(b"transport", 0))
        self.maker = self._keypair(b"maker", 0)
        self.technician = self._keypair(b"technician", 0)
        self.insurer = self._keypair(b"insurer", 0)
        self.authority_tier: AuthorityTier = new_authority_tier(
            validators=(self.transport.keys, self._keypair(b"legal", 0)),
            authorized_makers=(self.maker.public, self.technician.public),
            authorized_insurers=(self.insurer.public,),
        )
        self.roadside = RoadsideTier(archive=archive or MemoryArchive())
        # An RSU's index in this list is its place on the 1-D road.
        self.rsus = [self._keypair(b"rsu", i) for i in range(config.n_rsus)]
        for rsu in self.rsus:
            register_rsu(self.authority_tier, rsu.public)
        self.vehicles: list[VehicleNode] = []
        self.phantom_count = 0
        self.actors: dict[str, VehicleNode] = {}
        self.subject_by_pk: dict[PublicKey, str] = {}

    # -- construction helpers ------------------------------------------------

    def _keypair(self, label: bytes, index: int) -> KeyPair:
        """The node keys for ``label`` and ``index`` under the config's seed."""
        index64 = index.to_bytes(8, "big")
        return generate_keypair(derive_seed(b"node-key", self.seed64, label, index64))

    def _firmware(self, label: bytes, vehicle: int, ecu: int) -> bytes:
        return derive_seed(
            label, self.seed64, vehicle.to_bytes(8, "big"), ecu.to_bytes(8, "big")
        )

    def _new_vehicle(self, label: bytes, index: int) -> VehicleNode:
        return VehicleNode(
            keys=self._keypair(label, index),
            ecu_state=state_from_digests(
                sha256(self._firmware(label + b"-fw", index, e))
                for e in range(self.config.ecus_per_vehicle)
            ),
        )

    def spawn_phantom(self, kind: AttackKind, target: int, ts: int) -> str:
        """Fabricated identity (no ledger block) placed on the road; its
        first arrival is scheduled just after the trigger.
        """
        index = self.phantom_count
        self.phantom_count += 1
        phantom = self._new_vehicle(b"phantom-" + kind.value.encode(), index)
        subject = f"x{index}"
        self.actors[subject] = phantom
        self.subject_by_pk[phantom.pk] = subject
        self.queue.schedule(
            SimEvent(ts + PHANTOM_LAG_MS, EventKind.ARRIVAL, subject, (0,))
        )
        return subject

    def log(self, ts: int, kind: str, subject: str, verdict: str = "-") -> None:
        self.event_log.append(f"{ts}\t{kind}\t{subject}\t{verdict}")

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
        now = self.queue.now
        if vehicle.pk in self.authority_tier.revoked:
            self.refused += 1
            self.log(now, "refused", event.subject)
            return
        rsu = self.rsus[encounter % self.config.n_rsus]
        # Challenge the ECUs the roadside registered, not the vehicle's own
        # count; a phantom has no profile.
        profile = self.roadside.profiles.get(vehicle.pk)
        ecu_count = len(profile.state) if profile else self.config.ecus_per_vehicle
        challenge = issue_challenge(
            rsu.public, vehicle.pk, ecu_count, self.challenge_rng, ts=now
        )
        response = vehicle.respond(challenge, ts=now)
        verdict = record_response(self.authority_tier, self.roadside, rsu, challenge, response)
        self.verdict_counts[verdict.value] += 1
        self.log(now, "encounter", event.subject, verdict.value)
        if verdict is not Verdict.VALID:
            report = report_malicious(rsu, vehicle.pk, verdict, now)
            self.transport.receive_report(self.authority_tier, report)
            self.log(now, "report", event.subject, verdict.value)
            self.log(now, "revoke", event.subject)
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
            self.technician, vehicle, ecu_id, firmware, ts=self.queue.now
        )
        try:
            apply_upper_update(self.authority_tier, self.roadside, update)
        except ProtocolError:
            # A vehicle tampered with earlier: its new root keeps the
            # tampered ECU, so it is not the root of the vouched-for state.
            self.log(self.queue.now, "maintenance-rejected", event.subject)
            return
        self.log(self.queue.now, "maintenance", event.subject)

    def _handle_attack(self, event: SimEvent) -> None:
        kind, target = event.data
        subject = adversary.inject(self, kind, target, self.queue.now)
        self.log(self.queue.now, f"attack:{kind.value}", subject)


def build_world(config: SimConfig, archive=None) -> World:
    """All nodes and both tier ledgers, with every vehicle initialized and
    the roadside ledger's head sealed.
    """
    world = World(config, archive=archive)
    for i in range(config.n_vehicles):
        vehicle = world._new_vehicle(b"vehicle", i)
        subject = f"v{i}"
        world.vehicles.append(vehicle)
        world.actors[subject] = vehicle
        world.subject_by_pk[vehicle.pk] = subject
        genesis = make_genesis(world.maker, vehicle.pk, vehicle.ecu_state, ts=0)
        initialize_vehicle(world.authority_tier, world.roadside, genesis)
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
    seal_roadside(world.authority_tier, world.roadside, world.queue.now)
    return world


_HANDLERS = {
    EventKind.ARRIVAL: World._handle_arrival,
    EventKind.MAINTENANCE_VISIT: World._handle_maintenance,
    EventKind.ATTACK_TRIGGER: World._handle_attack,
}


def run(world: World) -> RunResult:
    """Drain the event queue, audit both ledgers, the roadside one against
    the head sealed when the world was built, then seal its head again;
    every verdict, report and revocation is logged.
    """
    while len(world.queue):
        event = world.queue.pop()
        _HANDLERS[event.kind](world, event)
    tier = world.authority_tier
    ledgers_valid = audit(tier, world.roadside)
    seal_roadside(tier, world.roadside, world.queue.now)
    revoked = tuple(
        sorted(
            world.subject_by_pk.get(pk, pk.hex()[:12])
            for pk in tier.revoked
        )
    )
    report = RunReport(
        encounters=sum(world.verdict_counts.values()),
        verdict_counts=dict(world.verdict_counts),
        revoked=revoked,
        refused=world.refused,
        ledgers_valid=ledgers_valid,
    )
    return RunResult(report=report, event_log=list(world.event_log))


def event_log_text(log: list[str]) -> str:
    return "\n".join(log) + ("\n" if log else "")
