"""Threat-model attack injectors and their detection oracles.

Each attack kind maps to exactly one injector (how the world is mutated)
and one ``_DETECTION`` row (the verdict a later round must report, and by
which encounter). Injectors run inside the single-threaded event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .crypto import derive_seed, sha256
from .entities import tamper
from .protocol import ProtocolError
from .transactions import Verdict

if TYPE_CHECKING:
    from .sim import World


class AttackKind(Enum):
    FAKE_DATA = "fake-data"
    CODE_INJECTION = "code-injection"
    SYBIL = "sybil"
    MASQUERADE = "masquerade"
    ECU_REVERSAL = "ecu-reversal"
    REPLAY = "replay"


# ECUs flipped by the reversal injector; with size-3 challenge subsets over
# 30 ECUs this yields a per-encounter detection probability of
# 1 - C(27,3)/C(30,3) (about 0.28).
REVERSAL_ECU_COUNT = 3


# Per attack kind (None: no attack): the verdicts that count as detecting
# it, and the number of encounters after the trigger by which one must
# come. Reversal keeps the state root intact, so detection waits for the
# random subset to sample a flipped ECU; its bound covers a miss chain of
# probability < 1e-4 at the 0.28 per-encounter rate.
_DETECTION = {
    None: ((), 0),
    AttackKind.FAKE_DATA: ((Verdict.STATE_MISMATCH,), 1),
    AttackKind.CODE_INJECTION: ((Verdict.STATE_MISMATCH,), 1),
    AttackKind.SYBIL: ((Verdict.UNKNOWN_VEHICLE,), 1),
    AttackKind.MASQUERADE: ((Verdict.UNKNOWN_VEHICLE,), 1),
    AttackKind.ECU_REVERSAL: ((Verdict.SUBSET_MISMATCH,), 32),
    AttackKind.REPLAY: ((Verdict.STALE_TIMESTAMP,), 1),
}


def _malware(kind: AttackKind, target: int, ts: int, salt: int = 0) -> bytes:
    return derive_seed(
        b"malware",
        kind.value.encode(),
        target.to_bytes(8, "big"),
        ts.to_bytes(8, "big"),
        salt.to_bytes(8, "big"),
    )


def inject(world: "World", kind: AttackKind, target: int, ts: int) -> str:
    """Mutate the world per the attack kind; returns the acting identity's
    subject id for the event log.
    """
    if kind in (AttackKind.SYBIL, AttackKind.MASQUERADE):
        return world.spawn_phantom(kind, target, ts)
    if target >= len(world.vehicles):
        raise ProtocolError(f"attack target v{target} does not exist")
    vehicle = world.vehicles[target]
    subject = f"v{target}"
    if kind in (AttackKind.FAKE_DATA, AttackKind.CODE_INJECTION):
        ecu = world.attack_rng.randrange(len(vehicle.ecu_state))
        tamper(vehicle, ecu, sha256(_malware(kind, target, ts)), ts)
        return subject
    if kind is AttackKind.ECU_REVERSAL:
        n = len(vehicle.ecu_state)
        chosen = world.attack_rng.sample(range(n), min(REVERSAL_ECU_COUNT, n))
        for ecu in chosen:
            original = vehicle.ecu_state.records[ecu].firmware_digest
            tamper(vehicle, ecu, sha256(_malware(kind, target, ts, salt=ecu)), ts)
            tamper(vehicle, ecu, original, ts + 1)
        return subject
    if kind is AttackKind.REPLAY:
        if vehicle.last_response is None:
            raise ProtocolError("replay requires a previously sent response")
        vehicle.replay_armed = True
        return subject
    raise ProtocolError(f"unknown attack kind {kind!r}")


@dataclass(frozen=True)
class DetectionOracle:
    """Expected detection behaviour for one attack kind; ``kind=None`` is the
    attack-free oracle (passes iff the log holds no non-valid verdict).
    """

    kind: Optional[AttackKind]
    expected: frozenset[Verdict]
    bound: int  # encounters after the trigger by which detection must occur

    def __post_init__(self):
        if self.kind is not None:
            if not self.expected or Verdict.VALID in self.expected:
                raise ValueError("expected verdict set must be non-empty, non-Valid")


def default_oracle(kind: Optional[AttackKind]) -> DetectionOracle:
    if kind not in _DETECTION:
        raise ProtocolError(f"unknown attack kind {kind!r}")
    expected, bound = _DETECTION[kind]
    return DetectionOracle(kind=kind, expected=frozenset(expected), bound=bound)


@dataclass(frozen=True)
class DetectionResult:
    passed: bool
    encounter_index: Optional[int]  # 1-based, counted from the trigger
    verdict: Optional[Verdict]
    reason: str


def _parse(line: str) -> tuple[int, str, str, str]:
    ts, kind, subject, verdict = line.split("\t")
    return int(ts), kind, subject, verdict


def assert_detected(
    event_log: list[str], oracle: DetectionOracle, subject: Optional[str] = None
) -> DetectionResult:
    """Check an event log against a detection oracle.

    For an attack oracle: passes iff the acting identity's first non-valid
    encounter verdict after the trigger is in the expected set and occurs
    within the bound, with no non-valid verdict before the trigger.
    """
    rows = [_parse(line) for line in event_log]
    if oracle.kind is None:
        for _, kind, _, verdict in rows:
            if kind == "encounter" and verdict != Verdict.VALID.value:
                return DetectionResult(False, None, Verdict(verdict), "unexpected detection")
        return DetectionResult(True, None, None, "no detections in attack-free log")
    tag = f"attack:{oracle.kind.value}"
    trigger = None
    for i, (_, kind, subj, _) in enumerate(rows):
        if kind == tag and (subject is None or subj == subject):
            trigger = i
            subject = subj
            break
    if trigger is None:
        return DetectionResult(False, None, None, "attack trigger not in log")
    for _, kind, subj, verdict in rows[:trigger]:
        if kind == "encounter" and subj == subject and verdict != Verdict.VALID.value:
            return DetectionResult(False, None, Verdict(verdict), "non-valid before trigger")
    encounters = 0
    for _, kind, subj, verdict in rows[trigger + 1 :]:
        if kind != "encounter" or subj != subject:
            continue
        encounters += 1
        if verdict != Verdict.VALID.value:
            v = Verdict(verdict)
            if v in oracle.expected and encounters <= oracle.bound:
                return DetectionResult(True, encounters, v, "detected")
            return DetectionResult(False, encounters, v, "wrong verdict or past bound")
        if encounters >= oracle.bound:
            break
    return DetectionResult(False, None, None, "not detected within bound")
