"""Network actors: vehicles, roadside units, authorities, maintainers and
insurers. Each node binds a key pair to its role state; behaviour lives in
the protocol module and the simulator wires the nodes together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import crypto
from .crypto import KeyPair, PublicKey
from .ecu import EcuState, compute_state_root, update_ecu
from .protocol import (
    ProtocolError,
    ReportEvent,
    build_response,
    maintenance_metadata,
)
from .transactions import Challenge, ChallengeResponse, UpdateTx, Verdict, signed


@dataclass
class VehicleNode:
    """A vehicle: keys, live ECU state and the firmware images currently
    flashed. ``honest`` drops as soon as any state change bypasses the
    maintenance procedure.
    """

    keys: KeyPair
    ecu_state: EcuState
    firmware_images: list[bytes]
    honest: bool = True
    replay_armed: bool = False
    last_response: Optional[ChallengeResponse] = None

    @property
    def pk(self) -> PublicKey:
        return self.keys.public

    def respond(self, challenge: Challenge, ts: int) -> ChallengeResponse:
        """Answer a challenge; a replay-armed vehicle re-sends its previous
        response instead of computing a fresh one.
        """
        if self.replay_armed and self.last_response is not None:
            self.replay_armed = False
            return self.last_response
        response = build_response(self.keys, self.ecu_state, challenge, ts)
        self.last_response = response
        return response


@dataclass
class RsuNode:
    """Roadside unit; its index in ``World.rsus`` is its place on the 1-D road."""

    keys: KeyPair

    @property
    def pk(self) -> PublicKey:
        return self.keys.public


@dataclass
class AuthorityNode:
    """Transport or legal authority; maintains the revocation list."""

    keys: KeyPair
    role: str  # "transport" | "legal"
    revocation_list: set[PublicKey] = field(default_factory=set)
    reports: list[ReportEvent] = field(default_factory=list)

    def receive_report(self, event: ReportEvent) -> None:
        if event.verdict is Verdict.VALID:
            raise ProtocolError("nothing to report")
        if not event.verify():
            raise ProtocolError("report signature invalid")
        self.reports.append(event)
        self.revocation_list.add(event.vehicle_pk)


@dataclass
class MaintainerNode:
    keys: KeyPair
    role: str  # "manufacturer" | "technician"
    authorized: bool = True


@dataclass
class InsurerNode:
    keys: KeyPair
    authorized: bool = True


def perform_maintenance(
    maintainer: MaintainerNode,
    vehicle: VehicleNode,
    ecu_id: int,
    firmware: bytes,
    ts: int,
    action: str = "firmware-update",
) -> UpdateTx:
    """Flash one ECU through the authorized channel and build the signed
    update transaction carrying the new state root and per-ECU record.
    """
    if not maintainer.authorized:
        raise ProtocolError("unauthorized maintainer")
    digest = crypto.sha256(firmware)
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
    vehicle.firmware_images[ecu_id] = firmware
    unsigned = UpdateTx(
        new_root=compute_state_root(vehicle.ecu_state).root,
        ts=ts,
        vehicle_pk=vehicle.pk,
        maintainer_pk=maintainer.keys.public,
        metadata=maintenance_metadata(ecu_id, action, digest, ts),
        sig=b"",
    )
    return signed(unsigned, maintainer.keys)


def tamper(vehicle: VehicleNode, ecu_id: int, firmware: bytes, ts: int) -> None:
    """Flash one ECU *without* an update transaction (attacker capability).
    The write still advances the ECU's last-write timestamp: the write
    metering is the local trust anchor tampering cannot bypass.
    """
    digest = crypto.sha256(firmware)
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
    vehicle.firmware_images[ecu_id] = firmware
    vehicle.honest = False
