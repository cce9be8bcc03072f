"""Network actors with state of their own: vehicles (keys, live ECU state,
flashed images) and authorities (the revocation list). Roadside units,
maintainers and insurers are bare ``KeyPair``s: what they may do is decided
by the tiers' allow-lists, not by the node. Behaviour lives in the protocol
module and the simulator wires the nodes together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import crypto
from .crypto import KeyPair, PublicKey
from .ecu import EcuState, compute_state_root, update_ecu
from .protocol import AuthorityTier, ProtocolError, ReportEvent, build_response
from .transactions import (
    Challenge, ChallengeResponse, UpdateTx, Verdict, signed, signed_by
)


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
class AuthorityNode:
    """Transport or legal authority; maintains the revocation list."""

    keys: KeyPair
    revocation_list: set[PublicKey] = field(default_factory=set)
    reports: list[ReportEvent] = field(default_factory=list)

    def receive_report(self, tier: AuthorityTier, event: ReportEvent) -> None:
        """Revoke the reported vehicle. Raises ``ProtocolError``, and
        revokes nothing, for a Valid verdict, an RSU that ``tier`` has not
        registered, or a bad signature.
        """
        if event.verdict is Verdict.VALID:
            raise ProtocolError("nothing to report")
        if event.rsu_pk not in tier.registered_rsus:
            raise ProtocolError("report from an unregistered RSU")
        if not signed_by(event, event.rsu_pk):
            raise ProtocolError("report signature invalid")
        self.reports.append(event)
        self.revocation_list.add(event.vehicle_pk)


def perform_maintenance(
    maintainer: KeyPair,
    vehicle: VehicleNode,
    ecu_id: int,
    firmware: bytes,
    ts: int,
) -> UpdateTx:
    """Flash one ECU and build the update the maintainer signs: the ECU's
    new record (``ecu_id``, firmware digest, last-write time ``ts``) and the
    vehicle's new state root. Whether the maintainer is authorized is the
    authority tier's check, made by ``apply_upper_update``.
    """
    digest = crypto.sha256(firmware)
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
    vehicle.firmware_images[ecu_id] = firmware
    unsigned = UpdateTx(
        new_root=compute_state_root(vehicle.ecu_state),
        ts=ts,
        vehicle_pk=vehicle.pk,
        maintainer_pk=maintainer.public,
        ecu_id=ecu_id,
        firmware_digest=digest,
        sig=b"",
    )
    return signed(unsigned, maintainer)


def tamper(vehicle: VehicleNode, ecu_id: int, firmware: bytes, ts: int) -> None:
    """Flash one ECU *without* an update transaction (attacker capability).
    The write still advances the ECU's last-write timestamp: the write
    metering is the local trust anchor tampering cannot bypass.
    """
    digest = crypto.sha256(firmware)
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
    vehicle.firmware_images[ecu_id] = firmware
    vehicle.honest = False
