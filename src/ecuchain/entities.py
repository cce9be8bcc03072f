"""Network actors: vehicles (keys and live ECU state, whose digests are
the flashed firmware) and authorities (keys; revocation is authority-tier
state). Roadside units, maintainers and insurers are bare ``KeyPair``s:
what they may do is decided by the tiers' allow-lists, not by the node.
Behaviour lives in the protocol module and the simulator wires the nodes
together. Nodes send each other wire bytes, as ``signed_wire`` made them.
``perform_maintenance`` flashes a firmware image; ``tamper``, the
attacker's write, takes the digest it flashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import crypto
from .crypto import KeyPair, PublicKey
from .ecu import EcuState, compute_state_root, update_ecu
from .protocol import AuthorityTier, ProtocolError, ReportEvent, build_response, received
from .transactions import Challenge, UpdateTx, Verdict, signed_by, signed_wire


@dataclass
class VehicleNode:
    """A vehicle: keys and live ECU state. The ECU records' digests are
    the firmware currently flashed.
    """

    keys: KeyPair
    ecu_state: EcuState
    replay_armed: bool = False
    last_response: Optional[bytes] = None

    @property
    def pk(self) -> PublicKey:
        return self.keys.public

    def respond(self, challenge: Challenge, ts: int) -> bytes:
        """Answer a challenge with a response's wire bytes; a replay-armed
        vehicle re-sends its previous response instead of a fresh one.
        """
        if self.replay_armed and self.last_response is not None:
            self.replay_armed = False
            return self.last_response
        response = build_response(self.keys, self.ecu_state, challenge, ts)
        self.last_response = response
        return response


@dataclass
class AuthorityNode:
    """Transport or legal authority; revokes into the authority tier."""

    keys: KeyPair

    def receive_report(self, tier: AuthorityTier, wire: bytes) -> None:
        """Revoke in ``tier`` the vehicle the report ``wire`` names. Raises
        ``ProtocolError``, and revokes nothing, for undecodable bytes, a Valid
        verdict, an RSU ``tier`` has not registered, or a bad signature.
        """
        event = received(ReportEvent, wire)
        if event.verdict is Verdict.VALID:
            raise ProtocolError("nothing to report")
        if event.rsu_pk not in tier.registered_rsus:
            raise ProtocolError("report from an unregistered RSU")
        if not signed_by(event, wire):
            raise ProtocolError("report signature invalid")
        tier.revoked.add(event.vehicle_pk)


def perform_maintenance(
    maintainer: KeyPair,
    vehicle: VehicleNode,
    ecu_id: int,
    firmware: bytes,
    ts: int,
) -> bytes:
    """Flash one ECU and return the wire bytes of the update the maintainer
    signs over the vehicle's key: the ECU's new record (``ecu_id``,
    firmware digest, last-write time ``ts``) and the vehicle's new state
    root. ``apply_upper_update`` checks whether the maintainer may sign.
    """
    digest = crypto.sha256(firmware)
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
    unsigned = UpdateTx(
        new_root=compute_state_root(vehicle.ecu_state),
        ts=ts,
        vehicle_pk=vehicle.pk,
        maintainer_pk=maintainer.public,
        ecu_id=ecu_id,
        firmware_digest=digest,
        sig=b"",
    )
    return signed_wire(unsigned, maintainer, vehicle.pk)


def tamper(vehicle: VehicleNode, ecu_id: int, digest: bytes, ts: int) -> None:
    """Flash the firmware whose digest is ``digest`` into one ECU *without*
    an update transaction (attacker capability). The write still advances
    the ECU's last-write timestamp: the write metering is the local trust
    anchor tampering cannot bypass.
    """
    vehicle.ecu_state = update_ecu(vehicle.ecu_state, ecu_id, digest, ts)
