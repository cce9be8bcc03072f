"""Protocol procedures: vehicle registration, authorized maintenance
updates, and the roadside challenge-response round.

Tier state lives in two containers. The authority tier holds the
validator keys, the allow-lists, a countersigned audit log and an
audit-only ledger for insurer requests. The roadside tier holds the
per-vehicle blocks plus the materialized verification profile for each
vehicle (the ``EcuState`` the ledger vouches for, whose root it caches,
and the last recorded response timestamp); the profile is what a roadside
unit actually checks a response against, and it survives pruning because
pruned entries leave the block. Registration sets the profile's state
from the genesis inventory, and an authorized update is the only way it
changes: ``apply_upper_update`` applies the update's typed ECU record with
``update_ecu`` and requires the signed ``new_root`` to be that state's root.

Every check on an incoming transaction is made here, and each signature
is verified once, with ``signed_by``, where it enters a tier: a genesis by
``initialize_vehicle``, an update by ``apply_upper_update``, a response by
``verify_response`` (which ``record_response`` runs, recording only a
Valid response), an insurer request by ``submit_request`` and a report by
its receiving authority, which accepts reports only from an RSU that
``register_rsu`` admitted. The ledger only links what passed, with
``append_entry``, and verifies again only when audited. The RSU
countersignature is not checked again.

A response is fresh when it is dated within ``MAX_RESPONSE_DELAY_MS`` of
its challenge and after the last recorded one; the window stops a
far-future timestamp from pinning ``last_response_ts``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import crypto
from .crypto import PUBLIC_KEY_LEN, KeyPair, PublicKey, Signature
from .ecu import EcuRecord, EcuState, compute_state_root, subset_report, update_ecu
from .ledger import Archive, Ledger, MemoryArchive, append_entry, prune_to_two
from .transactions import (
    RAW32,
    UINT64,
    VERDICT,
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    Signable,
    UpdateTx,
    Verdict,
    signed,
    signed_by,
    signed_wire,
)
from .wire import WireError, encode_fixed, encode_str, encode_u64

SUBSET_SIZE = 3
# Longest a vehicle may take to answer a challenge, in simulated ms.
MAX_RESPONSE_DELAY_MS = 1_000


class ProtocolError(ValueError):
    """A protocol precondition was violated; the operation was rejected."""


def external_address(vehicle_pk: PublicKey) -> str:
    """Archive locator written into the vehicle's block header."""
    return "ar://" + vehicle_pk.hex()[:16]


# ---------------------------------------------------------------------------
# Tier state
# ---------------------------------------------------------------------------


@dataclass
class VehicleProfile:
    """What the roadside tier currently vouches for about one vehicle: its
    ECU state and the last recorded response timestamp.
    """

    state: EcuState
    last_response_ts: Optional[int] = None


@dataclass
class RoadsideTier:
    """Shared lower-tier state: vehicle blocks, archive, profiles."""

    ledger: Ledger = field(default_factory=Ledger)
    archive: Archive = field(default_factory=MemoryArchive)
    profiles: dict[PublicKey, VehicleProfile] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """Countersigned record of a validator-approved tier event."""

    action: str
    subject_pk: PublicKey
    ts: int
    signatures: tuple[tuple[PublicKey, Signature], ...]

    @staticmethod
    def signing_bytes(action: str, subject_pk: PublicKey, ts: int) -> bytes:
        return (
            encode_str(action)
            + encode_fixed(subject_pk, PUBLIC_KEY_LEN)
            + encode_u64(ts)
        )

    def verify(self, validators: Sequence[PublicKey]) -> bool:
        signed = {pk for pk, _ in self.signatures}
        if signed != set(validators):
            return False
        try:
            message = self.signing_bytes(self.action, self.subject_pk, self.ts)
        except WireError:
            return False
        return all(crypto.verify(pk, message, sig) for pk, sig in self.signatures)


@dataclass
class AuthorityTier:
    """Upper-tier state run by the transport and legal authorities."""

    validators: tuple[KeyPair, ...]
    authorized_makers: set[PublicKey]
    authorized_insurers: set[PublicKey]
    registered_rsus: set[PublicKey] = field(default_factory=set)
    ledger: Ledger = field(default_factory=Ledger)
    audit_pk: PublicKey = b""
    audit_log: list[AuditEvent] = field(default_factory=list)

    def countersign(self, action: str, subject_pk: PublicKey, ts: int) -> AuditEvent:
        message = AuditEvent.signing_bytes(action, subject_pk, ts)
        event = AuditEvent(
            action=action,
            subject_pk=subject_pk,
            ts=ts,
            signatures=tuple((v.public, v.sign(message)) for v in self.validators),
        )
        self.audit_log.append(event)
        return event


def new_authority_tier(
    validators: Sequence[KeyPair],
    authorized_makers: Sequence[PublicKey],
    authorized_insurers: Sequence[PublicKey],
    ts: int = 0,
) -> AuthorityTier:
    """Authority tier with an audit block (owned by the first validator) that
    stores insurer request transactions.
    """
    if not validators:
        raise ProtocolError("at least one validator required")
    tier = AuthorityTier(
        validators=tuple(validators),
        authorized_makers=set(authorized_makers),
        authorized_insurers=set(authorized_insurers),
    )
    anchor = validators[0]
    # The audit block is bootstrapped with a single-record genesis naming the
    # authority itself; request transactions append after it.
    state = EcuState(
        records=(
            EcuRecord(
                ecu_id=0,
                firmware_digest=crypto.sha256(b"authority-audit" + anchor.public),
                last_write_ts=ts,
            ),
        )
    )
    genesis = make_genesis(anchor, anchor.public, state, ts)
    tier.ledger.create_block(anchor.public, genesis, ts, "ar://authority-audit")
    tier.audit_pk = anchor.public
    return tier


# ---------------------------------------------------------------------------
# Registration and maintenance
# ---------------------------------------------------------------------------


def make_genesis(
    maker_keys: KeyPair, vehicle_pk: PublicKey, ecu_state: EcuState, ts: int
) -> GenesisTx:
    """Registration transaction: state root plus the full ECU inventory,
    signed by the maker.
    """
    unsigned = GenesisTx(
        state_root=compute_state_root(ecu_state),
        ts=ts,
        ecu_list=ecu_state.records,
        vehicle_pk=vehicle_pk,
        maker_pk=maker_keys.public,
        sig=b"",
    )
    return signed(unsigned, maker_keys)


def register_rsu(authority: AuthorityTier, rsu_pk: PublicKey, ts: int) -> None:
    """Admit a roadside unit: the authorities accept its reports from now
    on, and all validators countersign the registration.
    """
    authority.registered_rsus.add(rsu_pk)
    authority.countersign("register-rsu", rsu_pk, ts)


def initialize_vehicle(
    authority: AuthorityTier, roadside: RoadsideTier, genesis: GenesisTx, ts: int
) -> None:
    """Validate a registration and open the vehicle's block in the roadside
    tier; all validators countersign the creation event. The maker's
    signature is verified last, after the allow-list, state root and
    duplicate checks, and every check runs before anything is mutated, so a
    rejected genesis leaves both tiers unchanged.
    """
    if genesis.maker_pk not in authority.authorized_makers:
        raise ProtocolError("unauthorized maker")
    state = EcuState(records=genesis.ecu_list)
    if compute_state_root(state) != genesis.state_root:
        raise ProtocolError("genesis state root does not match ECU list")
    if roadside.ledger.lookup(genesis.vehicle_pk) is not None:
        raise ProtocolError("vehicle already registered")
    if not signed_by(genesis, genesis.maker_pk):
        raise ProtocolError("genesis signature invalid")
    roadside.ledger.create_block(
        genesis.vehicle_pk, genesis, ts, external_address(genesis.vehicle_pk)
    )
    roadside.profiles[genesis.vehicle_pk] = VehicleProfile(state=state)
    authority.countersign("register", genesis.vehicle_pk, ts)


def apply_upper_update(
    authority: AuthorityTier, roadside: RoadsideTier, update: UpdateTx
) -> None:
    """Validate an authorized maintenance update, append it to the vehicle's
    block and move the verification profile to the updated state. Every
    check runs before anything is mutated, and every rejection is a
    ``ProtocolError``: a bad signature (fields the wire format cannot encode
    included), an unauthorized maintainer, an unknown vehicle, an ECU record
    ``update_ecu`` refuses (unknown ECU id, timestamp regression) and a
    ``new_root`` that is not the updated state's root.
    """
    if not signed_by(update, update.maintainer_pk):
        raise ProtocolError("update signature invalid")
    if update.maintainer_pk not in authority.authorized_makers:
        raise ProtocolError("unauthorized maintainer")
    block = roadside.ledger.lookup(update.vehicle_pk)
    profile = roadside.profiles.get(update.vehicle_pk)
    if block is None or profile is None:
        raise ProtocolError("unknown vehicle")
    try:
        state = update_ecu(
            profile.state, update.ecu_id, update.firmware_digest, update.ts
        )
    except ValueError as exc:
        raise ProtocolError(f"update rejected: {exc}") from None
    if compute_state_root(state) != update.new_root:
        raise ProtocolError("update new_root does not match the updated state")
    appended = append_entry(block, update)
    pruned, _ = prune_to_two(appended, roadside.archive)
    roadside.ledger.replace_block(update.vehicle_pk, pruned)
    profile.state = state
    authority.countersign("update", update.vehicle_pk, update.ts)


# ---------------------------------------------------------------------------
# Challenge-response round
# ---------------------------------------------------------------------------


def issue_challenge(
    rsu_pk: PublicKey,
    vehicle_pk: PublicKey,
    ecu_count: int,
    rng: random.Random,
    ts: int,
) -> Challenge:
    """Twofold challenge: prove the state root and reveal min(3, N) randomly
    selected ECU records.
    """
    if ecu_count <= 0:
        raise ProtocolError("vehicle must have at least one ECU")
    k = min(SUBSET_SIZE, ecu_count)
    indices = tuple(rng.sample(range(ecu_count), k))
    return Challenge(
        rsu_pk=rsu_pk, vehicle_pk=vehicle_pk, subset_indices=indices, issued_ts=ts
    )


def build_response(
    vehicle_keys: KeyPair, state: EcuState, challenge: Challenge, ts: int
) -> ChallengeResponse:
    """Honest response: current state root plus the requested records,
    signed by the vehicle.
    """
    if challenge.vehicle_pk != vehicle_keys.public:
        raise ProtocolError("challenge addressed to a different vehicle")
    unsigned = ChallengeResponse(
        state_root=compute_state_root(state),
        subset=tuple(subset_report(state, challenge.subset_indices)),
        ts=ts,
        vehicle_pk=vehicle_keys.public,
        sig=b"",
    )
    return signed(unsigned, vehicle_keys)


def verify_response(
    roadside: RoadsideTier, challenge: Challenge, response: ChallengeResponse
) -> Verdict:
    """Classify a response. Checks run in a fixed order and the first
    failure wins: block existence, signature, timestamp freshness (inside
    the challenge's window and after the last recorded response), state
    root, then the per-ECU subset comparison. Never raises on a response
    whose fields fall outside the wire format (an integer past u64, say):
    such a response is BadSignature.
    """
    pk = response.vehicle_pk
    profile = roadside.profiles.get(pk)
    if roadside.ledger.lookup(pk) is None or profile is None:
        return Verdict.UNKNOWN_VEHICLE
    if pk != challenge.vehicle_pk:
        return Verdict.BAD_SIGNATURE
    if not signed_by(response, pk):
        return Verdict.BAD_SIGNATURE
    issued = challenge.issued_ts
    if not issued <= response.ts <= issued + MAX_RESPONSE_DELAY_MS:
        return Verdict.STALE_TIMESTAMP
    if profile.last_response_ts is not None and response.ts <= profile.last_response_ts:
        return Verdict.STALE_TIMESTAMP
    if response.state_root != compute_state_root(profile.state):
        return Verdict.STATE_MISMATCH
    if tuple(rec.ecu_id for rec in response.subset) != challenge.subset_indices:
        return Verdict.SUBSET_MISMATCH
    known = profile.state.records
    for rec in response.subset:
        if rec.ecu_id >= len(known) or rec != known[rec.ecu_id]:
            return Verdict.SUBSET_MISMATCH
    return Verdict.VALID


def record_response(
    rsu_keys: KeyPair,
    roadside: RoadsideTier,
    challenge: Challenge,
    response: ChallengeResponse,
) -> Verdict:
    """Classify the response with ``verify_response``; if it is Valid,
    append the countersigned response to the vehicle's block and prune it
    back to two entries. Returns the verdict, and changes nothing on any
    other. The ledger is only mutated after the archive write succeeds.
    Raises ``ProtocolError``, before verifying anything, if another RSU
    issued the challenge: an RSU countersigns only answers to its own.
    """
    if challenge.rsu_pk != rsu_keys.public:
        raise ProtocolError("challenge issued by another RSU")
    verdict = verify_response(roadside, challenge, response)
    if verdict is not Verdict.VALID:
        return verdict
    record, wire = signed_wire(
        ChallengeRecordTx(response=response, rsu_pk=rsu_keys.public, sig=b""),
        rsu_keys,
    )
    block = roadside.ledger.lookup(response.vehicle_pk)
    pruned, _ = prune_to_two(append_entry(block, record, wire), roadside.archive)
    roadside.ledger.replace_block(response.vehicle_pk, pruned)
    roadside.profiles[response.vehicle_pk].last_response_ts = response.ts
    return verdict


# ---------------------------------------------------------------------------
# Reporting and insurer requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReportEvent(Signable):
    """Signed escalation of a non-valid verdict to the authorities."""

    rsu_pk: PublicKey
    vehicle_pk: PublicKey
    verdict: Verdict
    ts: int
    sig: Signature

    WIRE = dict(rsu_pk=RAW32, vehicle_pk=RAW32, verdict=VERDICT, ts=UINT64)


def report_malicious(
    rsu_keys: KeyPair, vehicle_pk: PublicKey, verdict: Verdict, ts: int
) -> ReportEvent:
    """Signed report for delivery to the authorities; rejects Valid verdicts."""
    if verdict is Verdict.VALID:
        raise ProtocolError("nothing to report")
    unsigned = ReportEvent(
        rsu_pk=rsu_keys.public, vehicle_pk=vehicle_pk, verdict=verdict, ts=ts, sig=b""
    )
    return signed(unsigned, rsu_keys)


def submit_request(authority: AuthorityTier, request: RequestTx) -> None:
    """Store an insurer's signed evidence request on the authority audit
    block. The insurer's signature is checked first (fields the wire format
    cannot encode included), then the insurer allow-list; either rejection
    is a ``ProtocolError`` and leaves the audit block unchanged.
    """
    if not signed_by(request, request.insurer_pk):
        raise ProtocolError("request signature invalid")
    if request.insurer_pk not in authority.authorized_insurers:
        raise ProtocolError("unauthorized insurer")
    block = authority.ledger.lookup(authority.audit_pk)
    authority.ledger.replace_block(authority.audit_pk, append_entry(block, request))
