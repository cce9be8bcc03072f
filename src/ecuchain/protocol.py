"""Protocol procedures: vehicle registration, authorized maintenance
updates, and the roadside challenge-response round.

Tier state lives in two containers. The authority tier holds the
validator keys, the allow-lists, the registered RSUs, the revoked
vehicles, an audit-only ledger that the first insurer request opens and
the newest signed head of the roadside ledger; it signs nothing when it
admits an RSU, registers a vehicle or applies an update, only when
``seal_roadside`` seals that head. The roadside tier holds the
per-vehicle blocks and each vehicle's ``VehicleProfile``, the cache of
``ledger.apply_entry`` folded over its history: the one record of
registration that every check reads, and what a response is checked
against, kept when pruning moves entries out of the block. A profile is
a value: the entry points store the one that transition returns (or, for
a record, the one it would), and ``verify_response`` applies its record
rule ``response_verdict``; ``reconstruct_history`` replays it at audit.

Every message enters a tier here. Each entry point takes the wire bytes
it received, decodes them once, rejects bytes that do not decode like
any other bad input, and verifies the signature once, with ``signed_by``
over those bytes, after the sender's allow-list where there is one, so
input from an unlisted key costs no verify: ``initialize_vehicle`` (a
genesis), ``apply_upper_update`` (an update), ``record_response`` (a
response to a challenge of an RSU that ``register_rsu`` admitted,
through ``verify_response``; only a Valid one is recorded),
``submit_request`` (an insurer request) and
``AuthorityNode.receive_report`` (a report from an RSU that
``register_rsu`` admitted; it revokes the vehicle). A response names no
vehicle: it is checked under the key of the vehicle its challenge was
issued to, which also signs it. The protocol finds the block by the
vehicle key the transaction or challenge names (the audit block by
``AuthorityTier.audit_pk``) and hands the ledger only the bytes that
passed: ``create_block(owner_pk, wire)``, ``append_entry(block, wire)``
and ``replace_block(block)``. The ledger works out the sequence
number and the archive address, and verifies again only when audited.
An entry's signature covers the key of the block that keeps it:
``make_genesis`` and ``perform_maintenance`` sign over the vehicle's
key, an insurer over ``audit_pk``, and the RSU, whose challenge record
is not checked again, over the challenged vehicle's. A record keeps, of
the response, only its ECU ids, ``ts`` and the vehicle's signature: the
rest is the vehicle's state, from which the audit's fold rebuilds it.

A response is fresh when it is dated within ``MAX_RESPONSE_DELAY_MS`` of
its challenge and after the last recorded one; the window stops a
far-future timestamp from pinning ``last_response_ts``.

``seal_roadside`` has each authority validator sign the roadside
ledger's head once, and only the authority tier keeps it. ``audit``
hands that head and the validator keys to ``Ledger.validate``, so a
deleted, reordered or cut-back block fails it; a ledger checked with no
head is checked block by block. It replays no entry rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .crypto import KeyPair, PublicKey, Signature
from .ecu import EcuState, compute_state_root, subset_report
from .ledger import (
    Archive,
    Ledger,
    MemoryArchive,
    SealedHead,
    VehicleProfile,
    append_entry,
    apply_entry,
    block_tip,
    head_root,
    prune_to_two,
    response_verdict,
)
from .transactions import (
    RAW32,
    UINT64,
    VERDICT,
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    LedgerHead,
    RequestTx,
    S,
    Signable,
    UpdateTx,
    Verdict,
    decode,
    signed_by,
    signed_wire,
)
from .wire import WireError

SUBSET_SIZE = 3
# Longest a vehicle may take to answer a challenge, in simulated ms.
MAX_RESPONSE_DELAY_MS = 1_000


class ProtocolError(ValueError):
    """A protocol precondition was violated; the operation was rejected."""


def received(cls: type[S], wire: bytes) -> S:
    """``wire`` decoded as one ``cls``, or else a ``ProtocolError``."""
    try:
        return decode(cls, wire)
    except WireError as exc:
        raise ProtocolError(f"{cls.__name__} does not decode: {exc}") from None


# ---------------------------------------------------------------------------
# Tier state
# ---------------------------------------------------------------------------


@dataclass
class RoadsideTier:
    """Shared lower-tier state: vehicle blocks, archive, profiles."""

    ledger: Ledger = field(default_factory=Ledger)
    archive: Archive = field(default_factory=MemoryArchive)
    profiles: dict[PublicKey, VehicleProfile] = field(default_factory=dict)


@dataclass
class AuthorityTier:
    """Upper-tier state run by the transport and legal authorities."""

    validators: tuple[KeyPair, ...]
    authorized_makers: set[PublicKey]
    authorized_insurers: set[PublicKey]
    registered_rsus: set[PublicKey] = field(default_factory=set)
    revoked: set[PublicKey] = field(default_factory=set)
    ledger: Ledger = field(default_factory=Ledger)
    roadside_head: Optional[SealedHead] = None

    @property
    def audit_pk(self) -> PublicKey:
        """Owner of the audit block: the first validator."""
        return self.validators[0].public

    @property
    def validator_pks(self) -> tuple[PublicKey, ...]:
        return tuple(keys.public for keys in self.validators)


def new_authority_tier(
    validators: Sequence[KeyPair],
    authorized_makers: Sequence[PublicKey],
    authorized_insurers: Sequence[PublicKey],
) -> AuthorityTier:
    """Authority tier with an empty ledger; the first insurer request opens
    the audit block (see ``submit_request``).
    """
    if not validators:
        raise ProtocolError("at least one validator required")
    return AuthorityTier(
        validators=tuple(validators),
        authorized_makers=set(authorized_makers),
        authorized_insurers=set(authorized_insurers),
    )


# ---------------------------------------------------------------------------
# Registration and maintenance
# ---------------------------------------------------------------------------


def make_genesis(
    maker_keys: KeyPair, vehicle_pk: PublicKey, ecu_state: EcuState, ts: int
) -> bytes:
    """Registration transaction: the full ECU inventory, signed by the
    maker over the vehicle's key, as wire bytes. It computes no state root.
    """
    unsigned = GenesisTx(
        ts=ts,
        ecu_list=ecu_state.records,
        vehicle_pk=vehicle_pk,
        maker_pk=maker_keys.public,
        sig=b"",
    )
    return signed_wire(unsigned, maker_keys, vehicle_pk)


def register_rsu(authority: AuthorityTier, rsu_pk: PublicKey) -> None:
    """Admit a roadside unit: the authorities accept its reports from now on."""
    authority.registered_rsus.add(rsu_pk)


def initialize_vehicle(authority: AuthorityTier, roadside: RoadsideTier, wire: bytes) -> None:
    """Validate a genesis' wire bytes and open the vehicle's block in the
    roadside tier. Each rejection is a ``ProtocolError``, in this order:
    undecodable bytes, an unauthorized maker, an inventory ``apply_entry``
    refuses (an empty one), a duplicate, a bad signature. Nothing is
    mutated before every check passes.
    """
    genesis = received(GenesisTx, wire)
    if genesis.maker_pk not in authority.authorized_makers:
        raise ProtocolError("unauthorized maker")
    try:
        profile = apply_entry(None, genesis, genesis.vehicle_pk)
    except ValueError as exc:
        raise ProtocolError(f"genesis ECU list rejected: {exc}") from None
    if genesis.vehicle_pk in roadside.profiles:
        raise ProtocolError("vehicle already registered")
    if not signed_by(genesis, wire, genesis.vehicle_pk):
        raise ProtocolError("genesis signature invalid")
    roadside.ledger.create_block(genesis.vehicle_pk, wire)
    roadside.profiles[genesis.vehicle_pk] = profile


def apply_upper_update(
    authority: AuthorityTier, roadside: RoadsideTier, wire: bytes
) -> None:
    """Validate an authorized maintenance update's wire bytes, append it to
    the vehicle's block and move the verification profile to the updated
    state. Every check runs before anything is mutated, and every rejection
    is a ``ProtocolError``, in this order: undecodable bytes, an
    unauthorized maintainer, a bad signature, an unknown vehicle, and an
    update ``apply_entry`` refuses (unknown ECU id, a timestamp not after
    the ECU's last write, a ``new_root`` that is not the updated state's
    root).
    """
    update = received(UpdateTx, wire)
    if update.maintainer_pk not in authority.authorized_makers:
        raise ProtocolError("unauthorized maintainer")
    if not signed_by(update, wire, update.vehicle_pk):
        raise ProtocolError("update signature invalid")
    profile = roadside.profiles.get(update.vehicle_pk)
    if profile is None:
        raise ProtocolError("unknown vehicle")
    try:
        profile = apply_entry(profile, update, update.vehicle_pk)
    except ValueError as exc:
        raise ProtocolError(f"update rejected: {exc}") from None
    appended = append_entry(roadside.ledger.lookup(update.vehicle_pk), wire)
    pruned, _ = prune_to_two(appended, roadside.archive)
    roadside.ledger.replace_block(pruned)
    roadside.profiles[update.vehicle_pk] = profile


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
) -> bytes:
    """Honest response: current state root plus the requested records,
    signed by the vehicle, as wire bytes.
    """
    if challenge.vehicle_pk != vehicle_keys.public:
        raise ProtocolError("challenge addressed to a different vehicle")
    unsigned = ChallengeResponse(
        state_root=compute_state_root(state),
        subset=tuple(subset_report(state, challenge.subset_indices)),
        ts=ts,
        sig=b"",
    )
    return signed_wire(unsigned, vehicle_keys)


def verify_response(
    roadside: RoadsideTier, challenge: Challenge, response: ChallengeResponse, wire: bytes
) -> Verdict:
    """Classify ``response``, decoded from ``wire``, as the answer of the
    challenged vehicle, which it does not name. Checks run in a fixed
    order and the first failure wins: the vehicle's registration, its
    signature, the challenge's window, ``response_verdict`` against the
    profile, then the subset's ids against the challenge's. Never raises.
    """
    profile = roadside.profiles.get(challenge.vehicle_pk)
    if profile is None:
        return Verdict.UNKNOWN_VEHICLE
    if not signed_by(response, wire, challenge.vehicle_pk):
        return Verdict.BAD_SIGNATURE
    issued = challenge.issued_ts
    if not issued <= response.ts <= issued + MAX_RESPONSE_DELAY_MS:
        return Verdict.STALE_TIMESTAMP
    verdict = response_verdict(profile, response)
    ids = tuple(rec.ecu_id for rec in response.subset)
    if verdict is Verdict.VALID and ids != challenge.subset_indices:
        return Verdict.SUBSET_MISMATCH
    return verdict


def record_response(
    authority: AuthorityTier, roadside: RoadsideTier, rsu_keys: KeyPair,
    challenge: Challenge, wire: bytes,
) -> Verdict:
    """Decode a response's wire bytes (undecodable ones are BadSignature)
    and classify it with ``verify_response``; if Valid, append a record
    of it (its ECU ids, ``ts`` and the vehicle's signature, which the RSU
    countersigns over the challenged vehicle's key) to the vehicle's
    block and prune it to two entries, only once the archive write
    succeeds. Changes nothing on any other verdict. Raises
    ``ProtocolError`` first, before any decode or verify, if
    ``register_rsu`` never admitted the RSU or another RSU issued the
    challenge: an RSU countersigns only answers to its own.
    """
    if rsu_keys.public not in authority.registered_rsus:
        raise ProtocolError("unregistered RSU")
    if challenge.rsu_pk != rsu_keys.public:
        raise ProtocolError("challenge issued by another RSU")
    try:
        response = decode(ChallengeResponse, wire)
    except WireError:
        return Verdict.BAD_SIGNATURE
    verdict = verify_response(roadside, challenge, response, wire)
    if verdict is not Verdict.VALID:
        return verdict
    # A Valid response names exactly the challenge's ECUs.
    record = ChallengeRecordTx(
        ecu_ids=challenge.subset_indices, ts=response.ts, vehicle_sig=response.sig,
        rsu_pk=rsu_keys.public, sig=b"",
    )
    block = roadside.ledger.lookup(challenge.vehicle_pk)
    appended = append_entry(block, signed_wire(record, rsu_keys, challenge.vehicle_pk))
    pruned, _ = prune_to_two(appended, roadside.archive)
    roadside.ledger.replace_block(pruned)
    profile = roadside.profiles[challenge.vehicle_pk]
    roadside.profiles[challenge.vehicle_pk] = VehicleProfile(profile.state, response.ts)
    return verdict


def seal_roadside(authority: AuthorityTier, roadside: RoadsideTier, ts: int) -> None:
    """Each authority validator signs the roadside ledger's head once, and
    the authority tier keeps the sealed head in place of the one before.
    """
    blocks = roadside.ledger.blocks.values()
    tips = tuple(block_tip(block) for block in blocks)
    root = head_root(blocks, tips)
    signed = tuple(
        signed_wire(LedgerHead(len(tips), ts, root, keys.public, b""), keys)
        for keys in authority.validators
    )
    authority.roadside_head = SealedHead(signed, tips)


def audit(authority: AuthorityTier, roadside: RoadsideTier) -> bool:
    """True iff the roadside ledger holds against the authority tier's
    sealed head and validator keys, and the authority ledger validates.
    """
    return roadside.ledger.validate(
        authority.roadside_head, authority.validator_pks
    ) and authority.ledger.validate()


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
    SIGNER = "rsu_pk"


def report_malicious(
    rsu_keys: KeyPair, vehicle_pk: PublicKey, verdict: Verdict, ts: int
) -> bytes:
    """Wire bytes of a signed report for the authorities; rejects Valid."""
    if verdict is Verdict.VALID:
        raise ProtocolError("nothing to report")
    unsigned = ReportEvent(
        rsu_pk=rsu_keys.public, vehicle_pk=vehicle_pk, verdict=verdict, ts=ts, sig=b""
    )
    return signed_wire(unsigned, rsu_keys)


def submit_request(authority: AuthorityTier, wire: bytes) -> None:
    """Store an insurer's signed evidence request's wire bytes on the
    authority audit block, which the first accepted request opens. The
    bytes must decode, then the insurer allow-list and the signature, over
    ``audit_pk``, are checked; each rejection is a ``ProtocolError`` and
    changes nothing.
    """
    request = received(RequestTx, wire)
    if request.insurer_pk not in authority.authorized_insurers:
        raise ProtocolError("unauthorized insurer")
    owner = authority.audit_pk
    if not signed_by(request, wire, owner):
        raise ProtocolError("request signature invalid")
    block = authority.ledger.lookup(owner)
    if block is None:
        authority.ledger.create_block(owner, wire)
    else:
        authority.ledger.replace_block(append_entry(block, wire))
