"""Per-vehicle ECU state and its Merkle-root fingerprint.

The ordered list of firmware digests rolls up into a single root value
(the vehicle's attestable state root); any firmware write also advances
the ECU's last-write timestamp, which the challenge spot-check compares
independently of the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import _kernels
from .crypto import DIGEST_LEN, Digest


@dataclass(frozen=True, slots=True)
class EcuRecord:
    """One ECU: stable 0-based id, firmware digest, last firmware-write time."""

    ecu_id: int
    firmware_digest: Digest
    last_write_ts: int

    def __post_init__(self):
        if len(self.firmware_digest) != DIGEST_LEN:
            raise ValueError("firmware digest must be 32 bytes")
        if self.ecu_id < 0 or self.last_write_ts < 0:
            raise ValueError("ecu_id and last_write_ts must be nonnegative")


@dataclass(frozen=True, slots=True)
class EcuState:
    """Immutable ECU list; ids are exactly 0..N-1 in list order.

    ``compute_state_root`` caches the state's Merkle root on the object the
    first time it is asked for; the cache takes no part in equality, and a
    new state (``update_ecu``, or one built from a transaction's records)
    starts without one.
    """

    records: tuple[EcuRecord, ...]
    _root: Optional[Digest] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.records:
            raise ValueError("empty ECU state")
        for i, rec in enumerate(self.records):
            if rec.ecu_id != i:
                raise ValueError(f"ecu_id {rec.ecu_id} at position {i}")

    def __len__(self) -> int:
        return len(self.records)


def state_from_digests(digests: Iterable[Digest]) -> EcuState:
    records = tuple(
        EcuRecord(ecu_id=i, firmware_digest=d, last_write_ts=0)
        for i, d in enumerate(digests)
    )
    return EcuState(records=records)


def compute_state_root(state: EcuState) -> Digest:
    """Merkle root of the state: leaves hash the (index, digest) pairs with a
    0x00 domain prefix, interior nodes pair-hash with 0x01, odd levels
    duplicate their last node. Computed once per state object.
    """
    root = state._root
    if root is None:
        root = _kernels.merkle_root([r.firmware_digest for r in state.records])
        object.__setattr__(state, "_root", root)
    return root


def update_ecu(state: EcuState, ecu_id: int, new_digest: Digest, ts: int) -> EcuState:
    """New state with one record replaced; timestamps never move backwards."""
    if not 0 <= ecu_id < len(state.records):
        raise ValueError(f"unknown ecu_id {ecu_id}")
    current = state.records[ecu_id]
    if ts < current.last_write_ts:
        raise ValueError(
            f"timestamp regression on ECU {ecu_id}: {ts} < {current.last_write_ts}"
        )
    replaced = EcuRecord(ecu_id=ecu_id, firmware_digest=new_digest, last_write_ts=ts)
    records = state.records[:ecu_id] + (replaced,) + state.records[ecu_id + 1 :]
    return EcuState(records=records)


def subset_report(state: EcuState, indices: Sequence[int]) -> list[EcuRecord]:
    """The named records verbatim, in request order; indices must be distinct
    and in range.
    """
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate ECU index in subset request")
    report = []
    for idx in indices:
        if not 0 <= idx < len(state.records):
            raise ValueError(f"ECU index {idx} out of range")
        report.append(state.records[idx])
    return report
