"""State-root computation checked against an independent brute-force tree
oracle, plus the ECU state update and subset-report contracts.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_of
from ecuchain import _kernels
from ecuchain.crypto import sha256
from ecuchain.ecu import (
    EcuRecord,
    EcuState,
    compute_state_root,
    state_from_digests,
    subset_report,
    update_ecu,
)


def oracle_root(digests: list[bytes]) -> bytes:
    """Brute-force recursive tree builder, independent of the kernels."""

    def h(data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def build(level: list[bytes]) -> bytes:
        if len(level) == 1:
            return level[0]
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        pairs = zip(level[0::2], level[1::2])
        return build([h(b"\x01" + left + right) for left, right in pairs])

    leaves = [h(b"\x00" + i.to_bytes(8, "big") + d) for i, d in enumerate(digests)]
    return build(leaves)


def random_digests(rng: random.Random, n: int) -> list[bytes]:
    return [rng.randbytes(32) for _ in range(n)]


def test_single_leaf_tree():
    d = sha256(b"only-ecu")
    state = state_from_digests([d])
    expected = hashlib.sha256(b"\x00" + (0).to_bytes(8, "big") + d).digest()
    assert compute_state_root(state) == expected


def test_eight_ecu_tree_matches_oracle():
    rng = random.Random(8)
    digests = random_digests(rng, 8)
    state = state_from_digests(digests)
    assert compute_state_root(state) == oracle_root(digests)


def test_odd_count_duplicates_last_node():
    rng = random.Random(3)
    digests = random_digests(rng, 3)
    state = state_from_digests(digests)
    assert compute_state_root(state) == oracle_root(digests)


def test_oracle_equivalence_all_small_sizes():
    rng = random.Random(64)
    for n in [*range(1, 65), 200]:
        digests = random_digests(rng, n)
        assert compute_state_root(state_from_digests(digests)) == oracle_root(
            digests
        ), f"mismatch at N={n}"


def test_empty_state_rejected():
    with pytest.raises(ValueError, match="empty ECU state"):
        EcuState(records=())
    with pytest.raises(ValueError, match="empty ECU state"):
        _kernels.merkle_root([])


def test_state_requires_contiguous_ids():
    d = sha256(b"x")
    with pytest.raises(ValueError):
        EcuState(records=(EcuRecord(1, d, 0),))


def test_determinism():
    state = state_of(16)
    assert compute_state_root(state) == compute_state_root(state)


def test_root_is_computed_once_per_state(monkeypatch):
    calls = []
    original = _kernels.merkle_root

    def counting(digests):
        calls.append(len(digests))
        return original(digests)

    monkeypatch.setattr(_kernels, "merkle_root", counting)
    state = state_of(8)
    roots = {compute_state_root(state) for _ in range(5)}
    assert roots == {oracle_root([r.firmware_digest for r in state.records])}
    assert calls == [8]
    # An equal state built afresh computes its own root.
    assert compute_state_root(EcuState(records=state.records)) in roots
    assert calls == [8, 8]


def test_cached_root_takes_no_part_in_equality():
    cached, fresh = state_of(8), state_of(8)
    compute_state_root(cached)
    assert cached == fresh
    assert hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert cached != state_of(8, tag=b"other")


def test_sensitivity_single_bit_flip():
    rng = random.Random(17)
    for n in (1, 2, 7, 16, 64):
        digests = random_digests(rng, n)
        base = oracle_root(digests)
        state = state_from_digests(digests)
        assert compute_state_root(state) == base
        for pos in range(n):
            flipped = list(digests)
            byte = rng.randrange(32)
            bit = 1 << rng.randrange(8)
            mutated = bytearray(flipped[pos])
            mutated[byte] ^= bit
            flipped[pos] = bytes(mutated)
            assert compute_state_root(state_from_digests(flipped)) != base


def test_update_with_identical_digest_keeps_root():
    state = state_of(8)
    root = compute_state_root(state)
    updated = update_ecu(state, 3, state.records[3].firmware_digest, ts=50)
    assert compute_state_root(updated) == root
    assert updated.records[3].last_write_ts == 50


def test_update_with_new_digest_changes_root():
    rng = random.Random(29)
    digests = random_digests(rng, 8)
    state = state_from_digests(digests)
    new_digest = sha256(b"new firmware")
    updated = update_ecu(state, 5, new_digest, ts=10)
    expected = list(digests)
    expected[5] = new_digest
    assert compute_state_root(updated) == oracle_root(expected)
    assert compute_state_root(updated) != oracle_root(digests)


def test_update_only_touches_target_record():
    state = state_of(8)
    updated = update_ecu(state, 2, sha256(b"patched"), ts=9)
    for i in range(8):
        if i != 2:
            assert updated.records[i] == state.records[i]


def test_update_bounds_checked():
    state = state_of(8)
    with pytest.raises(ValueError, match="unknown ecu_id"):
        update_ecu(state, 8, sha256(b"x"), ts=1)


def test_update_rejects_timestamp_regression():
    state = update_ecu(state_of(4), 1, sha256(b"x"), ts=100)
    with pytest.raises(ValueError, match="timestamp regression"):
        update_ecu(state, 1, sha256(b"y"), ts=99)
    # equal timestamp is allowed
    update_ecu(state, 1, sha256(b"y"), ts=100)


def test_subset_report_empty():
    assert subset_report(state_of(4), []) == []


def test_subset_report_projection():
    state = state_of(4)
    report = subset_report(state, [0, 2])
    assert report == [state.records[0], state.records[2]]


def test_subset_report_preserves_request_order():
    state = state_of(5)
    report = subset_report(state, [4, 0, 2])
    assert [r.ecu_id for r in report] == [4, 0, 2]


def test_subset_report_full_set_equals_state():
    state = state_of(6)
    assert tuple(subset_report(state, range(6))) == state.records


def test_subset_report_rejects_bad_indices():
    state = state_of(4)
    with pytest.raises(ValueError, match="out of range"):
        subset_report(state, [0, 4])
    with pytest.raises(ValueError, match="duplicate"):
        subset_report(state, [1, 1])


@settings(deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=33))
def test_root_matches_oracle_property(digests):
    assert compute_state_root(state_from_digests(digests)) == oracle_root(digests)
