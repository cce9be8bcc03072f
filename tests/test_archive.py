"""Each entry's original bytes are archived exactly once.

Pruning archives a removed entry when it leaves the block, or the first
retained entry just before it is re-anchored to the header, and never a
re-anchored copy. ``reconstruct_history`` keeps the earliest record per
sequence number, so archives written with the older layout (which also
held each re-anchored copy) still replay.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, state_of
from ecuchain.ledger import (
    ArchiveError,
    FileArchive,
    Ledger,
    MemoryArchive,
    append_entry,
    prune_to_two,
    reconstruct_history,
)
from ecuchain.protocol import (
    RoadsideTier,
    apply_upper_update,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
)
from test_ledger import record_tx
from test_protocol import make_update

MAX_APPENDS = 48  # 12 prunes after 4 appends each


@functools.lru_cache(maxsize=None)
def _payloads():
    """A genesis and ``MAX_APPENDS`` signed challenge records for one vehicle."""
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    state = state_of(4)
    genesis = make_genesis(maker, vehicle.public, state, ts=0)
    records = tuple(record_tx(vehicle, state, rsu, ts=i + 1) for i in range(MAX_APPENDS))
    return genesis, records


def assert_archived_once(block, archive, originals):
    """One record per sequence number, in order, each holding the entry's
    original bytes, and the replayed history is every original in order.
    """
    archived = archive.read(block.header.external_address)
    # A pruned block's first entry is re-anchored; its original is archived.
    expected_seqs = list(range(block.archived_count + 1)) if block.archived_count else []
    assert [seq for seq, _ in archived] == expected_seqs
    assert [data for _, data in archived] == [
        originals[seq].to_bytes() for seq in expected_seqs
    ]
    assert reconstruct_history(block, archive) == originals


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
def test_interleaved_appends_and_prunes_archive_each_entry_once(runs):
    genesis, records = _payloads()
    archive = MemoryArchive()
    block = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://once")
    originals = [block.entries[0]]
    pending = iter(records)
    for appends in runs:
        for tx in itertools.islice(pending, appends):
            block = append_entry(block, tx)
            originals.append(block.entries[-1])
        block, _ = prune_to_two(block, archive)
        assert_archived_once(block, archive, originals)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=10))
def test_records_and_updates_archive_each_entry_once(ops):
    """``True`` is a recorded response, ``False`` an authorized update."""
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    authority = new_authority_tier(
        validators=(keys_for("transport"), keys_for("legal")),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    roadside = RoadsideTier(archive=MemoryArchive())
    state = state_of(8)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
    originals = list(roadside.ledger.lookup(vehicle.public).entries)
    for i, is_record in enumerate(ops):
        ts = 10 + i
        if is_record:
            challenge = issue_challenge(rsu.public, vehicle.public, len(state), random.Random(ts), ts)
            record_response(rsu, roadside, build_response(vehicle, state, challenge, ts))
        else:
            state, update = make_update(maker, vehicle.public, state, i % 8, b"fw%d" % i, ts)
            apply_upper_update(authority, roadside, update)
        block = roadside.ledger.lookup(vehicle.public)
        originals.append(block.entries[-1])
        assert_archived_once(block, roadside.archive, originals)


@pytest.mark.parametrize("file_backed", [False, True])
def test_old_layout_with_reanchored_copies_still_reconstructs(tmp_path, file_backed):
    """Before each entry was archived once, a prune also archived the
    re-anchored copy of the entry it removed from the head, after that
    entry's original.
    """
    genesis, records = _payloads()
    current = MemoryArchive()
    old = FileArchive(tmp_path) if file_backed else MemoryArchive()
    block = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://old")
    addr = block.header.external_address
    for tx in records[:12]:
        block = append_entry(block, tx)
        if len(block.entries) > 2 and block.archived_count:
            old.append_many(addr, [(block.archived_count, block.entries[0].to_bytes())])
        before = len(current.read(addr))
        block, _ = prune_to_two(block, current)
        old.append_many(addr, current.read(addr)[before:])
    old_records = old.read(addr)
    seqs = [seq for seq, _ in old_records]
    assert len(seqs) > len(set(seqs))  # the layout does repeat sequence numbers
    assert reconstruct_history(block, old) == reconstruct_history(block, current)
    assert [e.payload for e in reconstruct_history(block, old)] == [genesis, *records[:12]]


def test_file_archive_reads_thousands_of_records_like_memory(tmp_path):
    genesis, records = _payloads()
    block = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://many")
    for tx in records[:5]:
        block = append_entry(block, tx)
    blobs = [entry.to_bytes() for entry in block.entries]
    batch = [(seq, blobs[seq % len(blobs)]) for seq in range(3000)]
    file_archive, memory = FileArchive(tmp_path), MemoryArchive()
    for archive in (file_archive, memory):
        archive.append_many("ar://many", batch[:1000])
        archive.append_many("ar://many", batch[1000:])
    assert file_archive.read("ar://many") == memory.read("ar://many") == batch


def test_file_archive_read_rejects_truncated_and_corrupt_records(tmp_path):
    genesis, _ = _payloads()
    entry = Ledger().create_block(genesis.vehicle_pk, genesis, 0, "ar://bad").entries[0]
    archive = FileArchive(tmp_path)
    archive.append_many("ar://bad", [(0, entry.to_bytes())])
    path = archive._path("ar://bad")
    whole = path.read_bytes()
    path.write_bytes(whole + b"\x00" * 5)
    with pytest.raises(ArchiveError, match="truncated archive record header"):
        archive.read("ar://bad")
    path.write_bytes(whole + whole[:-3])
    with pytest.raises(ArchiveError, match="corrupt archive record"):
        archive.read("ar://bad")
