from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import keys_for, state_of
from ecuchain.bench import linear_fit
from ecuchain.crypto import ZERO_DIGEST, sha256
from ecuchain.ledger import (
    Archive,
    ArchiveError,
    FileArchive,
    Ledger,
    LedgerError,
    MemoryArchive,
    append_entry,
    decode_block,
    deserialize_ledger,
    entry_link,
    header_hash,
    prune_to_two,
    reconstruct_history,
    validate_block,
    validate_block_bytes,
)
from ecuchain.protocol import make_genesis
from ecuchain.transactions import (
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    UpdateTx,
)


def record_tx(vehicle_keys, state, rsu_keys, ts):
    """Challenge-record transaction carrying a minimal signed response."""
    unsigned = ChallengeResponse(
        state_root=sha256(b"root"),
        subset=(state.records[0],),
        ts=ts,
        vehicle_pk=vehicle_keys.public,
        sig=b"",
    )
    response = dataclasses.replace(
        unsigned, sig=vehicle_keys.sign(unsigned.signing_bytes())
    )
    rec = ChallengeRecordTx(response=response, rsu_pk=rsu_keys.public, sig=b"")
    return dataclasses.replace(rec, sig=rsu_keys.sign(rec.signing_bytes()))


@pytest.fixture
def vehicle(maker_keys, vehicle_keys):
    state = state_of(4)
    genesis = make_genesis(maker_keys, vehicle_keys.public, state, ts=0)
    return vehicle_keys, state, genesis


def grown_block(vehicle, rsu_keys, entries_total):
    """Fresh single-block ledger grown to the requested entry count."""
    vehicle_keys, state, genesis = vehicle
    ledger = Ledger()
    block = ledger.create_block(vehicle_keys.public, genesis, 0, "ar://test")
    for i in range(entries_total - 1):
        block = append_entry(block, record_tx(vehicle_keys, state, rsu_keys, ts=i + 1))
    ledger.replace_block(vehicle_keys.public, block)
    return ledger, block


def test_first_block_anchors_to_zero(vehicle):
    _, _, genesis = vehicle
    ledger = Ledger()
    block = ledger.create_block(genesis.vehicle_pk, genesis, 5, "ar://one")
    assert block.header.prev_header_hash == ZERO_DIGEST
    assert block.entries[0].prev_link == header_hash(block.header)


def test_second_block_chains_to_first(maker_keys):
    ledger = Ledger()
    blocks = []
    for i in range(2):
        keys = keys_for(f"owner{i}")
        genesis = make_genesis(maker_keys, keys.public, state_of(2), ts=0)
        blocks.append(ledger.create_block(keys.public, genesis, i, f"ar://{i}"))
    assert blocks[1].header.prev_header_hash == header_hash(blocks[0].header)
    assert ledger.validate()


def test_duplicate_owner_rejected(vehicle):
    _, _, genesis = vehicle
    ledger = Ledger()
    ledger.create_block(genesis.vehicle_pk, genesis, 0, "ar://dup")
    with pytest.raises(LedgerError, match="block exists"):
        ledger.create_block(genesis.vehicle_pk, genesis, 1, "ar://dup")


def test_append_links_and_validates(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 2)
    assert len(block.entries) == 2
    assert block.entries[1].prev_link == entry_link(block.entries[0])
    assert validate_block(block)


def test_append_rejects_foreign_vehicle(vehicle, rsu_keys, maker_keys):
    _, block = grown_block(vehicle, rsu_keys, 1)
    other = keys_for("other-vehicle")
    foreign = record_tx(other, state_of(4), rsu_keys, ts=1)
    with pytest.raises(LedgerError, match="ownership"):
        append_entry(block, foreign)


def test_ten_entry_chain_matches_independent_rebuild(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 10)
    assert validate_block(block)
    # rebuild the expected link chain from scratch
    expected = header_hash(block.header)
    for i, entry in enumerate(block.entries):
        assert entry.prev_link == expected
        assert entry.seq == i
        expected = sha256(
            b"".join(
                (
                    len(entry.payload).to_bytes(4, "big"),
                    entry.payload,
                    i.to_bytes(8, "big"),
                )
            )
        )


def test_validate_rejects_skipped_seq_and_lone_entry_past_zero(vehicle, rsu_keys):
    """Each mutation leaves every link intact; only the sequence check sees it."""
    _, block = grown_block(vehicle, rsu_keys, 2)
    head, last = block.entries
    skipped = dataclasses.replace(block, entries=(head, dataclasses.replace(last, seq=2)))
    lone = dataclasses.replace(block, entries=(dataclasses.replace(head, seq=1),))
    assert validate_block(block)
    assert validate_block(dataclasses.replace(block, entries=(head,)))
    assert not validate_block(skipped)
    assert not validate_block(lone)


def test_validate_detects_payload_tamper(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 5)
    tampered_entry = dataclasses.replace(
        block.entries[3],
        payload=dataclasses.replace(
            block.entries[3].transaction(), rsu_pk=keys_for("evil").public
        ).to_bytes(),
    )
    tampered = dataclasses.replace(
        block, entries=block.entries[:3] + (tampered_entry,) + block.entries[4:]
    )
    assert not validate_block(tampered)


def test_validate_detects_header_tamper(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 3)
    owner = bytearray(block.header.owner_pk)
    owner[0] ^= 0x01
    tampered = dataclasses.replace(
        block, header=dataclasses.replace(block.header, owner_pk=bytes(owner))
    )
    assert not validate_block(tampered)


def test_validate_block_bytes_tamper_sweep(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 4)
    data = block.to_bytes()
    assert validate_block_bytes(data)
    rng = random.Random(99)
    for _ in range(100):
        pos = rng.randrange(len(data))
        mutated = bytearray(data)
        mutated[pos] ^= 1 << rng.randrange(8)
        assert not validate_block_bytes(bytes(mutated))


def test_prune_noop_at_two_or_fewer(vehicle, rsu_keys):
    archive = MemoryArchive()
    for total in (1, 2):
        _, block = grown_block(vehicle, rsu_keys, total)
        pruned, archived = prune_to_two(block, archive)
        assert archived == 0
        assert pruned == block
    assert archive.addresses() == []


def test_prune_five_entry_block(vehicle, rsu_keys):
    archive = MemoryArchive()
    ledger, block = grown_block(vehicle, rsu_keys, 5)
    original = list(block.entries)
    pruned, archived = prune_to_two(block, archive)
    assert archived == 3
    assert len(pruned.entries) == 2
    assert validate_block(pruned)
    assert pruned.entries[0].prev_link == header_hash(pruned.header)
    # replay rebuilds the archived entries' original links
    history = reconstruct_history(pruned, archive)
    assert [e.payload for e in history] == [e.payload for e in original]
    assert [e.prev_link for e in history] == [e.prev_link for e in original]


def test_prune_serialize_and_replay_encode_no_transaction(vehicle, rsu_keys, monkeypatch):
    """Entries keep their payload's wire bytes: pruning (a re-anchored head
    included), serializing and replaying reuse them and encode no
    transaction.
    """
    vehicle_keys, state, _ = vehicle
    archive = MemoryArchive()
    ledger, block = grown_block(vehicle, rsu_keys, 5)
    block, _ = prune_to_two(block, archive)
    for ts in (5, 6):
        block = append_entry(block, record_tx(vehicle_keys, state, rsu_keys, ts=ts))
    encodes = []
    for cls in (GenesisTx, UpdateTx, RequestTx, ChallengeResponse, ChallengeRecordTx):
        for name in ("signing_bytes", "to_bytes"):

            def counting(self, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                encodes.append(_name)
                return _original(self)

            monkeypatch.setattr(cls, name, counting)
    pruned, archived = prune_to_two(block, archive)
    ledger.replace_block(vehicle_keys.public, pruned)
    blob = ledger.serialize()
    history = reconstruct_history(pruned, archive)
    assert (archived, len(history)) == (2, 7)
    assert deserialize_ledger(blob).serialize() == blob
    assert encodes == []


def test_repeated_prune_preserves_auditability(vehicle, rsu_keys):
    vehicle_keys, state, genesis = vehicle
    archive = MemoryArchive()
    ledger = Ledger()
    block = ledger.create_block(vehicle_keys.public, genesis, 0, "ar://re")
    all_payloads = [genesis]
    for i in range(12):
        tx = record_tx(vehicle_keys, state, rsu_keys, ts=i + 1)
        all_payloads.append(tx)
        block = append_entry(block, tx)
        block, _ = prune_to_two(block, archive)
        assert validate_block(block)
    history = reconstruct_history(block, archive)
    assert [e.transaction() for e in history] == all_payloads


def test_reconstruct_detects_gaps(vehicle, rsu_keys):
    archive = MemoryArchive()
    _, block = grown_block(vehicle, rsu_keys, 6)
    pruned, _ = prune_to_two(block, archive)
    addr = block.header.external_address
    archive._store[addr] = archive._store[addr][1:]  # drop the first record
    with pytest.raises(LedgerError, match="gaps"):
        reconstruct_history(pruned, archive)


class FailingArchive(Archive):
    def append_many(self, address, records):
        raise ArchiveError("disk full")

    def read(self, address):
        return []


def test_prune_failure_leaves_block_usable(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 5)
    with pytest.raises(ArchiveError):
        prune_to_two(block, FailingArchive())
    assert len(block.entries) == 5
    assert validate_block(block)


def test_lookup(vehicle):
    _, _, genesis = vehicle
    ledger = Ledger()
    pk = genesis.vehicle_pk
    assert ledger.lookup(pk) is None
    ledger.create_block(pk, genesis, 0, "ar://l")
    assert ledger.lookup(pk).header.owner_pk == pk
    assert ledger.lookup(keys_for("stranger").public) is None


def test_serialized_size_envelope_stable():
    assert Ledger().serialized_size() == Ledger().serialized_size()
    assert Ledger().serialized_size() > 0


def test_serialized_size_grows_per_block(maker_keys):
    ledger = Ledger()
    sizes = [ledger.serialized_size()]
    for i in range(20):
        keys = keys_for(f"grow{i}")
        genesis = make_genesis(maker_keys, keys.public, state_of(4), ts=0)
        ledger.create_block(keys.public, genesis, 0, f"ar://{i:04d}")
        sizes.append(ledger.serialized_size())
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    slope, intercept, r2 = linear_fit(range(len(sizes)), sizes)
    assert r2 > 0.999  # equally sized blocks: near-perfect linear growth
    assert abs(intercept - sizes[0]) < slope


def test_ledger_serialization_roundtrip(vehicle, rsu_keys):
    ledger, _ = grown_block(vehicle, rsu_keys, 3)
    data = ledger.serialize()
    restored = deserialize_ledger(data)
    assert restored.serialize() == data
    assert restored.validate()
    assert restored.creation_order == ledger.creation_order


def test_deserialized_block_without_entries_does_not_validate(vehicle):
    """A block with no entries has no genesis; ``validate_block`` rejects
    it, as ``reconstruct_history`` does.
    """
    _, _, genesis = vehicle
    ledger = Ledger()
    block = ledger.create_block(genesis.vehicle_pk, genesis, 0, "ar://empty")
    ledger.replace_block(genesis.vehicle_pk, dataclasses.replace(block, entries=()))
    restored = deserialize_ledger(ledger.serialize())
    assert restored.lookup(genesis.vehicle_pk).entries == ()
    assert not restored.validate()


def test_block_bytes_roundtrip(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 4)
    decoded = decode_block(block.to_bytes())
    assert decoded.header == block.header
    assert decoded.entries == block.entries


def test_file_archive_roundtrip(tmp_path, vehicle, rsu_keys):
    archive = FileArchive(tmp_path / "archives")
    _, block = grown_block(vehicle, rsu_keys, 7)
    pruned, archived = prune_to_two(block, archive)
    assert archived == 5
    history = reconstruct_history(pruned, archive)
    assert len(history) == 7
    mem = MemoryArchive()
    pruned_mem, _ = prune_to_two(block, mem)
    assert archive.read(block.header.external_address) == mem.read(
        block.header.external_address
    )
