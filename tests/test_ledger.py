from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import append, embedded, keys_for, state_of, validate_block_bytes
from ecuchain import crypto
from ecuchain import ledger as ledger_module
from ecuchain.bench import linear_fit
from ecuchain.ecu import compute_state_root
from ecuchain.ledger import (
    Archive,
    ArchiveError,
    FileArchive,
    Ledger,
    LedgerError,
    MemoryArchive,
    decode_block,
    deserialize_ledger,
    prune_to_two,
    reconstruct_history,
    validate_block,
)
from ecuchain.protocol import make_genesis
from ecuchain.transactions import (
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    UpdateTx,
    decode,
    decode_transaction,
)


def record_tx(vehicle_keys, state, rsu_keys, ts):
    """Challenge-record transaction carrying a minimal signed response to
    ``state``, which a replay of the block accepts; the RSU signs the tag,
    the vehicle's key, then the rest of the record.
    """
    unsigned = ChallengeResponse(
        state_root=compute_state_root(state),
        subset=(state.records[0],),
        ts=ts,
        sig=b"",
    )
    response = dataclasses.replace(
        unsigned, sig=vehicle_keys.sign(unsigned.signing_bytes())
    )
    rec = ChallengeRecordTx(response=embedded(response), rsu_pk=rsu_keys.public, sig=b"")
    signing = rec.signing_bytes()
    message = signing[:1] + vehicle_keys.public + signing[1:]
    return dataclasses.replace(rec, sig=rsu_keys.sign(message))


@pytest.fixture
def vehicle(maker_keys, vehicle_keys):
    state = state_of(4)
    genesis = decode(GenesisTx, make_genesis(maker_keys, vehicle_keys.public, state, ts=0))
    return vehicle_keys, state, genesis


def grown_block(vehicle, rsu_keys, entries_total):
    """Fresh single-block ledger grown to the requested entry count."""
    vehicle_keys, state, genesis = vehicle
    ledger = Ledger()
    block = ledger.create_block(vehicle_keys.public, genesis.to_bytes())
    for i in range(entries_total - 1):
        block = append(block, record_tx(vehicle_keys, state, rsu_keys, ts=i + 1))
    ledger.replace_block(block)
    return ledger, block


def fresh_blocks(maker_keys, count):
    """``count`` single-entry blocks of one ledger, oldest first."""
    ledger = Ledger()
    for i in range(count):
        keys = keys_for(f"owner{i}")
        ledger.create_block(keys.public, make_genesis(maker_keys, keys.public, state_of(2), 0))
    return ledger


def test_first_block_anchors_to_zero(vehicle):
    _, _, genesis = vehicle
    ledger = Ledger()
    block = ledger.create_block(genesis.vehicle_pk, genesis.to_bytes())
    assert block.entries[0].seq == 0


def test_second_block_chains_to_first(maker_keys):
    ledger = fresh_blocks(maker_keys, 2)
    assert ledger.validate()


def test_create_block_chains_to_blocks_stored_directly(maker_keys):
    """A block created after blocks stored directly in ``blocks``."""
    source = fresh_blocks(maker_keys, 2)
    ledger = Ledger()
    ledger.blocks.update(source.blocks)
    keys = keys_for("owner2")
    ledger.create_block(keys.public, make_genesis(maker_keys, keys.public, state_of(2), 0))
    assert ledger.validate()


def test_create_block_after_restart_chains_to_the_restored_tip(maker_keys):
    restored = deserialize_ledger(fresh_blocks(maker_keys, 3).serialize())
    keys = keys_for("owner3")
    restored.create_block(keys.public, make_genesis(maker_keys, keys.public, state_of(2), 0))
    assert restored.validate()
    assert restored.serialize() == fresh_blocks(maker_keys, 4).serialize()


def test_replace_block_is_keyed_by_the_header_owner(vehicle, rsu_keys):
    ledger, block = grown_block(vehicle, rsu_keys, 2)
    stranger = dataclasses.replace(
        block, header=dataclasses.replace(block.header, owner_pk=keys_for("stranger").public)
    )
    with pytest.raises(LedgerError, match="unknown block"):
        ledger.replace_block(stranger)
    assert ledger.blocks == {block.header.owner_pk: block}


def test_duplicate_owner_rejected(vehicle):
    _, _, genesis = vehicle
    ledger = Ledger()
    ledger.create_block(genesis.vehicle_pk, genesis.to_bytes())
    with pytest.raises(LedgerError, match="block exists"):
        ledger.create_block(genesis.vehicle_pk, genesis.to_bytes())


def test_append_numbers_and_validates(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 2)
    assert [e.seq for e in block.entries] == [0, 1]
    assert validate_block(block)


def test_append_keeps_a_foreign_vehicle_entry_that_validate_block_rejects(vehicle, rsu_keys):
    """``append_entry`` checks no owner; the audit does."""
    _, block = grown_block(vehicle, rsu_keys, 1)
    foreign = record_tx(keys_for("other-vehicle"), state_of(4), rsu_keys, ts=1)
    appended = append(block, foreign)
    assert appended.entries[-1] == (1, foreign.to_bytes())
    assert validate_block(block)
    assert not validate_block(appended)


def test_ten_entry_block_numbers_entries_from_zero(vehicle, rsu_keys):
    vehicle_keys, state, genesis = vehicle
    _, block = grown_block(vehicle, rsu_keys, 10)
    assert validate_block(block)
    expected = [genesis] + [record_tx(vehicle_keys, state, rsu_keys, ts=i) for i in range(1, 10)]
    assert [e.seq for e in block.entries] == list(range(10))
    assert [decode_transaction(e.payload) for e in block.entries] == expected


def test_validate_rejects_skipped_seq_and_lone_entry_past_zero(vehicle, rsu_keys):
    """Each mutation leaves every payload and signature intact; only the
    sequence check sees it.
    """
    _, block = grown_block(vehicle, rsu_keys, 2)
    head, last = block.entries
    skipped = dataclasses.replace(block, entries=(head, last._replace(seq=2)))
    lone = dataclasses.replace(block, entries=(head._replace(seq=1),))
    assert validate_block(block)
    assert validate_block(dataclasses.replace(block, entries=(head,)))
    assert not validate_block(skipped)
    assert not validate_block(lone)


def test_validate_detects_payload_tamper(vehicle, rsu_keys):
    _, block = grown_block(vehicle, rsu_keys, 5)
    tampered_entry = block.entries[3]._replace(
        payload=dataclasses.replace(
            decode_transaction(block.entries[3].payload), rsu_pk=keys_for("evil").public
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
        assert archive.read(block.header.external_address) == []


def test_prune_five_entry_block(vehicle, rsu_keys):
    archive = MemoryArchive()
    ledger, block = grown_block(vehicle, rsu_keys, 5)
    original = list(block.entries)
    pruned, archived = prune_to_two(block, archive)
    assert archived == 3
    assert len(pruned.entries) == 2
    assert validate_block(pruned)
    assert pruned.entries == tuple(original[3:])
    assert archive.read(pruned.header.external_address) == original[:3]
    assert reconstruct_history(pruned, archive) == original
    pairs = MemoryArchive()
    pairs.append_many(pruned.header.external_address, [tuple(e) for e in original[:3]])
    assert reconstruct_history(pruned, pairs) == original


def test_append_and_prune_hash_nothing(vehicle, rsu_keys, monkeypatch):
    """The ledger stores no hash, so creating a block, appending and pruning
    call no SHA-256.
    """
    vehicle_keys, state, genesis = vehicle
    records = [record_tx(vehicle_keys, state, rsu_keys, ts=ts) for ts in (1, 2, 3, 4)]
    hashed = []

    def counting(data, _original=crypto.sha256):
        hashed.append(data)
        return _original(data)

    for module in (crypto, ledger_module):
        monkeypatch.setattr(module, "sha256", counting)
    block = Ledger().create_block(vehicle_keys.public, genesis.to_bytes())
    for tx in records:
        block = append(block, tx)
    block, archived = prune_to_two(block, MemoryArchive())
    assert (archived, len(block.entries), hashed) == (3, 2, [])


def test_write_path_calls_no_transaction_code(vehicle, rsu_keys, monkeypatch):
    """The ledger is handed bytes: creating, appending, pruning and
    replacing decode nothing and apply no entry rule.
    """
    vehicle_keys, state, genesis = vehicle
    records = [record_tx(vehicle_keys, state, rsu_keys, ts=ts).to_bytes() for ts in (1, 2, 3)]

    def refuse(*args, **kwargs):
        raise AssertionError("the write path called transaction code")

    for name in ("decode_transaction", "read_transaction", "apply_entry"):
        monkeypatch.setattr(ledger_module, name, refuse)
    ledger = Ledger()
    block = ledger.create_block(vehicle_keys.public, genesis.to_bytes())
    for wire in records:
        block = ledger_module.append_entry(block, wire)
    block, archived = prune_to_two(block, MemoryArchive())
    ledger.replace_block(block)
    assert (archived, ledger.lookup(vehicle_keys.public)) == (2, block)


def test_prune_serialize_and_replay_encode_no_transaction(vehicle, rsu_keys, monkeypatch):
    """Entries keep their payload's wire bytes: pruning, serializing and
    replaying reuse them and encode no transaction.
    """
    vehicle_keys, state, _ = vehicle
    archive = MemoryArchive()
    ledger, block = grown_block(vehicle, rsu_keys, 5)
    block, _ = prune_to_two(block, archive)
    for ts in (5, 6):
        block = append(block, record_tx(vehicle_keys, state, rsu_keys, ts=ts))
    encodes = []
    for cls in (GenesisTx, UpdateTx, RequestTx, ChallengeResponse, ChallengeRecordTx):
        for name in ("signing_bytes", "to_bytes"):

            def counting(self, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                encodes.append(_name)
                return _original(self)

            monkeypatch.setattr(cls, name, counting)
    pruned, archived = prune_to_two(block, archive)
    ledger.replace_block(pruned)
    blob = ledger.serialize()
    history = reconstruct_history(pruned, archive)
    assert (archived, len(history)) == (2, 7)
    assert deserialize_ledger(blob).serialize() == blob
    assert encodes == []


def test_repeated_prune_preserves_auditability(vehicle, rsu_keys):
    vehicle_keys, state, genesis = vehicle
    archive = MemoryArchive()
    ledger = Ledger()
    block = ledger.create_block(vehicle_keys.public, genesis.to_bytes())
    all_payloads = [genesis]
    for i in range(12):
        tx = record_tx(vehicle_keys, state, rsu_keys, ts=i + 1)
        all_payloads.append(tx)
        block = append(block, tx)
        block, _ = prune_to_two(block, archive)
        assert validate_block(block)
    history = reconstruct_history(block, archive)
    assert [decode_transaction(e.payload) for e in history] == all_payloads


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
    ledger.create_block(pk, genesis.to_bytes())
    assert ledger.lookup(pk).header.owner_pk == pk
    assert ledger.lookup(keys_for("stranger").public) is None


def test_serialized_size_envelope_stable():
    assert Ledger().serialize() == Ledger().serialize()
    assert len(Ledger().serialize()) > 0


def test_serialized_size_grows_per_block(maker_keys):
    ledger = Ledger()
    sizes = [len(ledger.serialize())]
    for i in range(20):
        keys = keys_for(f"grow{i}")
        genesis = make_genesis(maker_keys, keys.public, state_of(4), ts=0)
        ledger.create_block(keys.public, genesis)
        sizes.append(len(ledger.serialize()))
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
    block = ledger.create_block(genesis.vehicle_pk, genesis.to_bytes())
    ledger.replace_block(dataclasses.replace(block, entries=()))
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
