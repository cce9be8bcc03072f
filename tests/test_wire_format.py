"""Wire format v2 end to end: golden vectors, the old format refused, and
hostile bytes.

The golden vectors pin one object of each type by length and SHA-256; the
main ones are also rebuilt by hand from the v2 rules (integers as 8 raw
big-endian bytes, digests, keys and signatures raw, a u32 length prefix
only on strings and nested wire bytes). Bytes in the v1 layout (a length
prefix on every field) are only ever written here, and nothing decodes
them. Every decoder and the file archive raise only ``WireError`` or
``ArchiveError`` on hostile bytes, and decoding is canonical: hostile bytes
that decode re-encode to themselves.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, state_of
from ecuchain.crypto import ZERO_DIGEST
from ecuchain.ecu import EcuRecord
from ecuchain.ledger import (
    LEDGER_MAGIC,
    AppendableBlock,
    ArchiveError,
    BlockHeader,
    FileArchive,
    Ledger,
    LedgerEntry,
    decode_block,
    deserialize_ledger,
    read_entry,
)
from ecuchain.protocol import build_response, external_address, make_genesis
from ecuchain.transactions import (
    TAG_GENESIS,
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    UpdateTx,
    decode_challenge_response,
    decode_transaction,
    signed,
)
from ecuchain.wire import U64_MAX, Reader, WireError
from test_protocol import make_update


def u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def packed_records(records) -> bytes:
    return b"".join(u64(r.ecu_id) + r.firmware_digest + u64(r.last_write_ts) for r in records)


# -- golden vectors --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _golden():
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    state = state_of(8)
    genesis = make_genesis(maker, vehicle.public, state, ts=0)
    challenge = Challenge(
        rsu_pk=rsu.public, vehicle_pk=vehicle.public, subset_indices=(1, 4, 6), issued_ts=5
    )
    response = build_response(vehicle, state, challenge, ts=5)
    record = signed(ChallengeRecordTx(response=response, rsu_pk=rsu.public, sig=b""), rsu)
    _, update = make_update(maker, vehicle.public, state, 3, b"fw-v2", ts=9)
    ledger = Ledger()
    block = ledger.create_block(vehicle.public, genesis, 0, external_address(vehicle.public))
    return {
        "genesis": genesis,
        "response": response,
        "record": record,
        "update": update,
        "header": block.header,
        "entry": block.entries[0],
        "ledger": ledger,
    }


GOLDEN = {
    "response": (288, "ff017ced67eee0c03a73c02a99081d35d9920271eca168c76bff29012b25fc82"),
    "record": (396, "925956ce2cd774c9ca8320c5d5166ede0478807241352b6968f31f06d3394ee0"),
    "update": (216, "907d339851e067f6c0d386bc8d16df7e682115c5287c268487800519e22102d6"),
    "genesis": (568, "acdc34c9bb53278aed6588f696323ce8a8ec68633fadda2f68fbba1a6392ef6c"),
    "entry": (568 + 44, "0b3d7b6c433ea74ed317c15b5264b5f0af83433738051eb6714c2771ab2f6884"),
    "header": (97, "9fa721f32f319a71bc8ca3789261f37b36ff3a59537d7458ea82399f79e5cf61"),
    "ledger": (738, "ff08ccb0452e076d7adb32d826433b0e5db47060a2873d35aaada34062071aac"),
}


def _wire(obj) -> bytes:
    return obj.serialize() if isinstance(obj, Ledger) else obj.to_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vector(name):
    data = _wire(_golden()[name])
    length, digest = GOLDEN[name]
    assert (len(data), sha(data)) == (length, digest)


def test_response_and_record_layout_by_hand():
    g = _golden()
    response, record = g["response"], g["record"]
    expected = response.state_root + u64(3) + packed_records(response.subset)
    expected += u64(5) + response.vehicle_pk
    assert response.signing_bytes() == expected
    assert response.to_bytes() == expected + response.sig
    assert record.to_bytes() == (
        u64(3) + prefixed(response.to_bytes()) + record.rsu_pk + record.sig
    )


def test_genesis_and_update_layout_by_hand():
    g = _golden()
    genesis, update = g["genesis"], g["update"]
    assert genesis.to_bytes() == (
        u64(TAG_GENESIS) + genesis.state_root + u64(0) + u64(8)
        + packed_records(genesis.ecu_list)
        + genesis.vehicle_pk + genesis.maker_pk + genesis.sig
    )
    assert update.to_bytes() == (
        u64(1) + update.new_root + u64(9) + update.vehicle_pk + update.maintainer_pk
        + u64(3) + update.firmware_digest + update.sig
    )


def test_header_entry_and_envelope_layout_by_hand():
    g = _golden()
    header, entry, ledger = g["header"], g["entry"], g["ledger"]
    address = external_address(header.owner_pk).encode()
    assert header.to_bytes() == header.owner_pk + ZERO_DIGEST + u64(0) + prefixed(address)
    assert entry.to_bytes() == prefixed(g["genesis"].to_bytes()) + entry.prev_link + u64(0)
    block = header.to_bytes() + u64(1) + entry.to_bytes()
    assert ledger.serialize() == prefixed(b"ECUL3") + u64(1) + prefixed(block)


# -- the v1 layout is not read -------------------------------------------------------------


def _v1_genesis_entry(entry: LedgerEntry) -> bytes:
    """``entry`` (a genesis payload) in wire format v1: every field carries
    a 4-byte length prefix, integers as ``00000008`` plus 8 bytes.
    """

    def v1_u64(n: int) -> bytes:
        return prefixed(u64(n))

    tx = entry.payload
    ecus = b"".join(
        v1_u64(r.ecu_id) + prefixed(r.firmware_digest) + v1_u64(r.last_write_ts)
        for r in tx.ecu_list
    )
    payload = b"".join(
        (
            v1_u64(TAG_GENESIS),
            prefixed(tx.state_root),
            v1_u64(tx.ts),
            v1_u64(len(tx.ecu_list)),
            ecus,
            prefixed(tx.vehicle_pk),
            prefixed(tx.maker_pk),
            prefixed(tx.sig),
        )
    )
    # v1 framed an entry with its payload's timestamp.
    return prefixed(payload) + prefixed(entry.prev_link) + v1_u64(tx.ts)


def test_v1_ledger_blob_raises_wire_error():
    g = _golden()
    header = g["header"]
    v1_header = b"".join(
        (
            prefixed(header.owner_pk),
            prefixed(header.prev_header_hash),
            prefixed(u64(header.created_ts)),
            prefixed(header.external_address.encode()),
        )
    )
    v1_block = v1_header + prefixed(u64(1)) + _v1_genesis_entry(g["entry"])
    v1_blob = prefixed(b"ECUL1") + prefixed(u64(1)) + prefixed(v1_block)
    # A v2 ledger of this genesis-only block differs from v3 only in its magic.
    v2_blob = prefixed(b"ECUL2") + g["ledger"].serialize()[len(prefixed(LEDGER_MAGIC)):]
    assert sha(v2_blob) == "c347b2ccc619a111beee75337af6633469930d1f126735492c745b1b664f08e0"
    assert LEDGER_MAGIC == b"ECUL3"
    for blob in (v1_blob, v2_blob):
        with pytest.raises(WireError):
            deserialize_ledger(blob)
    with pytest.raises(WireError):
        decode_block(v1_block)


def test_v1_archive_file_raises_archive_error(tmp_path):
    entry = _golden()["entry"]
    archive = FileArchive(tmp_path)
    archive.append_many("ar://v1", [(0, _v1_genesis_entry(entry))])
    with pytest.raises(ArchiveError):
        archive.read("ar://v1")
    archive.append_many("ar://v2", [(0, entry.to_bytes())])
    assert archive.read("ar://v2") == [(0, entry.to_bytes())]


# -- round trips -------------------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
sigs = st.binary(min_size=64, max_size=64)
u64s = st.integers(0, U64_MAX)
ecu_records = st.builds(EcuRecord, ecu_id=u64s, firmware_digest=digests, last_write_ts=u64s)
ecu_lists = st.lists(ecu_records, max_size=6).map(tuple)

responses = st.builds(
    ChallengeResponse, state_root=digests, subset=ecu_lists, ts=u64s, vehicle_pk=digests, sig=sigs
)
transactions = st.one_of(
    st.builds(
        GenesisTx,
        state_root=digests,
        ts=u64s,
        ecu_list=ecu_lists,
        vehicle_pk=digests,
        maker_pk=digests,
        sig=sigs,
    ),
    st.builds(
        UpdateTx,
        new_root=digests,
        ts=u64s,
        vehicle_pk=digests,
        maintainer_pk=digests,
        ecu_id=u64s,
        firmware_digest=digests,
        sig=sigs,
    ),
    st.builds(RequestTx, insurer_pk=digests, query=st.text(max_size=40), ts=u64s, sig=sigs),
    st.builds(ChallengeRecordTx, response=responses, rsu_pk=digests, sig=sigs),
)
entries = st.builds(LedgerEntry, payload=transactions, prev_link=digests, seq=u64s)
headers = st.builds(
    BlockHeader,
    owner_pk=digests,
    prev_header_hash=digests,
    created_ts=u64s,
    external_address=st.text(max_size=30),
)
blocks = st.builds(
    AppendableBlock, header=headers, entries=st.lists(entries, max_size=3).map(tuple)
)


@settings(max_examples=150, deadline=None)
@given(transactions)
def test_transaction_round_trip(tx):
    assert decode_transaction(tx.to_bytes()) == tx


@settings(max_examples=100, deadline=None)
@given(responses)
def test_response_round_trip(response):
    assert decode_challenge_response(response.to_bytes()) == response


@settings(max_examples=100, deadline=None)
@given(entries)
def test_entry_round_trip(entry):
    r = Reader(entry.to_bytes())
    assert read_entry(r) == entry
    r.finish()


@settings(max_examples=60, deadline=None)
@given(st.lists(blocks, max_size=3, unique_by=lambda b: b.header.owner_pk))
def test_block_and_ledger_round_trip(block_list):
    ledger = Ledger()
    for block in block_list:
        assert decode_block(block.to_bytes()) == block
        ledger.blocks[block.header.owner_pk] = block
        ledger.creation_order.append(block.header.owner_pk)
    restored = deserialize_ledger(ledger.serialize())
    assert restored.blocks == ledger.blocks
    assert restored.creation_order == ledger.creation_order
    assert restored.serialize() == ledger.serialize()


# -- hostile bytes -----------------------------------------------------------------------------


def _valid_inputs():
    """Target name -> (decoder, encoder, valid inputs)."""
    g = _golden()
    block = g["ledger"].blocks[g["header"].owner_pk]
    to_bytes = operator.methodcaller("to_bytes")
    return {
        "transaction": (
            decode_transaction,
            to_bytes,
            [g[name].to_bytes() for name in ("genesis", "record", "update")],
        ),
        "response": (decode_challenge_response, to_bytes, [g["response"].to_bytes()]),
        "block": (decode_block, to_bytes, [block.to_bytes()]),
        "ledger": (deserialize_ledger, Ledger.serialize, [g["ledger"].serialize()]),
    }


@st.composite
def hostile(draw, valid: list[bytes]):
    """A truncation or single-bit flip of a valid input, or random bytes."""
    how = draw(st.sampled_from(["truncate", "flip", "random"]))
    if how == "random":
        return draw(st.binary(max_size=700))
    data = draw(st.sampled_from(valid))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    bit = draw(st.integers(0, 8 * len(data) - 1))
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@pytest.mark.parametrize("target", ["transaction", "response", "block", "ledger"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decoders_raise_only_wire_error(target, data):
    decode, encode, valid = _valid_inputs()[target]
    blob = data.draw(hostile(valid))
    try:
        decoded = decode(blob)
    except WireError:
        return
    assert encode(decoded) == blob


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_file_archive_read_raises_only_archive_error(data):
    entry = _golden()["entry"]
    valid = (u64(0) + entry.to_bytes()) * 2
    blob = data.draw(hostile([valid]))
    with tempfile.TemporaryDirectory() as root:
        archive = FileArchive(root)
        archive._path("ar://fuzz").write_bytes(blob)
        try:
            records = archive.read("ar://fuzz")
        except ArchiveError:
            return
    for seq, record in records:
        r = Reader(record)
        read_entry(r)
        r.finish()


def test_every_single_bit_flip_of_a_record_fails_or_changes_it():
    """Each bit flip of a challenge record either raises ``WireError`` or
    decodes to a different transaction.
    """
    record = _golden()["record"]
    data = record.to_bytes()
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            tx = decode_transaction(bytes(flipped))
        except WireError:
            continue
        assert tx != record
