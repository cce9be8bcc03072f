"""Wire format v3 end to end: golden vectors, the old formats refused,
and hostile bytes.

The golden vectors pin one object of each type by length and SHA-256; the
main ones are also rebuilt by hand from the v3 rules (a 1-byte variant
tag, ECU ids and ECU-list counts as u16, every other integer as 8 raw
big-endian bytes, digests, keys and signatures raw, a challenge record's
response embedded unprefixed, a u32 length prefix only on strings and
nested entry and block bytes). Bytes in the v1 layout (a length prefix on
every field) and the v2 layout (every integer 8 bytes) are only ever
written here, and nothing decodes them. Every decoder and the file archive
raise only ``WireError`` or ``ArchiveError`` on hostile bytes, and decoding
is canonical: hostile bytes that decode re-encode to themselves. An entry
that keeps hostile payload bytes fails ``validate_block``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import operator
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, state_of
from ecuchain.crypto import ZERO_DIGEST
from ecuchain.ecu import EcuRecord
from ecuchain.ledger import (
    ARCHIVE_MAGIC,
    LEDGER_MAGIC,
    AppendableBlock,
    ArchiveError,
    BlockHeader,
    FileArchive,
    Ledger,
    LedgerEntry,
    append_entry,
    decode_block,
    deserialize_ledger,
    entry_link,
    read_entry,
    validate_block,
)
from ecuchain.protocol import (
    ReportEvent,
    RoadsideTier,
    build_response,
    external_address,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    report_malicious,
)
from ecuchain.transactions import (
    MAX_ECUS,
    TAG_GENESIS,
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    Signable,
    UpdateTx,
    Verdict,
    decode_challenge_response,
    decode_transaction,
    signed,
)
from ecuchain.wire import U64_MAX, Reader, WireError
from test_protocol import make_update


def u8(n: int) -> bytes:
    return n.to_bytes(1, "big")


def u16(n: int) -> bytes:
    return n.to_bytes(2, "big")


def u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def packed_records(records) -> bytes:
    return b"".join(u16(r.ecu_id) + r.firmware_digest + u64(r.last_write_ts) for r in records)


# -- golden vectors --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _golden():
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    insurer = keys_for("insurer")
    state = state_of(8)
    genesis = make_genesis(maker, vehicle.public, state, ts=0)
    challenge = Challenge(
        rsu_pk=rsu.public, vehicle_pk=vehicle.public, subset_indices=(1, 4, 6), issued_ts=5
    )
    response = build_response(vehicle, state, challenge, ts=5)
    record = signed(ChallengeRecordTx(response=response, rsu_pk=rsu.public, sig=b""), rsu)
    _, update = make_update(maker, vehicle.public, state, 3, b"fw-v2", ts=9)
    request = signed(
        RequestTx(insurer_pk=insurer.public, query="vehicle ü, 0–9", ts=7, sig=b""), insurer
    )
    report = report_malicious(rsu, vehicle.public, Verdict.STATE_MISMATCH, ts=5)
    ledger = Ledger()
    block = ledger.create_block(vehicle.public, genesis, 0, external_address(vehicle.public))
    return {
        "genesis": genesis,
        "response": response,
        "record": record,
        "update": update,
        "request": request,
        "report": report,
        "header": block.header,
        "entry": block.entries[0],
        "ledger": ledger,
    }


GOLDEN = {
    "response": (264, "7911bcbed6939943ca04c30335b8c60848b847062c7baa19ecb4314ac1f113b3"),
    "record": (361, "d386516807df43e28a0b3c6a5492ebfda16ef2dca40d0023149d38c71f608d6b"),
    "update": (203, "51f367aa6b6ec06fe48fe7d507a0e28a607d7ee31f53ae478d0fcd3d57e14a89"),
    "genesis": (507, "b9d08e5bd710054c290c9350e8c37907e24db403189ce974a336a6689107c833"),
    "request": (126, "023ccde130da1f7611b3f673485027fb7e67716b82520eaee90455018e6667fe"),
    "report": (153, "93c0fc2d7da6b6e5a02cefd56eb89998606cdc82211e27f87601422f9b8a14a1"),
    "entry": (507 + 44, "9925de59795ff450110075df446ba4b091a30315879b5768e184a73f6936dd71"),
    "header": (97, "9fa721f32f319a71bc8ca3789261f37b36ff3a59537d7458ea82399f79e5cf61"),
    "ledger": (677, "55ab1fb23e48b09da4bd993b50745bbdd7ad65d122e02fcf266db00a15a9fcb3"),
}


def _wire(obj) -> bytes:
    if isinstance(obj, Ledger):
        return obj.serialize()
    if isinstance(obj, ReportEvent):
        # Spelled out rather than ``to_bytes()``: this pins what is signed and sent.
        return obj.signing_bytes() + obj.sig
    return obj.to_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vector(name):
    data = _wire(_golden()[name])
    length, digest = GOLDEN[name]
    assert (len(data), sha(data)) == (length, digest)


def test_response_and_record_layout_by_hand():
    g = _golden()
    response, record = g["response"], g["record"]
    expected = response.state_root + u16(3) + packed_records(response.subset)
    expected += u64(5) + response.vehicle_pk
    assert response.signing_bytes() == expected
    assert response.to_bytes() == expected + response.sig
    assert record.to_bytes() == u8(3) + response.to_bytes() + record.rsu_pk + record.sig


def test_genesis_and_update_layout_by_hand():
    g = _golden()
    genesis, update = g["genesis"], g["update"]
    assert genesis.to_bytes() == (
        u8(TAG_GENESIS) + genesis.state_root + u64(0) + u16(8)
        + packed_records(genesis.ecu_list)
        + genesis.vehicle_pk + genesis.maker_pk + genesis.sig
    )
    assert update.to_bytes() == (
        u8(1) + update.new_root + u64(9) + update.vehicle_pk + update.maintainer_pk
        + u16(3) + update.firmware_digest + update.sig
    )


def test_header_entry_and_envelope_layout_by_hand():
    g = _golden()
    header, entry, ledger = g["header"], g["entry"], g["ledger"]
    address = external_address(header.owner_pk).encode()
    assert header.to_bytes() == header.owner_pk + ZERO_DIGEST + u64(0) + prefixed(address)
    assert entry.to_bytes() == prefixed(g["genesis"].to_bytes()) + entry.prev_link + u64(0)
    block = header.to_bytes() + u64(1) + entry.to_bytes()
    assert ledger.serialize() == prefixed(b"ECUL4") + u64(1) + prefixed(block)


# -- older layouts are not read -----------------------------------------------------------


def _v1_genesis_entry(entry: LedgerEntry) -> bytes:
    """``entry`` (a genesis payload) in wire format v1: every field carries
    a 4-byte length prefix, integers as ``00000008`` plus 8 bytes.
    """

    def v1_u64(n: int) -> bytes:
        return prefixed(u64(n))

    tx = entry.transaction()
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


def _v2_genesis_entry(entry: LedgerEntry) -> bytes:
    """``entry`` (a genesis payload) in wire format v2: every integer 8
    bytes, each ECU record a packed ``>Q32sQ``, signed again by the maker
    over its v2 signing bytes.
    """
    tx = entry.transaction()
    ecus = b"".join(u64(r.ecu_id) + r.firmware_digest + u64(r.last_write_ts) for r in tx.ecu_list)
    signing = b"".join(
        (
            u64(TAG_GENESIS),
            tx.state_root,
            u64(tx.ts),
            u64(len(tx.ecu_list)),
            ecus,
            tx.vehicle_pk,
            tx.maker_pk,
        )
    )
    payload = signing + keys_for("maker").sign(signing)
    return prefixed(payload) + entry.prev_link + u64(entry.seq)


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
    # Wire format v2 wrote this genesis-only ledger under the magic ECUL3 (the
    # bytes its golden vector pinned) and, with the same body, under ECUL2.
    v2_block = header.to_bytes() + u64(1) + _v2_genesis_entry(g["entry"])
    ecul2_blob, ecul3_blob = (
        prefixed(magic) + u64(1) + prefixed(v2_block) for magic in (b"ECUL2", b"ECUL3")
    )
    assert sha(ecul2_blob) == "c347b2ccc619a111beee75337af6633469930d1f126735492c745b1b664f08e0"
    assert (len(ecul3_blob), sha(ecul3_blob)) == (
        738,
        "ff08ccb0452e076d7adb32d826433b0e5db47060a2873d35aaada34062071aac",
    )
    assert LEDGER_MAGIC == b"ECUL4"
    for blob in (v1_blob, ecul2_blob, ecul3_blob):
        with pytest.raises(WireError):
            deserialize_ledger(blob)
    for block in (v1_block, v2_block):
        with pytest.raises(WireError):
            decode_block(block)


def test_v1_archive_file_raises_archive_error(tmp_path):
    """Files in the three unmarked archive layouts (a u64 sequence number,
    then the whole entry in wire format v1, v2 or v3) raise; a file starts
    with ``ARCHIVE_MAGIC`` and keeps each record as its sequence number and
    payload.
    """
    entry = _golden()["entry"]
    archive = FileArchive(tmp_path)
    old_layouts = {
        "ar://v1": _v1_genesis_entry(entry),
        "ar://v2": _v2_genesis_entry(entry),
        "ar://v3": entry.to_bytes(),
    }
    for address, entry_bytes in old_layouts.items():
        archive._path(address).write_bytes(u64(0) + entry_bytes)
        with pytest.raises(ArchiveError, match="no ECUA4 marker"):
            archive.read(address)
    archive.append_many("ar://v4", [(0, entry.payload)])
    assert archive._path("ar://v4").read_bytes() == ARCHIVE_MAGIC + u64(0) + entry.payload
    assert archive.read("ar://v4") == [(0, entry.payload)]


# -- round trips -------------------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
sigs = st.binary(min_size=64, max_size=64)
u64s = st.integers(0, U64_MAX)
ecu_ids = st.integers(0, MAX_ECUS)
ecu_records = st.builds(EcuRecord, ecu_id=ecu_ids, firmware_digest=digests, last_write_ts=u64s)
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
        ecu_id=ecu_ids,
        firmware_digest=digests,
        sig=sigs,
    ),
    st.builds(RequestTx, insurer_pk=digests, query=st.text(max_size=40), ts=u64s, sig=sigs),
    st.builds(ChallengeRecordTx, response=responses, rsu_pk=digests, sig=sigs),
)
entries = st.builds(
    LedgerEntry, payload=transactions.map(lambda tx: tx.to_bytes()), prev_link=digests, seq=u64s
)
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
reports = st.builds(
    ReportEvent,
    rsu_pk=digests,
    vehicle_pk=digests,
    verdict=st.sampled_from(Verdict),
    ts=u64s,
    sig=sigs,
)


def decode_report(data: bytes) -> ReportEvent:
    r = Reader(data)
    report = ReportEvent.read(r)
    r.finish()
    return report


@settings(max_examples=150, deadline=None)
@given(st.one_of(transactions, reports))
def test_transaction_round_trip(tx):
    decode = decode_report if isinstance(tx, ReportEvent) else decode_transaction
    assert decode(tx.to_bytes()) == tx


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
    restored = deserialize_ledger(ledger.serialize())
    assert restored.blocks == ledger.blocks
    assert restored.creation_order == ledger.creation_order
    assert restored.serialize() == ledger.serialize()


# -- hostile bytes -----------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _three_entry_block() -> AppendableBlock:
    """The golden genesis block with the golden update and challenge record
    appended.
    """
    g = _golden()
    block = g["ledger"].blocks[g["header"].owner_pk]
    return append_entry(append_entry(block, g["update"]), g["record"])


@functools.lru_cache(maxsize=None)
def _valid_inputs():
    """Target name -> (decoder, encoder, valid inputs): every transaction
    type, and a block and a ledger holding a genesis, an update and a
    challenge record.
    """
    g = _golden()
    pk = g["header"].owner_pk
    block = _three_entry_block()
    ledger = Ledger()
    ledger.blocks[pk] = block
    request = signed(
        RequestTx(insurer_pk=pk, query="vehicle ü, 0–9", ts=7, sig=b""), keys_for("insurer")
    )
    to_bytes = operator.methodcaller("to_bytes")
    return {
        "transaction": (
            decode_transaction,
            to_bytes,
            [tx.to_bytes() for tx in (g["genesis"], g["record"], g["update"], request)],
        ),
        "response": (decode_challenge_response, to_bytes, [g["response"].to_bytes()]),
        "block": (decode_block, to_bytes, [block.to_bytes()]),
        "ledger": (deserialize_ledger, Ledger.serialize, [ledger.serialize()]),
        "report": (decode_report, to_bytes, [g["report"].to_bytes()]),
    }


@st.composite
def hostile(draw, valid: list[bytes]):
    """A truncation or single-byte flip (one byte XORed with a nonzero mask)
    of a valid input, or random bytes.
    """
    how = draw(st.sampled_from(["truncate", "flip", "random"]))
    if how == "random":
        return draw(st.binary(max_size=700))
    data = draw(st.sampled_from(valid))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    flipped = bytearray(data)
    flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@pytest.mark.parametrize("target", ["transaction", "response", "block", "ledger", "report"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_decoders_raise_only_wire_error(target, data):
    """Decoding is canonical: hostile bytes raise ``WireError`` and nothing
    else, or decode to an object that re-encodes to exactly those bytes.
    """
    decode, encode, valid = _valid_inputs()[target]
    blob = data.draw(hostile(valid))
    try:
        decoded = decode(blob)
    except WireError:
        return
    assert encode(decoded) == blob


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_block_rejects_hostile_kept_bytes(data):
    """An entry that keeps hostile payload bytes (a truncation or
    single-byte flip of a valid payload of any transaction type, or random
    bytes), with every later link recomputed over them, fails
    ``validate_block``, which returns False and never raises.
    """
    block = _three_entry_block()
    _, _, valid = _valid_inputs()["transaction"]
    i = data.draw(st.integers(0, len(block.entries) - 1), label="entry")
    entries = list(block.entries)
    entries[i] = dataclasses.replace(entries[i], payload=data.draw(hostile(valid)))
    for j in range(i + 1, len(entries)):
        entries[j] = dataclasses.replace(entries[j], prev_link=entry_link(entries[j - 1]))
    assert validate_block(block)
    assert validate_block(dataclasses.replace(block, entries=tuple(entries))) is False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_file_archive_read_raises_only_archive_error(data):
    entry = _golden()["entry"]
    valid = ARCHIVE_MAGIC + (u64(0) + entry.payload) * 2
    blob = data.draw(hostile([valid]))
    with tempfile.TemporaryDirectory() as root:
        archive = FileArchive(root)
        archive._path("ar://fuzz").write_bytes(blob)
        try:
            records = archive.read("ar://fuzz")
        except ArchiveError:
            return
    for seq, payload in records:
        decode_transaction(payload)


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


# -- one layout table per signed type ------------------------------------------------------

SIGNED_TYPES = (GenesisTx, UpdateTx, RequestTx, ChallengeResponse, ChallengeRecordTx, ReportEvent)


@pytest.mark.parametrize("cls", SIGNED_TYPES, ids=lambda cls: cls.__name__)
def test_wire_table_lists_the_fields_in_declaration_order(cls):
    """The wire format encodes fields in declaration order: a signed type's
    ``WIRE`` table names its dataclass fields, ``sig`` (last) left out.
    """
    assert issubclass(cls, Signable)
    assert [*cls.WIRE, "sig"] == [f.name for f in dataclasses.fields(cls)]


def test_transaction_tags_are_distinct():
    tags = [cls.TAG for cls in (GenesisTx, UpdateTx, RequestTx, ChallengeRecordTx)]
    assert None not in tags and len(set(tags)) == len(tags)


def test_unknown_verdict_name_raises_wire_error():
    report = _golden()["report"]
    data = report.to_bytes().replace(b"StateMismatch", b"StateMismatcX")
    with pytest.raises(WireError, match="unknown verdict"):
        decode_report(data)


# -- the ECU limit -----------------------------------------------------------------------------


def _records(ids) -> tuple[EcuRecord, ...]:
    return tuple(EcuRecord(ecu_id=i, firmware_digest=bytes(32), last_write_ts=7) for i in ids)


def _update(ecu_id: int) -> UpdateTx:
    return UpdateTx(
        new_root=bytes(32),
        ts=1,
        vehicle_pk=bytes(32),
        maintainer_pk=bytes(32),
        ecu_id=ecu_id,
        firmware_digest=bytes(32),
        sig=bytes(64),
    )


def _response(subset) -> ChallengeResponse:
    return ChallengeResponse(
        state_root=bytes(32), subset=subset, ts=1, vehicle_pk=bytes(32), sig=bytes(64)
    )


def test_ecu_id_at_the_limit_round_trips():
    update, response = _update(MAX_ECUS), _response(_records([MAX_ECUS]))
    assert MAX_ECUS == 0xFFFF
    assert decode_transaction(update.to_bytes()) == update
    assert decode_challenge_response(response.to_bytes()) == response
    assert response.to_bytes()[32:36] == u16(1) + u16(MAX_ECUS)


def test_ecu_id_or_list_past_the_limit_raises_wire_error():
    too_many = _records([0] * (MAX_ECUS + 1))
    assert len(_response(too_many[:-1]).to_bytes()) == response_size(MAX_ECUS)
    for obj in (
        _update(MAX_ECUS + 1),
        _response(_records([MAX_ECUS + 1])),
        _response(too_many),
        ChallengeRecordTx(response=_response(too_many), rsu_pk=bytes(32), sig=bytes(64)),
    ):
        with pytest.raises(WireError):
            obj.signing_bytes()


# -- sizes in closed form ----------------------------------------------------------------------

# Wire format v3 field widths, in bytes.
TAG, ECU_ID, ECU_COUNT, U64_WIDTH, DIGEST, KEY, SIG, PREFIX = 1, 2, 2, 8, 32, 32, 64, 4
ECU = ECU_ID + DIGEST + U64_WIDTH  # id, firmware digest, last-write time
UPDATE_SIZE = TAG + DIGEST + U64_WIDTH + KEY + KEY + ECU_ID + DIGEST + SIG
# Owner key, previous header hash, creation time, and "ar://" plus 16 hex digits.
HEADER_SIZE = KEY + DIGEST + U64_WIDTH + PREFIX + 21
ENTRY_FRAMING = PREFIX + DIGEST + U64_WIDTH  # payload length, prev_link, seq


def response_size(k: int) -> int:
    return DIGEST + ECU_COUNT + k * ECU + U64_WIDTH + KEY + SIG


def record_size(k: int) -> int:
    return TAG + response_size(k) + KEY + SIG


def genesis_size(n: int) -> int:
    return TAG + DIGEST + U64_WIDTH + ECU_COUNT + n * ECU + KEY + KEY + SIG


@pytest.mark.parametrize("n", [1, 8, 30, MAX_ECUS])
def test_sizes_follow_the_closed_form(n):
    records = _records(range(n))
    genesis = GenesisTx(
        state_root=bytes(32),
        ts=0,
        ecu_list=records,
        vehicle_pk=bytes(32),
        maker_pk=bytes(32),
        sig=bytes(64),
    )
    assert len(genesis.to_bytes()) == genesis_size(n)
    for k in range(1, min(3, n) + 1):
        response = _response(records[n - k :])
        record = ChallengeRecordTx(response=response, rsu_pk=bytes(32), sig=bytes(64))
        assert len(response.to_bytes()) == response_size(k)
        assert len(record.to_bytes()) == record_size(k)
    assert len(_update(n).to_bytes()) == UPDATE_SIZE
    assert (genesis_size(8), response_size(3), record_size(3), UPDATE_SIZE) == (507, 264, 361, 203)
    assert ENTRY_FRAMING == 44


def archive_size(n: int, encounters: int) -> int:
    """A vehicle's archive after ``encounters`` >= 2 encounters and no
    maintenance: the genesis and all but the last two records, each behind
    its u64 sequence number.
    """
    k = min(3, n)
    return (U64_WIDTH + genesis_size(n)) + (encounters - 2) * (U64_WIDTH + record_size(k))


def _encounters(n: int, count: int):
    """A registered n-ECU vehicle, then ``count`` Valid encounters: yields
    the roadside tier after the registration and after each encounter.
    """
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    authority = new_authority_tier(
        validators=(keys_for("transport"),),
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    roadside = RoadsideTier()
    state = state_of(n)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0), 0)
    yield roadside
    for ts in range(1, count + 1):
        challenge = issue_challenge(rsu.public, vehicle.public, n, random.Random(ts), ts)
        response = build_response(vehicle, state, challenge, ts)
        assert record_response(rsu, roadside, challenge, response) is Verdict.VALID
        yield roadside


@pytest.mark.parametrize("n", [1, 8, 30])
def test_retained_block_follows_the_closed_form(n):
    """After two or more encounters a vehicle's block holds its header and
    two challenge records: 919 B in the ledger for an 8-ECU vehicle.
    """
    steps = _encounters(n, 5)
    envelope = Ledger().serialized_size()
    assert next(steps).ledger.serialized_size() - envelope == (
        PREFIX + HEADER_SIZE + U64_WIDTH + ENTRY_FRAMING + genesis_size(n)
    )
    retained = PREFIX + HEADER_SIZE + U64_WIDTH + 2 * (ENTRY_FRAMING + record_size(min(3, n)))
    for encounters, roadside in enumerate(steps, start=1):
        if encounters >= 2:
            assert roadside.ledger.serialized_size() - envelope == retained
    assert n != 8 or retained == 919


@pytest.mark.parametrize("n", [1, 8, 30])
def test_archive_follows_the_closed_form(n):
    """After E >= 2 encounters a vehicle's archive takes
    (8 + 171 + 42n) + (E - 2)(8 + 235 + 42k) bytes, k = min(3, n): 1622 B
    after 5 encounters for an 8-ECU vehicle, 324.4 B per encounter.
    """
    address = external_address(keys_for("vehicle").public)
    for encounters, roadside in enumerate(_encounters(n, 5)):
        archived = roadside.archive.read(address)
        assert len(archived) == max(0, encounters - 1)
        if encounters >= 2:
            size = sum(U64_WIDTH + len(payload) for _, payload in archived)
            assert size == archive_size(n, encounters)
    assert archive_size(n, 5) == (8 + 171 + 42 * n) + 3 * (8 + 235 + 42 * min(3, n))
    assert n != 8 or (archive_size(8, 5), archive_size(8, 5) / 5) == (1622, 324.4)
