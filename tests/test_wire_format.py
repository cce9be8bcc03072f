"""Wire format v3 end to end: golden vectors, the old formats refused,
and hostile bytes.

The golden vectors pin one object of each type by length and SHA-256; the
main ones are also rebuilt by hand from the v3 rules (a 1-byte variant
tag or audit action, ECU ids and ECU-list counts as u16, every other
integer as 8 raw big-endian bytes, digests, keys and signatures raw, a
challenge record's ECU ids, ts and vehicle signature in place of its
response, a u32 length prefix only on strings and on blocks in the
ledger envelope) and the block layout (each entry as its ``(seq,
payload)`` record, and a CRC32 at the end). Bytes in the v1 layout
(a length prefix on every field), the v2 layout (every integer 8 bytes),
the ``ECUL4`` block layout (a linked, length-prefixed entry), the
``ECUL5`` layout (a stored archive address and entry and block counts),
the ``ECUL6`` layout (a previous header hash in each header), the
``ECUL7`` layout (a genesis with a state root and an id per ECU), the
``ECUL8`` layout (a response that names its vehicle), the ``ECUL9``
layout (a creation time in each header, and a genesis signed without
its owner key) and the ``ECULA`` layout (a challenge record that embeds
its response) are only ever written here, and nothing decodes them. Every decoder and
the file archive raise only ``WireError`` or ``ArchiveError`` on hostile
bytes, also behind a re-sealed checksum, and decoding is canonical:
hostile bytes that decode re-encode to themselves. An entry that keeps
hostile payload bytes fails ``validate_block``, and so does a block whose
bytes were edited and re-sealed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import operator
import random
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_for, record_of, state_of, validate_block_bytes
from ecuchain import crypto
from ecuchain.crypto import ZERO_DIGEST
from ecuchain.ecu import EcuRecord, EcuState, compute_state_root
from ecuchain.ledger import (
    ARCHIVE_CHUNK,
    ARCHIVE_MAGIC,
    LEDGER_MAGIC,
    AppendableBlock,
    ArchiveError,
    BlockHeader,
    FileArchive,
    Ledger,
    LedgerEntry,
    append_entry,
    block_tip,
    decode_block,
    deserialize_ledger,
    external_address,
    head_root,
    read_record,
    validate_block,
)
from ecuchain.protocol import (
    ProtocolError,
    ReportEvent,
    RoadsideTier,
    build_response,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    register_rsu,
    report_malicious,
)
from ecuchain.transactions import (
    MAX_ECUS,
    RAW32,
    TAG_GENESIS,
    TAG_LEDGER_HEAD,
    TAG_UPDATE,
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    LedgerHead,
    RequestTx,
    Signable,
    UpdateTx,
    Verdict,
    decode,
    decode_transaction,
    signed_by,
    signed_wire,
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


def sealed(body: bytes) -> bytes:
    """``body`` followed by its CRC32, as a block ends."""
    return body + zlib.crc32(body).to_bytes(4, "big")


def packed_records(records) -> bytes:
    return b"".join(u16(r.ecu_id) + r.firmware_digest + u64(r.last_write_ts) for r in records)


def packed_inventory(records) -> bytes:
    return b"".join(r.firmware_digest + u64(r.last_write_ts) for r in records)


# -- golden vectors --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _golden():
    maker, vehicle, rsu = keys_for("maker"), keys_for("vehicle"), keys_for("rsu")
    insurer = keys_for("insurer")
    state = state_of(8)
    genesis_wire = make_genesis(maker, vehicle.public, state, ts=0)
    genesis = decode(GenesisTx, genesis_wire)
    challenge = Challenge(
        rsu_pk=rsu.public, vehicle_pk=vehicle.public, subset_indices=(1, 4, 6), issued_ts=5
    )
    response_wire = build_response(vehicle, state, challenge, ts=5)
    response = decode(ChallengeResponse, response_wire)
    record = decode_transaction(signed_wire(record_of(response, rsu.public), rsu, vehicle.public))
    update = decode(UpdateTx, make_update(maker, vehicle.public, state, 3, b"fw-v2", ts=9)[1])
    request = decode(
        RequestTx,
        signed_wire(
            RequestTx(insurer_pk=insurer.public, query="vehicle ü, 0–9", ts=7, sig=b""),
            insurer,
            keys_for("transport").public,
        ),
    )
    report = decode(
        ReportEvent, report_malicious(rsu, vehicle.public, Verdict.STATE_MISMATCH, ts=5)
    )
    ledger = Ledger()
    block = ledger.create_block(vehicle.public, genesis_wire)
    validator = keys_for("validator")
    head = decode(
        LedgerHead,
        signed_wire(
            LedgerHead(1, 0, head_root([block], [block_tip(block)]), validator.public, b""),
            validator,
        ),
    )
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
        "head": head,
    }


GOLDEN = {
    "response": (232, "5becf92057a0c1f4347b54432ae3e3e12a62030a2ee6e26761a79444bdbbe526"),
    "record": (177, "55198a88d9538a8688cc04655a86f4ba4b9ccc2a37215f3770e10016d70a7db7"),
    "update": (203, "14347709c44d68d79a6ce6dd57580efadf165b880e1427dd82fba7f889721c43"),
    "genesis": (459, "9810a2ca5b2c53a712b430176fa4efc1f57f84c6961708cadefb39a2f5dcc8f7"),
    "request": (126, "885ba6fd7daefc86a26b86a09791aef2b0b6a8f06c659ef59260ae7f24fbf9e1"),
    "report": (153, "93c0fc2d7da6b6e5a02cefd56eb89998606cdc82211e27f87601422f9b8a14a1"),
    "entry": (8 + 459, "8c07dc5f79abfae4ab4b5fb8a429dc46c6291616e09fe2af206ffeb1f58110ce"),
    "header": (32, "f4c41063100b8dace865a00269e6a65200157c4c369ab714f4acb7fe460bb39a"),
    "head": (145, "f1dd9fd43085046a367e2116ad1379990fc7afa6f6d5917d6ae0cee719ede554"),
    "ledger": (516, "a333f3a75ae7b2e6bc05168d13596cc35e5138bd2e001a9e77491f28ca6b6b22"),
}


def _wire(obj) -> bytes:
    if isinstance(obj, Ledger):
        return obj.serialize()
    if isinstance(obj, LedgerEntry):
        # An entry's bytes are its record, as a block and the archive keep it.
        return u64(obj.seq) + obj.payload
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
    """A response names no vehicle, and its vehicle signs its bytes; a
    record stores the response's ECU ids, ts and signature and the RSU
    key, and the RSU signs its tag, then the vehicle's key, then the rest.
    """
    g = _golden()
    response, record = g["response"], g["record"]
    vehicle = keys_for("vehicle").public
    expected = response.state_root + u16(3) + packed_records(response.subset) + u64(5)
    assert response.signing_bytes() == expected
    assert response.to_bytes() == expected + response.sig
    assert crypto.verify(vehicle, expected, response.sig)
    kept = u16(3) + u16(1) + u16(4) + u16(6) + u64(5) + response.sig
    assert record.to_bytes() == u8(3) + kept + record.rsu_pk + record.sig
    message = u8(3) + vehicle + kept + record.rsu_pk
    assert crypto.verify(record.rsu_pk, message, record.sig)


def test_ledger_head_layout_by_hand():
    g = _golden()
    head, header = g["head"], g["header"]
    leaf = hashlib.sha256(
        header.owner_pk
        + u64(0)
        + hashlib.sha256(g["entry"].payload).digest()
    ).digest()
    # One leaf: merkle_root hashes it behind its 0x00 prefix and index 0.
    assert head.merkle_root == hashlib.sha256(b"\x00" + u64(0) + leaf).digest()
    assert head.to_bytes() == (
        u8(TAG_LEDGER_HEAD) + u64(1) + u64(0) + head.merkle_root + head.validator_pk + head.sig
    )


def test_genesis_and_update_layout_by_hand():
    """A genesis and an update name their vehicle, and their signer signs
    the tag, then the vehicle's key, then the rest.
    """
    g = _golden()
    genesis, update = g["genesis"], g["update"]
    vehicle = keys_for("vehicle").public
    body = u64(0) + u16(8) + packed_inventory(genesis.ecu_list) + vehicle + genesis.maker_pk
    assert genesis.to_bytes() == u8(TAG_GENESIS) + body + genesis.sig
    assert crypto.verify(genesis.maker_pk, u8(TAG_GENESIS) + vehicle + body, genesis.sig)
    assert [r.ecu_id for r in genesis.ecu_list] == list(range(8))
    body = (
        update.new_root + u64(9) + vehicle + update.maintainer_pk
        + u16(3) + update.firmware_digest
    )
    assert update.to_bytes() == u8(TAG_UPDATE) + body + update.sig
    assert crypto.verify(update.maintainer_pk, u8(TAG_UPDATE) + vehicle + body, update.sig)


def test_header_entry_and_envelope_layout_by_hand():
    g = _golden()
    header, ledger = g["header"], g["ledger"]
    assert header.to_bytes() == header.owner_pk
    assert header.external_address == external_address(header.owner_pk)
    block = sealed(header.to_bytes() + u64(0) + g["genesis"].to_bytes())
    assert ledger.blocks[header.owner_pk].to_bytes() == block
    assert ledger.serialize() == prefixed(b"ECULB") + prefixed(block)


# -- older layouts are not read -----------------------------------------------------------


def _v3_root() -> bytes:
    """The state root that genesis layouts before ``ECUL8`` stored."""
    return compute_state_root(EcuState(records=_golden()["genesis"].ecu_list))


@functools.lru_cache(maxsize=None)
def _v3_genesis() -> bytes:
    """The golden genesis as wire format v3 wrote it before ``ECUL8``: the
    state root after the tag and each ECU behind its u16 id, signed by the
    maker over those bytes.
    """
    genesis = _golden()["genesis"]
    signing = b"".join(
        (
            u8(TAG_GENESIS),
            _v3_root(),
            u64(genesis.ts),
            u16(len(genesis.ecu_list)),
            packed_records(genesis.ecu_list),
            genesis.vehicle_pk,
            genesis.maker_pk,
        )
    )
    return signing + keys_for("maker").sign(signing)


@functools.lru_cache(maxsize=None)
def _v9_genesis() -> bytes:
    """The golden genesis as layouts before ``ECULA`` wrote it: signed by
    the maker over its signing bytes alone, without the owner key.
    """
    signing = _golden()["genesis"].signing_bytes()
    return signing + keys_for("maker").sign(signing)


def _v9_header() -> bytes:
    """The golden header as the ``ECUL7`` to ``ECUL9`` layouts wrote it:
    the owner key and the creation time, 0 for the golden block.
    """
    return _golden()["header"].owner_pk + u64(0)


def _v6_header() -> bytes:
    """The golden header as layouts before ``ECUL7`` wrote it: the owner
    key, the previous header hash (32 zero bytes for a first block) and the
    creation time.
    """
    return _golden()["header"].owner_pk + ZERO_DIGEST + u64(0)


def _v5_header() -> bytes:
    """The golden header as layouts before ``ECUL6`` wrote it: the archive
    address followed it as a length-prefixed string.
    """
    return _v6_header() + prefixed(_golden()["header"].external_address.encode())


def _old_link() -> bytes:
    """The ``prev_link`` that layouts before ``ECUL5`` stored for the golden
    genesis entry: the hash of its block's header as they wrote it, as a
    block's first entry was linked.
    """
    return hashlib.sha256(_v5_header()).digest()


def _v1_genesis_entry() -> bytes:
    """The golden genesis entry in wire format v1: every field carries a
    4-byte length prefix, integers as ``00000008`` plus 8 bytes.
    """

    def v1_u64(n: int) -> bytes:
        return prefixed(u64(n))

    tx = _golden()["genesis"]
    ecus = b"".join(
        v1_u64(r.ecu_id) + prefixed(r.firmware_digest) + v1_u64(r.last_write_ts)
        for r in tx.ecu_list
    )
    payload = b"".join(
        (
            v1_u64(TAG_GENESIS),
            prefixed(_v3_root()),
            v1_u64(tx.ts),
            v1_u64(len(tx.ecu_list)),
            ecus,
            prefixed(tx.vehicle_pk),
            prefixed(tx.maker_pk),
            prefixed(tx.sig),
        )
    )
    # v1 framed an entry with its payload's timestamp.
    return prefixed(payload) + prefixed(_old_link()) + v1_u64(tx.ts)


def _v2_genesis_entry() -> bytes:
    """The golden genesis entry in wire format v2: every integer 8 bytes,
    each ECU record a packed ``>Q32sQ``, signed again by the maker over its
    v2 signing bytes.
    """
    tx = _golden()["genesis"]
    ecus = b"".join(u64(r.ecu_id) + r.firmware_digest + u64(r.last_write_ts) for r in tx.ecu_list)
    signing = b"".join(
        (
            u64(TAG_GENESIS),
            _v3_root(),
            u64(tx.ts),
            u64(len(tx.ecu_list)),
            ecus,
            tx.vehicle_pk,
            tx.maker_pk,
        )
    )
    payload = signing + keys_for("maker").sign(signing)
    return prefixed(payload) + _old_link() + u64(0)


def _v4_entry() -> bytes:
    """The golden genesis entry as the ``ECUL4`` layout framed it: its v3
    payload behind a u32 length, its ``prev_link`` and its sequence number.
    """
    return prefixed(_v3_genesis()) + _old_link() + u64(0)


def test_v1_ledger_blob_raises_wire_error():
    g = _golden()
    header = g["header"]
    v1_header = b"".join(
        (
            prefixed(header.owner_pk),
            prefixed(ZERO_DIGEST),
            prefixed(u64(0)),
            prefixed(header.external_address.encode()),
        )
    )
    v1_block = v1_header + prefixed(u64(1)) + _v1_genesis_entry()
    v1_blob = prefixed(b"ECUL1") + prefixed(u64(1)) + prefixed(v1_block)
    # Wire format v2 wrote this genesis-only ledger under the magic ECUL3 (the
    # bytes its golden vector pinned) and, with the same body, under ECUL2.
    v2_block = _v5_header() + u64(1) + _v2_genesis_entry()
    ecul2_blob, ecul3_blob = (
        prefixed(magic) + u64(1) + prefixed(v2_block) for magic in (b"ECUL2", b"ECUL3")
    )
    assert sha(ecul2_blob) == "c347b2ccc619a111beee75337af6633469930d1f126735492c745b1b664f08e0"
    assert (len(ecul3_blob), sha(ecul3_blob)) == (
        738,
        "ff08ccb0452e076d7adb32d826433b0e5db47060a2873d35aaada34062071aac",
    )
    # The same ledger in the ECUL4 layout: wire format v3, linked entries and
    # no checksum.
    v4_block = _v5_header() + u64(1) + _v4_entry()
    ecul4_blob = prefixed(b"ECUL4") + u64(1) + prefixed(v4_block)
    assert (len(ecul4_blob), sha(ecul4_blob)) == (
        677,
        "55ab1fb23e48b09da4bd993b50745bbdd7ad65d122e02fcf266db00a15a9fcb3",
    )
    # The same ledger in the ECUL5 layout: a stored archive address, an entry
    # count and a block count (the bytes its golden vector pinned).
    v5_block = sealed(_v5_header() + u64(1) + u64(0) + _v3_genesis())
    ecul5_blob = prefixed(b"ECUL5") + u64(1) + prefixed(v5_block)
    assert (len(ecul5_blob), sha(ecul5_blob)) == (
        645,
        "88584570e02e6bddc2d65ee3960289bde3604539bfd8058449cf74dbe9b1441f",
    )
    # The same ledger in the ECUL6 layout: a previous header hash in each
    # header (the bytes its golden vector pinned).
    v6_block = sealed(_v6_header() + u64(0) + _v3_genesis())
    ecul6_blob = prefixed(b"ECUL6") + prefixed(v6_block)
    assert (len(ecul6_blob), sha(ecul6_blob)) == (
        604,
        "31098b2a91a2e84195b3fcec042203e5306bd6a96d7ae292f027417b7b0a15a1",
    )
    # The same ledger in the ECUL7 layout: today's block layout around a
    # genesis with a state root and an id per ECU (the bytes its golden
    # vector pinned).
    v7_block = sealed(_v9_header() + u64(0) + _v3_genesis())
    ecul7_blob = prefixed(b"ECUL7") + prefixed(v7_block)
    assert (len(ecul7_blob), sha(ecul7_blob)) == (
        572,
        "6218a48295ff440d07b4551a135381e99c826590883ce850401490a0c1086a4b",
    )
    # The same ledger in the ECUL8 layout: today's blocks, whose challenge
    # records embedded a response that named its vehicle (the bytes its
    # golden vector pinned).
    v8_block = sealed(_v9_header() + u64(0) + _v9_genesis())
    ecul8_blob = prefixed(b"ECUL8") + prefixed(v8_block)
    assert (len(ecul8_blob), sha(ecul8_blob)) == (
        524,
        "b6ca7abbb7d8505c1e082f885e9da3a0f3a09f246772dc24d97803c175c7dcc4",
    )
    # The same ledger in the ECUL9 layout: the ECUL8 block, whose header held
    # a creation time and whose genesis was signed without its owner key (the
    # bytes its golden vector pinned).
    ecul9_blob = prefixed(b"ECUL9") + prefixed(v8_block)
    assert (len(ecul9_blob), sha(ecul9_blob)) == (
        524,
        "19632d48ce53d463f75d661fb1e855f072d223cd28df6f3eb34356c9ed0420e9",
    )
    # The same ledger in the ECULA layout: today's block, in a ledger whose
    # challenge records embedded their response (the bytes its golden
    # vector pinned).
    v10_block = sealed(_golden()["header"].to_bytes() + u64(0) + _golden()["genesis"].to_bytes())
    ecula_blob = prefixed(b"ECULA") + prefixed(v10_block)
    assert (len(ecula_blob), sha(ecula_blob)) == (
        516,
        "628c706b94b8cc051510ca1266b96f1a19d567511cfbda5f876775f9a70d54da",
    )
    assert LEDGER_MAGIC == b"ECULB"
    old_blobs = (
        ecul2_blob, ecul3_blob, ecul4_blob, ecul5_blob, ecul6_blob, ecul7_blob, ecul8_blob,
        ecul9_blob, ecula_blob,
    )
    for blob in (v1_blob, *old_blobs):
        with pytest.raises(WireError):
            deserialize_ledger(blob)
    for block in (v1_block, v2_block, v4_block, v5_block, v6_block):
        with pytest.raises(WireError):
            decode_block(block)
    # An ECUL7 to ECUL9 block, its creation time read as a sequence number,
    # fails validation whether or not its bytes decode.
    for block in (v7_block, v8_block):
        assert not validate_block_bytes(block)


@functools.lru_cache(maxsize=None)
def _v8_response() -> bytes:
    """The golden response as the ``ECUL8`` layout wrote it: the vehicle's
    key after the timestamp, signed by the vehicle over those bytes.
    """
    response = _golden()["response"]
    signing = response.signing_bytes() + keys_for("vehicle").public
    return signing + keys_for("vehicle").sign(signing)


def test_v8_response_and_record_raise_wire_error(registered, rsu_keys):
    """The golden response and record as the ``ECUL8`` layout wrote them
    (the bytes their golden vectors pinned) do not decode: the response is
    32 bytes longer than today's, and the record embeds it.
    ``record_response`` classifies such a response as BadSignature and
    records nothing.
    """
    authority, roadside, vehicle_keys, _ = registered
    v8 = _v8_response()
    signing = u8(3) + v8 + rsu_keys.public
    v8_record = signing + rsu_keys.sign(signing)
    assert (len(v8), sha(v8)) == (
        264,
        "7911bcbed6939943ca04c30335b8c60848b847062c7baa19ecb4314ac1f113b3",
    )
    assert (len(v8_record), sha(v8_record)) == (
        361,
        "d386516807df43e28a0b3c6a5492ebfda16ef2dca40d0023149d38c71f608d6b",
    )
    with pytest.raises(WireError):
        decode_response(v8)
    with pytest.raises(WireError):
        decode_transaction(v8_record)
    challenge = Challenge(
        rsu_pk=rsu_keys.public,
        vehicle_pk=vehicle_keys.public,
        subset_indices=(1, 4, 6),
        issued_ts=5,
    )
    before = roadside.ledger.lookup(vehicle_keys.public)
    verdict = record_response(authority, roadside, rsu_keys, challenge, v8)
    assert verdict is Verdict.BAD_SIGNATURE
    assert roadside.ledger.lookup(vehicle_keys.public) == before


def test_v10_record_raises_wire_error():
    """The golden record as the ``ECULA`` layout wrote it, the response's
    wire bytes embedded whole and countersigned (the bytes its golden
    vector pinned), does not decode.
    """
    rsu, vehicle = keys_for("rsu"), keys_for("vehicle")
    embedded = _golden()["response"].to_bytes() + rsu.public
    v10_record = u8(3) + embedded + rsu.sign(u8(3) + vehicle.public + embedded)
    assert (len(v10_record), sha(v10_record)) == (
        329,
        "2953c4092fb93664f1edf45a95272b9507be261b990a6f4399b16d95e57fcffc",
    )
    with pytest.raises(WireError):
        decode_transaction(v10_record)


def test_v3_genesis_raises_protocol_error(tiers):
    """The golden genesis in the layout before ``ECUL8`` (the bytes its
    golden vector pinned) does not decode, so ``initialize_vehicle`` refuses
    it and changes nothing: 8 ECUs take 42 bytes each there and 40 now, so
    no inventory count fits its length.
    """
    authority, roadside = tiers
    v3 = _v3_genesis()
    assert (len(v3), sha(v3)) == (
        507,
        "b9d08e5bd710054c290c9350e8c37907e24db403189ce974a336a6689107c833",
    )
    with pytest.raises(WireError):
        decode_transaction(v3)
    with pytest.raises(ProtocolError, match="does not decode"):
        initialize_vehicle(authority, roadside, v3)
    assert len(roadside.ledger) == 0
    assert not roadside.profiles


def _frame(address: bytes, seq: int, payload: bytes, pos: int) -> bytes:
    """An archive log frame of one record at log offset ``pos``, by hand:
    u32 body length, u32 CRC32 of the body seeded with ``pos``, then the
    body: the address behind its u32 length, the u64 seq and the payload.
    """
    body = len(address).to_bytes(4, "big") + address + u64(seq) + payload
    return len(body).to_bytes(4, "big") + zlib.crc32(body, pos).to_bytes(4, "big") + body


def test_v1_archive_file_raises_archive_error(tmp_path):
    """Logs in the three unmarked archive layouts (a u64 sequence number,
    then the whole entry in wire format v1, v2 or v3), in the ``ECUA4``
    layout (marked, with the genesis before ``ECUL8``), in the ``ECUA5``
    layout (marked, with the challenge records before ``ECUL9``), in the
    ``ECUA6`` layout (marked, with the genesis signed without its owner key
    before ``ECULA``), in the ``ECUA7`` layout (marked, one file per
    address, each record its sequence number and payload, no frame), in
    the ``ECUA8`` layout (marked, each frame's CRC32 unseeded) and in the
    ``ECUA9`` layout (today's frames, with the challenge records before
    ``ECULB``) raise, and so does a log in the current layout behind any
    of those markers. A log
    starts with ``ARCHIVE_MAGIC``, then one frame per append, then zeros
    up to a whole chunk.
    """
    entry = _golden()["entry"]
    at = len(ARCHIVE_MAGIC)
    frame = _frame(b"ar://old", 0, entry.payload, at)
    old_layouts = {
        "v1": u64(0) + _v1_genesis_entry(),
        "v2": u64(0) + _v2_genesis_entry(),
        "v3": u64(0) + _v4_entry(),
        "v4": b"ECUA4" + u64(0) + _v3_genesis(),
        "v5": b"ECUA5" + u64(0) + _v9_genesis(),
        "v6": b"ECUA6" + u64(0) + _v9_genesis(),
        "v7": b"ECUA7" + u64(0) + entry.payload,
        # A CRC32 seeded with 0 is the unseeded one.
        "v8": b"ECUA8" + _frame(b"ar://old", 0, entry.payload, 0),
        **{
            f"framed {m}": m + frame
            for m in (b"ECUA4", b"ECUA5", b"ECUA6", b"ECUA7", b"ECUA8", b"ECUA9")
        },
    }
    for name, data in old_layouts.items():
        root = tmp_path / name
        root.mkdir()
        (root / "archive.log").write_bytes(data)
        for address in ("ar://old", "ar://other"):
            with pytest.raises(ArchiveError, match="no ECUAA marker"):
                FileArchive(root).read(address)
    archive = FileArchive(tmp_path / "v10")
    archive.append_many("ar://v10", [(0, entry.payload)])
    written = ARCHIVE_MAGIC + _frame(b"ar://v10", 0, entry.payload, at)
    assert (tmp_path / "v10" / "archive.log").read_bytes() == written.ljust(ARCHIVE_CHUNK, b"\0")
    assert archive.read("ar://v10") == [(0, entry.payload)]


# -- round trips -------------------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
sigs = st.binary(min_size=64, max_size=64)
u64s = st.integers(0, U64_MAX)
ecu_ids = st.integers(0, MAX_ECUS)
ecu_records = st.builds(EcuRecord, ecu_id=ecu_ids, firmware_digest=digests, last_write_ts=u64s)
ecu_lists = st.lists(ecu_records, max_size=6).map(tuple)
# A genesis inventory: each ECU's id is its position.
inventories = st.lists(st.tuples(digests, u64s), max_size=6).map(
    lambda fields: tuple(EcuRecord(i, *f) for i, f in enumerate(fields))
)

responses = st.builds(ChallengeResponse, state_root=digests, subset=ecu_lists, ts=u64s, sig=sigs)
transactions = st.one_of(
    st.builds(
        GenesisTx,
        ts=u64s,
        ecu_list=inventories,
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
    st.builds(
        ChallengeRecordTx,
        ecu_ids=st.lists(ecu_ids, max_size=6).map(tuple),
        ts=u64s,
        vehicle_sig=sigs,
        rsu_pk=digests,
        sig=sigs,
    ),
)
records = st.builds(LedgerEntry, u64s, transactions.map(lambda tx: tx.to_bytes()))
headers = st.builds(BlockHeader, owner_pk=digests)


# A block of up to three records with any sequence numbers.
blocks = st.builds(
    AppendableBlock, header=headers, entries=st.lists(records, max_size=3).map(tuple)
)
reports = st.builds(
    ReportEvent,
    rsu_pk=digests,
    vehicle_pk=digests,
    verdict=st.sampled_from(Verdict),
    ts=u64s,
    sig=sigs,
)


decode_response = functools.partial(decode, ChallengeResponse)
decode_report = functools.partial(decode, ReportEvent)


@settings(max_examples=150, deadline=None)
@given(st.one_of(transactions, reports))
def test_transaction_round_trip(tx):
    decode = decode_report if isinstance(tx, ReportEvent) else decode_transaction
    assert decode(tx.to_bytes()) == tx


@settings(max_examples=100, deadline=None)
@given(responses)
def test_response_round_trip(response):
    assert decode_response(response.to_bytes()) == response


@settings(max_examples=100, deadline=None)
@given(records)
def test_entry_round_trip(record):
    """An entry is stored as its record: the sequence number, then the
    payload, which fixes its own length.
    """
    seq, payload = record
    data = u64(seq) + payload
    r = Reader(data)
    assert read_record(r) == record
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
    for tx in (g["update"], g["record"]):
        block = append_entry(block, tx.to_bytes())
    return block


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
    request = decode(
        RequestTx,
        signed_wire(
            RequestTx(insurer_pk=pk, query="vehicle ü, 0–9", ts=7, sig=b""), keys_for("insurer")
        ),
    )
    to_bytes = operator.methodcaller("to_bytes")
    return {
        "transaction": (
            decode_transaction,
            to_bytes,
            [tx.to_bytes() for tx in (g["genesis"], g["record"], g["update"], request)],
        ),
        "response": (decode_response, to_bytes, [g["response"].to_bytes()]),
        "block": (decode_block, to_bytes, [block.to_bytes()]),
        "ledger": (deserialize_ledger, Ledger.serialize, [ledger.serialize()]),
        "report": (decode_report, to_bytes, [g["report"].to_bytes()]),
        "sealed block": (decode_block, to_bytes, [block.to_bytes()[:-4]]),
        "sealed ledger": (deserialize_ledger, Ledger.serialize, [ledger.serialize()]),
    }


def reseal_ledger(data: bytes) -> bytes:
    """``data`` with the CRC32 of every block its envelope frames recomputed,
    as far as the envelope parses.
    """
    out = bytearray(data)
    r = Reader(data)
    try:
        r.read_bytes()
        while r.remaining:
            block = r.read_bytes()
            end = len(data) - r.remaining
            if len(block) >= 4:
                out[end - len(block) : end] = sealed(block[:-4])
    except WireError:
        pass
    return bytes(out)


# Applied to a mutated input before it is decoded: a block's bytes are
# mutated without their checksum and then sealed, a ledger's all at once.
SEAL = {"sealed block": sealed, "sealed ledger": reseal_ledger}


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


@pytest.mark.parametrize(
    "target",
    [
        "transaction",
        "response",
        "block",
        "ledger",
        "report",
        "sealed block",
        "sealed ledger",
    ],
)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_decoders_raise_only_wire_error(target, data):
    """Decoding is canonical: hostile bytes raise ``WireError`` and nothing
    else, or decode to an object that re-encodes to exactly those bytes.
    The checksum stops every mutation of a block or ledger, so the sealed
    targets re-seal the mutated bytes to reach the parser behind it.
    """
    decode, encode, valid = _valid_inputs()[target]
    blob = SEAL.get(target, bytes)(data.draw(hostile(valid)))
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
    bytes), fails ``validate_block``, which returns False and never
    raises.
    """
    block = _three_entry_block()
    _, _, valid = _valid_inputs()["transaction"]
    i = data.draw(st.integers(0, len(block.entries) - 1), label="entry")
    entries = list(block.entries)
    entries[i] = entries[i]._replace(payload=data.draw(hostile(valid)))
    assert validate_block(block)
    assert validate_block(dataclasses.replace(block, entries=tuple(entries))) is False


FUZZ_ADDRESSES = ("ar://fuzz", "ar://other", "ar://never")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_file_archive_read_raises_only_archive_error(data):
    """A log's bytes (two frames for one address and one for another, then
    zeros), truncated, with one byte flipped, or random: reading any
    address raises only ``ArchiveError``, and every payload it returns
    decodes. Unchanged, the log reads back whole.
    """
    entry = _golden()["entry"]
    valid = ARCHIVE_MAGIC
    for address, seq in ((b"ar://fuzz", 0), (b"ar://other", 0), (b"ar://fuzz", 1)):
        valid += _frame(address, seq, entry.payload, len(valid))
    valid += bytes(16)
    expected = {"ar://fuzz": [0, 1], "ar://other": [0], "ar://never": []}
    for address, seqs in expected.items():
        assert _read_log(valid, address) == [(seq, entry.payload) for seq in seqs]
    blob = data.draw(hostile([valid]))
    address = data.draw(st.sampled_from(FUZZ_ADDRESSES), label="address")
    try:
        records = _read_log(blob, address)
    except ArchiveError:
        return
    for seq, payload in records:
        decode_transaction(payload)


def _read_log(blob: bytes, address: str) -> list:
    """What a ``FileArchive`` whose log holds ``blob`` reads for ``address``."""
    with tempfile.TemporaryDirectory() as root:
        with open(f"{root}/archive.log", "wb") as fh:
            fh.write(blob)
        return FileArchive(root).read(address)


def _edited_and_resealed(block: AppendableBlock, offset: int, value: bytes) -> bytes:
    """``block``'s bytes with ``value`` written at ``offset`` and the
    checksum re-sealed.
    """
    body = bytearray(block.to_bytes()[:-4])
    body[offset : offset + len(value)] = value
    return sealed(bytes(body))


def _record_offsets(block: AppendableBlock) -> list[int]:
    """Where each entry's record starts in ``block``'s bytes."""
    offset, offsets = len(block.header.to_bytes()), []
    for entry in block.entries:
        offsets.append(offset)
        offset += 8 + len(entry.payload)
    return offsets


def test_resealed_edits_fail_the_signature_sequence_and_owner_checks():
    """The checksum detects corruption and signatures detect tampering: an
    edit that re-seals the CRC32 still decodes, and fails the audit. A
    flipped payload byte (the third past the tag: a genesis's timestamp,
    an update's state root or a record's first ECU id) fails its
    signature, one edited sequence number the consecutive-sequence rule
    and an edited owner key every signature.
    """
    block = _three_entry_block()
    assert validate_block(decode_block(block.to_bytes()))
    edits = []
    for entry, offset in zip(block.entries, _record_offsets(block)):
        flipped = bytes([entry.payload[3] ^ 0x01])
        edits.append((offset + 8 + 3, flipped))
        edits.append((offset, u64(entry.seq + 1)))
    edits.append((0, keys_for("stranger").public))
    for offset, value in edits:
        tampered = decode_block(_edited_and_resealed(block, offset, value))
        assert validate_block(tampered) is False, offset


def test_resealed_block_cut_inside_a_record_raises_wire_error():
    """No entry count is stored, so the end of the checksummed body bounds
    the entries: a block cut anywhere inside a record and re-sealed raises
    ``WireError``, and one cut where a record starts decodes to the records
    before it.
    """
    block = _three_entry_block()
    body = block.to_bytes()[:-4]
    starts = _record_offsets(block)
    for i, (start, end) in enumerate(zip(starts, [*starts[1:], len(body)])):
        assert decode_block(sealed(body[:start])).entries == block.entries[:i]
        for cut in range(start + 1, end):
            with pytest.raises(WireError):
                decode_block(sealed(body[:cut]))


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

SIGNED_TYPES = (
    GenesisTx,
    UpdateTx,
    RequestTx,
    ChallengeResponse,
    ChallengeRecordTx,
    ReportEvent,
    LedgerHead,
)


@pytest.mark.parametrize("cls", SIGNED_TYPES, ids=lambda cls: cls.__name__)
def test_wire_table_lists_the_fields_in_declaration_order(cls):
    """The wire format encodes fields in declaration order: a signed type's
    ``WIRE`` table names its dataclass fields, ``sig`` (last) left out.
    """
    assert issubclass(cls, Signable)
    assert [*cls.WIRE, "sig"] == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "cls",
    [cls for cls in SIGNED_TYPES if cls is not ChallengeResponse],
    ids=lambda cls: cls.__name__,
)
def test_signer_is_a_public_key_field_of_the_wire_table(cls):
    assert cls.WIRE[cls.SIGNER] is RAW32


def test_a_responses_signer_is_its_challenges_vehicle():
    """A response names no key (its ``SIGNER`` is None): ``signed_by``
    checks it under the owner it is given, the challenged vehicle's key,
    and no other key verifies it.
    """
    response = _golden()["response"]
    wire = response.to_bytes()
    assert ChallengeResponse.SIGNER is None
    assert list(ChallengeResponse.WIRE) == ["state_root", "subset", "ts"]
    assert signed_by(response, wire, keys_for("vehicle").public)
    for other in (keys_for("rsu").public, keys_for("other").public, b""):
        assert not signed_by(response, wire, other)


def test_transaction_tags_are_distinct():
    tags = [cls.TAG for cls in (GenesisTx, UpdateTx, RequestTx, ChallengeRecordTx, LedgerHead)]
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
    return ChallengeResponse(state_root=bytes(32), subset=subset, ts=1, sig=bytes(64))


def test_ecu_id_at_the_limit_round_trips():
    update, response = _update(MAX_ECUS), _response(_records([MAX_ECUS]))
    assert MAX_ECUS == 0xFFFF
    assert decode_transaction(update.to_bytes()) == update
    assert decode_response(response.to_bytes()) == response
    assert response.to_bytes()[32:36] == u16(1) + u16(MAX_ECUS)


def _genesis(records) -> GenesisTx:
    return GenesisTx(
        ts=0, ecu_list=records, vehicle_pk=bytes(32), maker_pk=bytes(32), sig=bytes(64)
    )


def test_ecu_id_or_list_past_the_limit_raises_wire_error():
    too_many = _records([0] * (MAX_ECUS + 1))
    assert len(_response(too_many[:-1]).to_bytes()) == response_size(MAX_ECUS)
    for signing_bytes in (
        _genesis(_records(range(MAX_ECUS + 1))).signing_bytes,
        _update(MAX_ECUS + 1).signing_bytes,
        _response(_records([MAX_ECUS + 1])).signing_bytes,
        _response(too_many).signing_bytes,
        record_of(_response(_records([MAX_ECUS + 1])), bytes(32), bytes(64)).signing_bytes,
        record_of(_response(too_many), bytes(32), bytes(64)).signing_bytes,
    ):
        with pytest.raises(WireError):
            signing_bytes()


def test_inventory_out_of_id_order_raises_wire_error():
    """A genesis inventory stores no ECU ids, so one whose ids are not its
    positions cannot be written.
    """
    for ids in ([1, 0], [0, 2]):
        with pytest.raises(WireError, match="positions"):
            _genesis(_records(ids)).signing_bytes()


# -- sizes in closed form ----------------------------------------------------------------------

# Wire format v3 field widths, in bytes.
TAG, ECU_ID, ECU_COUNT, U64_WIDTH, DIGEST, KEY, SIG, PREFIX = 1, 2, 2, 8, 32, 32, 64, 4
ECU = ECU_ID + DIGEST + U64_WIDTH  # id, firmware digest, last-write time
INVENTORY_ECU = DIGEST + U64_WIDTH  # a genesis ECU: its position is its id
UPDATE_SIZE = TAG + DIGEST + U64_WIDTH + KEY + KEY + ECU_ID + DIGEST + SIG
HEADER_SIZE = KEY  # the owner key
ENTRY_FRAMING = U64_WIDTH  # seq; the payload fixes its own length
CHECKSUM = 4  # a block's CRC32


def response_size(k: int) -> int:
    return DIGEST + ECU_COUNT + k * ECU + U64_WIDTH + SIG


def record_size(k: int) -> int:
    """The ECU count and k ids, the response's ts and signature, the RSU's key and signature."""
    return TAG + ECU_COUNT + k * ECU_ID + U64_WIDTH + SIG + KEY + SIG


def genesis_size(n: int) -> int:
    return TAG + U64_WIDTH + ECU_COUNT + n * INVENTORY_ECU + KEY + KEY + SIG


@pytest.mark.parametrize("n", [1, 8, 30, MAX_ECUS])
def test_sizes_follow_the_closed_form(n):
    records = _records(range(n))
    genesis = _genesis(records)
    assert len(genesis.to_bytes()) == genesis_size(n) == 139 + 40 * n
    for k in range(1, min(3, n) + 1):
        response = _response(records[n - k :])
        record = record_of(response, bytes(32), bytes(64))
        assert len(response.to_bytes()) == response_size(k)
        assert len(record.to_bytes()) == record_size(k)
    assert len(_update(n).to_bytes()) == UPDATE_SIZE
    assert (genesis_size(8), response_size(3), record_size(3), UPDATE_SIZE) == (459, 232, 177, 203)
    assert (response_size(k), record_size(k)) == (106 + 42 * k, 171 + 2 * k)
    assert (ENTRY_FRAMING, CHECKSUM) == (8, 4)


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
    register_rsu(authority, rsu.public)
    roadside = RoadsideTier()
    state = state_of(n)
    initialize_vehicle(authority, roadside, make_genesis(maker, vehicle.public, state, 0))
    yield roadside
    for ts in range(1, count + 1):
        challenge = issue_challenge(rsu.public, vehicle.public, n, random.Random(ts), ts)
        response = build_response(vehicle, state, challenge, ts)
        assert record_response(authority, roadside, rsu, challenge, response) is Verdict.VALID
        yield roadside


@pytest.mark.parametrize("n", [1, 8, 30])
def test_retained_block_follows_the_closed_form(n):
    """After two or more encounters a vehicle's block holds its header and
    two challenge records: 410 B in the ledger for an 8-ECU vehicle, and
    507 B before its first encounter.
    """
    steps = _encounters(n, 5)
    envelope = len(Ledger().serialize())
    genesis_only = PREFIX + HEADER_SIZE + ENTRY_FRAMING + genesis_size(n) + CHECKSUM
    assert len(next(steps).ledger.serialize()) - envelope == genesis_only
    retained = PREFIX + HEADER_SIZE + 2 * (ENTRY_FRAMING + record_size(min(3, n)))
    retained += CHECKSUM
    for encounters, roadside in enumerate(steps, start=1):
        if encounters >= 2:
            assert len(roadside.ledger.serialize()) - envelope == retained
    assert n != 8 or (retained, genesis_only) == (410, 507)


@pytest.mark.parametrize("n", [1, 8, 30])
def test_archive_follows_the_closed_form(n):
    """After E >= 2 encounters a vehicle's archive takes
    (8 + 139 + 40n) + (E - 2)(8 + 171 + 2k) bytes, k = min(3, n): 1022 B
    after 5 encounters for an 8-ECU vehicle, 204.4 B per encounter.
    """
    address = external_address(keys_for("vehicle").public)
    for encounters, roadside in enumerate(_encounters(n, 5)):
        archived = roadside.archive.read(address)
        assert len(archived) == max(0, encounters - 1)
        if encounters >= 2:
            size = sum(U64_WIDTH + len(payload) for _, payload in archived)
            assert size == archive_size(n, encounters)
    assert archive_size(n, 5) == (8 + 139 + 40 * n) + 3 * (8 + 171 + 2 * min(3, n))
    assert n != 8 or (archive_size(8, 5), archive_size(8, 5) / 5) == (1022, 204.4)
