"""Merkle root over 32-byte digests, in pure Python: an ECU inventory's
firmware digests, or a ledger head's block leaves.

``ecu.compute_state_root`` calls it as ``_kernels.merkle_root(...)``; the
per-layer tracer (``e2ebench/tracer.py``) wraps it under that name.
"""

from __future__ import annotations

import hashlib
import struct

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


def merkle_root(digests: list[bytes]) -> bytes:
    """Merkle root over 32-byte digests in index order (ECU order, or a
    ledger's creation order).

    Leaf i hashes ``0x00 || i as u64 big-endian || digest_i``; interior
    nodes hash ``0x01 || left || right``. A level with an odd node count
    duplicates its last node.
    """
    n = len(digests)
    if n == 0:
        raise ValueError("empty ECU state")
    sha256 = hashlib.sha256
    pack = struct.Struct(">Q").pack
    level = [sha256(LEAF_PREFIX + pack(i) + d).digest() for i, d in enumerate(digests)]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            sha256(NODE_PREFIX + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]
