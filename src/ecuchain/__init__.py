"""ecuchain: two-tier permissioned ledger and challenge-response protocol
for vehicle ECU firmware integrity, with a deterministic traffic simulator
and benchmark harness.
"""

from .crypto import KeyPair, generate_keypair, sha256, verify
from .ecu import (
    EcuRecord,
    EcuState,
    compute_state_root,
    subset_report,
    update_ecu,
)
from .ledger import (
    AppendableBlock,
    Archive,
    BlockHeader,
    FileArchive,
    Ledger,
    LedgerEntry,
    MemoryArchive,
    append_entry,
    prune_to_two,
    reconstruct_history,
    validate_block,
)
from .transactions import (
    Challenge,
    ChallengeRecordTx,
    ChallengeResponse,
    GenesisTx,
    RequestTx,
    Transaction,
    UpdateTx,
    Verdict,
)

__version__ = "0.1.0"

__all__ = [
    "KeyPair",
    "generate_keypair",
    "sha256",
    "verify",
    "EcuRecord",
    "EcuState",
    "compute_state_root",
    "subset_report",
    "update_ecu",
    "AppendableBlock",
    "Archive",
    "BlockHeader",
    "FileArchive",
    "Ledger",
    "LedgerEntry",
    "MemoryArchive",
    "append_entry",
    "prune_to_two",
    "reconstruct_history",
    "validate_block",
    "Challenge",
    "ChallengeRecordTx",
    "ChallengeResponse",
    "GenesisTx",
    "RequestTx",
    "Transaction",
    "UpdateTx",
    "Verdict",
    "__version__",
]
