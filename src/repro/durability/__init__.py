"""Durability subsystem: write-ahead log, compacted snapshots, recovery.

Off by default.  Hand a :class:`DurabilityOptions` to
``repro.connect(..., durability=...)`` or
``CrossePlatform(databank, durability=...)`` and every committed
mutation — relational DML/DDL, triple-store changes, KB statement
provenance, context/user/stored-query/document state, foreign-table
attachments — is journaled to an append-only, checksummed WAL and
periodically compacted into atomic snapshots.  After a crash, recovery
replays the newest valid snapshot plus the WAL tail and restores every
generation counter, so caches keyed on (id, generation) never serve
stale entries across the restart.
"""

from .crash import CrashPoint, FaultyFile, FaultyOpener, crash_budgets
from .errors import DurabilityError, SnapshotError, WalCorruptionError
from .manager import ComponentJournal, DurabilityManager, RecoveryReport
from .options import DurabilityOptions
from .state import (database_state, platform_state, state_digest,
                    store_state)
from .wal import WalWriter, encode_frame, iter_frames, read_frames

__all__ = [
    "ComponentJournal",
    "CrashPoint",
    "DurabilityError",
    "DurabilityManager",
    "DurabilityOptions",
    "FaultyFile",
    "FaultyOpener",
    "RecoveryReport",
    "SnapshotError",
    "WalCorruptionError",
    "WalWriter",
    "crash_budgets",
    "database_state",
    "encode_frame",
    "iter_frames",
    "platform_state",
    "read_frames",
    "state_digest",
    "store_state",
]
