"""Object version chains for temporal access (R5, section 6.8).

When a store is opened with ``versioned=True``, every committed update
of an object first preserves the object's previous state as an
immutable *version record* in the heap.  The live object's header
points at the newest version record; version records chain backwards,
each stamped with the **commit timestamp** (a monotonically increasing
logical clock persisted in the store metadata — wall time is never
used, keeping history deterministic).

This supports the paper's R5 experiments directly: retrieve the
previous version of a node, or the state of a node as of any past
time-point (a snapshot).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.engine import serializer
from repro.engine.heap import HeapFile, Rid


@dataclasses.dataclass
class Version:
    """One historical state of an object."""

    oid: int
    timestamp: int
    state: dict
    previous_rid: int  # 0 terminates the chain


def encode_version(version: Version) -> bytes:
    """Serialize a version record for heap storage."""
    return serializer.encode(
        {
            "o": version.oid,
            "ts": version.timestamp,
            "s": version.state,
            "p": version.previous_rid,
        }
    )


def decode_version(raw: bytes) -> Version:
    """Deserialize a heap version record."""
    data = serializer.decode(raw)
    return Version(data["o"], data["ts"], data["s"], data["p"])


class VersionChain:
    """Read access to one object's history, newest first."""

    def __init__(self, heap: HeapFile, head_rid: Rid) -> None:
        self._heap = heap
        self._head_rid = head_rid

    def __iter__(self):
        rid = self._head_rid
        while rid:
            version = decode_version(self._heap.read(rid))
            yield version
            rid = version.previous_rid

    def newest(self) -> Optional[Version]:
        """The most recent preserved version (the pre-state of the
        latest update), or None if the object was never updated."""
        for version in self:
            return version
        return None

    def at(self, timestamp: int) -> Optional[Version]:
        """The version current as of ``timestamp``.

        Returns the newest preserved version whose timestamp is
        ``<= timestamp``, or None if the object did not exist yet (or
        only the live state — which the caller holds — applies).
        """
        for version in self:
            if version.timestamp <= timestamp:
                return version
        return None

    def all(self) -> List[Version]:
        """The full history, newest first."""
        return list(self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def preserve_version(
    heap: HeapFile,
    oid: int,
    timestamp: int,
    state: dict,
    previous_rid: Rid,
) -> Rid:
    """Write one version record; returns its RID (the new chain head)."""
    return heap.insert(
        encode_version(Version(oid, timestamp, state, previous_rid))
    )
