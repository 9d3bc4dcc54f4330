"""The crash-recovery matrix: kill the engine at *every* I/O boundary.

The R10 recoverability claim used to rest on a handful of hand-picked
torn-WAL tests.  This harness makes it exhaustive: a scripted,
deterministic workload (create/update/delete transactions with a
shadow model of the expected post-commit state) is first run once
through a :class:`~repro.engine.vfs.FaultInjectingVFS` with no faults
scheduled to *count* the mutating I/O operations, and then re-run once
per operation with a simulated crash — alternating clean and torn-write
crashes — scheduled at exactly that operation.  After each crash the
database files are reopened through a fresh
:class:`~repro.engine.vfs.RealVFS`, recovery runs, and two invariants
are checked:

* **atomicity** — the recovered object state equals *some* recorded
  post-commit snapshot (never a mix of two transactions, never a
  partial transaction);
* **durability** — that snapshot is at least as new as the last commit
  that *returned* to the caller before the crash (with ``sync_commits``
  on, a returned commit is a durable commit), and
  no newer than the one commit that may have been in flight.

The matrix is surfaced as the ``repro crashtest`` CLI subcommand, which
writes a ``BENCH_crash.json`` document; CI runs a small matrix and
fails the build on any invariant violation.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.engine.vfs import FaultInjectingVFS, RealVFS, SimulatedCrash, VFS
from repro.errors import StorageError
from repro.harness import grid
from repro.harness.crashpoints import (
    SEED,
    crash_document,
    crash_points,
    format_crash_summary,
)
from repro.harness.grid import Bench, Param

#: The scripted workload the matrix crashes over and over.  ``seed``
#: drives the operation mix and the torn-write prefixes; one seed
#: replays the whole matrix byte-identically.
PARAMS = (
    Param(
        "--transactions", "transactions", 16, int,
        "committed transactions in the scripted workload",
    ),
    Param(
        "--ops-per-txn", "ops_per_txn", 6, int,
        "object operations per transaction",
    ),
    Param(
        "--payload-bytes", "payload_bytes", 512, int,
        "object body size (bigger = more I/O ops per commit)",
    ),
    SEED,
    Param(
        "--stride", "stride", 1, int,
        "test every Nth crash point (1 = exhaustive)",
    ),
    Param(None, "base_dir", None, header=False),
)

#: Objects created by the workload belong to this class.
_CLASS = "Doc"

#: The fields the recovery check also reads as a projection.
_PROJECTION = ("rank", "title")


@dataclasses.dataclass
class CrashPointResult:
    """The outcome of one cell of the matrix.

    Attributes:
        op: the 1-based mutating I/O operation the crash was scheduled
            at.
        torn: whether the crash point was a torn write (seeded prefix
            persisted) rather than a clean kill.
        crashed: whether the workload actually died there.  Almost
            always true; the exception is a crash point landing in the
            post-checkpoint disposal path (e.g. the redundant header
            write in ``PageFile.close``), where the store ignores
            close-time errors by design and the run completes.
        commits_returned: commits that had returned to the caller when
            the crash hit — the durability lower bound.
        recovered_snapshot: index of the post-commit snapshot the
            recovered state matched (0 = empty database), or ``None``
            on an atomicity violation.
        violation: human-readable invariant violation, or ``None``.
    """

    op: int
    torn: bool
    crashed: bool
    commits_returned: int
    recovered_snapshot: Optional[int]
    violation: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form for the JSON document."""
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# The scripted workload
# ----------------------------------------------------------------------


def _run_workload(
    path: str,
    vfs: VFS,
    spec: Dict[str, Any],
    snapshots: List[Dict[int, Dict[str, Any]]],
) -> None:
    """Run the scripted workload against ``path`` through ``vfs``.

    ``snapshots`` is a caller-owned list; entry 0 (the empty database)
    is appended first and one deep-copied shadow snapshot is appended
    after *each commit returns*, so when a :class:`SimulatedCrash`
    escapes, ``len(snapshots) - 1`` is exactly the number of commits
    the caller saw succeed.

    The operation stream is driven by a PRNG seeded from the spec, so
    every run — counting pre-pass and each crash run — performs the
    identical call sequence and allocates identical OIDs.
    """
    import random

    rng = random.Random(spec["seed"])
    store = ObjectStore(path, sync_commits=True, vfs=vfs)
    try:
        store.open()
        snapshots.append({})
        store.define_class(
            _CLASS,
            [
                FieldDefinition("title", ""),
                FieldDefinition("rank", 0),
                FieldDefinition("body", ""),
            ],
        )
        shadow: Dict[int, Dict[str, Any]] = {}
        live: List[int] = []
        serial = 0
        for _txn in range(spec["transactions"]):
            for _op in range(spec["ops_per_txn"]):
                choice = rng.random()
                if not live or choice < 0.5:
                    serial += 1
                    state = {
                        "title": f"doc-{serial}",
                        "rank": rng.randrange(1000),
                        "body": "x" * spec["payload_bytes"],
                    }
                    oid = store.new(_CLASS, state)
                    shadow[oid] = dict(state)
                    live.append(oid)
                elif choice < 0.85:
                    oid = live[rng.randrange(len(live))]
                    changes = {
                        "rank": rng.randrange(1000),
                        "title": f"doc-{serial}-rev{rng.randrange(100)}",
                    }
                    store.update(oid, changes)
                    shadow[oid].update(changes)
                else:
                    oid = live.pop(rng.randrange(len(live)))
                    store.delete(oid)
                    del shadow[oid]
            store.commit()
            snapshots.append(
                {oid: dict(state) for oid, state in shadow.items()}
            )
        store.close()
    finally:
        if store.is_open:
            # A crashed run cannot close cleanly (close() checkpoints,
            # which would just crash again); release the OS handles so
            # a large matrix does not exhaust file descriptors.
            store._dispose_handles()


def _recovered_state(path: str) -> Dict[int, Dict[str, Any]]:
    """Reopen ``path`` through a fresh RealVFS and read every object.

    Opening runs WAL recovery.  A crash before the schema commit became
    durable legitimately leaves no class; that reads as the empty
    snapshot.

    Recovery must never serve a stale ``oid -> (rid, lsn, record)``
    decode-cache entry, so two extra invariants are asserted here on
    every cell: the cache is empty immediately after the recovering
    open (no entry survives a restart), and a fully cache-served read
    pass — whole states and a projected read alike — agrees
    byte-for-byte with a cold re-read after ``drop_cache()``.  A third
    ties the heap to the OID directory: the objects a walk of the heap
    finds are exactly the directory's keys.
    """
    store = ObjectStore(path, vfs=RealVFS())
    store.open()
    try:
        if store._decode_cache is not None and len(store._decode_cache):
            raise AssertionError(
                "decode cache holds entries immediately after recovery"
            )
        if _CLASS not in store.catalog.class_names():
            return {}
        oids = list(store.scan_class(_CLASS))
        directory = [oid for oid, _rid in store._directory.scan_all()]
        if sorted(oids) != directory:
            raise AssertionError(
                f"the heap walk finds {len(oids)} objects and the"
                f" directory {len(directory)}"
            )
        warm = {oid: store.get(oid) for oid in oids}  # fills the cache
        cached = {oid: store.get(oid) for oid in oids}  # all cache hits
        projected = {oid: store.get(oid, fields=_PROJECTION) for oid in oids}
        store.drop_cache()
        cold = {oid: store.get(oid) for oid in oids}  # straight from disk
        cold_projection = {
            oid: {name: state[name] for name in _PROJECTION}
            for oid, state in cold.items()
        }
        if not (warm == cached == cold and projected == cold_projection):
            stale = sorted(
                oid for oid in oids
                if cached[oid] != cold[oid]
                or projected[oid] != cold_projection[oid]
            )
            raise AssertionError(
                "decode cache served stale recovered state for oids "
                f"{stale[:5]}"
            )
        return cold
    finally:
        store.close()


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


def _verify_cell(
    recovered: Dict[int, Dict[str, Any]],
    reference: List[Dict[int, Dict[str, Any]]],
    commits_returned: int,
) -> Tuple[Optional[int], Optional[str]]:
    """Check the atomicity and durability invariants for one cell.

    Returns ``(recovered_snapshot, violation)``.
    """
    matches = [
        index
        for index, snapshot in enumerate(reference)
        if recovered == snapshot
    ]
    if not matches:
        return None, (
            "atomicity: recovered state matches no post-commit"
            f" snapshot ({len(recovered)} objects recovered)"
        )
    # The crash can only lose the one transaction that was in flight,
    # so the recovered snapshot must lie in a two-snapshot window.
    window = [
        k
        for k in matches
        if commits_returned <= k <= commits_returned + 1
    ]
    if not window:
        best = max(matches)
        return best, (
            f"durability: recovered snapshot {best} outside"
            f" [{commits_returned}, {commits_returned + 1}]"
            f" ({commits_returned} commits had returned)"
        )
    return min(window), None


def run_crash_matrix(**overrides: Any) -> Dict[str, Any]:
    """Run the full crash matrix and return the JSON-ready document.

    Keywords are the :data:`PARAMS` names; the defaults are sized so
    the matrix covers a few hundred crash points.  ``stride`` tests
    every ``stride``-th crash point (1 = exhaustive; CI uses a coarser
    stride on the larger workloads); ``base_dir`` is the parent of the
    per-cell scratch directories (a temporary directory by default).

    Returns a document with per-cell results, the violation list and a
    histogram of recovered snapshot indices.
    """
    spec = grid.resolve(PARAMS, overrides)
    with tempfile.TemporaryDirectory(dir=spec["base_dir"]) as scratch:
        reference: List[Dict[int, Dict[str, Any]]] = []
        total_ops, points = crash_points(
            lambda op: FaultInjectingVFS(seed=spec["seed"] + op),
            lambda counter: _run_workload(
                os.path.join(scratch, "pre.hmdb"), counter, spec, reference
            ),
            spec["stride"],
        )
        cells: List[CrashPointResult] = []
        for op, torn, vfs in points:
            cell_dir = os.path.join(scratch, f"cell-{op}")
            os.mkdir(cell_dir)
            path = os.path.join(cell_dir, "crash.hmdb")
            snapshots: List[Dict[int, Dict[str, Any]]] = []
            crashed = False
            snapshot, violation = None, None
            try:
                _run_workload(path, vfs, spec, snapshots)
            except SimulatedCrash:
                crashed = True
            except StorageError as error:  # pragma: no cover - defensive
                crashed = True
                violation = f"workload died with {error!r}"
            # A schedule that never fired (op beyond the run's I/O) let
            # the run complete normally; it must match its end.
            commits_returned = (
                max(0, len(snapshots) - 1)
                if crashed
                else spec["transactions"]
            )
            if violation is None:
                snapshot, violation = _verify_cell(
                    _recovered_state(path), reference, commits_returned
                )
            cells.append(
                CrashPointResult(
                    op, torn, crashed, commits_returned, snapshot, violation
                )
            )

    histogram: Dict[str, int] = {}
    for cell in cells:
        key = (
            "violation"
            if cell.violation
            else str(cell.recovered_snapshot)
        )
        histogram[key] = histogram.get(key, 0) + 1
    return crash_document(
        "crash-recovery-matrix",
        PARAMS,
        spec,
        [cell.to_dict() for cell in cells],
        io_ops_total=total_ops,
        stride=spec["stride"],
        commits=spec["transactions"],
        recovered_histogram=histogram,
    )


def format_summary(document: Dict[str, Any]) -> str:
    """A terminal summary of a crash-matrix document."""
    histogram = document["recovered_histogram"]
    snapshots = sorted((k for k in histogram if k != "violation"), key=int)
    return format_crash_summary(
        "crash-recovery matrix "
        f"({document['workload']['transactions']} txns, "
        f"{document['io_ops_total']} mutating I/O ops, "
        f"stride {document['stride']})",
        document,
        [
            f"recovered at snapshot {key:>3}: {histogram[key]}"
            for key in snapshots
        ],
        lambda cell: f"at op {cell['op']} (torn={cell['torn']})",
    )


BENCH = Bench(
    PARAMS,
    grid.out_param("BENCH_crash.json"),
    run_crash_matrix,
    format_summary,
)
