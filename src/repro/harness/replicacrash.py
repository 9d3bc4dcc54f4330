"""The promote-on-primary-crash failover drill.

:mod:`repro.harness.shardcrash` kills two-phase commit at every seam;
this module does the same for replication's failover path.  Each cell
builds a fresh :class:`~repro.replication.group.ReplicationGroup`
whose primary WAL rides a
:class:`~repro.engine.vfs.FaultInjectingVFS`, drives a scripted
sequence of acknowledged transactions through a
:class:`~repro.replication.router.ReplicaRouter`, and crashes the
primary at one chosen mutating I/O operation inside the commit path —
one cell per operation, clean and torn-write crashes alternating.  The
drill then runs the election (:meth:`ReplicationGroup.promote`, whose
``replication.failover`` span is the failover gap in the exported
Chrome trace) and checks, at the *new* primary:

* **election** — the promoted replica's applied LSN is the maximum
  across the group (the highest-applied-LSN replica wins);
* **durability** — every *acknowledged* transaction's writes are fully
  visible.  Acknowledgement happens only after log-before-apply, so
  nothing a client saw commit may be lost by the crash;
* **atomicity** — the one in-flight transaction is all-or-nothing.  A
  crash *after* its records are fully logged (e.g. at the fsync) may
  legitimately surface it complete; a crash mid-append leaves a torn
  tail the shipper never frames, so not one of its writes may appear;
* **read-your-writes across failover** — the same router that drove
  the workload re-routes: a read of acked data, then a fresh write and
  its read-back, all succeed against the promoted primary without the
  client being told anything beyond the generation bump.

Every violated check becomes a named violation string in the emitted
document (``BENCH_failover.json`` in CI), which the crash-matrix job
gates on ``violation_count == 0``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engine.vfs import FaultInjectingVFS, MemoryVFS, SimulatedCrash
from repro.harness import grid
from repro.harness.crashpoints import (
    SEED,
    armed_vfs,
    crash_document,
    crash_points,
    format_crash_summary,
)
from repro.harness.grid import Bench, Param
from repro.netsim.config import ReplicationConfig
from repro.obs import Instrumentation
from repro.replication.group import ReplicationGroup
from repro.replication.router import ReplicaRouter

#: Shape of the scripted workload the drill crashes.  Each transaction
#: touches two distinct uids (so atomicity is observable) and the
#: matrix crashes once per mutating I/O operation across all of them.
#: ``level`` is the HyperModel level of the base structure; ``seed``
#: drives uid choice and the torn-write prefixes; the drill keeps the
#: default ``apply_lag_seconds`` of 0 so acked work is shipped when the
#: primary dies (promotion drains the log either way).
PARAMS = (
    Param(
        "--failover-replicas", "replicas", 2, int,
        "replicas behind the crashed primary (default: 2)",
    ),
    Param(
        "--failover-transactions", "transactions", 5, int,
        "acked transactions scripted before the crash window closes"
        " (default: 5)",
    ),
    Param(None, "level", 2, int),
    SEED,
    Param(None, "apply_lag_seconds", 0.0, float),
    Param(
        "--failover-trace", "trace_path", None, metavar="TRACE_JSON",
        header=False,
        help="export a Chrome trace of one instrumented failover cell"
        " (the replication.failover span is the failover gap)",
        note="trace written to {} (replication.failover = the failover"
        " gap)",
    ),
)

#: The attribute each transaction stamps; post-promotion checks read it.
_MARK = "million"

#: Marker for the post-failover probe write (outside the txn range).
_PROBE_VALUE = 7_777_777


def _script_writes(
    records: Dict[int, Dict[str, Any]],
    spec: Dict[str, Any],
) -> List[Dict[int, Dict[str, Any]]]:
    """One two-record write set per transaction, uids disjoint across
    transactions so every uid has exactly one expected final value."""
    uids = sorted(records)
    if len(uids) < 2 * spec["transactions"] + 1:
        raise ValueError(
            f"level {spec['level']} holds {len(uids)} records; "
            f"{spec['transactions']} transactions need "
            f"{2 * spec['transactions'] + 1}"
        )
    script: List[Dict[int, Dict[str, Any]]] = []
    for txn in range(spec["transactions"]):
        writes: Dict[int, Dict[str, Any]] = {}
        for uid in (uids[2 * txn], uids[2 * txn + 1]):
            record = dict(records[uid])
            record[_MARK] = 1_000_000 + txn
            writes[uid] = record
        script.append(writes)
    return script


def _probe_uid(records: Dict[int, Dict[str, Any]]) -> int:
    """A uid no scripted transaction touches (the re-route write)."""
    return sorted(records)[-1]


def _deployment(
    records: Dict[int, Dict[str, Any]],
    spec: Dict[str, Any],
    vfs: FaultInjectingVFS,
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[ReplicationGroup, ReplicaRouter]:
    group = ReplicationGroup(
        ReplicationConfig(
            replicas=spec["replicas"],
            apply_lag_seconds=spec["apply_lag_seconds"],
        ),
        instrumentation=instrumentation,
        vfs=vfs,
    )
    group.load_records(records)
    router = ReplicaRouter(group, instrumentation=instrumentation)
    return group, router


def _drive(
    router: ReplicaRouter,
    script: List[Dict[int, Dict[str, Any]]],
) -> Tuple[Dict[int, int], Dict[int, int], Optional[str]]:
    """Run the scripted transactions until done or the primary dies.

    Returns ``(acked, inflight, violation)``: the expected marker per
    uid for acknowledged transactions, the markers of the transaction
    in flight when the crash fired (empty on a clean run), and any
    read-your-writes violation observed *before* the crash.
    """
    acked: Dict[int, int] = {}
    inflight: Dict[int, int] = {}
    for writes in script:
        inflight = {uid: record[_MARK] for uid, record in writes.items()}
        router.commit_batch(writes, {})
        acked.update(inflight)
        inflight = {}
        for uid, value in list(acked.items()):
            seen = router.fetch(uid)[_MARK]
            if seen != value:
                return acked, inflight, (
                    f"read-your-writes: uid {uid} read {seen}, "
                    f"expected {value}"
                )
    return acked, inflight, None


def _check_promotion(
    group: ReplicationGroup,
    router: ReplicaRouter,
    records: Dict[int, Dict[str, Any]],
    acked: Dict[int, int],
    inflight: Dict[int, int],
) -> Tuple[bool, Optional[str]]:
    """Promote and verify election, durability, atomicity, re-route.

    Returns ``(inflight_logged, violation)`` — whether the in-flight
    transaction survived complete (legal when the crash hit at or
    after its durability point) and the first violated invariant.
    """
    new_primary = group.promote()
    index = group.promoted_index
    lsns = group.applied_lsns
    if index is None or lsns[index] != max(lsns):
        return False, (
            f"election: promoted replica {index} at LSN "
            f"{None if index is None else lsns[index]}, "
            f"group LSNs {lsns}"
        )
    state = new_primary.export_records()
    for uid, value in acked.items():
        seen = state.get(uid, {}).get(_MARK)
        if seen != value:
            return False, (
                f"durability: acked uid {uid} shows {seen}, "
                f"expected {value}"
            )
    applied = sum(
        1 for uid, value in inflight.items()
        if state.get(uid, {}).get(_MARK) == value
    )
    if inflight and applied not in (0, len(inflight)):
        return False, (
            f"atomicity: in-flight transaction applied {applied} of "
            f"{len(inflight)} writes"
        )
    inflight_logged = bool(inflight) and applied == len(inflight)
    # Re-route: the same router now serves reads and writes from the
    # promoted primary (its session token resets on the generation
    # bump; no replica is ever eligible after failover).
    for uid, value in acked.items():
        seen = router.fetch(uid)[_MARK]
        if seen != value:
            return inflight_logged, (
                f"re-route read: uid {uid} read {seen}, expected {value}"
            )
    probe = _probe_uid(records)
    record = dict(records[probe])
    record[_MARK] = _PROBE_VALUE
    router.commit_batch({probe: record}, {})
    seen = router.fetch(probe)[_MARK]
    if seen != _PROBE_VALUE:
        return inflight_logged, (
            f"re-route write: probe uid {probe} read {seen} after a "
            f"post-failover commit"
        )
    return inflight_logged, None


def _run_cell(
    records: Dict[int, Dict[str, Any]],
    spec: Dict[str, Any],
    op: int,
    torn: bool,
    vfs: FaultInjectingVFS,
    instrumentation: Optional[Instrumentation] = None,
) -> Dict[str, Any]:
    """One crash point's outcome (``vfs`` is armed to die at ``op``)."""
    group, router = _deployment(records, spec, vfs, instrumentation)
    script = _script_writes(records, spec)
    violation: Optional[str] = None
    acked: Dict[int, int] = {}
    inflight: Dict[int, int] = {}
    crashed = False
    try:
        acked, inflight, violation = _drive(router, script)
    except SimulatedCrash:
        crashed = True
        acked, inflight = _partial_progress(router, script)
    if not crashed and violation is None:
        violation = f"crash point {op} never fired"
    inflight_logged = False
    if violation is None:
        inflight_logged, violation = _check_promotion(
            group, router, records, acked, inflight
        )
    return {
        "op": op,
        "torn": torn,
        "acked_txns": len(acked) // 2,
        "inflight_logged": inflight_logged,
        "applied_lsns": group.applied_lsns,
        "promoted_index": group.promoted_index,
        "violation": violation,
    }


def _partial_progress(
    router: ReplicaRouter,
    script: List[Dict[int, Dict[str, Any]]],
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Reconstruct acked/in-flight sets after a crash interrupted
    :func:`_drive` (the exception unwound its local state).

    The session token counts acked commits exactly: every scripted
    commit advances it by one LSN, and the crash killed the first
    unacked one.
    """
    acked_count = router.session_lsn
    acked: Dict[int, int] = {}
    for writes in script[:acked_count]:
        for uid, record in writes.items():
            acked[uid] = record[_MARK]
    inflight: Dict[int, int] = {}
    if acked_count < len(script):
        inflight = {
            uid: record[_MARK]
            for uid, record in script[acked_count].items()
        }
    return acked, inflight


def run_failover_drill(**overrides: Any) -> Dict[str, Any]:
    """Run the full crash matrix; return the results document.

    Keywords are the :data:`PARAMS` names.  A counting pre-pass sizes
    the matrix: it drives the scripted transactions with no fault
    scheduled and records which mutating I/O operations belong to the
    commit window, then one cell crashes at each (clean and torn
    alternating).  With ``trace_path`` the last cell re-runs under
    live instrumentation and its span timeline — including the
    ``replication.failover`` election span — is exported as a Chrome
    trace.
    """
    spec = grid.resolve(PARAMS, overrides)
    if spec["replicas"] < 1:
        raise ValueError("a failover drill needs at least 1 replica")
    if spec["transactions"] < 1:
        raise ValueError("transactions must be >= 1")
    _gen, records = grid.generate_structure(spec["level"], spec["seed"])

    def make_vfs(_op: int) -> FaultInjectingVFS:
        return FaultInjectingVFS(MemoryVFS(), seed=spec["seed"])

    def commit_window(counter: FaultInjectingVFS) -> int:
        _group, router = _deployment(records, spec, counter)
        first_op = counter.mutation_ops + 1
        _drive(router, _script_writes(records, spec))
        return first_op

    last_op, points = crash_points(make_vfs, commit_window)
    cells = [
        _run_cell(records, spec, op, torn, vfs) for op, torn, vfs in points
    ]
    violations = [
        f"op {cell['op']} ({'torn' if cell['torn'] else 'clean'}): "
        f"{cell['violation']}"
        for cell in cells
        if cell["violation"]
    ]
    if spec["trace_path"] is not None:
        trace_violation = _export_trace(
            records, spec, last_op, armed_vfs(make_vfs, last_op, torn=False)
        )
        if trace_violation:
            violations.append(trace_violation)
    return crash_document(
        "replica-failover", PARAMS, spec, cells, violations=violations
    )


def _export_trace(
    records: Dict[int, Dict[str, Any]],
    spec: Dict[str, Any],
    op: int,
    vfs: FaultInjectingVFS,
) -> Optional[str]:
    """Re-run one cell instrumented; write its Chrome trace.

    Returns a violation string if the failover gap span is missing
    from the recorded timeline (the trace is the acceptance artifact:
    the election must be visible as a named span).
    """
    from repro.obs.traceexport import write_chrome_trace

    instr = Instrumentation()
    cell = _run_cell(records, spec, op, False, vfs, instrumentation=instr)
    spans = [record.name for record in instr.spans.records()]
    lane_metadata = {
        "primary": {"role": "primary", "replicas": spec["replicas"]},
    }
    for index in range(spec["replicas"]):
        lane_metadata[f"replica{index}"] = {
            "role": "replica",
            "replicas": spec["replicas"],
        }
    write_chrome_trace(
        instr,
        spec["trace_path"],
        process_name="failover drill",
        server_name="replication group",
        lane_metadata=lane_metadata,
    )
    if "replication.failover" not in spans:
        return "trace: no replication.failover span recorded"
    if cell["violation"]:
        return f"trace cell: {cell['violation']}"
    return None


def format_summary(document: Dict[str, Any]) -> str:
    """Human-readable drill summary (the CLI prints this)."""
    logged = sum(1 for c in document["cells"] if c["inflight_logged"])
    torn = sum(1 for c in document["cells"] if c["torn"])
    return format_crash_summary(
        "replica failover drill "
        f"({document['workload']['replicas']} replicas, "
        f"{document['workload']['transactions']} transactions)",
        document,
        [
            f"{torn} torn-write cells; in-flight transaction survived"
            f" complete in {logged} cells (crash at/after its durability"
            " point), fully absent in the rest"
        ],
        lambda cell: (
            f"op {cell['op']} ({'torn' if cell['torn'] else 'clean'})"
        ),
    )


BENCH = Bench(
    PARAMS,
    grid.out_param(
        "BENCH_failover.json", "--failover-out", "failover drill output"
    ),
    run_failover_drill,
    format_summary,
    switch=Param(
        "--failover", "failover", False, bool,
        "also run the promote-on-primary-crash failover drill (crash"
        " the replication primary at every commit-path I/O op, elect a"
        " replica, verify durability/atomicity/re-route) and fold its"
        " violations into the exit code",
    ),
)
