"""The two-phase-commit crash matrix: kill 2PC at every seam.

:mod:`repro.harness.crashtest` makes single-engine recovery
exhaustive; this module does the same for the *distributed* commit the
shard router coordinates.  Each cell builds a fresh sharded deployment
(per-shard :class:`~repro.engine.wal.WriteAheadLog` files plus the
coordinator's decision log, all real files), drives one multi-shard
transaction up to a chosen point in the protocol, crashes the whole
site (every in-memory server is discarded), recovers every shard with
:meth:`~repro.netsim.server.ObjectServer.recover_from_wal`, and lets a
*new* router's :meth:`~repro.sharding.router.ShardRouter.resolve_in_doubt`
drive the in-doubt transactions to a decision from the decision log.

Crash points covered, per scripted transaction:

* ``coordinator-before-decision`` — all participants prepared, the
  coordinator dies before logging.  Presumed abort: every shard must
  abort, no write may survive.
* ``coordinator-after-decision`` — the decision is logged but no
  participant heard it.  Every shard must commit on resolve.
* ``coordinator-mid-delivery`` — the decision is logged and delivered
  to a strict subset of participants.  The rest must commit on
  resolve (never a mixed outcome).
* ``participant-after-prepare`` — the decision is logged; one prepared
  participant crashes before hearing it and re-parks the transaction
  in doubt from its WAL's PREPARE record.
* ``participant-torn-prepare`` — a participant crashes *inside* the
  prepare's WAL write (one cell per mutating I/O operation, clean and
  torn alternating, via
  :class:`~repro.engine.vfs.FaultInjectingVFS`).  The prepare never
  acknowledged, so the transaction must abort everywhere and the torn
  tail must not resurrect it in doubt.

Invariants checked per cell: **atomicity** (each shard applied all of
its slice or none), **agreement** (every shard landed on the
resolution the decision log implies), **no residue** (nothing left in
doubt, and the written uids are re-writable — pins released — via a
follow-up transaction through a fresh router).
"""

from __future__ import annotations

import copy
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.vfs import FaultInjectingVFS, SimulatedCrash
from repro.engine.wal import WriteAheadLog
from repro.harness import grid
from repro.harness.crashpoints import (
    SEED,
    crash_document,
    crash_points,
    format_crash_summary,
)
from repro.harness.grid import Bench, Param
from repro.netsim.config import ShardConfig
from repro.netsim.latency import SimulatedClock
from repro.netsim.server import ObjectServer
from repro.sharding.placement import make_placement
from repro.sharding.router import ShardRouter

#: Shape of the scripted cross-shard transactions: each crosses *all*
#: shards (one owned uid per shard) and is crashed once per scenario.
#: ``level`` is the HyperModel level of the base structure the
#: deployment is loaded with; ``seed`` drives uid choice and the
#: torn-write prefixes.
PARAMS = (
    Param(
        "--two-phase-shards", "shards", 3, int,
        "shard servers in the 2PC matrix (default: 3)",
    ),
    Param(
        "--two-phase-placement", "placement", "hash",
        help="placement policy in the 2PC matrix (default: hash)",
        choices=("hash", "affine"),
    ),
    Param(
        "--two-phase-transactions", "transactions", 4, int,
        "cross-shard transactions crashed per scenario (default: 4)",
    ),
    Param(None, "level", 2, int),
    SEED,
    Param(None, "base_dir", None, header=False),
)

#: The protocol seams the matrix crashes at (see module docstring).
SCENARIOS = (
    "coordinator-before-decision",
    "coordinator-after-decision",
    "coordinator-mid-delivery",
    "participant-after-prepare",
    "participant-torn-prepare",
)

#: The attribute each transaction stamps; recovery checks read it back.
_MARK = "million"


def _script_writes(
    records: Dict[int, Dict[str, Any]],
    spec: Dict[str, Any],
) -> List[Dict[int, Dict[str, Any]]]:
    """One write set per transaction, each touching every shard.

    Deterministic: uids are taken in sorted order round-robin from
    each shard's owned pool, and the written record is the base record
    with a transaction-unique ``million`` marker.
    """
    placement = make_placement(
        ShardConfig(shards=spec["shards"], placement=spec["placement"])
    )
    pools: Dict[int, List[int]] = {
        index: [] for index in range(spec["shards"])
    }
    for uid in sorted(records):
        pools[placement.shard_of(uid)].append(uid)
    for index, pool in pools.items():
        if not pool:
            raise ValueError(
                f"shard {index} owns no uids at level {spec['level']};"
                " grow the structure or the placement is degenerate"
            )
    script: List[Dict[int, Dict[str, Any]]] = []
    for txn in range(spec["transactions"]):
        writes: Dict[int, Dict[str, Any]] = {}
        for index in range(spec["shards"]):
            uid = pools[index][txn % len(pools[index])]
            record = copy.deepcopy(records[uid])
            record[_MARK] = 1_000_000 + txn * spec["shards"] + index
            writes[uid] = record
        script.append(writes)
    return script


class _Deployment:
    """One cell's sharded site: real WAL files + in-memory servers."""

    def __init__(
        self,
        scratch: str,
        spec: Dict[str, Any],
        records: Dict[int, Dict[str, Any]],
        wal_vfs: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.spec = spec
        self.clock = SimulatedClock()
        self.config = ShardConfig(
            shards=spec["shards"], placement=spec["placement"]
        )
        self.placement = make_placement(self.config)
        self.wal_paths = [
            os.path.join(scratch, f"shard{index}.wal")
            for index in range(spec["shards"])
        ]
        self.decision_path = os.path.join(scratch, "decision.wal")
        self.servers = self._open_servers(wal_vfs or {})
        self.decision_log = WriteAheadLog(self.decision_path)
        self.slices = {
            index: {
                uid: records[uid]
                for uid in self.placement.partition(records).get(index, ())
            }
            for index in range(spec["shards"])
        }
        for index, server in enumerate(self.servers):
            server.load_records(self.slices[index])

    def _open_servers(self, wal_vfs: Dict[int, Any]) -> List[ObjectServer]:
        return [
            ObjectServer(
                self.clock,
                wal=WriteAheadLog(path, vfs=wal_vfs.get(index)),
                shard_id=index,
            )
            for index, path in enumerate(self.wal_paths)
        ]

    def prepare(
        self, txid: int, writes: Dict[int, Dict[str, Any]], index: int
    ) -> None:
        """Phase one on shard ``index``: prepare its slice of ``writes``."""
        owned = self.placement.partition(writes)[index]
        self.servers[index].prepare_batch(
            txid, {uid: writes[uid] for uid in owned}, {}
        )

    def recover(self) -> ShardRouter:
        """Crash the site: discard every server, rebuild from the WALs.

        Returns a fresh router over the recovered servers, sharing the
        reopened decision log — the caller runs ``resolve_in_doubt``.
        """
        self.close()
        self.servers = self._open_servers({})
        for index, server in enumerate(self.servers):
            server.recover_from_wal(self.slices[index])
        self.decision_log = WriteAheadLog(self.decision_path)
        return ShardRouter(
            self.config,
            servers=self.servers,
            decision_log=self.decision_log,
            placement=self.placement,
        )

    def close(self) -> None:
        for server in self.servers:
            if server.wal is not None:
                server.wal.close()
        self.decision_log.close()


def _verify_cell(
    deployment: _Deployment,
    router: ShardRouter,
    outcomes: Dict[int, str],
    txid: int,
    writes: Dict[int, Dict[str, Any]],
    expected: str,
) -> Optional[str]:
    """Check atomicity / agreement / no-residue for one recovered cell.

    Returns a violation description or ``None``.
    """
    if expected == "committed":
        resolution = outcomes.get(txid, "committed")
    else:
        # A torn prepare legitimately leaves nothing in doubt at all
        # (the PREPARE record never became readable), so an absent
        # outcome counts as the abort it implies.
        resolution = outcomes.get(txid, "aborted")
    if resolution != expected:
        return (
            f"agreement: txn {txid} resolved {resolution!r},"
            f" decision log implies {expected!r}"
        )
    visible: List[int] = []
    missing: List[int] = []
    for uid, record in writes.items():
        owner = deployment.servers[deployment.placement.shard_of(uid)]
        current = owner.export_records().get(uid)
        if current == record:
            visible.append(uid)
        else:
            missing.append(uid)
    if expected == "committed" and missing:
        return (
            f"atomicity: committed txn {txid} lost writes"
            f" {sorted(missing)} (applied {sorted(visible)})"
        )
    if expected == "aborted" and visible:
        return (
            f"atomicity: aborted txn {txid} leaked writes"
            f" {sorted(visible)}"
        )
    for index, server in enumerate(deployment.servers):
        if server.in_doubt():
            return (
                f"residue: shard {index} still holds"
                f" {server.in_doubt()} in doubt after resolve"
            )
    # Pins must be gone: the same uids commit again through the
    # recovered router (a leaked pin would raise a conflict).
    retry = {
        uid: {**copy.deepcopy(record), _MARK: record[_MARK] + 500}
        for uid, record in writes.items()
    }
    try:
        router.commit_batch(retry, {})
    except Exception as error:
        return f"residue: follow-up commit failed with {error!r}"
    return None


def _drive(
    deployment: _Deployment,
    scenario: str,
    txid: int,
    writes: Dict[int, Dict[str, Any]],
) -> str:
    """Run one transaction to the scenario's crash point.

    Returns the resolution the decision log now implies
    (``"committed"`` or ``"aborted"``).  ``participant-torn-prepare``
    is driven elsewhere (the crash happens *inside* a prepare).
    """
    participants = sorted(deployment.placement.partition(writes))
    for index in participants:
        deployment.prepare(txid, writes, index)
    if scenario == "coordinator-before-decision":
        return "aborted"
    deployment.decision_log.log_commit(txid, [])
    if scenario == "coordinator-mid-delivery":
        deployment.servers[participants[0]].commit_prepared(txid)
    if scenario == "participant-after-prepare":
        # One prepared participant crashes alone *before* the site
        # does; recover() below rebuilds everyone anyway, which is a
        # strict superset of the single-shard restart.
        pass
    return "committed"


def _cell(
    scenario: str,
    txn: int,
    op: int,
    torn: bool,
    expected: str,
    violation: Optional[str],
) -> Dict[str, Any]:
    return {
        "scenario": scenario,
        "txn": txn,
        "op": op,
        "torn": torn,
        "expected": expected,
        "violation": violation,
    }


def _torn_prepare_cells(
    torn_dir: str,
    spec: Dict[str, Any],
    records: Dict[int, Dict[str, Any]],
    txn: int,
    writes: Dict[int, Dict[str, Any]],
) -> Iterator[Dict[str, Any]]:
    """Crash inside the victim's prepare: one cell per WAL I/O op."""
    txid = txn + 1
    victim = spec["shards"] - 1

    def count_prepare_ops(counter: FaultInjectingVFS) -> None:
        pre_dir = os.path.join(torn_dir, "pre")
        os.mkdir(pre_dir)
        deployment = _Deployment(
            pre_dir, spec, records, wal_vfs={victim: counter}
        )
        try:
            deployment.prepare(txid, writes, victim)
        finally:
            deployment.close()

    total_ops, points = crash_points(
        lambda op: FaultInjectingVFS(seed=spec["seed"] + txn * 1000 + op),
        count_prepare_ops,
    )
    for op, torn, vfs in points:
        cell_dir = os.path.join(torn_dir, f"op-{op}")
        os.mkdir(cell_dir)
        deployment = _Deployment(
            cell_dir, spec, records, wal_vfs={victim: vfs}
        )
        prepared: List[int] = []
        try:
            for index in sorted(deployment.placement.partition(writes)):
                deployment.prepare(txid, writes, index)
                prepared.append(index)
            violation: Optional[str] = (
                f"torn-prepare cell at op {op} never crashed"
                f" ({total_ops} ops counted)"
            )
        except SimulatedCrash:
            # Presumed abort: the coordinator saw the prepare fail,
            # aborts the survivors, logs nothing … and then the whole
            # site goes down too.
            for index in prepared:
                deployment.servers[index].abort_prepared(txid)
            router = deployment.recover()
            outcomes = router.resolve_in_doubt()
            violation = _verify_cell(
                deployment, router, outcomes, txid, writes, "aborted"
            )
        deployment.close()
        yield _cell(
            "participant-torn-prepare", txn, op, torn, "aborted", violation
        )


def run_two_phase_crash_matrix(**overrides: Any) -> Dict[str, Any]:
    """Run the full scenario × transaction matrix; return the document.

    Keywords are the :data:`PARAMS` names.  Deterministic end to end:
    the structure, the scripted write sets, the torn-write prefixes
    and the cell order are all seed-derived.
    """
    spec = grid.resolve(PARAMS, overrides)
    if spec["shards"] < 2:
        raise ValueError("a 2PC matrix needs at least 2 shards")
    if spec["transactions"] < 1:
        raise ValueError("transactions must be >= 1")
    _gen, records = grid.generate_structure(spec["level"], spec["seed"])
    cells: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(dir=spec["base_dir"]) as scratch:
        for txn, writes in enumerate(_script_writes(records, spec)):
            txid = txn + 1
            for scenario in SCENARIOS:
                if scenario == "participant-torn-prepare":
                    continue  # driven below, one cell per I/O op
                cell_dir = os.path.join(scratch, f"{scenario}-{txn}")
                os.mkdir(cell_dir)
                deployment = _Deployment(cell_dir, spec, records)
                expected = _drive(deployment, scenario, txid, writes)
                router = deployment.recover()
                outcomes = router.resolve_in_doubt()
                violation = _verify_cell(
                    deployment, router, outcomes, txid, writes, expected
                )
                deployment.close()
                cells.append(
                    _cell(scenario, txn, 0, False, expected, violation)
                )
            torn_dir = os.path.join(scratch, f"torn-{txn}")
            os.mkdir(torn_dir)
            cells.extend(
                _torn_prepare_cells(torn_dir, spec, records, txn, writes)
            )
    by_scenario: Dict[str, int] = {}
    for cell in cells:
        scenario = cell["scenario"]
        by_scenario[scenario] = by_scenario.get(scenario, 0) + 1
    return crash_document(
        "two-phase-crash-matrix",
        PARAMS,
        spec,
        cells,
        cells_by_scenario=by_scenario,
    )


def format_summary(document: Dict[str, Any]) -> str:
    """A terminal summary of a two-phase crash-matrix document."""
    workload = document["workload"]
    return format_crash_summary(
        "two-phase-commit crash matrix "
        f"({workload['shards']} shards, {workload['placement']}"
        f" placement, {workload['transactions']} txns)",
        document,
        [
            f"{scenario:<28}: {document['cells_by_scenario'].get(scenario, 0)}"
            for scenario in SCENARIOS
        ],
        lambda cell: (
            f"[{cell['scenario']} txn {cell['txn']} op {cell['op']}]"
        ),
    )


BENCH = Bench(
    PARAMS,
    grid.out_param(
        "BENCH_crash2pc.json", "--two-phase-out", "2PC matrix output"
    ),
    run_two_phase_crash_matrix,
    format_summary,
    switch=Param(
        "--two-phase", "two_phase", False, bool,
        "also run the two-phase-commit crash matrix (coordinator/"
        "participant crashes, torn prepares) and fold its violations"
        " into the exit code",
    ),
)
