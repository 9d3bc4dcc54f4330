"""The crash-point kernel: count the I/O, then die at every operation.

``crashtest`` (single-engine recovery), ``shardcrash`` (a participant
dying inside a two-phase prepare) and ``replicacrash`` (the replication
primary dying on the commit path) all explore the same space: run the
workload once through a fault-free
:class:`~repro.engine.vfs.FaultInjectingVFS` to *count* its mutating
I/O operations, then re-run it once per operation with a simulated
crash — clean and torn-write crashes alternating — scheduled at exactly
that operation.  That enumeration, the violation tally and the summary
shape live here; each drill keeps its workload and its invariants.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.vfs import FaultInjectingVFS
from repro.harness.grid import Param, header
from repro.harness.provenance import provenance

#: ``--seed`` is one flag shared by every ``repro crashtest`` leg.
SEED = Param("--seed", "seed", 7, int)


def armed_vfs(
    make_vfs: Callable[[int], FaultInjectingVFS], op: int, torn: bool
) -> FaultInjectingVFS:
    """The VFS of crash point ``op``, scheduled to die there."""
    return make_vfs(op).crash_at(op, torn=torn)


def crash_points(
    make_vfs: Callable[[int], FaultInjectingVFS],
    prepass: Callable[[FaultInjectingVFS], Optional[int]],
    stride: int = 1,
) -> Tuple[int, Iterator[Tuple[int, bool, FaultInjectingVFS]]]:
    """Counting pre-pass, then one armed VFS per crash point.

    ``make_vfs(op)`` builds the (seeded, unarmed) VFS for crash point
    ``op``; ``make_vfs(0)`` is the counting VFS handed to ``prepass``,
    which runs the workload once without faults and may return the
    first operation of the crash window (default 1: crash everywhere).

    Returns the pre-pass's mutating-operation total and an iterator of
    ``(op, torn, vfs)`` over every ``stride``-th operation of the
    window, ``vfs`` scheduled to crash at ``op`` — even operations as
    torn writes (a seeded prefix persists), odd ones as clean kills.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    counter = make_vfs(0)
    first = prepass(counter) or 1
    total = counter.mutation_ops

    def points() -> Iterator[Tuple[int, bool, FaultInjectingVFS]]:
        for op in range(first, total + 1, stride):
            torn = op % 2 == 0
            yield op, torn, armed_vfs(make_vfs, op, torn)

    return total, points()


def crash_document(
    benchmark: str,
    params: Sequence[Param],
    values: Dict[str, Any],
    cells: List[Dict[str, Any]],
    violations: Optional[List[Any]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """The crash document: workload header, provenance, tally, cells.

    ``violations`` defaults to the cells whose ``violation`` is set.
    """
    if violations is None:
        violations = [cell for cell in cells if cell["violation"]]
    head = header(params, values)
    return {
        "benchmark": benchmark,
        "workload": head,
        "provenance": provenance(**head),
        "crash_points_tested": len(cells),
        "violation_count": len(violations),
        "violations": violations,
        **extra,
        "cells": cells,
    }


def format_crash_summary(
    title: str,
    document: Dict[str, Any],
    breakdown: Sequence[str],
    where: Callable[[Dict[str, Any]], str],
) -> str:
    """The terminal summary: counts, a breakdown, the first violations."""
    lines = [
        title,
        f"  crash points tested : {document['crash_points_tested']}",
        f"  invariant violations: {document['violation_count']}",
    ]
    lines += [f"    {line}" for line in breakdown]
    bad = [cell for cell in document["cells"] if cell["violation"]]
    lines += [
        f"  VIOLATION {where(cell)}: {cell['violation']}" for cell in bad[:10]
    ]
    return "\n".join(lines)
