"""``repro bench-diff``: two BENCH documents, cell by cell.

Compares two ``BENCH_*.json`` grid documents
(``cells[<column>][<row>]`` leaves carrying ``p50_ms``/``p90_ms``/
``p99_ms`` and a ``mode`` tag — the shape every
:mod:`repro.harness.grid` bench writes) and says, per
(column, row, mode, quantile), how far the candidate sits from the
baseline.  Each quantile has its own relative threshold —

====  =========  ==========================================
key   threshold  rationale
====  =========  ==========================================
p50   +25 %      medians are stable; small drifts are real
p90   +35 %      the acceptance criterion's quantile
p99   +50 %      tails flap; only large moves count
====  =========  ==========================================

plus an **absolute floor**: a cell whose baseline and candidate values
are both under :data:`ABSOLUTE_FLOOR_MS` never regresses.

It is the explanatory table for the virtual-time grids, whose
exactness ``scripts/check_cells_equal.py`` enforces: when a
regenerated grid stops matching its baseline, this says which cells
moved and by how much.  Wall-clock time is gated in one place only —
``bench/run.py`` on parent and change, judged by ``bench/compare.py``.

:func:`diff_documents` returns the row list; :func:`format_diff`
renders the table; the CLI's ``bench-diff`` exits non-zero when any
row regresses.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple

#: Per-quantile relative regression thresholds (candidate vs baseline).
DEFAULT_THRESHOLDS: Dict[str, float] = {"p50": 0.25, "p90": 0.35, "p99": 0.50}

#: Cells where both sides sit under this many milliseconds never
#: regress: the timer's own jitter dominates down there.
ABSOLUTE_FLOOR_MS = 0.05


@dataclasses.dataclass
class DiffRow:
    """One (backend, op, mode, quantile) comparison."""

    backend: str
    op_id: str
    mode: str
    quantile: str
    baseline_ms: float
    candidate_ms: float
    change: float
    threshold: float
    regressed: bool

    @property
    def label(self) -> str:
        return f"{self.backend}/{self.op_id}/{self.mode}/{self.quantile}"


def extract_cells(
    document: Dict[str, Any]
) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """(column, row, mode) -> quantile values of a grid document."""
    if "cells" not in document:
        raise ValueError(
            "unrecognized benchmark document: expected a 'cells' key"
        )
    out: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for backend, per_op in document["cells"].items():
        for op_id, cell in per_op.items():
            values = {
                quantile: float(cell[f"{quantile}_ms"])
                for quantile in DEFAULT_THRESHOLDS
                if cell.get(f"{quantile}_ms")
            }
            if values:
                # Mode-tagged cells (pushdown / bfs / native) keep each
                # closure strategy on its own row.
                if not cell.get("mode"):
                    raise ValueError(
                        f"cell {backend}/{op_id} carries no 'mode' tag"
                    )
                out[(backend, str(op_id), str(cell["mode"]))] = values
    return out


def diff_documents(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    thresholds: Optional[Dict[str, float]] = None,
    absolute_floor_ms: float = ABSOLUTE_FLOOR_MS,
) -> List[DiffRow]:
    """Compare two documents; one row per shared quantile cell.

    Cells present on only one side are skipped (adding a backend or an
    operation is not a regression).  A row regresses when the relative
    change exceeds its quantile's threshold *and* at least one side is
    above ``absolute_floor_ms``.
    """
    thresholds = thresholds or DEFAULT_THRESHOLDS
    base_cells = extract_cells(baseline)
    cand_cells = extract_cells(candidate)
    rows: List[DiffRow] = []
    for key in sorted(set(base_cells) & set(cand_cells)):
        backend, op_id, mode = key
        base_values = base_cells[key]
        cand_values = cand_cells[key]
        for quantile, threshold in thresholds.items():
            if quantile not in base_values or quantile not in cand_values:
                continue
            old = base_values[quantile]
            new = cand_values[quantile]
            change = (new - old) / old if old else (float("inf") if new else 0.0)
            below_floor = old < absolute_floor_ms and new < absolute_floor_ms
            regressed = change > threshold and not below_floor
            rows.append(
                DiffRow(
                    backend=backend,
                    op_id=op_id,
                    mode=mode,
                    quantile=quantile,
                    baseline_ms=old,
                    candidate_ms=new,
                    change=change,
                    threshold=threshold,
                    regressed=regressed,
                )
            )
    return rows


def regressions(rows: List[DiffRow]) -> List[DiffRow]:
    """The subset of rows that regressed."""
    return [row for row in rows if row.regressed]


def format_diff(
    rows: List[DiffRow], only_regressions: bool = False
) -> str:
    """A fixed-width table of the comparison (for the CLI)."""
    shown = regressions(rows) if only_regressions else rows
    lines = [
        f"{'cell':<42}{'baseline':>10}{'candidate':>11}"
        f"{'change':>9}{'limit':>8}  verdict"
    ]
    for row in shown:
        verdict = "REGRESSED" if row.regressed else (
            "improved" if row.change < -row.threshold else "ok"
        )
        lines.append(
            f"{row.label:<42}{row.baseline_ms:>10.4f}{row.candidate_ms:>11.4f}"
            f"{row.change:>+9.0%}{row.threshold:>+8.0%}  {verdict}"
        )
    bad = regressions(rows)
    lines.append(
        f"{len(rows)} cells compared, {len(bad)} regression"
        f"{'' if len(bad) == 1 else 's'}"
    )
    return "\n".join(lines)


def load_document(path: str) -> Dict[str, Any]:
    """Read one benchmark JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def diff_files(
    baseline_path: str,
    candidate_path: str,
    thresholds: Optional[Dict[str, float]] = None,
) -> Tuple[List[DiffRow], int]:
    """Diff two files; returns (rows, exit_code) — 1 when regressed."""
    rows = diff_documents(
        load_document(baseline_path),
        load_document(candidate_path),
        thresholds=thresholds,
    )
    return rows, (1 if regressions(rows) else 0)
