"""The bench-diff regression gate.

Compares two ``BENCH_*.json`` documents cell by cell and decides, per
(backend, operation, mode), whether the candidate regressed against
the baseline.  The comparison is **percentile-aware**: because tail
quantiles of a micro-benchmark are noisier than medians, each quantile
gets its own relative threshold —

====  =========  ==========================================
key   threshold  rationale
====  =========  ==========================================
p50   +25 %      medians are stable; small drifts are real
p90   +35 %      the acceptance criterion's quantile
p99   +50 %      tails flap; only large moves count
====  =========  ==========================================

plus an **absolute floor**: a cell whose baseline and candidate values
are both under :data:`ABSOLUTE_FLOOR_MS` never regresses — at tens of
microseconds the timer jitter exceeds any honest signal.

Two document shapes are understood:

* the closure micro-benchmark (``benchmark: closure-batch-traversal``,
  written by :mod:`repro.harness.batchbench`): ``cells[backend][op]``
  with ``p50_ms``/``p90_ms``/``p99_ms`` (older documents fall back to
  ``median_ms`` as p50);
* harness :class:`~repro.harness.results.ResultSet` documents
  (``{"results": [...]}``): each result contributes a *cold* and a
  *warm* mode using its ``cold_hist``/``warm_hist`` summaries.

Closure baseline cells may additionally carry a ``budget_ms_per_node``
column — an absolute per-node latency ceiling.  A shared cell whose
candidate ``median_ms_per_node`` exceeds the baseline's budget emits a
``budget`` row that regresses regardless of the relative thresholds,
so a slow creep that stays under +25 % per PR still trips the gate
once the absolute budget is gone.

:func:`diff_documents` returns the row list; :func:`format_diff`
renders the table; the CLI's ``bench-diff`` exits non-zero when any
row regresses — that exit code *is* the gate.  The inverse workflow is
:func:`refresh_improvements`: when a candidate *beats* a baseline cell
by more than the p50 threshold, the ratchet rewrites that cell (and
tightens its budget) so the win becomes the new floor — run via
``repro bench-diff --refresh-improvement``.
"""

from __future__ import annotations

import copy
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


def _closure_cells(document: Dict[str, Any]) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """(backend, op, mode) -> quantile values, for closure documents."""
    out: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for backend, per_op in document.get("cells", {}).items():
        for op_id, cell in per_op.items():
            values: Dict[str, float] = {}
            for quantile, key in (
                ("p50", "p50_ms"),
                ("p90", "p90_ms"),
                ("p99", "p99_ms"),
            ):
                value = cell.get(key)
                if value:
                    values[quantile] = float(value)
            if "p50" not in values and cell.get("median_ms") is not None:
                # Documents written before histograms existed.
                values["p50"] = float(cell["median_ms"])
            # Budget bookkeeping (not quantiles — diff_documents reads
            # these two directly): the baseline side contributes its
            # ms/node ceiling, the candidate side its measured ms/node.
            if cell.get("budget_ms_per_node") is not None:
                values["budget_ms_per_node"] = float(
                    cell["budget_ms_per_node"]
                )
            if cell.get("median_ms_per_node") is not None:
                values["ms_per_node"] = float(cell["median_ms_per_node"])
            if values:
                # Mode-tagged cells (pushdown / bfs / native) gate each
                # closure strategy separately.
                if not cell.get("mode"):
                    raise ValueError(
                        f"cell {backend}/{op_id} carries no 'mode' tag"
                    )
                out[(backend, str(op_id), str(cell["mode"]))] = values
    return out


def _resultset_cells(document: Dict[str, Any]) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """(backend, op, mode) -> quantile values, for ResultSet documents."""
    out: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for result in document.get("results", []):
        backend = f"{result['backend']}-L{result['level']}"
        for mode in ("cold", "warm"):
            hist = result.get(f"{mode}_hist") or {}
            values = {
                quantile: float(hist[quantile])
                for quantile in ("p50", "p90", "p99")
                if hist.get(quantile) is not None
            }
            if not values:
                # Pre-histogram documents: fall back to the mean.
                stats = result.get(mode) or {}
                if stats.get("mean") is not None:
                    values["p50"] = float(stats["mean"])
            if values:
                out[(backend, str(result["op_id"]), mode)] = values
    return out


def extract_cells(
    document: Dict[str, Any]
) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """Normalize either document shape to (backend, op, mode) cells."""
    if "results" in document:
        return _resultset_cells(document)
    if "cells" in document:
        return _closure_cells(document)
    raise ValueError(
        "unrecognized benchmark document: expected a 'cells' "
        "(closure bench) or 'results' (ResultSet) key"
    )


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

    A baseline cell carrying ``budget_ms_per_node`` additionally
    yields a ``budget`` row: the candidate's ``median_ms_per_node``
    against the absolute ceiling, regressing whenever it is exceeded
    (no relative threshold, no floor).
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
        budget = base_values.get("budget_ms_per_node")
        per_node = cand_values.get("ms_per_node")
        if budget is not None and per_node is not None and budget > 0:
            rows.append(
                DiffRow(
                    backend=backend,
                    op_id=op_id,
                    mode=mode,
                    quantile="budget",
                    baseline_ms=budget,
                    candidate_ms=per_node,
                    change=(per_node - budget) / budget,
                    threshold=0.0,
                    regressed=per_node > budget,
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


#: Headroom the ratchet leaves above a refreshed cell's measured
#: ms/node when deriving its new budget: 50 % absorbs honest run-to-run
#: noise while still catching a real regression of the same size the
#: refresh banked.
BUDGET_HEADROOM = 0.50


def refresh_improvements(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    thresholds: Optional[Dict[str, float]] = None,
    budget_headroom: float = BUDGET_HEADROOM,
) -> Tuple[Dict[str, Any], List[str]]:
    """Ratchet the baseline forward where the candidate clearly won.

    A shared closure cell whose candidate p50 beats the baseline's by
    *more than the p50 regression threshold* (a symmetric bar: the
    improvement must be as unambiguous as a regression would be) is
    replaced wholesale with the candidate's measurements.  Each
    replaced cell gets a fresh ``budget_ms_per_node`` of its new
    ``median_ms_per_node`` plus ``budget_headroom`` — never *looser*
    than the budget it already carried, so budgets only tighten.

    Cells the candidate merely matched, regressed, or that exist on
    one side only are left untouched.  Returns the updated document
    and the ``backend/op`` labels that moved; when nothing moved the
    document is an unmodified deep copy.
    """
    if "cells" not in baseline or "cells" not in candidate:
        raise ValueError(
            "improvement refresh needs two closure 'cells' documents"
        )
    thresholds = thresholds or DEFAULT_THRESHOLDS
    bar = thresholds.get("p50", DEFAULT_THRESHOLDS["p50"])
    updated = copy.deepcopy(baseline)
    replaced: List[str] = []
    for backend, per_op in candidate["cells"].items():
        base_per_op = updated["cells"].get(backend)
        if base_per_op is None:
            continue
        for op_id, cell in per_op.items():
            base_cell = base_per_op.get(op_id)
            if base_cell is None:
                continue
            old = float(
                base_cell.get("p50_ms") or base_cell.get("median_ms") or 0.0
            )
            new = float(cell.get("p50_ms") or cell.get("median_ms") or 0.0)
            if not old or not new or new >= old * (1.0 - bar):
                continue
            fresh = dict(cell)
            budget = round(
                float(cell["median_ms_per_node"]) * (1.0 + budget_headroom),
                6,
            )
            previous_budget = base_cell.get("budget_ms_per_node")
            if previous_budget is not None:
                budget = min(budget, float(previous_budget))
            fresh["budget_ms_per_node"] = budget
            base_per_op[op_id] = fresh
            replaced.append(f"{backend}/{op_id}")
    if replaced:
        updated["ratchet"] = {
            "refreshed_cells": replaced,
            "provenance": candidate.get("provenance"),
        }
    return updated, replaced


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
