"""``repro bench-diff``: two BENCH documents, leaf by leaf.

The virtual-time grids (multiuser, sharded, replica) are pure functions
of their parameters, so a regenerated document must equal its
committed baseline exactly.  This walks every leaf under ``cells``
(``cells[<column>][<row>]`` dicts, each carrying the ``mode`` tag every
:mod:`repro.harness.grid` bench writes, nested dicts included) and
reports each leaf that differs: its path, both values and, for two
numbers, the relative change.  A leaf on one side only — a cell added
or dropped — is a difference too.  The CLI's ``bench-diff`` exits
non-zero on any difference; there are no thresholds.

Wall-clock time is gated in one place only — ``bench/run.py`` on
parent and change, judged by ``bench/compare.py``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple

#: A leaf's position under ``cells``: column, row, key, nested keys.
Path = Tuple[str, ...]

#: Stands in for the value of a leaf the other document lacks.
MISSING = "<missing>"


@dataclasses.dataclass
class DiffRow:
    """One leaf whose baseline and candidate values differ."""

    path: Path
    baseline: Any
    candidate: Any

    @property
    def label(self) -> str:
        return "/".join(self.path)

    @property
    def change(self) -> Optional[float]:
        """Relative change of two numbers (``None`` otherwise)."""
        old, new = self.baseline, self.candidate
        if not {type(old), type(new)} <= {int, float}:
            return None
        if old == 0:
            return float("inf") if new else 0.0
        return (new - old) / abs(old)


def _walk(node: Any, path: Path, out: Dict[Path, Any]) -> None:
    if isinstance(node, dict) and node:
        for key, value in node.items():
            _walk(value, path + (str(key),), out)
    else:
        out[path] = node


def extract_cells(document: Dict[str, Any]) -> Dict[Path, Any]:
    """Every leaf under a grid document's ``cells``, keyed by path."""
    if "cells" not in document:
        raise ValueError(
            "unrecognized benchmark document: expected a 'cells' key"
        )
    out: Dict[Path, Any] = {}
    for column, rows in document["cells"].items():
        for row, cell in rows.items():
            if not isinstance(cell, dict) or not cell.get("mode"):
                raise ValueError(f"cell {column}/{row} carries no 'mode' tag")
            _walk(cell, (str(column), str(row)), out)
    return out


def diff_documents(
    baseline: Dict[str, Any], candidate: Dict[str, Any]
) -> List[DiffRow]:
    """The leaves that differ, in path order (empty: cells equal)."""
    base = extract_cells(baseline)
    cand = extract_cells(candidate)
    rows = []
    for path in sorted(base.keys() | cand.keys()):
        old = base.get(path, MISSING)
        new = cand.get(path, MISSING)
        if old != new:
            rows.append(DiffRow(path, old, new))
    return rows


def format_diff(rows: List[DiffRow]) -> str:
    """One line per differing leaf, then the count (for the CLI)."""
    if not rows:
        return "cells equal"
    lines = [
        f"{row.label}: {row.baseline!r} -> {row.candidate!r}"
        + ("" if row.change is None else f" ({row.change:+.2%})")
        for row in rows
    ]
    lines.append(
        f"{len(rows)} differing {'leaf' if len(rows) == 1 else 'leaves'}"
    )
    return "\n".join(lines)


def load_document(path: str) -> Dict[str, Any]:
    """Read one benchmark JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def diff_files(
    baseline_path: str, candidate_path: str
) -> Tuple[List[DiffRow], int]:
    """Diff two files; returns (rows, exit_code) — 1 on any difference."""
    rows = diff_documents(
        load_document(baseline_path), load_document(candidate_path)
    )
    return rows, (1 if rows else 0)
