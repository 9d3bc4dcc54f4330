"""Paper-style plain-text result tables.

Three table shapes cover everything the reproduction reports:

* :func:`operation_table` — one backend, rows = operations, columns =
  cold/warm milliseconds-per-node for each level (the layout of the
  companion results report /ANDE89/);
* :func:`backend_comparison_table` — one level and run temperature,
  rows = operations, columns = backends (who wins, by what factor);
* :func:`creation_table` — the section 5.3 creation phases.

The paper's tables are indexed by database level (4, 5, 6 — the same
operations over 781, 3 906 and 19 531 nodes); for a grid run over
several levels (``RunnerConfig(levels=...)``) :func:`scaling_table`
prints ms/node per operation across the levels (flat per-node cost
*scales*; growth is super-linear in database size) and
:func:`find_crossovers` names, for two backends, the level where one
overtakes the other on an operation, if any.

:func:`counter_table` adds the observability dimension: per-operation
instrumentation counter deltas (buffer hits, RPC round trips, WAL
bytes, ...) for one backend/level/temperature — the "why" next to the
"how fast".  The :data:`~repro.obs.HEADLINE_COUNTERS` are always
printed, even at zero, so tables from different backends align.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.results import ResultSet
from repro.obs import HEADLINE_COUNTERS


def _format_ms(value: float) -> str:
    if value >= 100:
        return f"{value:8.1f}"
    if value >= 1:
        return f"{value:8.2f}"
    return f"{value:8.4f}"


def _rule(widths: Sequence[int]) -> str:
    return "-+-".join("-" * w for w in widths)


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        _rule(widths),
    ]
    for row in rows:
        lines.append(" | ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                                for i, cell in enumerate(row)))
    return "\n".join(lines)


def operation_table(results: ResultSet, backend: str) -> str:
    """Cold/warm ms-per-node per operation and level for one backend."""
    subset = results.select(backend=backend)
    levels = subset.levels
    headers = ["op"] + [
        f"L{level} {temp}" for level in levels for temp in ("cold", "warm")
    ]
    rows: List[List[str]] = []
    for op_id in subset.op_ids:
        row = [f"{op_id} {subset.select(op_id=op_id)._results[0].op_name}"]
        for level in levels:
            try:
                cell = subset.one(backend, level, op_id)
            except KeyError:
                row += ["-", "-"]
                continue
            row.append(_format_ms(cell.cold.mean).strip())
            row.append(_format_ms(cell.warm.mean).strip())
        rows.append(row)
    title = f"Backend: {backend}  (milliseconds per node, mean over repetitions)"
    return title + "\n" + _table(headers, rows)


def backend_comparison_table(
    results: ResultSet, level: int, temperature: str = "cold"
) -> str:
    """Operations x backends for one level and run temperature."""
    if temperature not in ("cold", "warm"):
        raise ValueError("temperature must be 'cold' or 'warm'")
    subset = results.select(level=level)
    backends = subset.backends
    headers = ["op"] + backends
    rows: List[List[str]] = []
    for op_id in subset.op_ids:
        row = [f"{op_id} {subset.select(op_id=op_id)._results[0].op_name}"]
        for backend in backends:
            try:
                cell = subset.one(backend, level, op_id)
            except KeyError:
                row.append("-")
                continue
            stats = cell.cold if temperature == "cold" else cell.warm
            row.append(_format_ms(stats.mean).strip())
        rows.append(row)
    title = (
        f"Level {level}, {temperature} run  (milliseconds per node, mean)"
    )
    return title + "\n" + _table(headers, rows)


def speedup_table(results: ResultSet, backend: str) -> str:
    """Warm-over-cold speedup per operation and level (cache effect)."""
    subset = results.select(backend=backend)
    levels = subset.levels
    headers = ["op"] + [f"L{level} speedup" for level in levels]
    rows: List[List[str]] = []
    for op_id in subset.op_ids:
        row = [f"{op_id} {subset.select(op_id=op_id)._results[0].op_name}"]
        for level in levels:
            try:
                cell = subset.one(backend, level, op_id)
            except KeyError:
                row.append("-")
                continue
            row.append(f"{cell.warm_speedup:6.1f}x")
        rows.append(row)
    title = f"Backend: {backend}  (cold mean / warm mean)"
    return title + "\n" + _table(headers, rows)


def _format_count(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def counter_table(
    results: ResultSet,
    backend: str,
    level: Optional[int] = None,
    temperature: str = "cold",
) -> str:
    """Instrumentation counter deltas per operation for one backend.

    Rows are counter names — the :data:`~repro.obs.HEADLINE_COUNTERS`
    first (printed even when zero), then every other counter observed,
    sorted.  Columns are operations; each cell is the counter's delta
    over that operation's 50-repetition run.
    """
    if temperature not in ("cold", "warm"):
        raise ValueError("temperature must be 'cold' or 'warm'")
    subset = results.select(backend=backend, level=level)
    op_ids = subset.op_ids
    deltas: Dict[str, Dict[str, float]] = {}
    for op_id in op_ids:
        cell = subset.select(op_id=op_id)._results[0]
        deltas[op_id] = (
            cell.cold_counters if temperature == "cold" else cell.warm_counters
        )
    names: List[str] = list(HEADLINE_COUNTERS)
    observed = sorted(
        {name for delta in deltas.values() for name in delta}
        - set(HEADLINE_COUNTERS)
    )
    names.extend(observed)
    headers = ["counter"] + op_ids
    rows = [
        [name]
        + [_format_count(deltas[op_id].get(name, 0)) for op_id in op_ids]
        for name in names
    ]
    scope = f", level {level}" if level is not None else ""
    title = (
        f"Counters: {backend}{scope}, {temperature} run "
        f"(delta over the repetitions)"
    )
    return title + "\n" + _table(headers, rows)


#: The :class:`~repro.harness.timing.Stats` fields every percentile
#: table prints, by column title.
_PERCENTILE_COLUMNS = {
    "p50": "p50", "p90": "p90", "p99": "p99", "max": "maximum",
}


def percentile_table(
    results: ResultSet,
    backend: str,
    level: Optional[int] = None,
    temperature: str = "cold",
) -> str:
    """Latency-percentile summaries per operation for one backend.

    Rows are operations; columns are the exact order statistics
    (p50/p90/p99/max, ms per node) of the ``temperature`` pass's
    repetitions — the distributional view Darmont's OODB benchmark
    survey asks for next to the mean-only tables.  Results saved
    before ``Stats`` carried percentiles print ``-``.
    """
    if temperature not in ("cold", "warm"):
        raise ValueError("temperature must be 'cold' or 'warm'")
    subset = results.select(backend=backend, level=level)
    headers = ["op"] + list(_PERCENTILE_COLUMNS)
    rows: List[List[str]] = []
    for op_id in subset.op_ids:
        cell = subset.select(op_id=op_id)._results[0]
        stats = cell.cold if temperature == "cold" else cell.warm
        row = [f"{op_id} {cell.op_name}"]
        for field in _PERCENTILE_COLUMNS.values():
            value = getattr(stats, field)
            row.append("-" if value is None else _format_ms(value).strip())
        rows.append(row)
    scope = f", level {level}" if level is not None else ""
    title = (
        f"Latency percentiles: {backend}{scope}, {temperature} run "
        f"(ms per node)"
    )
    return title + "\n" + _table(headers, rows)


def creation_table(
    phases_by_backend: Dict[str, Dict[str, float]], level: int
) -> str:
    """Creation phases (ms per node / per relationship) per backend."""
    backends = list(phases_by_backend)
    phase_names: List[str] = []
    for phases in phases_by_backend.values():
        for name in phases:
            if name not in phase_names:
                phase_names.append(name)
    headers = ["phase"] + backends
    rows = [
        [name]
        + [
            _format_ms(phases_by_backend[b].get(name, float("nan"))).strip()
            if name in phases_by_backend[b]
            else "-"
            for b in backends
        ]
        for name in phase_names
    ]
    title = f"Database creation, level {level}  (milliseconds per item)"
    return title + "\n" + _table(headers, rows)


def scaling_table(
    results: ResultSet, backend: str, temperature: str = "cold"
) -> str:
    """ms/node per op across levels, with the largest/smallest ratio.

    A ratio near 1.0 means per-node cost is independent of database
    size (the operation scales); larger ratios flag size-sensitive
    operations (e.g. unindexed range scans).
    """
    if temperature not in ("cold", "warm"):
        raise ValueError("temperature must be 'cold' or 'warm'")
    subset = results.select(backend=backend)
    levels = subset.levels
    lines = [
        f"Scaling, backend {backend}, {temperature} (ms/node per level; "
        "ratio = largest/smallest)"
    ]
    header = "op".ljust(26) + "".join(f"L{level:>2}".rjust(10) for level in levels)
    header += "ratio".rjust(9)
    lines.append(header)
    lines.append("-" * len(header))
    for op_id in subset.op_ids:
        cells = []
        for level in levels:
            try:
                result = subset.one(backend, level, op_id)
            except KeyError:
                cells.append(None)
                continue
            stats = result.cold if temperature == "cold" else result.warm
            cells.append(stats.mean)
        name = subset.select(op_id=op_id)._results[0].op_name
        row = f"{op_id} {name}".ljust(26)
        for cell in cells:
            row += (f"{cell:10.4f}" if cell is not None else "         -")
        present = [c for c in cells if c]
        ratio = max(present) / min(present) if len(present) > 1 else 1.0
        row += f"{ratio:8.1f}x"
        lines.append(row)
    return "\n".join(lines)


def per_node_series(
    results: ResultSet, backend: str, op_id: str, temperature: str = "cold"
) -> List[Tuple[int, float]]:
    """(level, ms/node) points for one backend and operation."""
    series = []
    for level in results.levels:
        try:
            cell = results.one(backend, level, op_id)
        except KeyError:
            continue
        stats = cell.cold if temperature == "cold" else cell.warm
        series.append((level, stats.mean))
    return series


def find_crossovers(
    results: ResultSet,
    backend_a: str,
    backend_b: str,
    temperature: str = "cold",
) -> Dict[str, Optional[int]]:
    """Per operation: the first level where the faster backend flips.

    Returns op_id -> level of the flip, or None when one backend wins
    at every measured level.  "Where crossovers fall" is one of the
    shape questions multi-size benchmarks exist to answer.
    """
    flips: Dict[str, Optional[int]] = {}
    for op_id in results.op_ids:
        series_a = dict(per_node_series(results, backend_a, op_id, temperature))
        series_b = dict(per_node_series(results, backend_b, op_id, temperature))
        shared = sorted(set(series_a) & set(series_b))
        if len(shared) < 2:
            continue
        first_winner = series_a[shared[0]] <= series_b[shared[0]]
        flips[op_id] = None
        for level in shared[1:]:
            winner = series_a[level] <= series_b[level]
            if winner != first_winner:
                flips[op_id] = level
                break
    return flips


def full_report(
    results: ResultSet,
    title: Optional[str] = None,
    include_counters: bool = False,
) -> str:
    """Every operation table, the per-level comparisons and a cold-run
    :func:`percentile_table` per backend and level, concatenated.

    With ``include_counters=True`` a cold-run :func:`counter_table` per
    backend and level is appended (``repro run --counters``).
    """
    sections: List[str] = []
    if title:
        sections.append(title)
        sections.append("=" * len(title))
    for backend in results.backends:
        sections.append(operation_table(results, backend))
        sections.append("")
    for level in results.levels:
        sections.append(backend_comparison_table(results, level, "cold"))
        sections.append("")
        sections.append(backend_comparison_table(results, level, "warm"))
        sections.append("")
    tables = [percentile_table]
    if include_counters:
        tables.append(counter_table)
    for table in tables:
        for backend in results.backends:
            for level in results.select(backend=backend).levels:
                sections.append(table(results, backend, level, "cold"))
                sections.append("")
    return "\n".join(sections)
