#!/usr/bin/env python
"""Lint: the harness plumbing stays in its two kernels, and every
grid bench is gated.

Fails if a ``src/repro/harness/*bench.py`` module's ``BENCH`` table
writes, by default, a document with no committed twin under
``benchmarks/baseline/`` — a timed grid nothing compares is a second
ungated ruler, and ``repro run`` is the one there is — if
``benchmarks/`` holds anything but ``baseline/*.json`` or the CI
workflow or ``pyproject.toml`` installs ``_RETIRED_PLUGIN``, or if a
``src/repro/harness`` module other than the owning kernel

* calls ``json.dump`` (``grid.write_document`` is the one JSON writer),
* constructs a ``FlightRecorder`` (``grid.timeline`` owns ``--timeline``),
* calls ``.crash_at(...)`` (``crashpoints`` arms every crash-point VFS),
* summarises a sample list a second way — ``statistics.median(...)``,
  ``.percentile(...)`` or ``LatencyHistogram.from_samples(...)``
  (``timing.Stats.from_samples`` is the one summary, ``grid.percentiles``
  the one leaf; ``multiuserbench`` alone still merges per-client
  histograms, for the bucket-form ``histogram`` field).

Exit status: 0 when clean, 1 otherwise.  Run from the repository root:
``python scripts/lint_harness_kernels.py``.
"""

from __future__ import annotations

import ast
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_HARNESS = _ROOT / "src/repro/harness"
_BASELINES = _ROOT / "benchmarks/baseline"
_MANIFESTS = ("pyproject.toml", ".github/workflows/ci.yml")
_RETIRED_PLUGIN = "pytest-benchmark"
_SUMMARY = "timing.Stats.from_samples"
#: pattern -> (the modules allowed to use it, what to call instead)
_OWNERS = {
    "json.dump": (("grid.py",), "grid.write_document"),
    "FlightRecorder": (("grid.py",), "grid.timeline"),
    ".crash_at": (("crashpoints.py",), "crashpoints.crash_points"),
    "statistics.median": (("timing.py", "grid.py"), _SUMMARY),
    ".percentile": (("timing.py", "grid.py"), _SUMMARY),
    "LatencyHistogram.from_samples": (
        ("timing.py", "grid.py", "multiuserbench.py"), _SUMMARY,
    ),
}


def _pattern(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        dotted = f"{getattr(func.value, 'id', '')}.{func.attr}"
        if dotted in _OWNERS:
            return dotted
        name = func.attr
    else:
        name = getattr(func, "id", "")
    return next((p for p in (name, f".{name}") if p in _OWNERS), None)


def _default_out(tree: ast.Module) -> tuple[int, str] | None:
    """(line, default document name) of the module's ``BENCH`` table:
    the string handed to ``grid.out_param`` inside ``BENCH = Bench(...)``."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or not any(
            getattr(target, "id", None) == "BENCH" for target in stmt.targets
        ):
            continue
        for node in ast.walk(stmt.value):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "out_param"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                return stmt.lineno, node.args[0].value
    return None


def main() -> int:
    # The retired second ruler: anything in benchmarks/ besides the
    # committed baselines, or a manifest that still installs the plugin.
    errors = [
        f"{path.relative_to(_ROOT)}: benchmarks/ holds baseline/*.json only;"
        " time it with `repro run` or assert it in tests/"
        for path in sorted(_BASELINES.parent.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and not (path.parent == _BASELINES and path.suffix == ".json")
    ] + [
        f"{name}: names {_RETIRED_PLUGIN}, a retired ruler"
        for name in _MANIFESTS
        if _RETIRED_PLUGIN in (_ROOT / name).read_text(encoding="utf-8")
    ]
    for path in sorted(_HARNESS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out = _default_out(tree) if path.name.endswith("bench.py") else None
        if out and not (_BASELINES / out[1]).is_file():
            errors.append(
                f"{path.name}:{out[0]}: BENCH writes {out[1]} but"
                f" benchmarks/baseline/{out[1]} is not committed; gate the"
                " grid or fold it into `repro run`"
            )
        for node in ast.walk(tree):
            pattern = _pattern(node) if isinstance(node, ast.Call) else None
            if pattern and path.name not in _OWNERS[pattern][0]:
                errors.append(
                    f"{path.name}:{node.lineno}: {pattern}(...) outside"
                    f" its kernel; use {_OWNERS[pattern][1]}"
                )
    print("\n".join(errors) or "harness kernels: clean")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
