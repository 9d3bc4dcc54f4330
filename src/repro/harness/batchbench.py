"""The closure micro-benchmark behind ``BENCH_closure.json``.

The batched navigation layer exists for one reason: closure traversals
(ops 10-12) dominated by per-node backend interactions.  This module
measures exactly that — median milliseconds per node for each closure
operation on each backend, together with the instrumentation counter
deltas (batch calls, RPC round trips, buffer faults) that *explain*
the number — and writes the result as one JSON document.

It is deliberately tiny and dependency-free so CI can run it as a
smoke job (``hypermodel bench-closure --level 4``) and archive the
JSON as a build artifact.  Its result is the ``sim_ms`` column and the
counters, which are deterministic; its wall-clock columns describe one
run on one machine and are compared by nothing (``bench/`` is the
wall-clock ruler).
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import tempfile
import time
from typing import Any, Dict, List

from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import CATALOG, Operations
from repro.harness import grid
from repro.harness.grid import Bench, Param
from repro.harness.timing import Stats
from repro.obs import Instrumentation

#: The closure operations the batch layer targets (section 6.5/6.6).
CLOSURE_OPS = ("10", "11", "12")

PARAMS = (
    Param(
        "--backends", "backends", "memory,sqlite,oodb,clientserver",
        grid.strs, "comma-separated backend names",
    ),
    Param("--level", "level", 4, int, "leaf level (paper: 4, 5 or 6)"),
    Param("--repetitions", "repetitions", 5, int, "runs per operation"),
    Param("--seed", "seed", 19880301, int),
    Param(
        "--compare-pushdown", "compare_pushdown", False, bool,
        "also run the clientserver-bfs ablation so the document"
        " compares closure push-down against frontier BFS",
    ),
    Param(
        "--levels", "extra_levels", None, grid.ints,
        "extra tree levels to run alongside --level; their cells land"
        " under <backend>-L<level> keys (e.g. --levels 6 adds the"
        " 19531-node big-database column)",
        metavar="L1,L2",
    ),
    Param(
        "--profile", "profile", False, bool,
        "cProfile each operation's cold pass and write the top-25"
        " cumulative reports to <out>.profile.txt",
        note="cold-pass profiles written to {out}.profile.txt",
    ),
    grid.timeline_param(
        "wall clock, one sample per repetition", clock="wall clock"
    ),
    Param(None, "workdir", None, header=False),
)

#: Counter families worth reporting next to the timings.
_REPORTED_PREFIXES = (
    "backend.batch",
    "backend.rpc",
    "backend.op",
    "cache.readahead",
    "engine.buffer",
    "engine.store.batch",
    "netsim.cache",
)

#: Cell ``mode`` values derived from the backend's ``pushdown``
#: attribute: the clientserver pair reports which closure strategy it
#: ran, every other backend is simply "native".
_MODES = {True: "pushdown", False: "bfs"}


def _reported(delta: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in sorted(delta.items())
        if name.startswith(_REPORTED_PREFIXES)
    }


def _result_nodes(op_id: str, result, subtree_nodes: int) -> int:
    """Node count for ms-per-node normalization.

    All three closure ops traverse the same root subtree, so they are
    normalized by the same node count; ops 10 and 12 report it
    directly (list length / update count), op 11 returns a sum and
    inherits the count measured by op 10.
    """
    if op_id == "10":
        return max(len(result), 1)
    if op_id == "12":
        return max(int(result), 1)
    return max(subtree_nodes, 1)


def _cell_key(backend: str, bench_level: int, base_level: int) -> str:
    """The document key of one (backend, level) column.

    The document's primary level keeps the plain backend name (so
    existing baselines keep matching); extra levels are suffixed
    ``-L<level>`` — e.g. ``oodb-L6`` — the same keyed-ablation pattern
    as ``clientserver-bfs``.
    """
    if bench_level == base_level:
        return backend
    return f"{backend}-L{bench_level}"


def run_closure_bench(**overrides: Any) -> Dict[str, Any]:
    """Measure ops 10-12 on every backend; return the JSON document.

    Keywords are the :data:`PARAMS` names.  Every backend gets a
    freshly generated level-``level`` database.  Each operation runs
    from the structure root (the deepest closure the database offers)
    ``repetitions`` times; the median wall-clock time is normalized by
    the operation's node count.  Counter deltas cover the *first*
    repetition — the cold pass, where the batch layer's round-trip and
    fault behaviour shows.

    Each ``cells[<backend>][<op>]`` leaf summarizes the per-repetition
    latency by exact order statistics (``p50_ms`` … ``max_ms``),
    carries the tree ``level`` its database was generated at and a
    ``mode`` tag for the closure strategy (``"pushdown"`` / ``"bfs"``
    on the clientserver pair, ``"native"`` elsewhere).  ``sim_ms`` / ``sim_ms_per_node`` are the
    *simulated* network time of the cold repetition — deterministic,
    so this is the column the pushdown-vs-BFS comparison reads (wall
    time on a loaded CI worker is not).

    ``compare_pushdown=True`` adds the ``clientserver-bfs`` ablation
    next to every ``clientserver`` entry, so the document carries a
    pushdown-vs-frontier-BFS comparison in its ``sim_ms_per_node``
    columns (and the mode-tagged cells give ``repro bench-diff`` both
    paths to tabulate).

    ``extra_levels`` re-runs every backend at each additional tree
    level; those cells land under ``<backend>-L<level>`` keys, so one
    document can hold, say, the level-4 grid *and* the level-6
    big-database column.

    ``profile=True`` wraps each operation's **cold** repetition in
    :mod:`cProfile`; the per-cell top-25 cumulative reports collect
    under the document's ``"profiles"`` key (the CLI writes them next
    to the JSON).  Profiled wall-clock timings carry tracer overhead —
    use the flag to find hot spots, not to produce baselines.

    ``timeline`` writes a flight-recorder JSONL to that path: one
    sample per repetition, stamped on the **wall** clock (this harness
    measures wall time, so unlike the virtual-time benches the
    timeline is *not* byte-identical across runs — each sample says so
    in its ``clock`` field).
    """
    from repro.backends import create_backend

    p = grid.resolve(PARAMS, overrides)
    backends: List[str] = []
    for backend in p["backends"]:
        backends.append(backend)
        if (
            p["compare_pushdown"]
            and backend == "clientserver"
            and "clientserver-bfs" not in p["backends"]
        ):
            backends.append("clientserver-bfs")
    p["backends"] = backends
    level, repetitions = p["level"], p["repetitions"]
    extra_levels = p["extra_levels"] = list(p["extra_levels"] or ())
    levels = [level] + [extra for extra in extra_levels if extra != level]
    cells: Dict[str, Dict[str, Any]] = {}
    profiles: Dict[str, str] = {}
    bench_start = time.perf_counter()
    with tempfile.TemporaryDirectory(
        prefix="hypermodel-bench-"
    ) as scratch, grid.timeline(p["timeline"], clock="wall") as recorder:
        workdir = p["workdir"] or scratch
        for bench_level in levels:
            for backend in backends:
                key = _cell_key(backend, bench_level, level)
                per_op = cells[key] = {}
                instr = Instrumentation()
                if recorder is not None:
                    recorder.rebind(instr)
                path = os.path.join(workdir, f"closure-{key}.db")
                db = create_backend(backend, path, instrumentation=instr)
                mode = _MODES.get(getattr(db, "pushdown", None), "native")
                clock = getattr(db, "simulated_clock", None)
                db.open()
                try:
                    gen = DatabaseGenerator(
                        HyperModelConfig(levels=bench_level, seed=p["seed"])
                    ).generate(db)
                    db.commit()
                    subtree_nodes = 0
                    for op_id in CLOSURE_OPS:
                        spec = CATALOG.get(op_id)
                        ops = Operations(db, gen.config)
                        # Section 5.3(e): close and reopen so the first
                        # repetition is a *cold* run — that's where the
                        # batch layer's round trips and faults show.
                        db.close()
                        db.open()
                        root = db.lookup(gen.root_uid)
                        timings_ms: List[float] = []
                        nodes = 1
                        sim_ms = 0.0
                        first_delta: Dict[str, float] = {}
                        for rep in range(repetitions):
                            before = instr.snapshot()
                            sim_start = (
                                clock.now if clock is not None else 0.0
                            )
                            profiler = None
                            if p["profile"] and rep == 0:
                                profiler = cProfile.Profile()
                                profiler.enable()
                            start = time.perf_counter()
                            result = spec.run(ops, (root,))
                            timings_ms.append(
                                (time.perf_counter() - start) * 1000.0
                            )
                            if profiler is not None:
                                profiler.disable()
                                profiles[f"{key} op {op_id}"] = (
                                    _profile_report(profiler)
                                )
                            if rep == 0:
                                if clock is not None:
                                    # Deterministic network cost of the
                                    # cold pass — the pushdown-vs-BFS
                                    # comparison column.
                                    sim_ms = (clock.now - sim_start) * 1000.0
                                first_delta = instr.delta_since(before)
                                nodes = _result_nodes(
                                    op_id, result, subtree_nodes
                                )
                                if op_id == "10":
                                    subtree_nodes = nodes
                            if spec.mutates:
                                db.commit()
                            if recorder is not None:
                                recorder.sample(
                                    time.perf_counter() - bench_start,
                                    label=f"{key}/op{op_id}",
                                )
                        stats = Stats.from_samples(timings_ms)
                        per_op[op_id] = {
                            "backend": key,
                            "op_id": op_id,
                            "op_name": spec.name,
                            "nodes": nodes,
                            "repetitions": repetitions,
                            "median_ms": round(stats.median, 4),
                            "median_ms_per_node": round(
                                stats.median / nodes, 6
                            ),
                            "counters": _reported(first_delta),
                            **grid.percentiles(stats),
                            "mode": mode,
                            "sim_ms": round(sim_ms, 4),
                            "sim_ms_per_node": round(sim_ms / nodes, 6),
                            "level": bench_level,
                        }
                finally:
                    db.close()
    extra: Dict[str, Any] = {"profiles": profiles} if profiles else {}
    return grid.document(
        "closure-batch-traversal", PARAMS, p, cells,
        operations=list(CLOSURE_OPS), **extra,
    )


def _profile_report(profiler: "cProfile.Profile", limit: int = 25) -> str:
    """The top-``limit`` cumulative-time lines of one profile run."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue()


def _write_with_profiles(out_path: str, document: Dict[str, Any]) -> None:
    """Write the JSON; per-cell cProfile reports go to
    ``<out_path>.profile.txt`` next to it (stripped from the document
    itself, so baselines stay diffable)."""
    profiles = document.pop("profiles", None)
    if profiles:
        profile_path = out_path + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as handle:
            for section, report in profiles.items():
                handle.write(f"=== {section} ===\n{report}\n")
        document["profile_report"] = os.path.basename(profile_path)
    grid.write_document(out_path, document)


def format_summary(document: Dict[str, object]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"closure batch traversal — level {document['level']}, "
        f"{document['repetitions']} repetitions",
        f"{'backend':<18}{'op':<5}{'name':<20}{'mode':<10}{'lvl':>4}"
        f"{'nodes':>7}{'med ms':>10}{'ms/node':>10}{'sim/node':>10}"
        f"{'rpc rt':>8}",
    ]
    cells = document["cells"]
    for backend, per_op in cells.items():  # type: ignore[union-attr]
        for op_id, cell in per_op.items():
            rpc = cell["counters"].get("backend.rpc.round_trips", 0)
            lines.append(
                f"{backend:<18}{op_id:<5}{cell['op_name']:<20}"
                f"{cell.get('mode', 'native'):<10}"
                f"{cell.get('level', document['level']):>4}"
                f"{cell['nodes']:>7}{cell['median_ms']:>10.3f}"
                f"{cell['median_ms_per_node']:>10.4f}"
                f"{cell.get('sim_ms_per_node', 0.0):>10.4f}{int(rpc):>8}"
            )
    return "\n".join(lines)


BENCH = Bench(
    PARAMS,
    grid.out_param("BENCH_closure.json"),
    run_closure_bench,
    format_summary,
    write=_write_with_profiles,
)
