"""The grid-bench kernel: what every ``BENCH_*.json`` writer shares.

A bench module (``multiuserbench``, ``shardbench``, ``replicabench``
and the three crash drills) keeps only what is its
own — the cell body and the summary table — and takes the rest from
here:

* :class:`Param` / :class:`Bench` — each parameter is declared **once**
  in the module's table; the CLI sub-parser, the library defaults
  (:func:`resolve`) and the document header + provenance
  (:func:`document`) are all generated from that one row;
* :func:`generate_structure` — generate the HyperModel structure once
  and dump its records, so every cell reloads the same snapshot;
* :func:`latency_leaf` / :func:`percentiles` — the
  ``p50_ms``/``p90_ms``/``p99_ms``/``max_ms`` leaf shape of every grid
  cell, exact order statistics from :class:`~repro.harness.timing.Stats`;
* :func:`timeline` — the flight-recorder JSONL behind ``--timeline``;
* :func:`write_document` — the one JSON writer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
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

from repro.harness.provenance import provenance
from repro.harness.timing import Stats
from repro.obs import FlightRecorder, Instrumentation


def ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",")]


def floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",")]


def strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",")]


@dataclasses.dataclass(frozen=True)
class Param:
    """One bench parameter, declared once.

    Attributes:
        flag: the CLI flag (``"--shards"``), or ``None`` for a
            library-only parameter.
        name: the run function's keyword and the document header key.
        default: the default as the CLI spells it (``"1,2,4"``, ``4``);
            the library default is ``kind(default)``.
        kind: ``int`` / ``float`` / ``str``, ``bool`` for a store-true
            flag, or :func:`ints` / :func:`floats` / :func:`strs` for
            comma-separated lists.
        header: whether the value shapes the cells and therefore
            belongs in the document header and provenance (output
            paths and tracing knobs do not).
        note: printed by the CLI when the parameter is set, formatted
            with its value and ``out=`` the document path.
    """

    flag: Optional[str]
    name: str
    default: Any
    kind: Callable[[Any], Any] = str
    help: Optional[str] = None
    metavar: Optional[str] = None
    choices: Optional[Sequence[str]] = None
    header: bool = True
    note: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def value(self, raw: Any) -> Any:
        return None if raw is None else self.kind(raw)


def out_param(
    default: str, flag: str = "--out", label: str = "output JSON"
) -> Param:
    return Param(
        flag, "out", default, help=f"{label} path (default: {default})"
    )


def timeline_param(what: str) -> Param:
    return Param(
        "--timeline",
        "timeline",
        None,
        metavar="JSONL",
        header=False,
        help=f"write a flight-recorder timeline ({what}) to this JSONL"
        " path",
        note="timeline written to {} (virtual clock, deterministic)",
    )


@dataclasses.dataclass(frozen=True)
class Bench:
    """One runnable leg of a CLI command.

    ``run(**values)`` takes the ``params`` and returns the document,
    which the CLI writes to the ``out`` flag's path; ``summary`` is its
    terminal table.  ``switch`` is the store-true flag gating an
    optional leg (``crashtest --two-phase``).
    """

    params: Tuple[Param, ...]
    out: Param
    run: Callable[..., Dict[str, Any]]
    summary: Callable[[Dict[str, Any]], str]
    switch: Optional[Param] = None


def resolve(
    params: Sequence[Param], overrides: Dict[str, Any]
) -> Dict[str, Any]:
    """Table defaults overlaid with a run function's keyword arguments."""
    values = {p.name: p.value(p.default) for p in params}
    unknown = sorted(set(overrides) - set(values))
    if unknown:
        raise TypeError(f"unexpected bench parameter(s): {unknown}")
    values.update(overrides)
    return values


def header(params: Sequence[Param], values: Dict[str, Any]) -> Dict[str, Any]:
    return {p.name: values[p.name] for p in params if p.header}


def document(
    benchmark: str,
    params: Sequence[Param],
    values: Dict[str, Any],
    cells: Any,
    **extra: Any,
) -> Dict[str, Any]:
    """The BENCH document: header and provenance from one dict."""
    head = header(params, values)
    return {
        "benchmark": benchmark,
        **head,
        "provenance": provenance(**head),
        **extra,
        "cells": cells,
    }


def write_document(path: str, document: Dict[str, Any]) -> None:
    """Write one benchmark JSON document (sorted keys, trailing \\n)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def generate_structure(level: int, seed: int):
    """Generate the shared structure once; return (gen, record dump)."""
    from repro.backends.clientserver import ClientServerDatabase
    from repro.core.config import HyperModelConfig
    from repro.core.generator import DatabaseGenerator
    from repro.netsim.server import ObjectServer

    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(
        HyperModelConfig(levels=level, seed=seed)
    ).generate(loader)
    loader.commit()
    loader.close()
    return gen, server.export_records()


def closure_ms(db, root: int, cold: bool = True) -> float:
    """Virtual milliseconds of one closure push-down from ``root``,
    by default cold (the workstation cache is cleared first; a warm
    closure may be served from the cache without a push-down)."""
    if cold:
        db.cache.clear()
    start = db.simulated_clock.now
    if not db.prefetch_closure(root, "children", None) and cold:
        raise RuntimeError("closure push-down unexpectedly disabled")
    return (db.simulated_clock.now - start) * 1000.0


def percentiles(stats: Stats) -> Dict[str, float]:
    """The quantile fields of a leaf: exact order statistics of the
    samples ``stats`` summarises (:meth:`Stats.from_samples`)."""
    return {
        "p50_ms": round(stats.p50, 4),
        "p90_ms": round(stats.p90, 4),
        "p99_ms": round(stats.p99, 4),
        "max_ms": round(stats.maximum, 4),
    }


def latency_leaf(
    samples_ms: Sequence[float], mode: str, **extra: Any
) -> Dict[str, Any]:
    return {
        "mode": mode,
        "samples": len(samples_ms),
        **percentiles(Stats.from_samples(samples_ms)),
        **extra,
    }


@contextlib.contextmanager
def timeline(
    path: Optional[str],
    instrumentation: Optional[Instrumentation] = None,
) -> Iterator[Optional[FlightRecorder]]:
    """Yield the ``--timeline`` recorder (``None`` when off); write its
    JSONL when the grid completes."""
    if path is None:
        yield None
        return
    recorder = FlightRecorder(instrumentation, capacity=65536)
    yield recorder
    recorder.write_jsonl(path)
