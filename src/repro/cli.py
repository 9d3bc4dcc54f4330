"""The ``hypermodel`` command-line interface.

Subcommands:

* ``info``       — print the sizing table for levels 4-6 (section 5.2);
* ``generate``   — build a test database into a backend file;
* ``verify``     — structurally verify a freshly generated database;
* ``run``        — run the section 5.3 cold/warm grid (any registered
  backends × levels × operations) and print the ms-per-node tables,
  latency percentiles and creation phases; ``--counters`` adds per-operation
  instrumentation counter tables and ``--trace`` a Chrome/Perfetto
  trace of the run's tail (see ``docs/observability.md``);
* ``bench-multiuser`` — run the discrete-event multi-client grid
  (clients × conflict rate, optimistic concurrency, group-commit WAL)
  and write ``BENCH_multiuser.json`` (see ``docs/multiuser.md``);
* ``bench-sharded`` — run the shard-count × placement-policy grid
  (scatter-gather closures, two-phase cross-shard commits) and write
  ``BENCH_sharded.json`` (see ``docs/sharding.md``);
* ``bench-replica`` — run the replica-count × write-rate × staleness
  grid (WAL-shipping replicas, session-token read routing) and write
  ``BENCH_replica.json`` (see ``docs/replication.md``);
* ``bench-diff`` — compare the ``cells`` of two ``BENCH_*.json``
  documents leaf by leaf; prints every differing leaf and exits
  non-zero on any difference (wall-clock gating lives in ``bench/``);
* ``trace``      — run one operation cold under full instrumentation
  and export a Chrome trace-event JSON for Perfetto;
* ``dash``       — render ``BENCH_*.json`` documents, a flight-recorder
  timeline JSONL and an optional Chrome trace into one self-contained
  HTML dashboard (see ``docs/observability.md``);
* ``query``      — evaluate an ad-hoc query against a generated database;
* ``rubenstein`` — run the /RUBE87/ baseline benchmark;
* ``maintain``   — R10 maintenance on an oodb file: vacuum / backup / gc;
* ``r7``         — print the R7 objects-per-second assessment table.

Every subcommand is driven by the same library code the tests use; the
CLI only parses arguments and prints.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional, Sequence

from repro.core.config import HyperModelConfig


def _add_common_db_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="memory",
        help="backend registry name (default: memory)",
    )
    parser.add_argument(
        "--path", default=None, help="database file for file-backed backends"
    )
    parser.add_argument(
        "--level", type=int, default=4, help="leaf level (paper: 4, 5 or 6)"
    )
    parser.add_argument(
        "--seed", type=int, default=19880301, help="generation seed"
    )


#: The bench and crash commands: help text, and the ``repro.harness``
#: modules whose ``BENCH`` legs the command runs in order.  Flags,
#: defaults, the run call and the document header all come from each
#: module's parameter table (see :mod:`repro.harness.grid`).
_BENCH_COMMANDS = {
    "bench-multiuser": (
        "run the multi-client optimistic grid, write BENCH_multiuser.json",
        ("multiuserbench",),
    ),
    "bench-sharded": (
        "run the shard-count × placement grid, write BENCH_sharded.json",
        ("shardbench",),
    ),
    "bench-replica": (
        "run the replica-count × write-rate × staleness grid, write"
        " BENCH_replica.json",
        ("replicabench",),
    ),
    "crashtest": (
        "crash the engine at every I/O op, verify recovery, write"
        " BENCH_crash.json",
        ("crashtest", "shardcrash", "replicacrash"),
    ),
}


def _bench_legs(command: str) -> list:
    return [
        importlib.import_module(f"repro.harness.{module}").BENCH
        for module in _BENCH_COMMANDS[command][1]
    ]


def _add_bench_parser(sub, command: str, with_flags: bool) -> None:
    parser = sub.add_parser(command, help=_BENCH_COMMANDS[command][0])
    if not with_flags:
        return  # importing a command's legs costs ~0.3 s of startup
    seen = set()  # later legs share earlier legs' flags (crashtest --seed)
    for leg in _bench_legs(command):
        for p in (leg.switch, *leg.params, leg.out):
            if p is None or p.flag is None or p.flag in seen:
                continue
            seen.add(p.flag)
            if p.kind is bool:
                parser.add_argument(p.flag, action="store_true", help=p.help)
            else:
                parser.add_argument(
                    p.flag,
                    default=p.default,
                    type=p.kind if p.kind in (int, float) else None,
                    choices=p.choices,
                    metavar=p.metavar,
                    help=p.help,
                )


def _build_parser(
    flags_for: Sequence[str] = tuple(_BENCH_COMMANDS),
) -> argparse.ArgumentParser:
    """The full parser; bench commands outside ``flags_for`` are listed
    but get no flags (``main`` only needs the invoked command's)."""
    parser = argparse.ArgumentParser(
        prog="hypermodel",
        description="The HyperModel benchmark (EDBT 1990), reproduced in Python.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the section 5.2 sizing table")

    generate = sub.add_parser("generate", help="build a test database")
    _add_common_db_args(generate)

    verify = sub.add_parser("verify", help="generate and verify a database")
    _add_common_db_args(verify)

    run = sub.add_parser("run", help="run the cold/warm benchmark grid")
    run.add_argument(
        "--backends",
        default="memory,sqlite,oodb,clientserver",
        help="comma-separated backend registry names",
    )
    run.add_argument(
        "--levels", default="4", help="comma-separated leaf levels"
    )
    run.add_argument(
        "--ops",
        default=None,
        help="comma-separated operation ids (default: all)",
    )
    run.add_argument(
        "--repetitions",
        type=int,
        default=50,
        help="runs per cold/warm pass",
    )
    run.add_argument("--seed", type=int, default=19880301)
    run.add_argument(
        "--save", default=None, help="write results JSON to this path"
    )
    run.add_argument(
        "--counters",
        action="store_true",
        help="instrument the backends and print per-operation counter tables",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="export a Chrome trace-event JSON of the run's tail "
        "(load in Perfetto / chrome://tracing)",
    )

    diff = sub.add_parser(
        "bench-diff",
        help="compare the cells of two BENCH_*.json documents leaf by "
        "leaf; exit 1 on any difference",
    )
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("candidate", help="candidate BENCH_*.json")

    trace = sub.add_parser(
        "trace",
        help="run one operation cold under instrumentation, export a "
        "Chrome trace",
    )
    _add_common_db_args(trace)
    trace.add_argument(
        "--op", default="10", help="operation id to trace (default: 10)"
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace-event JSON path (default: trace.json)",
    )

    for command in _BENCH_COMMANDS:
        _add_bench_parser(sub, command, command in flags_for)

    dash = sub.add_parser(
        "dash",
        help="render BENCH documents + timeline JSONL + Chrome trace"
        " into one self-contained HTML dashboard",
    )
    dash.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="BENCH_JSON",
        help="benchmark document to include (repeatable)",
    )
    dash.add_argument(
        "--timeline",
        default=None,
        metavar="JSONL",
        help="flight-recorder timeline to chart",
    )
    dash.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_JSON",
        help="Chrome trace-event JSON to summarise",
    )
    dash.add_argument(
        "--title",
        default="HyperModel game-day dashboard",
        help="dashboard page title",
    )
    dash.add_argument(
        "--out",
        default="dashboard.html",
        help="output HTML path (default: dashboard.html)",
    )

    query = sub.add_parser("query", help="run an ad-hoc query (R12)")
    _add_common_db_args(query)
    query.add_argument("text", help='e.g. "find nodes where hundred between 1 and 10"')

    rube = sub.add_parser("rubenstein", help="run the RUBE87 baseline")
    rube.add_argument("--backend", default="sqlite", choices=["memory", "sqlite"])
    rube.add_argument("--persons", type=int, default=1000)
    rube.add_argument("--documents", type=int, default=1000)
    rube.add_argument("--repetitions", type=int, default=50)

    maintain = sub.add_parser(
        "maintain", help="vacuum / backup / gc an oodb database file"
    )
    maintain.add_argument("action", choices=["vacuum", "backup", "gc"])
    maintain.add_argument("path", help="the .hmdb database file")
    maintain.add_argument(
        "--target", default=None, help="backup destination (backup only)"
    )
    maintain.add_argument(
        "--roots",
        default=None,
        help="comma-separated root uniqueIds (gc only; default: node 1)",
    )

    sub.add_parser("r7", help="print the R7 latency-profile assessment")

    return parser


def _cmd_info() -> int:
    print("HyperModel test-database sizes (fan-out 5; section 5.2)")
    print(f"{'level':>6} {'nodes':>8} {'text':>7} {'form':>6} {'~bytes':>12}")
    for level in (4, 5, 6):
        cfg = HyperModelConfig(levels=level)
        print(
            f"{level:>6} {cfg.total_nodes:>8} {cfg.text_node_count:>7} "
            f"{cfg.form_node_count:>6} {cfg.estimated_size_bytes():>12,}"
        )
    return 0


def _make_db(args: argparse.Namespace):
    from repro.backends import create_backend

    return create_backend(args.backend, args.path)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.generator import DatabaseGenerator
    from repro.harness.runner import creation_phases

    db = _make_db(args)
    db.open()
    config = HyperModelConfig(levels=args.level, seed=args.seed)
    gen = DatabaseGenerator(config).generate(db)
    db.commit()
    print(
        f"generated {gen.total_nodes} nodes "
        f"({len(gen.text_uids)} text, {len(gen.form_uids)} form) "
        f"into {db.backend_name}"
    )
    for phase, ms in creation_phases(gen).items():
        print(f"  {phase:<14} {ms:8.4f} ms/item")
    if args.backend.startswith("oodb"):
        from repro.engine.pages import PAGE_SIZE

        heap, index, free, live = db.store.space()
        each = PAGE_SIZE / gen.total_nodes
        print(f"  bytes/node     heap {heap * each:.1f}, index {index * each:.1f}, "
              f"free {free * each:.1f}; heap fill {live / (heap * PAGE_SIZE):.3f}")
    db.close()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.generator import DatabaseGenerator
    from repro.core.verification import verify_database

    db = _make_db(args)
    db.open()
    config = HyperModelConfig(levels=args.level, seed=args.seed)
    gen = DatabaseGenerator(config).generate(db)
    db.commit()
    report = verify_database(db, gen)
    db.close()
    if report.ok:
        print(f"OK: {report.checks_run} checks passed")
        return 0
    for problem in report.problems:
        print(f"FAIL: {problem}")
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness import BenchmarkRunner, RunnerConfig
    from repro.harness.report import creation_table, full_report
    from repro.obs import Instrumentation

    instrumentation = None
    if args.counters or args.trace:
        # A big span ring when tracing: keep the whole tail of the run.
        instrumentation = Instrumentation(
            span_capacity=65536 if args.trace else 1024
        )
    config = RunnerConfig(
        backends=args.backends.split(","),
        levels=[int(level) for level in args.levels.split(",")],
        op_ids=args.ops.split(",") if args.ops else None,
        repetitions=args.repetitions,
        seed=args.seed,
        instrumentation=instrumentation,
    )
    with BenchmarkRunner(config) as runner:
        results, creation = runner.run()
        print(
            full_report(
                results,
                title="HyperModel benchmark results",
                include_counters=args.counters,
            )
        )
        for level in config.levels:
            phases = {b: p for (b, at), p in creation.items() if at == level}
            print("\n" + creation_table(phases, level=level))
        if args.save:
            results.save(args.save)
            print(f"results written to {args.save}")
        if args.trace:
            from repro.obs.traceexport import write_chrome_trace

            document = write_chrome_trace(
                runner.instrumentation, args.trace
            )
            print(
                f"trace written to {args.trace} "
                f"({len(document['traceEvents'])} events; load in Perfetto)"
            )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.harness.benchdiff import diff_files, format_diff

    rows, exit_code = diff_files(args.baseline, args.candidate)
    print(format_diff(rows))
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.generator import DatabaseGenerator
    from repro.core.operations import CATALOG, Operations
    from repro.backends import create_backend
    from repro.obs import Instrumentation
    from repro.obs.traceexport import write_chrome_trace

    instr = Instrumentation(span_capacity=65536)
    db = create_backend(args.backend, args.path, instrumentation=instr)
    db.open()
    config = HyperModelConfig(levels=args.level, seed=args.seed)
    gen = DatabaseGenerator(config).generate(db)
    db.commit()
    # Cold run: close/reopen so the trace shows faulting and round trips.
    db.close()
    db.open()
    instr.reset()
    spec = CATALOG.get(args.op)
    ops = Operations(db, config)
    root = db.lookup(gen.root_uid)
    with instr.span(f"trace.op{spec.op_id}"):
        spec.run(ops, (root,))
    if spec.mutates:
        db.commit()
    db.close()
    # Sharded backends annotate their shard lanes with the placement
    # policy so the exporter can stamp lane metadata.
    lane_metadata = None
    server = getattr(db, "server", None)
    if server is not None and hasattr(server, "trace_lane_metadata"):
        lane_metadata = server.trace_lane_metadata()
    document = write_chrome_trace(instr, args.out, lane_metadata=lane_metadata)
    print(
        f"op {spec.op_id} ({spec.name}) on {args.backend}: "
        f"{document['otherData']['span_count']} spans, "
        f"{len(document['traceEvents'])} trace events"
    )
    print(f"trace written to {args.out} (load in Perfetto / chrome://tracing)")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import write_dashboard

    if not args.bench and not args.timeline and not args.trace:
        print("dash: nothing to render (pass --bench/--timeline/--trace)")
        return 2
    write_dashboard(
        args.out,
        bench_paths=args.bench,
        timeline_path=args.timeline,
        trace_path=args.trace,
        title=args.title,
    )
    print(f"dashboard written to {args.out} (self-contained HTML)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the command's legs: call, write, summarize, tally violations."""
    from repro.harness.grid import write_document

    violations = 0
    for leg in _bench_legs(args.command):
        if leg.switch is not None and not getattr(args, leg.switch.dest):
            continue
        values = {
            p.name: p.value(getattr(args, p.dest))
            for p in leg.params
            if p.flag is not None
        }
        out = getattr(args, leg.out.dest)
        document = leg.run(**values)
        write_document(out, document)
        print(leg.summary(document))
        print(f"results written to {out}")
        for p in leg.params:
            if p.note and values.get(p.name):
                print(p.note.format(values[p.name], out=out))
        violations += document.get("violation_count", 0)
    return 1 if violations else 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.generator import DatabaseGenerator
    from repro.query import execute

    db = _make_db(args)
    db.open()
    config = HyperModelConfig(levels=args.level, seed=args.seed)
    DatabaseGenerator(config).generate(db)
    db.commit()
    result = execute(db, args.text)
    print(f"plan: {result.plan}")
    print(f"matched {len(result)} nodes ({result.nodes_examined} examined)")
    uids = sorted(db.get_attribute(ref, "uniqueId") for ref in result)
    preview = ", ".join(str(uid) for uid in uids[:20])
    if len(uids) > 20:
        preview += ", ..."
    print(f"uniqueIds: {preview}")
    db.close()
    return 0


def _cmd_rubenstein(args: argparse.Namespace) -> int:
    import tempfile

    from repro.rubenstein import (
        MemorySimpleDatabase,
        SimpleGenerator,
        SimpleOperations,
        SqliteSimpleDatabase,
    )

    # A file, so op 7 (databaseOpen) really reopens the database.
    with tempfile.TemporaryDirectory() as workdir:
        db = (
            MemorySimpleDatabase()
            if args.backend == "memory"
            else SqliteSimpleDatabase(f"{workdir}/rube87.db")
        )
        db.open()
        info = SimpleGenerator(args.persons, args.documents).generate(db)
        ops = SimpleOperations(db, info)
        results = ops.run_all(repetitions=args.repetitions)
        print(
            f"RUBE87 baseline on {db.backend_name}: "
            f"{info.persons} persons, {info.documents} documents"
        )
        for name, stats in results.items():
            print(f"  {name:<16} {stats.mean:9.4f} ms/op  (median {stats.median:.4f})")
        db.close()
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    from repro.backends.oodb import OodbDatabase

    db = OodbDatabase(args.path)
    db.open()
    try:
        if args.action == "vacuum":
            stats = db.store.vacuum()
            print(
                f"vacuumed: {stats.size_before:,} -> {stats.size_after:,} "
                f"bytes ({stats.reclaimed:,} reclaimed)"
            )
        elif args.action == "backup":
            if not args.target:
                print("backup requires --target")
                return 1
            db.backup(args.target)
            print(f"snapshot written to {args.target}")
        else:  # gc
            root_uids = (
                [int(u) for u in args.roots.split(",")]
                if args.roots
                else [1]
            )
            roots = [db.lookup(uid) for uid in root_uids]
            stats = db.collect_garbage(roots)
            print(
                f"gc: {stats.collected} collected, {stats.live} live "
                f"(from {stats.roots} roots)"
            )
    finally:
        db.close()
    return 0


def _cmd_r7() -> int:
    from repro.netsim.profiles import r7_table

    print("R7: uncached object faulting vs the 100-10,000 objects/s band")
    print(r7_table())
    print("('cache? needed' = only workstation caching reaches the band)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(flags_for=argv[:1]).parse_args(argv)
    handlers = {
        "info": lambda: _cmd_info(),
        "generate": lambda: _cmd_generate(args),
        "verify": lambda: _cmd_verify(args),
        "run": lambda: _cmd_run(args),
        "bench-diff": lambda: _cmd_bench_diff(args),
        "dash": lambda: _cmd_dash(args),
        "trace": lambda: _cmd_trace(args),
        "query": lambda: _cmd_query(args),
        "rubenstein": lambda: _cmd_rubenstein(args),
        "maintain": lambda: _cmd_maintain(args),
        "r7": lambda: _cmd_r7(),
    }
    if args.command in _BENCH_COMMANDS:
        return _cmd_bench(args)
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
