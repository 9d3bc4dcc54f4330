"""Run the wall-clock HyperModel benchmark.

One workload, as the driver runs it (the last line of standard output
is the result object)::

    python3 bench/run.py --workload oodb-fit --seed 1 --seconds 10 --trace 0

Every workload, untraced and traced, each in its own child process,
collected into one document for ``bench/compare.py``::

    python3 bench/run.py --seed 1 --out A.json [--quick]

Load is one process, one thread, closed loop: the paper's protocol is a
single interactive user.  End-to-end metrics come only from ``--trace
0`` runs; ``--trace 1`` reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__" and sys.path[0] == os.path.join(ROOT, "bench"):
    # Run as a script: import this package by name, not its files as
    # top-level modules (``trace`` would shadow the standard library's).
    sys.path[0] = ROOT
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    raise SystemExit(
        "bench: src/repro, the program under test, is not in this checkout"
    )
sys.path.insert(1, os.path.join(ROOT, "src"))

from repro.backends.registry import create_backend  # noqa: E402
from repro.core.config import HyperModelConfig  # noqa: E402
from repro.core.generator import DatabaseGenerator  # noqa: E402
from repro.core.operations import CATALOG  # noqa: E402
from repro.core.verification import verify_database  # noqa: E402
from repro.netsim import ObjectServer  # noqa: E402
from repro.obs import Instrumentation  # noqa: E402

from bench import layers, metrics  # noqa: E402
from bench.oracle import digest  # noqa: E402
from bench.sequence import Handle, OpTally, run_sequence, sequence_key  # noqa: E402
from bench.trace import TimingVFS, Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    CLASS_OF, CLASSES, WORKLOADS, Workload, quick,
)

#: Repetitions per pass of the checked round, which is also the
#: discarded warm-up: enough to warm the interpreter, few enough that
#: digesting a 1 900-node range result per repetition stays cheap.
CHECKED_REPS = 10

#: Measured rounds of a ``--quick`` run (which ignores ``--seconds``).
QUICK_ROUNDS = 2


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def _reps(workload: Workload, op_id: str) -> int:
    return workload.plan[CLASS_OF[op_id]][0]


def set_up(workload: Workload, path: str) -> Tuple[Any, Any, float]:
    """Create, generate, commit and close one database; time all of it."""
    started = perf_counter()
    db = create_backend(workload.backend, path)
    db.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=workload.level)).generate(db)
    db.commit()
    db.close()
    return db, gen, perf_counter() - started


def stored_bytes(workload: Workload, db: Any, path: str) -> int:
    """Bytes the backend keeps for the database, after set-up.

    The engine file plus its log; the client/server backend keeps its
    records in server memory, so there it is their serialised size.
    """
    if workload.backend == "oodb":
        return os.path.getsize(path) + os.path.getsize(path + ".wal")
    return sum(
        ObjectServer.record_size(record)
        for record in db.server.export_records().values()
    )


def traced_twin(
    workload: Workload, db: Any, path: str, tracer: Tracer, instr: Instrumentation
) -> Any:
    """A second handle on the same data, built with live instrumentation.

    The untraced handle keeps the no-op instrumentation, so the untraced
    rounds of a traced run pay for neither spans nor counters.
    """
    if workload.backend == "oodb":
        return create_backend(
            "oodb", path, instrumentation=instr, vfs=TimingVFS(tracer)
        )
    twin = create_backend(workload.backend, instrumentation=instr)
    twin.server.load_records(db.server.export_records())
    return twin


def checked_round(
    workload: Workload, seed: int, handle: Handle, tally: OpTally
) -> Tuple[Dict[str, List[str]], Dict[str, List[tuple]]]:
    """One short sequence per operation, digesting every repetition.

    Returns the digests and the inputs drawn, both by operation.
    """
    digests: Dict[str, List[str]] = {}
    inputs: Dict[str, List[tuple]] = {}
    handle.db.open()
    for spec in CATALOG:
        digests[spec.op_id] = []
        inputs[spec.op_id] = run_sequence(
            handle, spec, sequence_key(seed, workload.name, spec.op_id, 0),
            min(_reps(workload, spec.op_id), CHECKED_REPS),
            tally, digests[spec.op_id],
        )
    handle.db.close()
    return digests, inputs


def edited_state(handle: Handle, inputs: Dict[str, List[tuple]]) -> List[str]:
    """What the checked round's edit inputs read back as, after a reopen."""
    handle.db.open()
    states = [
        digest(handle, CATALOG.get(op_id), args, None)
        for op_id in CLASSES["edit"] for args in inputs[op_id]
    ]
    handle.db.close()
    return states


def _mismatches(ours: List[str], oracle: List[str]) -> int:
    return sum(a != b for a, b in zip(ours, oracle)) + abs(len(ours) - len(oracle))


def oracle_mismatches(
    workload: Workload,
    seed: int,
    plain: Handle,
    digests: Dict[str, List[str]],
    inputs: Dict[str, List[tuple]],
    checks: OpTally,
) -> Dict[str, int]:
    """Digests that differ from the ``memory`` oracle's, by operation.

    The oracle is generated from the same configuration and driven
    through the same checked round.  The nodes that round edited are
    then read back from the reopened database under test and compared
    too; those comparisons are tallied in ``checks``.
    """
    oracle_db = create_backend("memory")
    oracle_db.open()
    oracle_gen = DatabaseGenerator(plain.gen.config).generate(oracle_db)
    oracle_db.commit()
    oracle = Handle.over(oracle_db, oracle_gen)
    expected, oracle_inputs = checked_round(workload, seed, oracle, OpTally())
    states = edited_state(plain, inputs)
    checks.attempted += len(states)
    checks.failed += _mismatches(states, edited_state(oracle, oracle_inputs))
    wrong = {
        op_id: _mismatches(digests[op_id], expected[op_id]) for op_id in digests
    }
    return {op_id: count for op_id, count in wrong.items() if count}


def measured_rounds(
    workload: Workload,
    seed: int,
    seconds: float,
    rounds: Optional[int],
    handles: List[Handle],
) -> List[Dict[str, OpTally]]:
    """Run rounds of sequences, alternating over ``handles``.

    Returns one tally set per handle.  A round runs every class's
    sequences as its plan says; the run ends at the first round boundary
    past ``seconds`` (or after ``rounds`` rounds) at which every handle
    has run equally often.
    """
    tallies = [{op_id: OpTally() for op_id in CATALOG.op_ids} for _ in handles]
    # A class due every 1/n rounds runs in each handle's first round.
    credit = [
        {
            name: max(0.0, 1.0 - share)
            for name, (_reps_, share) in workload.plan.items()
        }
        for _ in handles
    ]
    next_sequence = {op_id: 1 for op_id in CATALOG.op_ids}
    deadline = perf_counter() + seconds
    done = 0
    while True:
        which = done % len(handles)
        handle = handles[which]
        handle.db.open()
        handle.probe.round_begins()
        try:
            for name, ops in CLASSES.items():
                credit[which][name] += workload.plan[name][1]
                while credit[which][name] >= 1.0:
                    credit[which][name] -= 1.0
                    for op_id in ops:
                        key = sequence_key(
                            seed, workload.name, op_id, next_sequence[op_id])
                        next_sequence[op_id] += 1
                        run_sequence(
                            handle, CATALOG.get(op_id), key,
                            _reps(workload, op_id), tallies[which][op_id],
                        )
        finally:
            handle.probe.round_ends()
        handle.db.close()
        done += 1
        if done % len(handles) == 0:
            finished = (
                done // len(handles) >= rounds if rounds
                else perf_counter() >= deadline
            )
            if finished:
                return tallies


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    rounds: Optional[int] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, check and measure one workload; returns the full result."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(
            prefix=workload.name + "-", dir=work_root
        ) as work_dir:
            return _run_in(
                work_dir, workload, seed, seconds, trace, rounds, trace_out)
    finally:
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it


def _run_in(
    work_dir: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    rounds: Optional[int],
    trace_out: Optional[str],
) -> Dict[str, Any]:
    setups = []
    for index in range(workload.setups):
        path = os.path.join(work_dir, f"db{index}")
        db, gen, setup_s = set_up(workload, path)
        setups.append(setup_s)
    values: Dict[str, float] = {
        "setup_s": median(setups),
        "db_bytes_per_node": stored_bytes(workload, db, path) / gen.total_nodes,
    }

    checks = OpTally()
    if workload.verify:
        db.open()
        checks.attempted += 1
        report = verify_database(db, gen)
        if not report.ok:
            checks.failed += 1
            print("\n".join(report.problems[:10]), file=sys.stderr)
        db.close()

    plain = Handle.over(db, gen)
    digests, inputs = checked_round(workload, seed, plain, checks)

    handles = [plain]
    if trace:
        tracer = Tracer(keep_spans=trace_out is not None)
        instr = Instrumentation()
        probe = layers.Probe(tracer, instr)
        twin = traced_twin(workload, db, path, tracer, instr)
        handles.append(Handle.over(twin, gen, probe))
        before = instr.snapshot()
    tallies = measured_rounds(workload, seed, seconds, rounds, handles)

    detail: Dict[str, Any] = {
        "level": workload.level,
        "nodes": gen.total_nodes,
        # The flush policy is the backend's default; say what it was.
        "sync_commits": getattr(getattr(db, "store", None), "sync_commits", None),
        "inputs_digest": hashlib.sha1(repr(inputs).encode()).hexdigest()[:16],
    }
    if trace:
        values.update(layers.layer_metrics(
            probe, instr.snapshot().delta(before), tallies[1], tallies[0]))
        values.update(layers.router_metrics(workload, seed))
        detail["layers"] = layers.layer_table(probe, tallies[1])
        detail["caches"] = layers.cache_table(probe)
        detail["samples"] = metrics.sample_counts(tallies[1])
        if trace_out is not None:
            tracer.write_spans(trace_out)
    else:
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        values.update(metrics.end_to_end(tallies[0]))
        detail["samples"] = metrics.sample_counts(tallies[0])
        detail["p99_ms_per_node"] = {
            f"{name}_{temperature}": metrics.class_metric(
                tallies[0], name, (temperature,), 0.99)
            for name in CLASSES for temperature in ("cold", "warm")
        }

    # The oracle is built only now, so that it is not part of peak_rss_mb.
    wrong = oracle_mismatches(workload, seed, plain, digests, inputs, checks)
    if wrong:
        print(f"results differ from the oracle: {wrong}", file=sys.stderr)
        detail["oracle_mismatches"] = wrong

    every = [checks] + [t for group in tallies for t in group.values()]
    failed = sum(t.failed for t in every) + sum(wrong.values())
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in every),
        "failed": failed,
        "values": values,
        "detail": detail,
    }


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's result object: every declared metric of one kind."""
    kind = "per_layer" if trace else "end_to_end"
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": result["values"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared()[kind]
        },
    }


def print_summary(result: Dict[str, Any], line: Dict[str, Any]) -> None:
    """Every metric by name, with its unit, then the layer table."""
    detail = result["detail"]
    print(
        f"{result['workload']}: level {detail['level']},"
        f" {detail['nodes']} nodes, sync_commits={detail['sync_commits']},"
        f" attempted {line['attempted']}, failed {line['failed']}"
    )
    for name, metric in line["metrics"].items():
        print(f"  {name:46} {metric['value']:14.6g} {metric['unit']}")
    for layer, row in detail.get("layers", {}).items():
        print(
            f"  layer {layer:24} self {row['self_ms_per_node']:.5f} ms/node"
            f"  calls {row['calls_per_node']:8.3f} /node"
            f"  share {row['share']:6.1%}"
        )
    for region, row in detail.get("caches", {}).items():
        print(f"  caches {region:14} " + "  ".join(
            f"{name} {value:.3g}" for name, value in row.items()))


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    document: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "declared": declared(),
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            entry: Dict[str, Any] = {}
            for trace in (0, 1):
                out = os.path.join(scratch, f"{name}-{trace}.json")
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", out,
                ] + (["--quick"] if args.quick else [])
                child = subprocess.run(command, check=False)
                status = status or child.returncode
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as source:
                        entry["per_layer" if trace else "end_to_end"] = json.load(source)
            document["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump(document, sink, indent=1, sort_keys=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="level 3, two rounds: a smoke test, not a measurement")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--trace-out", help="with --trace 1: write the raw spans here (JSONL)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)

    workload = WORKLOADS[args.workload]
    result = run_workload(
        quick(workload) if args.quick else workload,
        args.seed, args.seconds, bool(args.trace),
        rounds=QUICK_ROUNDS if args.quick else None,
        trace_out=args.trace_out if args.trace else None,
    )
    line = result_line(result, bool(args.trace))
    print_summary(result, line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump({**line, "detail": result["detail"]}, sink, sort_keys=True)
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
