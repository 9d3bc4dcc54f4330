"""The multi-user grid benchmark behind ``BENCH_multiuser.json``.

The paper's section 7 stops at "we have done some experiments with
multi-user aspects"; this module runs the experiment the authors
sketched, deterministically.  A clients × conflict-rate grid of
optimistic transaction loads runs on the discrete-event scheduler
(:class:`~repro.concurrency.multiuser.MultiUserHarness`): every cell
gets a fresh :class:`~repro.netsim.server.ObjectServer` seeded with
the *same* generated structure and a write-ahead log in group-commit
mode, so the numbers answer three questions at once:

* **saturation** — committed transactions per simulated second rises
  with the client count, then flattens at the server's service rate
  (the closed-queueing-network ceiling ``min(N/(Z+D), 1/D)``);
* **contention** — the optimistic abort rate is exactly zero in the
  ``conflict 0.0`` control column and grows with client count in the
  hot-set columns;
* **durability cost** — a side-by-side WAL comparison at the largest
  client count shows group commit amortizing fsyncs across
  near-simultaneous commits (``fsyncs_per_commit`` drops from 1.0
  toward ``1 / group_commit_size``).

All times are *virtual*: the document is a pure function of the seed
and the grid, byte-identical across machines, which is why CI can diff
it against a committed baseline with ``repro bench-diff`` (cells carry
the ``mode`` tag every grid cell does).
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.core.generator import GeneratedDatabase
from repro.engine.wal import WriteAheadLog
from repro.harness import grid
from repro.harness.grid import Bench, Param
from repro.harness.timing import Stats
from repro.netsim.config import NetworkConfig, SimConfig
from repro.netsim.latency import LatencyModel
from repro.netsim.server import ObjectServer
from repro.obs import FlightRecorder, Instrumentation, LatencyHistogram

PARAMS = (
    Param(
        "--clients", "clients", "1,2,4,8", grid.ints,
        "comma-separated client counts (default: 1,2,4,8)",
    ),
    Param(
        "--conflict", "conflict_rates", "0.0,0.2", grid.floats,
        "comma-separated conflict rates in [0,1] (default: 0.0,0.2)",
    ),
    Param("--level", "level", 3, int, "leaf level (default: 3)"),
    Param(
        "--transactions", "transactions_per_client", 8, int,
        "transactions per client (default: 8)",
    ),
    Param(
        "--reads-per-txn", "reads_per_txn", 4, int,
        "Zipf-skewed reads per transaction (default: 4)",
    ),
    Param(
        "--hot-set", "hot_set_size", 8, int,
        "size of the shared hot write set (default: 8)",
    ),
    Param("--seed", "seed", 1989, int),
    Param(
        "--group-commit-size", "group_commit_size", 8, int,
        "WAL commits per fsync in group-commit mode (default: 8)",
    ),
    Param(
        "--trace", "trace", None, metavar="TRACE_JSON", header=False,
        help="export a Chrome trace-event JSON of the run's tail, one"
        " lane per client (see docs/observability.md)",
        note="trace written to {} (one lane per client)",
    ),
    grid.timeline_param(
        "virtual clock, deterministic, byte-identical across runs"
    ),
    Param(
        "--timeline-cadence", "timeline_cadence_seconds", 0.02, float,
        "virtual-time sampling cadence for --timeline (default: 0.02)",
        metavar="SECONDS", header=False,
    ),
    Param(None, "workdir", None, header=False),
)


def _run_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    wal: WriteAheadLog,
    clients: int,
    conflict_rate: float,
    p: Dict[str, Any],
    sim: SimConfig,
    instrumentation: Optional[Instrumentation],
    recorder: Optional[FlightRecorder],
    sample_label: str,
) -> Dict[str, Any]:
    """One (clients, conflict-rate) cell.

    ``p50_ms``/``p90_ms``/``p99_ms`` are exact order statistics of the
    per-transaction virtual latencies (begin to successful commit,
    retries included); ``histogram`` is the fleet's log-bucketed form,
    the one a deployment that never pools its samples could still
    emit.  ``mode`` is always ``"multiuser"``, the tag ``repro
    bench-diff`` checks every cell for.
    """
    from repro.concurrency.multiuser import MultiUserHarness

    server = ObjectServer(
        latency=LatencyModel(),
        instrumentation=instrumentation,
        wal=wal,
        fsync_seconds=sim.fsync_seconds,
    )
    server.load_records(records)
    harness = MultiUserHarness(
        server,
        gen,
        users=clients,
        seed=p["seed"],
        network=NetworkConfig(concurrency="optimistic"),
        sim=sim,
        instrumentation=instrumentation,
        recorder=recorder,
        sample_cadence_seconds=(
            p["timeline_cadence_seconds"] if recorder is not None else 0.0
        ),
        sample_label=sample_label,
    )
    result = harness.run_transactions(
        transactions_per_user=p["transactions_per_client"],
        reads_per_txn=p["reads_per_txn"],
        conflict_rate=conflict_rate,
        hot_set_size=p["hot_set_size"],
    )
    # Fleet distribution by *merging* per-client histograms — the
    # aggregation path a sharded fleet would use.  Bucket addition is
    # exact, so the bucket form equals from_samples(pooled) bit for bit
    # (pinned by tests/test_properties.py).
    hist = LatencyHistogram()
    pooled: List[float] = []
    for client_latencies in result.per_user_latencies_ms:
        hist.merge(LatencyHistogram.from_samples(client_latencies))
        pooled.extend(client_latencies)
    bucket_form = hist.to_dict()
    # A merged histogram's float sum depends on the merge order in
    # its last ULP; rounded, the leaf is order-independent.
    for key in ("sum", "mean"):
        if key in bucket_form:
            bucket_form[key] = round(bucket_form[key], 6)
    return {
        "mode": "multiuser",
        "clients": clients,
        "conflict_rate": conflict_rate,
        "transactions": clients * p["transactions_per_client"],
        "committed": result.committed,
        "aborted": result.aborted,
        "giveups": result.giveups,
        "retries": result.retries,
        "abort_rate": round(result.abort_rate, 6),
        "throughput_per_s": round(result.throughput_per_second, 4),
        "makespan_s": round(result.makespan_seconds, 6),
        **grid.percentiles(Stats.from_samples(pooled)),
        "histogram": bucket_form,
        "queue_s": round(result.queue_seconds, 6),
        "busy_s": round(result.busy_seconds, 6),
        "server_commits": result.server_commits,
        "server_conflicts": result.server_conflicts,
        "wal_syncs": result.wal_syncs,
        "fsyncs_per_commit": round(result.fsyncs_per_commit, 6),
    }


def run_multiuser_bench(**overrides: Any) -> Dict[str, Any]:
    """Run the clients × conflict grid; return the JSON document.

    Keywords are the :data:`PARAMS` names.  The structure is generated
    once (level ``level``, seed ``seed``) and replayed into a fresh
    server per cell, so cells are independent and the grid order does
    not matter.  Every grid cell runs with a group-commit WAL; the
    extra ``wal`` section re-runs the largest client count at conflict
    0.0 with per-commit fsyncs versus group commit, which is the
    "group commit measurably reduces fsyncs per commit" evidence.

    ``timeline`` writes a flight-recorder JSONL to that path: every
    cell is sampled on the virtual clock each
    ``timeline_cadence_seconds``, with the cell's grid coordinates as
    the sample label.  The samples are a pure function of the seed
    (byte-identical across runs) and strictly additive — the returned
    document is unchanged.  ``trace`` exports the run's span tail as a
    Chrome trace, one lane per client.  ``workdir`` holds the WAL
    files (a temporary directory by default).
    """
    p = grid.resolve(PARAMS, overrides)
    clients = p["clients"] = sorted(set(int(n) for n in p["clients"]))
    if not clients or clients[0] < 1:
        raise ValueError("client counts must be positive")
    rates = p["conflict_rates"] = sorted(
        set(float(r) for r in p["conflict_rates"])
    )
    group_commit_size = p["group_commit_size"]
    sim = SimConfig(seed=p["seed"])
    instrumentation = None
    if p["trace"] is not None:
        instrumentation = Instrumentation(span_capacity=65536)
    elif p["timeline"] is not None:
        instrumentation = Instrumentation()
    gen, records = grid.generate_structure(p["level"], p["seed"])

    grouped = {"group_commit": True, "group_commit_size": group_commit_size}
    with tempfile.TemporaryDirectory(
        prefix="hypermodel-mp-"
    ) as scratch, grid.timeline(
        p["timeline"], instrumentation=instrumentation
    ) as recorder:
        workdir = p["workdir"] or scratch

        def cell(name, label, n, rate, **wal_kwargs) -> Dict[str, Any]:
            wal = WriteAheadLog(
                os.path.join(workdir, f"{name}.wal"),
                sync_on_commit=False,
                **wal_kwargs,
            )
            try:
                return _run_cell(
                    gen, records, wal, n, rate, p, sim, instrumentation,
                    recorder, label,
                )
            finally:
                wal.close()

        cells = {
            f"clients-{n}": {
                f"conflict-{rate:g}": cell(
                    f"mp-{n}-{rate}",
                    f"clients-{n}/conflict-{rate:g}",
                    n,
                    rate,
                    **grouped,
                )
                for rate in rates
            }
            for n in clients
        }
        # WAL ablation: per-commit fsync vs group commit at the
        # largest client count, conflict 0.0 (clean commit stream).
        top = clients[-1]
        wal_section: Dict[str, Any] = {
            "clients": top,
            "conflict_rate": 0.0,
            "group_commit_size": group_commit_size,
        }
        for label, wal_kwargs in (
            ("per_commit", {}),
            ("group_commit", grouped),
        ):
            ablation = cell(
                f"mp-wal-{label}", f"wal/{label}", top, 0.0, **wal_kwargs
            )
            wal_section[label] = {
                key: ablation[key]
                for key in (
                    "fsyncs_per_commit",
                    "wal_syncs",
                    "server_commits",
                    "throughput_per_s",
                    "makespan_s",
                )
            }
    if p["trace"] is not None:
        from repro.obs.traceexport import write_chrome_trace

        write_chrome_trace(instrumentation, p["trace"])
    return grid.document("multiuser", PARAMS, p, cells, wal=wal_section)


def format_summary(document: Dict[str, object]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"multi-user optimistic grid — level {document['level']}, "
        f"{document['transactions_per_client']} txns/client, "
        f"seed {document['seed']}",
        f"{'clients':>8}{'conflict':>10}{'committed':>11}{'aborted':>9}"
        f"{'abort%':>8}{'tput/s':>9}{'p50 ms':>9}{'p99 ms':>9}"
        f"{'fsync/c':>9}",
    ]
    cells = document["cells"]
    for client_key in sorted(
        cells, key=lambda k: int(k.split("-", 1)[1])
    ):  # type: ignore[union-attr]
        for rate_key in sorted(
            cells[client_key], key=lambda k: float(k.split("-", 1)[1])
        ):
            cell = cells[client_key][rate_key]
            lines.append(
                f"{cell['clients']:>8}{cell['conflict_rate']:>10.2f}"
                f"{cell['committed']:>11}{cell['aborted']:>9}"
                f"{cell['abort_rate'] * 100:>7.1f}%"
                f"{cell['throughput_per_s']:>9.1f}"
                f"{cell['p50_ms']:>9.2f}{cell['p99_ms']:>9.2f}"
                f"{cell['fsyncs_per_commit']:>9.3f}"
            )
    wal = document.get("wal") or {}
    if wal:
        per = wal.get("per_commit", {})
        grp = wal.get("group_commit", {})
        lines.append(
            f"wal @ {wal['clients']} clients: "
            f"{per.get('fsyncs_per_commit', 0):.3f} fsyncs/commit"
            f" per-commit vs {grp.get('fsyncs_per_commit', 0):.3f}"
            f" grouped (size {wal['group_commit_size']})"
        )
    return "\n".join(lines)


BENCH = Bench(
    PARAMS,
    grid.out_param("BENCH_multiuser.json"),
    run_multiuser_bench,
    format_summary,
)
