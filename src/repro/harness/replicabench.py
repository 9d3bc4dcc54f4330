"""The replication grid benchmark behind ``BENCH_replica.json``.

Measures the read-scaling claim of the replication layer over a
replica-count × write-rate × staleness-bound grid, in **virtual time**
(the document is a pure function of the grid and the seed, so CI
hard-gates it with ``repro bench-diff`` against
``benchmarks/baseline/BENCH_replica.json``):

* **read throughput and latency** — N reader workstations run cold
  closure push-down reads through their per-client
  :class:`~repro.replication.router.ReplicaRouter`; each replica
  serves its routed reads on its own contended transport lane
  (:func:`repro.netsim.sim.replica_lanes`), so reads stop queueing
  behind each other as replicas are added — the headline scaling
  figure (``scaling`` records the 1→max-replica throughput ratio per
  write-rate/lag combination).
* **write interference** — one writer workstation commits at a fixed
  virtual rate onto the primary lane; each reader also writes once
  mid-run, so under a non-zero apply lag its next reads must fall
  back to the primary until a replica catches up to its session LSN
  (the ``fallbacks`` count in each cell makes the read-your-writes
  tax visible).
* **routing cell** — a single-client comparison arm: the same cold
  closure served by a replica, forced to the primary
  (``ReplicaRouter.force_primary``), and warm from the workstation
  cache, confirming replica-served reads cost exactly what
  primary-served reads cost on an idle system.

Cells carry the same ``p50_ms``/``p90_ms``/``p99_ms`` + ``mode`` leaf
shape the other benchmarks use, under
``cells[replicas<N>-write<W>-lag<L>ms][reads|writes]``.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, List, Optional

from repro.core.generator import GeneratedDatabase
from repro.harness import grid
from repro.harness.grid import Bench, Param
from repro.netsim.config import ReplicationConfig
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.sim import (
    DiscreteEventScheduler,
    LaneGroup,
    Workstation,
    replica_lanes,
)
from repro.obs import FlightRecorder, Instrumentation
from repro.replication.group import ReplicationGroup

PARAMS = (
    Param(
        "--replicas", "replica_counts", "1,2,4", grid.ints,
        "comma-separated replica counts (default: 1,2,4)",
    ),
    Param(
        "--write-rates", "write_rates", "0,40", grid.floats,
        "comma-separated writer rates in writes/s of virtual time;"
        " 0 = read-only (default: 0,40)",
    ),
    Param(
        "--lags", "lags", "0,0.02", grid.floats,
        "comma-separated replica apply lags in seconds (default: 0,0.02)",
    ),
    Param("--level", "level", 4, int, "leaf level (default: 4)"),
    Param(
        "--reads-per-reader", "reads_per_reader", 8, int,
        "closure reads per reader station (default: 8)",
    ),
    Param(
        "--routing-closures", "routing_closures", 6, int,
        "closures in the replica-warm vs primary-warm cell (default: 6)",
    ),
    Param("--seed", "seed", 1989, int),
    grid.timeline_param("virtual clock, deterministic"),
)

#: Workload shape per cell.  Read scaling needs the *station pool* to
#: out-offer a single lane by more than the replica-count spread:
#: closures are drawn from the root's level-1 subtrees (uniform size,
#: so no one giant closure dominates the critical path) and 16 reader
#: stations keep even 4 replica lanes saturated.
_READERS = 16
_WRITER_WRITES = 12
_ROOT_LEVEL = 1
_SERVICE_SECONDS = 0.0002
_THINK_SECONDS = 0.002


def _cell_key(replicas: int, write_rate: float, lag: float) -> str:
    return (
        f"replicas{replicas}-write{int(round(write_rate))}"
        f"-lag{int(round(lag * 1000))}ms"
    )


def _run_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    replicas: int,
    write_rate: float,
    lag: float,
    reads_per_reader: int,
    seed: int,
    recorder: Optional[FlightRecorder] = None,
) -> Dict[str, Any]:
    from repro.backends.clientserver import ClientServerDatabase

    instr = Instrumentation()
    latency = LatencyModel()
    group = ReplicationGroup(
        ReplicationConfig(replicas=replicas, apply_lag_seconds=lag),
        latency=latency,
        instrumentation=instr,
    )
    group.load_records(records)
    lanes = replica_lanes(
        latency,
        replicas,
        service_time_seconds=_SERVICE_SECONDS,
        instrumentation=instr,
        fallback_clock=group.clock,
    )
    transport = LaneGroup(lanes)
    cell_key = _cell_key(replicas, write_rate, lag)
    if recorder is not None:
        recorder.rebind(instr)

    read_samples: List[float] = []
    write_samples: List[float] = []

    def station(index: int, client_id: str, rng_seed: int) -> Workstation:
        client = ClientServerDatabase(
            server=group,
            clock=SimulatedClock(),
            instrumentation=instr,
            client_id=client_id,
        )
        client.open()
        return Workstation(index, client, random.Random(rng_seed))

    def timed_read(reader: Workstation) -> None:
        root = gen.random_uid_at_level(reader.rng, _ROOT_LEVEL)
        read_samples.append(grid.closure_ms(reader.client, root))

    def timed_write(station: Workstation, step: int) -> None:
        client = station.client
        uid = gen.random_uid(station.rng)
        start = client.simulated_clock.now
        client.set_attribute(uid, "ten", step % 10)
        client.commit()
        write_samples.append((client.simulated_clock.now - start) * 1000.0)

    def paced_write(writer: Workstation, step: int) -> None:
        # Self-paced: the writer advances its own clock to the next
        # beat, so its commit rate is the grid's write rate regardless
        # of the global think time.
        writer.client.simulated_clock.advance(1.0 / write_rate)
        timed_write(writer, step)

    jobs = []
    for index in range(_READERS):
        reader = station(
            index, f"w{index:02d}", seed * 6151 + index * 97 + replicas
        )
        tasks = []
        for step in range(reads_per_reader):
            if step == reads_per_reader // 2:
                # One mid-run write per reader: under a non-zero lag
                # the session token now outruns every replica, so the
                # next reads fall back to the primary until a replica
                # applies this commit — read-your-writes, measured.
                tasks.append(partial(timed_write, reader, step))
            tasks.append(partial(timed_read, reader))
        jobs.append((reader, tasks))
    total_reads = _READERS * reads_per_reader
    if write_rate > 0:
        writer = station(_READERS, "wr", seed * 7583 + replicas * 11)
        jobs.append(
            (
                writer,
                [
                    partial(paced_write, writer, step)
                    for step in range(_WRITER_WRITES)
                ],
            )
        )

    before = instr.snapshot()
    scheduler = DiscreteEventScheduler(
        group,
        transport,
        think_time_seconds=_THINK_SECONDS,
        recorder=recorder,
        sample_cadence_seconds=0.05 if recorder is not None else 0.0,
        sample_label=cell_key,
    )
    makespan = scheduler.run(jobs)
    delta = instr.delta_since(before)
    for worker, _tasks in jobs:
        worker.client.close()

    replica_reads = int(delta.get("backend.replica.reads", 0))
    fallbacks = int(delta.get("backend.replica.fallbacks", 0))
    cell: Dict[str, Any] = {
        "reads": grid.latency_leaf(
            read_samples,
            "replica-read",
            throughput_per_s=round(total_reads / makespan, 4)
            if makespan > 0
            else 0.0,
            replica_reads=replica_reads,
            fallbacks=fallbacks,
            makespan_s=round(makespan, 6),
        )
    }
    if write_samples:
        cell["writes"] = grid.latency_leaf(
            write_samples,
            "replica-write",
            writes=len(write_samples),
        )
    return cell


def _run_routing_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    closures: int,
    seed: int,
) -> Dict[str, Any]:
    """Single-client comparison arm: replica vs primary vs warm."""
    from repro.backends.clientserver import ClientServerDatabase

    instr = Instrumentation()
    group = ReplicationGroup(
        ReplicationConfig(replicas=1), instrumentation=instr
    )
    group.load_records(records)
    client = ClientServerDatabase(server=group, instrumentation=instr)
    client.open()
    rng = random.Random(seed * 9377)
    roots = [gen.random_internal_uid(rng) for _ in range(closures)]

    def timed_closures(force_primary: bool, cold: bool) -> List[float]:
        client.server.force_primary = force_primary
        samples = [grid.closure_ms(client, root, cold) for root in roots]
        client.server.force_primary = False
        return samples

    replica_cold = timed_closures(force_primary=False, cold=True)
    primary_cold = timed_closures(force_primary=True, cold=True)
    warm = timed_closures(force_primary=False, cold=False)
    client.close()
    return {
        "replica_cold": grid.latency_leaf(replica_cold, "replica-routed"),
        "primary_cold": grid.latency_leaf(primary_cold, "primary-forced"),
        "warm": grid.latency_leaf(warm, "workstation-warm"),
    }


def run_replica_bench(**overrides: Any) -> Dict[str, Any]:
    """Run the replica grid; return the JSON document.

    Keywords are the :data:`PARAMS` names.  The structure is generated
    once (level ``level``, seed ``seed``) and loaded into a fresh
    replication group per cell, so cells are independent and grid
    order does not matter.  ``timeline`` writes a flight-recorder JSONL
    (cadence samples of the lane backlogs and the
    ``backend.replica.<i>.applied_lsn``/``lag`` gauges, stamped at the
    virtual clock with the cell key as label).
    """
    p = grid.resolve(PARAMS, overrides)
    replica_counts = p["replica_counts"] = sorted(
        set(int(n) for n in p["replica_counts"])
    )
    if not replica_counts or replica_counts[0] < 1:
        raise ValueError("replica counts must be positive")
    write_rates = p["write_rates"] = [float(r) for r in p["write_rates"]]
    lags = p["lags"] = [float(lag) for lag in p["lags"]]
    for lag in lags:
        ReplicationConfig(replicas=max(replica_counts), apply_lag_seconds=lag)
    gen, records = grid.generate_structure(p["level"], p["seed"])
    cells: Dict[str, Dict[str, Any]] = {}
    with grid.timeline(p["timeline"]) as recorder:
        for replicas in replica_counts:
            for write_rate in write_rates:
                for lag in lags:
                    cells[_cell_key(replicas, write_rate, lag)] = _run_cell(
                        gen,
                        records,
                        replicas,
                        write_rate,
                        lag,
                        p["reads_per_reader"],
                        p["seed"],
                        recorder=recorder,
                    )
        cells["routing"] = _run_routing_cell(
            gen, records, p["routing_closures"], p["seed"]
        )
    scaling: Dict[str, float] = {}
    low, high = replica_counts[0], replica_counts[-1]
    if high > low:
        for write_rate in write_rates:
            for lag in lags:
                base = cells[_cell_key(low, write_rate, lag)]["reads"]
                top = cells[_cell_key(high, write_rate, lag)]["reads"]
                if base["throughput_per_s"] > 0:
                    scaling[
                        f"write{int(round(write_rate))}"
                        f"-lag{int(round(lag * 1000))}ms"
                    ] = round(
                        top["throughput_per_s"] / base["throughput_per_s"],
                        4,
                    )
    return grid.document(
        "replica", PARAMS, p, cells, readers=_READERS, scaling=scaling
    )


def format_summary(document: Dict[str, Any]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"replica grid — level {document['level']},"
        f" {document['readers']}×{document['reads_per_reader']} closure"
        f" reads per cell, seed {document['seed']}",
        f"{'cell':>26}{'read p50':>10}{'p99':>9}{'tput/s':>9}"
        f"{'fallbacks':>11}",
    ]
    for key in sorted(document["cells"]):
        cell = document["cells"][key]
        if "reads" not in cell:
            continue
        reads = cell["reads"]
        lines.append(
            f"{key:>26}{reads['p50_ms']:>10.3f}{reads['p99_ms']:>9.3f}"
            f"{reads['throughput_per_s']:>9.1f}{reads['fallbacks']:>11}"
        )
    routing = document["cells"].get("routing")
    if routing:
        lines.append(
            "routing (1 client): replica cold"
            f" {routing['replica_cold']['p50_ms']:.3f} ms, primary cold"
            f" {routing['primary_cold']['p50_ms']:.3f} ms, warm"
            f" {routing['warm']['p50_ms']:.3f} ms"
        )
    for combo in sorted(document.get("scaling", {})):
        lines.append(
            f"scaling {document['replica_counts'][0]}→"
            f"{document['replica_counts'][-1]} @ {combo}:"
            f" {document['scaling'][combo]:.2f}x"
        )
    return "\n".join(lines)


BENCH = Bench(
    PARAMS, grid.out_param("BENCH_replica.json"), run_replica_bench,
    format_summary,
)
