"""The sharding grid benchmark behind ``BENCH_sharded.json``.

Measures the two costs the sharded deployment trades against each
other, over a shard-count × placement-policy grid:

* **closure latency** — cold scatter-gather closure push-down from
  seeded random internal nodes: hash placement pays a cross-shard
  round for almost every depth level, subtree-affine placement keeps
  1-N closures inside one shard (clustering as a placement policy —
  the benchmark axis Darmont's critique asks for);
* **update latency / throughput** — small read-modify-write
  transactions under optimistic concurrency: multi-shard write sets
  pay the two-phase-commit prepare+decide rounds, single-shard ones
  keep the classic one-round-trip ``commit_batch``.

All times are **virtual** (the simulated clock): the document is a
pure function of the grid and the seed, byte-identical across
machines, so CI holds the regenerated cells to exact equality with
``benchmarks/baseline/BENCH_sharded.json``.  Cells carry the same
``p50_ms``/``p90_ms``/``p99_ms`` + ``mode`` leaf shape the other
benchmarks use, under ``cells[shards<N>-<placement>][closure|update]``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.core.generator import GeneratedDatabase
from repro.harness import grid
from repro.harness.grid import Bench, Param
from repro.netsim.config import NetworkConfig, ShardConfig
from repro.obs import FlightRecorder, Instrumentation

PARAMS = (
    Param(
        "--shards", "shard_counts", "1,2,4", grid.ints,
        "comma-separated shard counts (default: 1,2,4)",
    ),
    Param(
        "--placements", "placements", "hash,affine", grid.strs,
        "comma-separated placement policies (default: hash,affine)",
    ),
    Param("--level", "level", 4, int, "leaf level (default: 4)"),
    Param(
        "--closures", "closures", 12, int,
        "cold closure traversals per cell (default: 12)",
    ),
    Param(
        "--updates", "updates", 24, int,
        "optimistic update transactions per cell (default: 24)",
    ),
    Param("--seed", "seed", 1989, int),
    grid.timeline_param("virtual clock, one sample per closure/update"),
)


def _deployment(
    records: Dict[int, Dict[str, Any]],
    shards: int,
    placement: str,
):
    """A fresh optimistic sharded deployment loaded with ``records``."""
    from repro.backends.clientserver import ClientServerDatabase

    instr = Instrumentation()
    db = ClientServerDatabase(
        network=NetworkConfig(
            concurrency="optimistic",
            sharding=ShardConfig(shards=shards, placement=placement),
        ),
        instrumentation=instr,
    )
    db.open()
    db.server.load_records(records)
    return db, instr


def _run_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    shards: int,
    placement: str,
    closures: int,
    updates: int,
    seed: int,
    recorder: Optional[FlightRecorder] = None,
) -> Dict[str, Any]:
    db, instr = _deployment(records, shards, placement)
    clock = db.simulated_clock
    rng = random.Random(
        seed * 7919 + shards * 101 + (13 if placement == "hash" else 29)
    )
    cell_key = f"shards{shards}-{placement}"
    if recorder is not None:
        # Each cell builds its own handle; repoint the shared recorder
        # at it (baselines restart, retained samples stay).
        recorder.rebind(instr)

    # -- cold closures ------------------------------------------------
    before = instr.snapshot()
    closure_samples: List[float] = []
    for _ in range(closures):
        root = gen.random_internal_uid(rng)
        closure_samples.append(grid.closure_ms(db, root))
        if recorder is not None:
            recorder.sample(clock.now, label=f"{cell_key}/closure")
    closure_delta = instr.delta_since(before)
    closure = grid.latency_leaf(
        closure_samples,
        "sharded-closure",
        round_trips=int(closure_delta.get("backend.rpc.round_trips", 0)),
        scatter_rounds=int(
            closure_delta.get("backend.rpc.scatter.rounds", 0)
        ),
        rpcs_per_closure=round(
            closure_delta.get("backend.rpc.round_trips", 0) / closures, 4
        ),
    )

    # -- optimistic updates (2PC when the write set spans shards) -----
    before = instr.snapshot()
    update_samples: List[float] = []
    update_start = clock.now
    for step in range(updates):
        a = gen.random_uid(rng)
        b = gen.random_uid(rng)
        start = clock.now
        db.set_attribute(a, "ten", step % 10)
        if b != a:
            db.set_attribute(b, "ten", (step + 1) % 10)
        db.commit()
        update_samples.append((clock.now - start) * 1000.0)
        if recorder is not None:
            recorder.sample(clock.now, label=f"{cell_key}/update")
    update_span = clock.now - update_start
    update_delta = instr.delta_since(before)
    update = grid.latency_leaf(
        update_samples,
        "sharded-update",
        round_trips=int(update_delta.get("backend.rpc.round_trips", 0)),
        two_phase_commits=int(update_delta.get("backend.2pc.commits", 0)),
        throughput_per_s=round(updates / update_span, 4)
        if update_span > 0
        else 0.0,
    )
    db.close()
    return {"closure": closure, "update": update}


def run_sharded_bench(**overrides: Any) -> Dict[str, Any]:
    """Run the shard-count × placement grid; return the JSON document.

    Keywords are the :data:`PARAMS` names.  The structure is generated
    once (level ``level``, seed ``seed``) and loaded into a fresh
    sharded deployment per cell, so cells are independent and the grid
    order does not matter.

    ``timeline`` writes a flight-recorder JSONL to that path: one
    sample per closure and per update iteration, stamped at the
    virtual clock with ``<cell>/closure`` / ``<cell>/update`` labels.
    Deterministic, and strictly additive to the returned document.
    """
    p = grid.resolve(PARAMS, overrides)
    shard_counts = p["shard_counts"] = sorted(
        set(int(n) for n in p["shard_counts"])
    )
    if not shard_counts or shard_counts[0] < 1:
        raise ValueError("shard counts must be positive")
    placements = p["placements"] = list(p["placements"])
    for placement in placements:
        ShardConfig(shards=max(shard_counts), placement=placement)
    gen, records = grid.generate_structure(p["level"], p["seed"])
    cells: Dict[str, Dict[str, Any]] = {}
    with grid.timeline(p["timeline"]) as recorder:
        for shards in shard_counts:
            for placement in placements:
                cells[f"shards{shards}-{placement}"] = _run_cell(
                    gen,
                    records,
                    shards,
                    placement,
                    p["closures"],
                    p["updates"],
                    p["seed"],
                    recorder=recorder,
                )
    return grid.document("sharded", PARAMS, p, cells)


def format_summary(document: Dict[str, Any]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"sharded grid — level {document['level']},"
        f" {document['closures']} closures + {document['updates']} updates"
        f" per cell, seed {document['seed']}",
        f"{'cell':>18}{'closure p50':>13}{'p99':>9}{'rpc/clo':>9}"
        f"{'update p50':>12}{'p99':>9}{'2pc':>6}{'tput/s':>9}",
    ]
    for key in sorted(document["cells"]):
        cell = document["cells"][key]
        closure, update = cell["closure"], cell["update"]
        lines.append(
            f"{key:>18}{closure['p50_ms']:>13.3f}{closure['p99_ms']:>9.3f}"
            f"{closure['rpcs_per_closure']:>9.2f}"
            f"{update['p50_ms']:>12.3f}{update['p99_ms']:>9.3f}"
            f"{update['two_phase_commits']:>6}"
            f"{update['throughput_per_s']:>9.1f}"
        )
    return "\n".join(lines)


BENCH = Bench(
    PARAMS,
    grid.out_param("BENCH_sharded.json"),
    run_sharded_bench,
    format_summary,
)
