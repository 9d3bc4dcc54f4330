"""The section 5.3 operation-sequence protocol.

For each benchmark operation the paper prescribes:

  (a) choose the inputs (random nodes/values; op 17 reuses one form
      node for all repetitions),
  (b) run the operation 50 times — the **cold run** (the database was
      just opened, so caches start empty),
  (c) **commit** the changes,
  (d) repeat the same 50 inputs — the **warm run** (measuring caching),
  (e) **close** the database so this sequence cannot warm the next one.

Each repetition is timed individually (wall clock plus any simulated
network time) and normalized to **milliseconds per node** using the
operation's result size, exactly as section 6 specifies.  The commit
after the cold run is timed separately and reported alongside.

Input preparation happens after the reopen but outside the timed
region: the paper passes "a random node" (a reference) as input, so
resolving a uniqueId to a reference is preparation, not measurement.
The closure operations' output lists are stored back into the database
once per sequence (untimed) to exercise the paper's "the list should be
storable" requirement.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from typing import Any, Dict, List, Optional

from repro.core.config import HyperModelConfig
from repro.core.generator import GeneratedDatabase
from repro.core.interface import HyperModelDatabase
from repro.core.operations import OperationSpec, Operations
from repro.harness.timing import Stats, Timer
from repro.obs import NO_OP, Instrumentation

#: The paper's repetition count per run.
DEFAULT_REPETITIONS = 50


@dataclasses.dataclass
class ColdWarmResult:
    """Measurements of one operation sequence on one database.

    All ``Stats`` are in **milliseconds per node** over the
    repetitions; ``cold_total_seconds`` / ``warm_total_seconds``
    include everything, and ``commit_seconds`` is the cost of the
    commit between the runs.

    ``cold_counters`` / ``warm_counters`` are instrumentation counter
    *deltas* over the corresponding run (what the 50 repetitions did,
    not absolute totals); empty when the backend runs with the no-op
    instrumentation.  The between-run commit is excluded from both:
    the harness calls ``Instrumentation.reset()`` after the cold delta
    is captured, so warm counters, histograms and spans describe the
    warm pass alone.
    """

    op_id: str
    op_name: str
    category: str
    backend: str
    level: int
    repetitions: int
    cold: Stats
    warm: Stats
    commit_seconds: float
    cold_total_seconds: float
    warm_total_seconds: float
    nodes_per_repetition: float
    cold_counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    warm_counters: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def warm_speedup(self) -> float:
        """cold mean / warm mean (how much caching helped)."""
        return self.cold.mean / self.warm.mean if self.warm.mean else float("inf")

    def to_dict(self) -> dict:
        """Serializable form."""
        raw = dataclasses.asdict(self)
        raw["cold"] = self.cold.to_dict()
        raw["warm"] = self.warm.to_dict()
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ColdWarmResult":
        """Rebuild from :meth:`to_dict` output.

        Tolerates older documents: missing counter keys load as empty
        deltas, and keys the record no longer carries (the
        bucket-quantised per-pass histogram summaries once stored
        beside the ``Stats``) are dropped.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        raw = {key: value for key, value in raw.items() if key in known}
        raw["cold"] = Stats.from_dict(raw["cold"])
        raw["warm"] = Stats.from_dict(raw["warm"])
        return cls(**raw)


def _reopen_cold(db: HyperModelDatabase) -> None:
    """Section 5.3(e)/(a): close and reopen so caches start empty."""
    if db.is_open:
        db.commit()
        db.close()
    db.open()


def _prepare_inputs(
    spec: OperationSpec,
    gen: GeneratedDatabase,
    rng: random.Random,
    db: HyperModelDatabase,
    repetitions: int,
) -> List[tuple]:
    if spec.same_input_every_repetition:
        single = spec.make_input(gen, rng, db)
        return [single] * repetitions
    return [spec.make_input(gen, rng, db) for _ in range(repetitions)]


def _timed_run(
    spec: OperationSpec,
    ops: Operations,
    inputs: List[tuple],
    gen: GeneratedDatabase,
    clock: Optional[object],
    instr: Instrumentation = NO_OP,
    temperature: str = "cold",
) -> tuple:
    """Run all repetitions; returns (ms-per-node samples, total s, sizes).

    Each repetition's latency also lands in the per-pass
    ``harness.iteration.<temperature>`` histogram (ms per repetition) —
    the hot-seam distributional record next to the engine and RPC
    seam histograms.
    """
    per_node_ms: List[float] = []
    total = 0.0
    sizes: List[int] = []
    last_result: Any = None
    hist_name = f"harness.iteration.{temperature}"
    for args in inputs:
        timer = Timer(clock)
        with timer:
            last_result = spec.run(ops, args)
        size = spec.result_size(last_result, gen)
        sizes.append(size)
        per_node_ms.append(timer.elapsed * 1000.0 / size)
        total += timer.elapsed
        instr.observe(hist_name, timer.elapsed * 1000.0)
    return per_node_ms, total, sizes, last_result


def run_operation_sequence(
    db: HyperModelDatabase,
    spec: OperationSpec,
    gen: GeneratedDatabase,
    config: Optional[HyperModelConfig] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
    store_result_list: bool = True,
) -> ColdWarmResult:
    """Execute one full cold/warm sequence for one operation.

    Args:
        db: the populated backend (open or closed; it is cycled).
        spec: which operation to run.
        gen: generation metadata (for input picking and normalization).
        config: benchmark configuration (defaults to ``gen.config``).
        repetitions: runs per cold and warm pass (paper: 50).
        seed: input-selection seed (distinct per op via the runner).
        store_result_list: store one closure result list back into the
            database after the timed runs (capability exercise).

    Returns:
        A :class:`ColdWarmResult` with ms-per-node statistics.
    """
    config = config or gen.config
    # crc32, not hash(): str hashes are salted per process, and the
    # same --seed must draw the same inputs in every process.
    rng = random.Random(
        (seed * 1_000_003) ^ zlib.crc32(spec.op_id.encode("ascii"))
    )
    clock = getattr(db, "simulated_clock", None)
    instr: Instrumentation = getattr(db, "instrumentation", NO_OP) or NO_OP

    # (a) fresh open, then input preparation (untimed).
    _reopen_cold(db)
    ops = Operations(db, config)
    inputs = _prepare_inputs(spec, gen, rng, db, repetitions)

    # (b) cold run, with a counter snapshot around it.
    before_cold = instr.snapshot()
    cold_ms, cold_total, sizes, last_result = _timed_run(
        spec, ops, inputs, gen, clock, instr, "cold"
    )
    cold_counters = instr.snapshot().delta(before_cold)

    # (c) commit, timed separately (its counters belong to neither run).
    commit_timer = Timer(clock)
    with commit_timer:
        db.commit()

    # Pinned contract: reset() atomically clears counters, histograms
    # and the span ring between the passes, so warm-pass measurements
    # (and spans — sequence numbers stay monotonic across the reset)
    # never alias cold-pass state.  The between-run commit's activity
    # is wiped with it, keeping it out of both passes.
    instr.reset()

    # (d) warm run with the same inputs.
    before_warm = instr.snapshot()
    warm_ms, warm_total, _sizes, last_result = _timed_run(
        spec, ops, inputs, gen, clock, instr, "warm"
    )
    warm_counters = instr.snapshot().delta(before_warm)

    # Exercise result-list storability (untimed; closures return lists).
    if store_result_list and isinstance(last_result, list) and last_result:
        refs = [
            item[0] if isinstance(item, tuple) else item for item in last_result
        ]
        db.store_node_list(f"result.{spec.op_id}", refs)

    # (e) close, so the next sequence starts cold.
    db.commit()
    db.close()

    return ColdWarmResult(
        op_id=spec.op_id,
        op_name=spec.name,
        category=spec.category,
        backend=db.backend_name,
        level=config.levels,
        repetitions=repetitions,
        cold=Stats.from_samples(cold_ms),
        warm=Stats.from_samples(warm_ms),
        commit_seconds=commit_timer.elapsed,
        cold_total_seconds=cold_total,
        warm_total_seconds=warm_total,
        nodes_per_repetition=sum(sizes) / len(sizes),
        cold_counters=cold_counters,
        warm_counters=warm_counters,
    )
