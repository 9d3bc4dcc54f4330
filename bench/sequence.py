"""The paper's section 5.3 cold/warm sequence, timed with the wall clock.

One *sequence* is steps (a)-(e) for one operation: close and reopen the
database (so its caches start empty), draw the inputs, run them cold,
commit, run the same inputs warm, commit.  The close that ends one
sequence is the close that begins the next, so the database stays open
between sequences and ``reopen_ms`` times ``close()`` + ``open()``.

Re-implemented here instead of calling ``repro.harness.protocol`` so
the benchmark runs unchanged when the harness is rewritten, and because
the harness seeds its inputs with a per-process-randomised ``hash()``.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import traceback
import zlib
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.operations import OperationSpec, Operations

from bench.oracle import digest


@dataclasses.dataclass
class Pass:
    """One cold or warm pass: its repetitions and their totals."""

    #: Milliseconds per node of every repetition that completed.
    samples: List[float] = dataclasses.field(default_factory=list)
    total_ms: float = 0.0
    nodes: int = 0

    @property
    def ms_per_node(self) -> float:
        """The paper's figure: time of the whole pass over its nodes."""
        return self.total_ms / self.nodes


@dataclasses.dataclass
class OpTally:
    """Everything measured for one operation over its sequences."""

    #: The passes of every sequence, by temperature.
    passes: Dict[str, List[Pass]] = dataclasses.field(
        default_factory=lambda: {"cold": [], "warm": []}
    )
    #: Commit wall time per node modified in the pass it commits.
    commit_ms: List[float] = dataclasses.field(default_factory=list)
    #: ``close()`` + ``open()`` at the start of each sequence.
    reopen_ms: List[float] = dataclasses.field(default_factory=list)
    #: Per sequence: repetitions completed per second of the whole
    #: sequence, untimed gaps (reopen, input drawing, commits) included.
    rates: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated-network seconds, by pass (client/server backends only).
    virtual_s: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {"cold": 0.0, "warm": 0.0}
    )

    def nodes(self, temperature: str) -> int:
        """Nodes returned (or modified) by every pass of one temperature."""
        return sum(one.nodes for one in self.passes[temperature])


class NoProbe:
    """What a run reports its regions to when nothing is traced.

    Every call sits outside the timed regions.  The traced handle of a
    traced run carries a ``bench.layers.Probe`` instead.
    """

    def round_begins(self) -> None:
        pass

    def round_ends(self) -> None:
        pass

    def sequence_begins(self, key: str, op_id: str) -> None:
        pass

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def pass_begins(self) -> None:
        pass

    def pass_ends(self, temperature: str) -> None:
        pass


@dataclasses.dataclass
class Handle:
    """One database plus what a sequence needs to drive it."""

    db: Any
    gen: Any
    ops: Operations
    probe: Any

    @classmethod
    def over(cls, db: Any, gen: Any, probe: Any = None) -> "Handle":
        return cls(db, gen, Operations(db, gen.config), probe or NoProbe())


def sequence_key(seed: int, workload: str, op_id: str, sequence: int) -> str:
    """Names one sequence; its inputs are drawn from the key's checksum.

    Not ``hash()``: string hashes are randomised per process, so inputs
    seeded with them differ from run to run.
    """
    return f"{seed}:{workload}:{op_id}:{sequence}"


def draw_inputs(
    spec: OperationSpec, handle: Handle, rng: random.Random, reps: int
) -> List[tuple]:
    """``reps`` inputs; op 17 reuses one form node (the paper's N.B.)."""
    if spec.same_input_every_repetition:
        return [spec.make_input(handle.gen, rng, handle.db)] * reps
    return [spec.make_input(handle.gen, rng, handle.db) for _ in range(reps)]


def _timed_pass(
    spec: OperationSpec,
    handle: Handle,
    inputs: List[tuple],
    tally: OpTally,
    digests: Optional[List[str]],
) -> Pass:
    """Run every input once, timing each repetition."""
    run, size_of, ops, gen = spec.run, spec.result_size, handle.ops, handle.gen
    probe = handle.probe
    this = Pass()
    for args in inputs:
        tally.attempted += 1
        probe.begin("bench.rep")
        try:
            started = perf_counter()
            result = run(ops, args)
            ended = perf_counter()
        except Exception:
            # A failed repetition is counted and contributes no latency.
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        finally:
            probe.end()
        size = size_of(result, gen)
        elapsed_ms = (ended - started) * 1000.0
        this.nodes += size
        this.total_ms += elapsed_ms
        this.samples.append(elapsed_ms / size)
        if digests is not None:
            digests.append(digest(handle, spec, args, result))
    return this


def run_sequence(
    handle: Handle,
    spec: OperationSpec,
    key: str,
    reps: int,
    tally: OpTally,
    digests: Optional[List[str]] = None,
) -> List[tuple]:
    """One cold/warm sequence on an open database; returns its inputs.

    ``key`` (see :func:`sequence_key`) seeds the inputs.  ``digests``
    (checked round only) receives one result digest per repetition, cold
    pass first.
    """
    db, probe = handle.db, handle.probe
    clock = getattr(db, "simulated_clock", None)
    rng = random.Random(zlib.crc32(key.encode()))
    sequence_started = perf_counter()

    probe.sequence_begins(key, spec.op_id)
    probe.begin("bench.reopen")
    started = perf_counter()
    db.close()
    db.open()
    tally.reopen_ms.append((perf_counter() - started) * 1000.0)
    probe.end()
    probe.begin("bench.prep")
    inputs = draw_inputs(spec, handle, rng, reps)
    probe.end()

    completed = 0
    for temperature in ("cold", "warm"):
        probe.pass_begins()
        virtual_started = clock.now if clock is not None else 0.0
        this = _timed_pass(spec, handle, inputs, tally, digests)
        if clock is not None:
            tally.virtual_s[temperature] += clock.now - virtual_started
        if this.nodes:
            tally.passes[temperature].append(this)
        completed += len(this.samples)
        probe.begin("bench.commit")
        started = perf_counter()
        db.commit()
        commit_s = perf_counter() - started
        probe.end()
        probe.pass_ends(temperature)
        if spec.mutates and this.nodes:
            tally.commit_ms.append(commit_s * 1000.0 / this.nodes)

    tally.rates.append(completed / (perf_counter() - sequence_started))
    return inputs
