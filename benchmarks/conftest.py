"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one row-group of the paper's
measurement grid (see DESIGN.md's per-experiment index).  The grid is
parametrized by environment variables so the full paper-scale runs are
one shell line away:

* ``HYPERMODEL_LEVEL``    — leaf level of the test databases
  (default 4; the paper also uses 5 and 6);
* ``HYPERMODEL_BACKENDS`` — comma-separated backend list (default
  ``memory,sqlite,oodb,clientserver``).

Databases are generated once per session and reused; benchmark
functions draw fresh random inputs per batch, mirroring the paper's
"50 random inputs" protocol (pytest-benchmark controls the repetition
counts instead of a fixed 50).
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.core.operations import CATALOG, Operations
from repro.harness.runner import BenchmarkRunner, RunnerConfig

LEVEL = int(os.environ.get("HYPERMODEL_LEVEL", "4"))
BACKENDS = os.environ.get(
    "HYPERMODEL_BACKENDS", "memory,sqlite,oodb,clientserver"
).split(",")

#: Inputs pre-drawn per operation benchmark (cycled through).
INPUT_POOL = 50


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    config = RunnerConfig(
        backends=list(BACKENDS),
        levels=[LEVEL],
        workdir=str(tmp_path_factory.mktemp("hypermodel-bench")),
    )
    with BenchmarkRunner(config) as runner:
        yield runner


@pytest.fixture(scope="session", params=BACKENDS)
def cell(request, runner):
    """One populated (backend, LEVEL) database, built once per session."""
    built = runner.build_cell(request.param, LEVEL)
    if not built.db.is_open:
        built.db.open()
    return built


class OperationDriver:
    """Cycles an operation over a pool of pre-drawn random inputs."""

    def __init__(self, cell, op_id: str, seed: int = 1988) -> None:
        if not cell.db.is_open:
            cell.db.open()
        self.cell = cell
        self.spec = CATALOG.get(op_id)
        self.ops = Operations(cell.db, cell.gen.config)
        rng = random.Random(seed)
        if self.spec.same_input_every_repetition:
            inputs = [self.spec.make_input(cell.gen, rng, cell.db)]
        else:
            inputs = [
                self.spec.make_input(cell.gen, rng, cell.db)
                for _ in range(INPUT_POOL)
            ]
        self._cycle = itertools.cycle(inputs)

    def __call__(self):
        return self.spec.run(self.ops, next(self._cycle))
