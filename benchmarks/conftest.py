"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one row-group of the paper's
measurement grid (see DESIGN.md's per-experiment index).  The grid is
parametrized by environment variables so the full paper-scale runs are
one shell line away:

* ``HYPERMODEL_LEVEL``    — leaf level of the test databases
  (default 4; the paper also uses 5 and 6);
* ``HYPERMODEL_BACKENDS`` — comma-separated backend list (default
  ``memory,sqlite,oodb,clientserver``).

Databases are generated once per session and reused.  The twenty
operations themselves (T-01 … T-18) are not timed here: that is
``repro run --ops <id>``, the section 5.3 cold/warm sequence.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.runner import BenchmarkRunner, RunnerConfig

LEVEL = int(os.environ.get("HYPERMODEL_LEVEL", "4"))
BACKENDS = os.environ.get(
    "HYPERMODEL_BACKENDS", "memory,sqlite,oodb,clientserver"
).split(",")


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
