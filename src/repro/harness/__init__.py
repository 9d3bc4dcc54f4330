"""The benchmark harness: the paper's measurement protocol.

* :mod:`repro.harness.timing` — timers (wall clock + simulated network
  clock) and summary statistics;
* :mod:`repro.harness.protocol` — the section 5.3 cold/warm operation
  sequence (open, 50 cold, commit, 50 warm, close) normalized to
  milliseconds per node;
* :mod:`repro.harness.results` — result records with JSON persistence;
* :mod:`repro.harness.report` — paper-style result tables;
* :mod:`repro.harness.runner` — the full grid driver (backends x
  levels x operations) behind ``repro run``: the one timed path that
  has no baseline and gates nothing, so any registered preset can sit
  beside its control in one report;
* :mod:`repro.harness.grid` — the grid-bench kernel (parameter tables,
  structure dump, latency leaf, timeline recorder, document header +
  provenance, the one JSON writer) under the three gated
  ``BENCH_*.json`` grids ``multiuserbench`` / ``shardbench`` /
  ``replicabench``;
* :mod:`repro.harness.crashpoints` — the crash-point kernel (counting
  pre-pass, one armed VFS per mutating I/O operation, violation tally)
  under the three ``repro crashtest`` drills ``crashtest`` /
  ``shardcrash`` / ``replicacrash``.
"""

from repro.harness.protocol import ColdWarmResult, run_operation_sequence
from repro.harness.results import ResultSet
from repro.harness.runner import BenchmarkRunner, RunnerConfig
from repro.harness.timing import Stats, Timer

__all__ = [
    "ColdWarmResult",
    "run_operation_sequence",
    "ResultSet",
    "BenchmarkRunner",
    "RunnerConfig",
    "Stats",
    "Timer",
]
