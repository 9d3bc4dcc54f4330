#!/usr/bin/env python3
"""Database-size scaling: the paper's level dimension.

The paper's tables have one column per test-database level (4, 5, 6 —
781, 3 906 and 19 531 nodes): per-node times that stay flat scale,
times that grow are size-sensitive, and the columns can reveal
crossovers between systems.  This example sweeps two backends across
levels, prints the scaling tables and reports any crossovers.

Defaults stay small (levels 3 and 4, memory + sqlite); a paper-scale
sweep is ``--levels 4,5,6 --backends sqlite,oodb`` and a pot of coffee.

Run:  python examples/level_sweep.py [--levels 3,4] [--backends memory,sqlite]
"""

import argparse
import tempfile

from repro.harness import BenchmarkRunner, RunnerConfig
from repro.harness.report import find_crossovers, scaling_table

#: A representative operation slice: one per major category.
DEFAULT_OPS = ["01", "03", "05A", "09", "10", "16"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", default="3,4")
    parser.add_argument("--backends", default="memory,sqlite")
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()

    levels = [int(level) for level in args.levels.split(",")]
    backends = args.backends.split(",")
    config = RunnerConfig(
        backends=backends,
        levels=levels,
        op_ids=DEFAULT_OPS,
        repetitions=args.repetitions,
        workdir=tempfile.mkdtemp(prefix="hypermodel-sweep-"),
    )
    print(f"sweeping {', '.join(backends)} across levels {levels} ...")
    with BenchmarkRunner(config) as runner:
        combined, _creation = runner.run()
    for backend in backends:
        print()
        print(scaling_table(combined, backend, "cold"))
        print()

    if len(backends) >= 2:
        flips = find_crossovers(combined, backends[0], backends[1], "cold")
        reported = {op: level for op, level in flips.items() if level}
        if reported:
            print("crossovers (first level where the faster backend flips):")
            for op_id, level in reported.items():
                print(f"  op {op_id}: at level {level}")
        else:
            print(
                f"no crossovers: one of {backends[0]}/{backends[1]} wins "
                "each operation at every measured level"
            )


if __name__ == "__main__":
    main()
