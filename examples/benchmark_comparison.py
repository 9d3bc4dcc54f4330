#!/usr/bin/env python3
"""Run the full benchmark grid and print the paper-style tables.

This is the reproduction of the paper's measurement campaign in one
script: for every backend and level, build the test database (timing
creation per section 5.3), run each of the twenty operations through
the cold/warm protocol, and print per-backend operation tables, the
cross-backend comparison, the warm-speedup table and the creation
table.

Defaults are sized for a laptop run (level 4, 10 repetitions); pass
``--level 5 --repetitions 50`` for a paper-scale run.  The same grid
for any registered preset is ``repro run --backends ... --levels ...``.

Run:  python examples/benchmark_comparison.py [--level N]
      [--backends memory,sqlite,oodb,clientserver] [--repetitions N]
      [--save results.json]
"""

import argparse

from repro.harness import BenchmarkRunner, RunnerConfig
from repro.harness.report import (
    backend_comparison_table,
    creation_table,
    operation_table,
    speedup_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", type=int, default=4)
    parser.add_argument(
        "--backends", default="memory,sqlite,oodb,clientserver"
    )
    parser.add_argument("--repetitions", type=int, default=10)
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    config = RunnerConfig(
        backends=args.backends.split(","),
        levels=[args.level],
        repetitions=args.repetitions,
    )
    print(
        f"running {len(config.backends)} backends x level {args.level} x "
        f"20 operations, {args.repetitions} repetitions per cold/warm run"
    )
    print("(databases build first; the oodb backend takes the longest)\n")
    with BenchmarkRunner(config) as runner:
        results, creation = runner.run()

        print(
            creation_table(
                {
                    backend: phases
                    for (backend, _level), phases in creation.items()
                },
                level=args.level,
            )
        )
        print()
        for backend in results.backends:
            print(operation_table(results, backend))
            print()
        print(backend_comparison_table(results, args.level, "cold"))
        print()
        print(backend_comparison_table(results, args.level, "warm"))
        print()
        for backend in results.backends:
            print(speedup_table(results, backend))
            print()
        if args.save:
            results.save(args.save)
            print(f"results saved to {args.save}")


if __name__ == "__main__":
    main()
