"""Compare benchmark documents pairwise: parent against change.

    python3 bench/compare.py A1.json B1.json [A2.json B2.json ...]

Each pair is one run of the parent commit and one of the change, as
``bench/run.py --out`` writes them; run at least ten pairs, alternating
which side goes first.  One row per (end-to-end metric, workload), with
each side's median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict from the bounds the documents
themselves carry:

* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own quartile spread is wider than the
  bound, and not every run of the change beat every run of the parent;
* ``improved``   — at least ten pairs, the change won nine tenths of
  them, and the medians differ by more than the parent's quartile
  spread;
* ``unchanged``  — none of the above.

Per-layer metrics have no bound: their medians are printed side by
side, and those measured as counts are compared as counts (``same`` or
``differs``), never as a speed-up.  Exits non-zero on a regression or
on a higher share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10

#: Units that are counts, not times: compared for equality.
COUNT_UNITS = ("count", "bytes", "ratio")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _middle, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one row and the share of pairs the change won."""
    sign = -1.0 if better == "higher" else 1.0  # after this, lower is better
    a = [sign * value for value in parent]
    b = [sign * value for value in change]
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = quartiles(b)[1]
    wins = sum(y < x for x, y in zip(a, b))
    decided = sum(y != x for x, y in zip(a, b))
    win_share = wins / decided if decided else 0.0
    scale = abs(a_median)
    spread = a_q3 - a_q1
    if b_median - a_median > bound * scale:
        return "regressed", win_share
    if spread > bound * scale and not max(b) < min(a):
        return "unresolved", win_share
    if (
        len(a) >= MIN_PAIRS
        and win_share >= 0.9
        and a_median - b_median > spread
    ):
        return "improved", win_share
    return "unchanged", win_share


def _values(documents: List[Dict[str, Any]], workload: str, kind: str, name: str) -> List[float]:
    return [
        doc["workloads"][workload][kind]["metrics"][name]["value"]
        for doc in documents
    ]


def _failed_share(documents: List[Dict[str, Any]], workload: str) -> float:
    attempted = failed = 0
    for doc in documents:
        for kind in ("end_to_end", "per_layer"):
            attempted += doc["workloads"][workload][kind]["attempted"]
            failed += doc["workloads"][workload][kind]["failed"]
    return failed / attempted


def compare(parents: List[Dict[str, Any]], changes: List[Dict[str, Any]]) -> int:
    """Print every row; returns the process exit code."""
    declared = parents[0]["declared"]
    status = 0
    print(f"{len(parents)} pair(s); parent | change: median [q1, q3]")
    for workload in parents[0]["workloads"]:
        print(f"\n== {workload}")
        for metric in declared["end_to_end"]:
            a = _values(parents, workload, "end_to_end", metric["name"])
            b = _values(changes, workload, "end_to_end", metric["name"])
            outcome, win_share = verdict(a, b, metric["better"], metric["bound"])
            a_q1, a_median, a_q3 = quartiles(a)
            b_q1, b_median, b_q3 = quartiles(b)
            print(
                f"{metric['name']:30} {metric['unit']:6}"
                f" {a_median:11.5g} [{a_q1:.5g}, {a_q3:.5g}] |"
                f" {b_median:11.5g} [{b_q1:.5g}, {b_q3:.5g}]"
                f" {(b_median - a_median) / a_median:+8.1%}"
                f" bound {metric['bound']:.2f} wins {win_share:4.0%}"
                f" {outcome}"
            )
            if outcome == "regressed":
                status = 1
        for metric in declared["per_layer"]:
            a_median = statistics.median(
                _values(parents, workload, "per_layer", metric["name"]))
            b_median = statistics.median(
                _values(changes, workload, "per_layer", metric["name"]))
            if not a_median and not b_median:
                continue  # the layer does no work on this workload
            if metric["unit"] in COUNT_UNITS:
                note = "same" if a_median == b_median else "differs"
            else:
                note = f"{b_median / a_median:6.2f}x" if a_median else "new"
            print(
                f"  {metric['name']:44} {metric['unit']:6}"
                f" {a_median:11.5g} | {b_median:11.5g} {note}"
            )
        before, after = _failed_share(parents, workload), _failed_share(changes, workload)
        if after > before:
            print(f"failed operations rose: {before:.2%} -> {after:.2%}")
            status = 1
    return status


def main(argv: Sequence[str]) -> int:
    if not argv or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as source:
            documents.append(json.load(source))
    return compare(documents[0::2], documents[1::2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
