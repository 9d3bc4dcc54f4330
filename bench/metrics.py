"""Order statistics and the end-to-end metrics built from them.

Percentiles are exact order statistics (no buckets).  A class metric is
the geometric mean over the class's operations of each operation's own
figure, so an operation that is a hundred times slower per node does
not set the class number.
"""

from __future__ import annotations

import math
from statistics import geometric_mean, median
from typing import Dict, Optional, Sequence

from bench.sequence import OpTally
from bench.workloads import CLASSES


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile of ``samples`` (which must not be empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def op_metric(
    tally: OpTally, temperature: str, tail: Optional[float] = None
) -> float:
    """One operation's figure for one pass temperature.

    The median over the operation's sequences of a per-pass figure: the
    pass's time per node (the paper's number — a mean, so a pass that is
    half cache hits and half misses reads as their mix, not as whichever
    side of one half the median falls) or, with ``tail``, that percentile
    of the pass's repetitions.  A slow spell of the machine spoils the
    sequences it covers and the median drops them.
    """
    passes = tally.passes[temperature]
    if tail is None:
        return median([one.ms_per_node for one in passes])
    return median([percentile(one.samples, tail) for one in passes])


def class_metric(
    tallies: Dict[str, OpTally],
    class_name: str,
    passes: Sequence[str],
    tail: Optional[float] = None,
) -> float:
    """Geometric mean over a class's operations of :func:`op_metric`.

    With both passes named, each contributes its own figure: pooling
    the samples instead would put the result between two clusters
    wherever the warm pass is served from a cache the cold pass filled.
    """
    return geometric_mean(
        op_metric(tallies[op_id], name, tail)
        for op_id in CLASSES[class_name] for name in passes
    )


def ops_per_s(tallies: Dict[str, OpTally]) -> float:
    """Geometric mean over the operations of repetitions per second.

    Each operation's rate is the median over its sequences of the
    repetitions completed over the wall time of the whole sequence —
    reopen, input drawing and commits included — so cost moved out of the
    timed regions still shows, and neither the slowest operation nor the
    number of rounds that fitted into the run sets the number by itself.
    """
    return geometric_mean(median(tally.rates) for tally in tallies.values())


def reopen_ms(tallies: Dict[str, OpTally]) -> float:
    """Geometric mean over the operations of each one's median reopen.

    What ``close()`` + ``open()`` costs depends on the sequence before it
    (an edit leaves pages to checkpoint, a scan a full cache to drop), so
    samples are grouped by the operation they precede — which fixes the
    one before.  A median over the whole mixture moved with the mix, a
    mean over it with every slow ``fsync``, and an arithmetic mean of the
    groups is set by the one reopen that follows the scan.
    """
    return geometric_mean(median(tally.reopen_ms) for tally in tallies.values())


def end_to_end(tallies: Dict[str, OpTally]) -> Dict[str, float]:
    """The latency and rate metrics of one untraced run."""
    both = ("cold", "warm")
    out = {
        "reopen_ms": reopen_ms(tallies),
        "ops_per_s": ops_per_s(tallies),
        "lookup_warm_p90_ms_per_node": class_metric(
            tallies, "lookup", ("warm",), 0.9),
        "closure_cold_p90_ms_per_node": class_metric(
            tallies, "closure", ("cold",), 0.9),
        "scan_ms_per_node": class_metric(tallies, "scan", both),
        "edit_ms_per_node": class_metric(tallies, "edit", both),
        "commit_ms_per_node": geometric_mean(
            median(tallies[op_id].commit_ms) for op_id in CLASSES["edit"]
        ),
    }
    for class_name in ("lookup", "range", "closure"):
        for temperature in both:
            out[f"{class_name}_{temperature}_ms_per_node"] = class_metric(
                tallies, class_name, (temperature,))
    return out


def sample_counts(tallies: Dict[str, OpTally]) -> Dict[str, Dict[str, int]]:
    """Samples behind each operation's statistics, for the detail block."""
    return {
        op_id: {
            "cold": sum(len(one.samples) for one in tally.passes["cold"]),
            "warm": sum(len(one.samples) for one in tally.passes["warm"]),
            "sequences": len(tally.passes["cold"]),
            "commits": len(tally.commit_ms),
        }
        for op_id, tally in tallies.items()
    }
