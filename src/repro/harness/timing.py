"""Timers and summary statistics for the measurement protocol.

Wall-clock time is measured with ``time.perf_counter``.  Backends that
simulate a network (the client/server architecture) expose a
``simulated_clock`` attribute; :class:`Timer` reads it before and after
the timed region and *adds the virtual delta to the elapsed wall time*,
so a reported millisecond figure always means "compute plus
communication", deterministically.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence


@dataclasses.dataclass(frozen=True)
class Stats:
    """Summary statistics over a sample of seconds (or any floats).

    The one summary of an in-memory sample list in ``src/``.  ``p50`` /
    ``p90`` / ``p99`` are exact nearest-rank order statistics — the rule
    of ``bench/metrics.percentile`` — so each is a member of the sample
    and ``p50 <= p90 <= p99 <= maximum`` at any sample size.  They are
    ``None`` only on documents saved before they existed.
    """

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    stdev: float
    total: float
    p50: Optional[float] = None
    p90: Optional[float] = None
    p99: Optional[float] = None

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Stats":
        """Compute statistics; at least one sample is required."""
        if not samples:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(samples)
        n = len(ordered)
        total = sum(ordered)
        mean = total / n
        if n % 2:
            median = ordered[n // 2]
        else:
            median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
        variance = sum((x - mean) ** 2 for x in ordered) / n

        def rank(fraction: float) -> float:
            return ordered[max(1, math.ceil(fraction * n)) - 1]

        return cls(
            count=n,
            mean=mean,
            median=median,
            minimum=ordered[0],
            maximum=ordered[-1],
            stdev=math.sqrt(variance),
            total=total,
            p50=rank(0.50),
            p90=rank(0.90),
            p99=rank(0.99),
        )

    def to_dict(self) -> dict:
        """Serializable form."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "Stats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**raw)


class Timer:
    """Measures one region: wall time plus any simulated network time.

    Usage::

        timer = Timer(getattr(db, "simulated_clock", None))
        with timer:
            run_the_operation()
        seconds = timer.elapsed
    """

    def __init__(self, simulated_clock: Optional[object] = None) -> None:
        self._clock = simulated_clock
        self.elapsed = 0.0
        self.wall = 0.0
        self.simulated = 0.0
        self._wall_start = 0.0
        self._sim_start = 0.0

    def __enter__(self) -> "Timer":
        if self._clock is not None:
            self._sim_start = self._clock.now
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall = time.perf_counter() - self._wall_start
        self.simulated = (
            self._clock.now - self._sim_start if self._clock is not None else 0.0
        )
        self.elapsed = self.wall + self.simulated
