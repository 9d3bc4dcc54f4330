"""Gauges and the virtual-time flight recorder: telemetry over time.

The counters, histograms and spans answer *what a run did in total*;
Darmont's critique of object-database benchmarks (PAPERS.md) is that
totals hide exactly the phenomena a multi-client simulation exists to
show — cache warm-up, contention collapse, abort storms — which are
*time-evolving*.  This module adds the two missing pieces, stdlib-only
like the rest of the package:

* :class:`GaugeRegistry` — named instantaneous values.  A gauge is
  either a **callback** (``instr.gauge("engine.wal.backlog", fn)`` —
  evaluated lazily at sample time, so registering one costs nothing on
  any hot path) or **settable** (``instr.set_gauge(name, value)`` —
  one dict store, for values only the workload knows, such as the
  number of in-flight optimistic transactions).  Like counters, the
  disabled :data:`~repro.obs.instrumentation.NO_OP` handle turns both
  into empty methods.

* :class:`FlightRecorder` — a bounded ring of telemetry samples.  Each
  :meth:`FlightRecorder.sample` call snapshots the handle's counters
  (emitting **rates** against the previous sample), evaluates every
  gauge, and computes **windowed** histogram percentiles (the p50/p99
  of the observations that arrived *since the last sample*, by bucket
  subtraction).  The discrete-event scheduler samples it on a virtual
  cadence; the sharded and replica grids once per closure or update.

Every number in a virtual-time sample is a pure function of the seed,
so the JSONL export is **byte-identical across runs** — pinned by
``tests/test_timeseries.py`` and relied on by the ``repro dash``
renderer.  The gauge name taxonomy (and the regex CI lints it with)
lives in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from repro.obs.counters import CounterSnapshot
from repro.obs.histograms import SUMMARY_QUANTILES

#: The regex every gauge name must match (CI lints call sites against
#: it; see docs/observability.md).  Dotted lowercase segments, digits
#: and underscores allowed after the first character of a segment.
GAUGE_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$"

#: Histograms fed (at least partly) from the real wall clock.  A
#: ``"virtual"``-clock recorder skips their windows: their bucket
#: counts differ run to run, which would break the byte-for-byte JSONL
#: determinism CI and ``repro dash`` rely on.  A ``"wall"`` recorder
#: windows everything.  Name either an exact histogram name or a
#: prefix (trailing dot) covering a family.
WALL_CLOCK_HISTOGRAMS = (
    "backend.rpc.call",
    "engine.buffer.miss",
    "engine.wal.fsync",
    "harness.iteration.",
)


def _wall_measured(name: str) -> bool:
    return any(
        name == entry or name.startswith(entry)
        for entry in WALL_CLOCK_HISTOGRAMS
    )


class GaugeRegistry:
    """Named instantaneous values: callbacks plus settable gauges.

    Registration replaces: a second ``register``/``set`` under the same
    name simply takes over (a fresh cell of a benchmark grid re-creates
    its components; the newest owner of a name wins).  ``collect`` is
    the only evaluation point — callbacks never run on a hot path.
    """

    __slots__ = ("_callbacks", "_values")

    def __init__(self) -> None:
        self._callbacks: Dict[str, Callable[[], float]] = {}
        self._values: Dict[str, float] = {}

    # -- mutation ----------------------------------------------------------

    def register(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or replace) a callback gauge."""
        self._callbacks[name] = fn

    def unregister(self, name: str) -> None:
        """Drop a gauge (callback or settable); absent names are fine."""
        self._callbacks.pop(name, None)
        self._values.pop(name, None)

    def set(self, name: str, value: float) -> None:
        """Set a settable gauge (one dict store — hot-path safe)."""
        self._values[name] = value

    def reset(self) -> None:
        """Clear settable values; **registered callbacks survive**.

        This is the gauge half of the ``Instrumentation.reset``
        contract: between the cold and warm passes the components (and
        the callbacks they registered) persist, but any value the
        previous pass *set* must not leak into the next one.
        """
        self._values.clear()

    # -- reading -----------------------------------------------------------

    def collect(self) -> Dict[str, float]:
        """Evaluate every gauge; returns ``{name: value}`` (sorted keys).

        A callback that raises is skipped for this collection (its
        component may be mid-teardown); settable values shadow a
        callback of the same name.
        """
        out: Dict[str, float] = {}
        for name, fn in self._callbacks.items():
            try:
                out[name] = float(fn())
            except Exception:
                continue
        for name, value in self._values.items():
            out[name] = float(value)
        return {name: out[name] for name in sorted(out)}

    def names(self) -> Tuple[str, ...]:
        """All registered gauge names, sorted."""
        return tuple(sorted(set(self._callbacks) | set(self._values)))

    def __len__(self) -> int:
        return len(set(self._callbacks) | set(self._values))

    def __contains__(self, name: str) -> bool:
        return name in self._callbacks or name in self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaugeRegistry({self.names()!r})"


def _window_percentiles(
    buckets: Dict[int, int],
    zeros: int,
    count: int,
) -> Dict[str, float]:
    """Percentiles of one histogram *window* (bucket-count deltas).

    The window has no exact min/max (those are cumulative), so the
    interpolated estimate is clamped to the containing bucket's bounds
    instead — same bounded relative error, purely a function of the
    bucket counts, hence deterministic.
    """
    out: Dict[str, float] = {"count": float(count)}
    for label, q in SUMMARY_QUANTILES:
        rank = q * (count - 1)
        cumulative = 0
        if rank < zeros:
            out[label] = 0.0
            continue
        cumulative += zeros
        value = 0.0
        for exponent in sorted(buckets):
            n = buckets[exponent]
            if rank < cumulative + n:
                low = math.ldexp(1.0, exponent - 1)
                high = math.ldexp(1.0, exponent)
                value = low + ((rank - cumulative + 0.5) / n) * (high - low)
                break
            cumulative += n
        else:
            if buckets:
                value = math.ldexp(1.0, max(buckets))
        out[label] = value
    return out


class FlightRecorder:
    """A bounded ring of telemetry samples over one handle.

    Args:
        instrumentation: the handle to sample (rebindable per grid
            cell with :meth:`rebind`).
        capacity: retained samples; the oldest fall off (classic
            flight-recorder semantics, like the span ring).
        clock: ``"virtual"`` or ``"wall"`` — recorded per sample so a
            reader knows whether ``t`` is deterministic.
    """

    def __init__(
        self,
        instrumentation,
        capacity: int = 4096,
        clock: str = "virtual",
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._samples: List[Dict[str, object]] = []
        self._instr = instrumentation
        self._rebase()

    # -- lifecycle ---------------------------------------------------------

    def _rebase(self) -> None:
        """Forget the previous sample's baselines (fresh deltas next)."""
        self._last_t: Optional[float] = None
        self._last_counters: CounterSnapshot = CounterSnapshot()
        self._last_hists: Dict[str, Tuple[Dict[int, int], int, int]] = {}

    def rebind(self, instrumentation) -> None:
        """Point the recorder at another handle (new grid cell).

        Retained samples stay; baselines restart so the first sample
        against the new handle reports its full counter values.
        """
        self._instr = instrumentation
        self._rebase()

    def clear(self) -> None:
        """Drop every sample and baseline (the reset-contract half)."""
        self._samples.clear()
        self._rebase()

    # -- recording ---------------------------------------------------------

    def sample(
        self, t: float, label: Optional[str] = None
    ) -> Dict[str, object]:
        """Record one sample at time ``t`` (seconds).

        The sample carries counter **rates** per second since the
        previous sample (plain deltas when the window is zero-width or
        this is the first sample), every gauge's current value, and
        windowed histogram percentiles for histograms that received
        observations inside the window.
        """
        instr = self._instr
        snapshot = instr.counters.snapshot()
        deltas = snapshot.delta(self._last_counters)
        dt = t - self._last_t if self._last_t is not None else 0.0
        if dt > 0:
            rates = {
                name: round(delta / dt, 6) for name, delta in deltas.items()
            }
        else:
            rates = {name: round(delta, 6) for name, delta in deltas.items()}
        gauges = {
            name: round(value, 6)
            for name, value in instr.gauges.collect().items()
        }
        windows: Dict[str, Dict[str, float]] = {}
        seen: Dict[str, Tuple[Dict[int, int], int, int]] = {}
        for name, hist in instr.histograms.items():
            if self.clock == "virtual" and _wall_measured(name):
                continue
            buckets = dict(hist._buckets)
            seen[name] = (buckets, hist.zeros, hist.count)
            prev_buckets, prev_zeros, prev_count = self._last_hists.get(
                name, ({}, 0, 0)
            )
            count = hist.count - prev_count
            if count <= 0:
                continue
            delta_buckets = {
                e: n - prev_buckets.get(e, 0)
                for e, n in buckets.items()
                if n - prev_buckets.get(e, 0) > 0
            }
            windows[name] = {
                key: round(value, 6)
                for key, value in _window_percentiles(
                    delta_buckets, hist.zeros - prev_zeros, count
                ).items()
            }
        entry: Dict[str, object] = {
            "t": round(t, 9),
            "clock": self.clock,
            "rates": rates,
            "gauges": gauges,
            "windows": windows,
        }
        if label is not None:
            entry["label"] = label
        self._samples.append(entry)
        if len(self._samples) > self.capacity:
            del self._samples[: len(self._samples) - self.capacity]
        self._last_t = t
        self._last_counters = snapshot
        self._last_hists = seen
        return entry

    # -- reading and export ------------------------------------------------

    def samples(self) -> List[Dict[str, object]]:
        """Retained samples, oldest first (the ring's current contents)."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def dump_jsonl(self, stream: TextIO) -> int:
        """Write one compact JSON object per line; returns line count.

        Keys are sorted and floats pre-rounded at sample time, so two
        identical runs produce **byte-identical** output.
        """
        for entry in self._samples:
            stream.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
            )
            stream.write("\n")
        return len(self._samples)

    def write_jsonl(self, path: str) -> int:
        """Write the ring to ``path`` as JSONL; returns the line count."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.dump_jsonl(handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self._samples)}/{self.capacity}"
            f" samples, {self.clock} clock>"
        )


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a timeline JSONL file back into a sample list."""
    samples: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                samples.append(json.loads(line))
    return samples
