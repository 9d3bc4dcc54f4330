"""The discrete-event multi-client simulation core.

The single-user backend charges every request to one shared
:class:`~repro.netsim.latency.SimulatedClock` — correct when exactly
one client exists, meaningless when N workstations share one server:
requests would stack onto a single timeline with no queueing and no
contention.  This module supplies the missing pieces:

* **Transports** — the server charges time through a swappable
  *transport* instead of touching its clock directly.
  :class:`DirectTransport` reproduces the single-client behaviour
  exactly (one shared clock, cost = latency model).
  :class:`ContendedTransport` models the full workstation/server
  round trip: the request leaves the active workstation's clock, waits
  in FIFO order for the server to go idle (``queueing delay``), holds
  the server busy for a service time plus the payload transfer, and
  returns — the workstation's clock lands at departure time, and the
  server's busy horizon moves forward so the *next* request queues
  behind this one.

* :class:`DiscreteEventScheduler` — a classic event loop over
  ``(virtual time, sequence)`` keys: N workstations each run a task
  list; after each task a workstation re-enters the queue at
  ``now + think_time``.  Ties break on the monotonically increasing
  sequence number, so the interleaving is a pure function of the
  workload and the seed — two runs are byte-identical, abort decisions
  and fault draws included.

* :class:`ZipfSampler` — seeded, inverse-CDF Zipf sampling for the
  skewed access patterns the multi-user benchmark drives (theta = 0
  degenerates to uniform).

The model is a **closed queueing network**: each workstation cycles
through think time Z and server demand D, so aggregate throughput
follows ``min(N / (Z + D), 1 / D)`` — rising with client count, then
saturating at the server's service rate.  That saturation curve is the
benchmark's headline figure (see ``docs/multiuser.md``).
"""

from __future__ import annotations

import bisect
import heapq
import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.obs import Instrumentation, resolve


class DirectTransport:
    """The single-client charge model: one shared clock, no queueing.

    This is exactly the behaviour :class:`~repro.netsim.server.ObjectServer`
    had before the transport seam existed; the server builds one by
    default, so single-client code paths are unchanged.
    """

    def __init__(self, clock: SimulatedClock, latency: LatencyModel) -> None:
        self.clock = clock
        self.latency = latency

    def charge_request(
        self, payload_bytes: int, extra_service_seconds: float = 0.0
    ) -> float:
        """Charge one request; returns the seconds charged."""
        cost = self.latency.request_cost(payload_bytes) + extra_service_seconds
        self.clock.advance(cost)
        return cost

    def charge_wasted(self, seconds: float) -> float:
        """Charge wasted wire time (a dropped or timed-out request)."""
        self.clock.advance(seconds)
        return seconds


class ContendedTransport:
    """Per-workstation clocks + a FIFO server busy timeline.

    One request from the *active* workstation (set by the scheduler
    before each task runs) is charged as::

        arrival  = station.clock.now + rtt / 2          # request flies
        start    = max(arrival, server_free_at)          # FIFO queueing
        service  = service_time + transfer + extra       # server busy
        depart   = start + service + rtt / 2             # reply flies

    The workstation's clock advances to ``depart``; ``server_free_at``
    advances to ``start + service`` so the next request — from any
    workstation — queues behind this one.  Queueing delay and server
    busy time are accumulated and counted under ``backend.mp.*``.

    When no workstation is active (administrative use outside the
    scheduler) the charge falls back to the fallback clock, i.e. the
    uncontended single-client model.
    """

    def __init__(
        self,
        latency: LatencyModel,
        service_time_seconds: float = 0.0,
        instrumentation: Optional[Instrumentation] = None,
        fallback_clock: Optional[SimulatedClock] = None,
        lane: Optional[str] = None,
    ) -> None:
        self.latency = latency
        self.service_time_seconds = service_time_seconds
        self.server_free_at = 0.0
        self.station: Optional["Workstation"] = None
        self.queue_seconds = 0.0
        self.busy_seconds = 0.0
        self.requests = 0
        self._instr = resolve(instrumentation)
        self._fallback_clock = fallback_clock or SimulatedClock()
        #: Optional lane name (e.g. ``"shard0"``): namespaces this
        #: transport's counters as ``backend.mp.<lane>.*`` *in
        #: addition to* the aggregate ``backend.mp.*`` series, so a
        #: sharded deployment's per-shard queueing is visible without
        #: changing the unsharded series.
        self.lane = lane
        #: Latest scheduler-coordinate virtual time this transport has
        #: seen — the scheduler keeps it current (and sets it to the
        #: sample time before a flight-recorder sample), so the gauges
        #: below read a coherent "now" without touching any clock.
        self.virtual_now = 0.0
        base = (
            "netsim.transport"
            if lane is None
            else f"netsim.transport.{lane}"
        )
        instr = self._instr
        instr.gauge(f"{base}.backlog_s", self._backlog_seconds)
        instr.gauge(f"{base}.queue_depth", self._queue_depth)
        instr.gauge(f"{base}.busy_frac", self._busy_fraction)

    # -- gauges (evaluated only at flight-recorder sample time) --------

    def _backlog_seconds(self) -> float:
        """Seconds of queued work ahead of the server's busy horizon."""
        return max(0.0, self.server_free_at - self.virtual_now)

    def _queue_depth(self) -> float:
        """Backlog expressed in service-time units (~queued requests)."""
        backlog = max(0.0, self.server_free_at - self.virtual_now)
        if self.service_time_seconds > 0:
            return backlog / self.service_time_seconds
        return 1.0 if backlog > 0 else 0.0

    def _busy_fraction(self) -> float:
        """Cumulative server utilization (busy seconds over elapsed)."""
        if self.virtual_now <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / self.virtual_now)

    def charge_request(
        self, payload_bytes: int, extra_service_seconds: float = 0.0
    ) -> float:
        transfer = (
            self.latency.request_cost(payload_bytes)
            - self.latency.round_trip_seconds
        )
        service = self.service_time_seconds + transfer + extra_service_seconds
        if self.station is None:
            cost = self.latency.round_trip_seconds + service
            self._fallback_clock.advance(cost)
            return cost
        clock = self.station.clock
        half_trip = self.latency.round_trip_seconds / 2.0
        arrival = clock.now + half_trip
        start = max(arrival, self.server_free_at)
        queued = start - arrival
        self.server_free_at = start + service
        depart = start + service + half_trip
        cost = depart - clock.now
        clock.advance_to(depart)
        if depart > self.virtual_now:
            self.virtual_now = depart
        self.requests += 1
        self.queue_seconds += queued
        self.busy_seconds += service
        instr = self._instr
        instr.count("backend.mp.requests")
        instr.count("backend.mp.queue_ms", queued * 1000.0)
        instr.count("backend.mp.busy_ms", service * 1000.0)
        instr.observe("backend.mp.queue_delay", queued * 1000.0)
        if self.lane is not None:
            prefix = f"backend.mp.{self.lane}"
            instr.count(f"{prefix}.requests")
            instr.count(f"{prefix}.queue_ms", queued * 1000.0)
            instr.count(f"{prefix}.busy_ms", service * 1000.0)
        return cost

    def charge_wasted(self, seconds: float) -> float:
        clock = (
            self.station.clock if self.station is not None
            else self._fallback_clock
        )
        clock.advance(seconds)
        return seconds


def replica_lanes(
    latency: LatencyModel,
    replicas: int,
    service_time_seconds: float = 0.0,
    instrumentation: Optional[Instrumentation] = None,
    fallback_clock: Optional[SimulatedClock] = None,
) -> List[ContendedTransport]:
    """One contended transport per replication-group server.

    Lane 0 (``primary``) carries every write plus read-your-writes
    fallbacks; lanes 1..N (``replica<i>``) each carry one replica's
    routed reads — independent FIFO timelines, so reads spread across
    replicas stop queueing behind each other, which is the entire
    read-scaling claim the replica benchmark measures.  Counter
    namespaces follow the lane names (``backend.mp.primary.*``,
    ``backend.mp.replica<i>.*``).
    """
    names = ["primary"] + [f"replica{i}" for i in range(replicas)]
    return [
        ContendedTransport(
            latency,
            service_time_seconds=service_time_seconds,
            instrumentation=instrumentation,
            fallback_clock=fallback_clock,
            lane=name,
        )
        for name in names
    ]


class LaneGroup:
    """A bundle of per-server lanes that quacks like one transport.

    :class:`DiscreteEventScheduler` manages exactly one ``transport``
    — it assigns ``station``/``virtual_now`` around each task.  A lane
    group fans those writes out to every member lane, so a replication
    group (or any multi-lane deployment) can ride the scheduler
    unchanged: pass the group as the transport and give the *server*'s
    ``use_transport`` the ``.lanes`` list.
    """

    def __init__(self, lanes: List[ContendedTransport]) -> None:
        if not lanes:
            raise ValueError("LaneGroup needs at least one lane")
        self.lanes = list(lanes)

    @property
    def station(self):
        return self.lanes[0].station

    @station.setter
    def station(self, value) -> None:
        for lane in self.lanes:
            lane.station = value

    @property
    def virtual_now(self) -> float:
        return max(lane.virtual_now for lane in self.lanes)

    @virtual_now.setter
    def virtual_now(self, value: float) -> None:
        for lane in self.lanes:
            lane.virtual_now = value


class ZipfSampler:
    """Seeded Zipf(theta) sampling over ranks ``0 .. n-1``.

    Rank ``r`` is drawn with probability proportional to
    ``1 / (r + 1) ** theta``; ``theta=0`` is uniform.  Sampling is
    inverse-CDF over precomputed cumulative weights plus one
    ``rng.random()`` draw, so a seeded :class:`random.Random` makes the
    draw sequence fully deterministic.
    """

    def __init__(self, n: int, theta: float = 0.8) -> None:
        if n < 1:
            raise ValueError("ZipfSampler needs at least one item")
        if theta < 0:
            raise ValueError("zipf theta cannot be negative")
        self.n = n
        self.theta = theta
        total = 0.0
        cumulative: List[float] = []
        for rank in range(n):
            total += 1.0 / ((rank + 1) ** theta)
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``0 .. n-1``."""
        point = rng.random() * self._total
        return min(
            bisect.bisect_left(self._cumulative, point), self.n - 1
        )


class Workstation:
    """One simulated workstation: a client handle plus its own clock.

    The clock is the *client's* ``simulated_clock`` — retry backoff,
    latency histograms and the contended transport all charge the same
    per-station timeline, so a workstation's virtual time reads as one
    coherent story.
    """

    def __init__(self, index: int, client, rng: random.Random) -> None:
        self.index = index
        self.client = client
        self.clock: SimulatedClock = client.simulated_clock
        self.rng = rng

    @property
    def client_id(self) -> Optional[str]:
        """The client's span tag (``w00``, ``w01``, ...)."""
        return getattr(self.client, "client_id", None)


#: One unit of schedulable work: a zero-argument callable run at its
#: workstation's virtual "now".  A task may *return* another task (a
#: continuation): the scheduler queues it as that station's next event,
#: ahead of the remaining list.  Multi-event work — a transaction whose
#: read phase and commit are separate events, or an abort/retry loop —
#: is expressed this way, which is what lets other stations' commits
#: interleave between a read and the commit that validates it.
Task = Callable[[], object]


class DiscreteEventScheduler:
    """Run N workstations' task lists against one shared server.

    Events are ``(time, sequence)`` pairs on a heap; the earliest fires
    first and ties break on sequence (insertion order), never on
    uncomparable payloads — determinism by construction.  Each task
    runs synchronously at its workstation's current virtual time; RPC
    contention *within* the task is the transport's business
    (:class:`ContendedTransport` interleaves the server's busy timeline
    across stations even though tasks themselves do not preempt each
    other).

    The shared server's own clock is advanced alongside the event time
    (relative to its value when the run starts), so code that reads
    ``server.clock`` keeps seeing monotonic progress.
    """

    def __init__(
        self,
        server,
        transport: ContendedTransport,
        think_time_seconds: float = 0.0,
        recorder=None,
        sample_cadence_seconds: float = 0.0,
        sample_label: Optional[str] = None,
    ) -> None:
        self.server = server
        self.transport = transport
        self.think_time_seconds = think_time_seconds
        #: Optional :class:`~repro.obs.FlightRecorder` sampled every
        #: ``sample_cadence_seconds`` of *virtual* time.  Samples fire
        #: at exact cadence multiples before the event that crosses
        #: them runs, so the sample sequence — times and values — is a
        #: pure function of the workload and the seed (byte-identical
        #: timelines across runs).
        self.recorder = recorder
        self.sample_cadence_seconds = sample_cadence_seconds
        self.sample_label = sample_label

    def run(
        self, jobs: Sequence[Tuple[Workstation, Sequence[Task]]]
    ) -> float:
        """Execute every station's task list; returns the makespan.

        The makespan is the largest per-station virtual completion
        time, i.e. the simulated duration of the whole parallel run.
        """
        origin = self.server.clock.now
        heap: List[Tuple[float, int, int]] = []
        queues: List[List[Task]] = []
        stations: List[Workstation] = []
        sequence = 0
        for station, tasks in jobs:
            stations.append(station)
            queues.append(list(tasks))
            if queues[-1]:
                heapq.heappush(
                    heap, (station.clock.now, sequence, len(stations) - 1)
                )
                sequence += 1
        makespan = 0.0
        next_sample: Optional[float] = None
        if self.recorder is not None and self.sample_cadence_seconds > 0:
            next_sample = self.sample_cadence_seconds
        with self.server.use_transport(self.transport):
            while heap:
                when, _tie, slot = heapq.heappop(heap)
                if next_sample is not None:
                    while next_sample <= when:
                        self.transport.virtual_now = next_sample
                        self.recorder.sample(
                            next_sample, label=self.sample_label
                        )
                        next_sample += self.sample_cadence_seconds
                station = stations[slot]
                if when > self.transport.virtual_now:
                    self.transport.virtual_now = when
                station.clock.advance_to(when)
                self.server.clock.advance_to(origin + when)
                task = queues[slot].pop(0)
                self.transport.station = station
                try:
                    continuation = task()
                finally:
                    self.transport.station = None
                if callable(continuation):
                    queues[slot].insert(0, continuation)
                makespan = max(makespan, station.clock.now)
                if queues[slot]:
                    heapq.heappush(
                        heap,
                        (
                            station.clock.now + self.think_time_seconds,
                            sequence,
                            slot,
                        ),
                    )
                    sequence += 1
        self.server.clock.advance_to(origin + makespan)
        if next_sample is not None:
            # One closing sample at the makespan so the timeline's last
            # window covers the tail of the run.
            self.transport.virtual_now = max(
                self.transport.virtual_now, makespan
            )
            self.recorder.sample(makespan, label=self.sample_label)
        return makespan
