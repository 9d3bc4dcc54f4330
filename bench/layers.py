"""Per-layer metrics of the traced run.

Self times come from the spans of ``bench.trace``; counts come from the
program's own ``repro.obs`` counters, read as deltas around the same
regions.  Wall-clock and virtual-time numbers are never added: the
``netsim.rpc.*``, ``netsim.virtual_*`` and ``*.router.virtual_*``
metrics are counts and simulated time, compared as counts.

"Per node" divides by the nodes the timed repetitions returned or
modified.  A layer's self time covers the repetitions and the commits
that follow them (deferred updates do their heap, index and log work at
commit); reopening shows in ``engine.store.checkpoint_ms``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.backends.registry import create_backend
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import CATALOG
from repro.obs import Instrumentation

from bench.metrics import class_metric, ops_per_s
from bench.sequence import Handle, OpTally, run_sequence, sequence_key
from bench.trace import LAYERS, Tracer
from bench.workloads import CLASS_OF, CLASSES, Workload

#: Root spans whose descendants count towards a layer's per-node time.
WORK = ("bench.rep", "bench.commit")

#: Layers that report ``<layer>.self_ms_per_node`` (the serializer
#: splits into decode and encode, the WAL reports per commit).
SELF_TIME_LAYERS = tuple(
    layer for layer in LAYERS if layer not in ("engine.serializer", "engine.wal")
)


class Probe:
    """What the traced handle's sequences report their regions to."""

    def __init__(self, tracer: Tracer, instr: Instrumentation) -> None:
        self.tracer = tracer
        self.instr = instr
        self.begin = tracer.begin
        self.end = tracer.end
        #: Counter deltas inside each pass and the commit after it, by
        #: (operation class, pass temperature).
        self.passes: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._class = ""
        self._before = None

    def round_begins(self) -> None:
        self.tracer.install()

    def round_ends(self) -> None:
        self.tracer.uninstall()

    def sequence_begins(self, key: str, op_id: str) -> None:
        self.tracer.sequence = key
        self._class = CLASS_OF[op_id]

    def pass_begins(self) -> None:
        self._before = self.instr.snapshot()

    def pass_ends(self, temperature: str) -> None:
        counters = self.passes.setdefault((self._class, temperature), {})
        for name, amount in self.instr.snapshot().delta(self._before).items():
            counters[name] = counters.get(name, 0) + amount

    @property
    def work(self) -> Dict[str, float]:
        """Counter deltas inside every pass and its commit."""
        out: Dict[str, float] = {}
        for counters in self.passes.values():
            for name, amount in counters.items():
                out[name] = out.get(name, 0) + amount
        return out


#: (hit counter, miss counter) of each cache a workload can exercise.
CACHES = {
    "engine.store.decode_cache": (
        "engine.decode_cache.hits", "engine.decode_cache.misses"),
    "engine.buffer": ("engine.buffer.hit", "engine.buffer.miss"),
    "engine.btree.node_cache": (
        "engine.btree.node_cache.hits", "engine.btree.node_cache.misses"),
    "netsim.cache": ("netsim.cache.hit", "netsim.cache.miss"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counters: Dict[str, float], hit: str, miss: str) -> float:
    hits = counters.get(hit, 0)
    return _ratio(hits, hits + counters.get(miss, 0))


def _nodes(tallies: Dict[str, OpTally]) -> int:
    return sum(
        tally.nodes("cold") + tally.nodes("warm") for tally in tallies.values()
    )


def layer_metrics(
    probe: Probe,
    total: Dict[str, float],
    traced: Dict[str, OpTally],
    plain: Dict[str, OpTally],
) -> Dict[str, float]:
    """The per-layer metrics of one workload (router metrics excluded).

    ``total`` is the counter delta over the whole traced rounds (reopens
    included); ``traced`` and ``plain`` are the tallies of the traced and
    the untraced rounds of the same run.
    """
    tracer, work = probe.tracer, probe.work
    nodes = _nodes(traced)
    reps = sum(tally.attempted for tally in traced.values())
    commits = total.get("engine.store.commits", 0)
    written = work.get("engine.store.objects_written", 0)

    def per_node(seconds: float) -> float:
        return _ratio(seconds * 1000.0, nodes)

    def count_per(name: str, counters: Dict[str, float], base: float) -> float:
        return _ratio(counters.get(name, 0), base)

    out = {
        f"{layer}.self_ms_per_node": per_node(tracer.self_seconds(WORK, layer + ":"))
        for layer in SELF_TIME_LAYERS
    }
    checkpoints, checkpoint_s = tracer.span_total("engine.store:checkpoint")
    _rep_calls, rep_s = tracer.span_total("bench.rep")
    out.update({
        "engine.store.objects_read_per_node": count_per(
            "engine.store.objects_read", work, nodes),
        "engine.store.decode_cache_hit_ratio": _hit_ratio(
            work, *CACHES["engine.store.decode_cache"]),
        "engine.store.checkpoint_ms": _ratio(checkpoint_s * 1000.0, checkpoints),
        "engine.store.checkpoints_per_commit": count_per(
            "engine.store.checkpoints", total, commits),
        "engine.serializer.decode_self_ms_per_node": per_node(
            tracer.self_seconds(WORK, "engine.serializer:decode")),
        "engine.serializer.encode_self_ms_per_node": per_node(
            tracer.self_seconds(WORK, "engine.serializer:encode")),
        "engine.serializer.decodes_per_node": _ratio(
            tracer.calls(WORK, "engine.serializer:decode_view"), nodes),
        "engine.buffer.hit_ratio": _hit_ratio(work, *CACHES["engine.buffer"]),
        "engine.buffer.evictions_per_node": count_per(
            "engine.buffer.eviction", work, nodes),
        "engine.buffer.prefetch_pages_per_node": count_per(
            "engine.buffer.prefetch.pages", work, nodes),
        "engine.buffer.writebacks_per_commit": count_per(
            "engine.buffer.writeback", total, commits),
        "engine.btree.calls_per_node": _ratio(
            tracer.calls(WORK, "engine.btree:"), nodes),
        "engine.btree.node_cache_hit_ratio": _hit_ratio(
            work, *CACHES["engine.btree.node_cache"]),
        "engine.wal.self_ms_per_commit": _ratio(
            tracer.self_seconds(WORK, "engine.wal:") * 1000.0, commits),
        "engine.wal.bytes_per_node_written": count_per(
            "engine.wal.bytes", work, written),
        "engine.wal.records_per_commit": count_per(
            "engine.wal.records", total, commits),
        "engine.wal.syncs_per_commit": count_per(
            "engine.wal.syncs", total, commits),
        "engine.vfs.reads_per_node": count_per("engine.io.reads", work, nodes),
        "engine.vfs.bytes_read_per_node": count_per(
            "engine.io.bytes_read", work, nodes),
        "engine.vfs.bytes_written_per_node_written": count_per(
            "engine.io.bytes_written", work, written),
        "engine.vfs.syncs_per_commit": count_per(
            "engine.io.syncs", total, commits),
        "netsim.cache.hit_ratio": _hit_ratio(work, *CACHES["netsim.cache"]),
        "netsim.server.records_shipped_per_node": _ratio(
            work.get("backend.rpc.batched_objects", 0)
            + tracer.calls(WORK, "netsim.server:fetch"), nodes),
        "netsim.rpc.round_trips_per_op": count_per(
            "backend.rpc.round_trips", work, reps),
        "netsim.rpc.payload_bytes_per_node": _ratio(
            work.get("backend.rpc.bytes_sent", 0)
            + work.get("backend.rpc.bytes_received", 0), nodes),
        # How many times slower the traced rounds ran than the untraced
        # rounds of the same process.
        "trace.overhead_ratio": _ratio(ops_per_s(plain), ops_per_s(traced)),
        # Timed wall clock that no layer span covers.
        "trace.unattributed_share": _ratio(
            tracer.self_seconds(WORK, "bench.rep"), rep_s),
    })
    for temperature in ("cold", "warm"):
        out[f"netsim.virtual_{temperature}_ms_per_node"] = _ratio(
            sum(t.virtual_s[temperature] for t in traced.values()) * 1000.0,
            sum(t.nodes(temperature) for t in traced.values()),
        )
    return out


def layer_table(
    probe: Probe, traced: Dict[str, OpTally]
) -> Dict[str, Dict[str, float]]:
    """Per layer: self ms/node, calls/node and share of the timed work."""
    tracer = probe.tracer
    nodes = _nodes(traced)
    work_s = sum(tracer.span_total(root)[1] for root in WORK)
    table = {}
    for layer in LAYERS:
        seconds = tracer.self_seconds(WORK, layer + ":")
        table[layer] = {
            "self_ms_per_node": _ratio(seconds * 1000.0, nodes),
            "calls_per_node": _ratio(tracer.calls(WORK, layer + ":"), nodes),
            "share": _ratio(seconds, work_s),
        }
    return table


def cache_table(probe: Probe) -> Dict[str, Dict[str, float]]:
    """Hit ratio and evictions per (class, pass): what the whole-workload
    ratios of the metric list average over."""
    table = {}
    for (class_name, temperature), counters in sorted(probe.passes.items()):
        row = {
            cache: _hit_ratio(counters, hit, miss)
            for cache, (hit, miss) in CACHES.items()
            if counters.get(hit, 0) + counters.get(miss, 0)
        }
        row["engine.buffer.evictions"] = counters.get("engine.buffer.eviction", 0)
        table[f"{class_name}/{temperature}"] = row
    return table


#: Registry backends whose router the closure class is re-run through.
ROUTERS = {
    "sharding.router": "clientserver-sharded-hash",
    "replication.router": "clientserver-replicated",
}
ROUTER_SEQUENCES = 5


def router_metrics(workload: Workload, seed: int) -> Dict[str, float]:
    """The closure class re-run through the shard and replica routers.

    Only the client/server workload has routers to run through; every
    other workload reports zeros.  Wall time is the closure class metric
    with both passes pooled.
    """
    out: Dict[str, float] = {}
    for layer, backend in ROUTERS.items():
        count_name, counter = (
            ("round_trips_per_op", "backend.rpc.round_trips")
            if layer == "sharding.router"
            else ("fallbacks_per_op", "backend.replica.fallbacks")
        )
        names = ("wall_ms_per_node", "virtual_ms_per_node", count_name)
        if workload.backend != "clientserver":
            out.update({f"{layer}.{name}": 0.0 for name in names})
            continue
        instr = Instrumentation()
        db = create_backend(backend, instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=workload.level)).generate(db)
        db.commit()
        handle = Handle.over(db, gen)
        tallies = {op_id: OpTally() for op_id in CLASSES["closure"]}
        before = instr.snapshot()
        for op_id, tally in tallies.items():
            for sequence in range(ROUTER_SEQUENCES):
                run_sequence(
                    handle, CATALOG.get(op_id),
                    sequence_key(seed, backend, op_id, sequence),
                    workload.plan["closure"][0], tally,
                )
        counters = instr.snapshot().delta(before)
        db.close()
        reps = sum(tally.attempted for tally in tallies.values())
        values = (
            class_metric(tallies, "closure", ("cold", "warm")),
            _ratio(
                sum(sum(t.virtual_s.values()) for t in tallies.values()) * 1000.0,
                _nodes(tallies)),
            _ratio(counters.get(counter, 0), reps),
        )
        out.update({f"{layer}.{name}": v for name, v in zip(names, values)})
    return out
