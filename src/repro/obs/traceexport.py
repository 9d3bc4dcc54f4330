"""Chrome trace-event JSON export of the instrumentation state.

One call turns an :class:`~repro.obs.Instrumentation` handle into a
JSON document any run of Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` opens directly:

* every retained span becomes a complete ("X") duration event;
* spans named ``server.*`` (or carrying a remote-trace link) land on a
  separate "object server" process track, mirroring the simulated
  workstation/server architecture;
* a server span whose ``remote_parent`` names a retained client span
  gets a **flow arrow** ("s"/"f" events) from the client RPC span that
  caused it — batched ``fetch_many``, every retry attempt, and the 2PC
  phase spans (prepare fan-out, decision delivery) included;
* client/shard lanes are ordered **naturally** (``shard2`` before
  ``shard10``) via explicit ``thread_sort_index`` metadata, and a
  ``lane_metadata`` mapping can stamp extra per-lane facts (placement
  policy, shard count) into the lane's thread metadata;
* counter tracks ("C" events): with a ``recorder``
  (:class:`~repro.obs.timeseries.FlightRecorder`), every flight-recorder
  sample becomes one counter-track point per counter *rate* and per
  gauge — evolution over (virtual) time instead of a single total.
  Without one, final counter values are emitted as a single sample at
  the trace end.  Either way one global instant ("i") event per counter
  carries the final total, and histogram summaries ride in
  ``otherData`` so the numbers travel with the picture.

A caveat on the time axis: span timestamps are wall-clock (the span
recorder's ``perf_counter`` readings) while flight-recorder samples are
stamped in the clock the recorder was built with — *virtual* seconds
for the discrete-event harnesses.  The counter tracks are therefore an
aligned-at-zero overlay, not a sample-accurate alignment with the span
lanes; they show *shape* (queue build-up, abort bursts), the spans show
*structure*.

The exporter never mutates the handle; exporting mid-run is safe (you
see the flight recorder's current contents).

Usage::

    from repro.obs import enable
    from repro.obs.traceexport import write_chrome_trace

    instr = enable(span_capacity=65536)
    ...  # run something
    write_chrome_trace(instr, "out.json")

or from the CLI: ``repro run --trace out.json`` / ``repro trace``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.instrumentation import Instrumentation

#: Synthetic process ids for the two sides of the simulated network.
CLIENT_PID = 1
SERVER_PID = 2

#: Span-name prefix that places a span on the server track.
_SERVER_PREFIX = "server."

#: Digit-run splitter feeding :func:`_natural_key`.
_DIGIT_RUNS = re.compile(r"(\d+)")


def _natural_key(tag: str) -> Tuple[Union[str, int], ...]:
    """Sort key treating digit runs numerically: shard2 < shard10.

    Plain lexicographic ordering puts ``shard10`` between ``shard1``
    and ``shard2``; splitting on digit runs and comparing those runs as
    integers restores the order a human (and every lane legend) expects.
    ``re.split`` with a captured group strictly alternates text and
    digit runs (text at even indices, digits at odd), so two keys never
    compare str against int at the same position.
    """
    return tuple(
        int(part) if index % 2 else part
        for index, part in enumerate(_DIGIT_RUNS.split(tag))
    )


def _category(name: str) -> str:
    """The trace category: the first dotted segment of the span name."""
    return name.split(".", 1)[0] if "." in name else name


def _is_server_span(record) -> bool:
    return record.name.startswith(_SERVER_PREFIX) or (
        record.remote_trace is not None
    )


def build_trace(
    instr: Instrumentation,
    process_name: str = "hypermodel workstation",
    server_name: str = "object server (netsim)",
    lane_metadata: Optional[Dict[str, Dict[str, Any]]] = None,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build the Chrome trace-event document for one handle."""
    records = instr.spans.records()
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": CLIENT_PID,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": SERVER_PID,
            "tid": 0,
            "args": {"name": server_name},
        },
    ]
    base = min((r.start for r in records), default=0.0)
    end = max((r.end for r in records), default=0.0)

    def _us(t: float) -> float:
        return round((t - base) * 1e6, 3)

    by_sequence = {r.sequence: r for r in records}

    # Per-client thread lanes: untagged spans stay on tid 1 (the
    # anonymous single-client lane); each distinct client tag gets its
    # own stable tid (2, 3, ...) on *both* process tracks.  Tags are
    # assigned in *natural* order over the whole record set — not first
    # appearance — so ``client·shard10`` sorts after ``client·shard2``
    # both in tid order and via the explicit thread_sort_index
    # metadata (viewers honour the latter even where tids collide).
    client_tids: Dict[str, int] = {
        client: index + 2
        for index, client in enumerate(
            sorted(
                {r.client for r in records if r.client is not None},
                key=_natural_key,
            )
        )
    }
    named_lanes = set()

    def _tid(record) -> int:
        if record.client is None:
            return 1
        return client_tids[record.client]

    def _lane_extras(client: str) -> Dict[str, Any]:
        """Caller-supplied metadata for this lane's thread_name args.

        A key matches a lane when it equals the client tag or names the
        tag's shard suffix (``shard3`` matches ``w1·shard3``) — the
        router hands over per-``shard<n>`` facts without knowing which
        client tags fan into each shard.
        """
        if not lane_metadata:
            return {}
        for key, extras in lane_metadata.items():
            if client == key or client.endswith("·" + key):
                return dict(extras)
        return {}

    def _name_lane(pid: int, tid: int, client: str) -> None:
        if (pid, tid) in named_lanes:
            return
        named_lanes.add((pid, tid))
        side = "rpc" if pid == CLIENT_PID else "serving"
        lane_args: Dict[str, Any] = {"name": f"client {client} ({side})"}
        lane_args.update(_lane_extras(client))
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": lane_args,
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    for record in records:
        pid = SERVER_PID if _is_server_span(record) else CLIENT_PID
        tid = _tid(record)
        if record.client is not None:
            _name_lane(pid, tid, record.client)
        args: Dict[str, Any] = {
            "sequence": record.sequence,
            "depth": record.depth,
        }
        if record.parent is not None:
            args["parent"] = record.parent
        if record.remote_parent is not None:
            args["remote_parent"] = record.remote_parent
            args["remote_trace"] = record.remote_trace
        if record.client is not None:
            args["client"] = record.client
        events.append(
            {
                "ph": "X",
                "name": record.name,
                "cat": _category(record.name),
                "pid": pid,
                "tid": tid,
                "ts": _us(record.start),
                "dur": round(record.duration_seconds * 1e6, 3),
                "args": args,
            }
        )
        # Flow arrow: client RPC span -> the server work it caused.
        if record.remote_parent is not None:
            cause = by_sequence.get(record.remote_parent)
            if cause is not None and not _is_server_span(cause):
                flow_id = f"rpc-{record.remote_trace}-{record.sequence}"
                events.append(
                    {
                        "ph": "s",
                        "id": flow_id,
                        "name": "rpc",
                        "cat": "rpc",
                        "pid": CLIENT_PID,
                        "tid": _tid(cause),
                        "ts": _us(cause.start),
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "id": flow_id,
                        "name": "rpc",
                        "cat": "rpc",
                        "pid": SERVER_PID,
                        "tid": tid,
                        "ts": _us(record.start),
                    }
                )

    # Counter tracks.  With a flight recorder: one counter-track point
    # per sample per counter *rate* (and per gauge), so the track shows
    # evolution — queue depth climbing, abort rate spiking — instead of
    # a single terminal value.  Sample timestamps are in the recorder's
    # own clock (virtual seconds for the discrete-event harnesses),
    # re-based at zero; see the module docstring's alignment caveat.
    counter_values = instr.counters.as_dict()
    ts_end = _us(end) if records else 0.0
    samples = list(recorder.samples()) if recorder is not None else []
    if samples:
        ts_end = max(
            ts_end, round(samples[-1]["t"] * 1e6, 3)
        )
        for sample in samples:
            ts = round(sample["t"] * 1e6, 3)
            for name in sorted(sample["rates"]):
                events.append(
                    {
                        "ph": "C",
                        "name": f"{name} (rate/s)",
                        "cat": _category(name),
                        "pid": CLIENT_PID,
                        "tid": 1,
                        "ts": ts,
                        "args": {"rate": sample["rates"][name]},
                    }
                )
            for name in sorted(sample["gauges"]):
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "cat": _category(name),
                        "pid": CLIENT_PID,
                        "tid": 1,
                        "ts": ts,
                        "args": {"value": sample["gauges"][name]},
                    }
                )
    for name in sorted(counter_values):
        value = counter_values[name]
        if not samples:
            # No recorder: fall back to one terminal counter sample.
            events.append(
                {
                    "ph": "C",
                    "name": name,
                    "cat": _category(name),
                    "pid": CLIENT_PID,
                    "tid": 1,
                    "ts": ts_end,
                    "args": {"value": value},
                }
            )
        events.append(
            {
                "ph": "i",
                "s": "g",
                "name": f"{name} = {value:g}",
                "cat": _category(name),
                "pid": CLIENT_PID,
                "tid": 1,
                "ts": ts_end,
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": instr.trace_id,
            "span_count": len(records),
            "counters": counter_values,
            "histograms": instr.histograms.summaries(),
            "timeline_samples": len(samples),
            "counter_track_clock": (
                samples[0]["clock"] if samples else "wall"
            ),
        },
    }


def write_chrome_trace(
    instr: Instrumentation,
    path: str,
    process_name: str = "hypermodel workstation",
    server_name: str = "object server (netsim)",
    lane_metadata: Optional[Dict[str, Dict[str, Any]]] = None,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build the trace document and write it to ``path`` as JSON."""
    document = build_trace(
        instr,
        process_name=process_name,
        server_name=server_name,
        lane_metadata=lane_metadata,
        recorder=recorder,
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


def flow_links(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The flow-start events of a built document (test/introspection aid)."""
    return [e for e in document["traceEvents"] if e.get("ph") == "s"]
