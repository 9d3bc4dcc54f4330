"""Span tracing installed from outside the program.

The traced run wraps the public callables at each layer boundary (the
``SEAMS`` table) and hands the engine a timing ``VFS``; nothing under
``src/`` changes.  A span is (name, start, end, parent, sequence id).
Aggregates per (root span, span name) are kept as the spans close; the
raw spans are kept only when a ``--trace-out`` file was asked for.

A span's *self* time is its duration minus the durations of the spans
opened directly beneath it.  Wrapper overhead that falls outside a
child's two clock reads is charged to the parent's self time, which is
why ``trace.overhead_ratio`` is reported next to every layer table.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import VFS, RealVFS, VFSFile

_MISSING = object()

_OPERATIONS = (
    "name_lookup", "name_oid_lookup", "range_lookup_hundred",
    "range_lookup_million", "group_lookup_1n", "group_lookup_mn",
    "group_lookup_mnatt", "ref_lookup_1n", "ref_lookup_mn",
    "ref_lookup_mnatt", "seq_scan", "closure_1n", "closure_mn",
    "closure_mnatt", "closure_1n_att_sum", "closure_1n_att_set",
    "closure_1n_pred", "closure_mnatt_linksum", "text_node_edit",
    "form_node_edit",
)

#: The ``HyperModelDatabase`` verbs the operations and the sequence use.
_VERBS = (
    "open", "close", "commit", "lookup", "get_attribute", "set_attribute",
    "range_hundred", "range_million", "children", "parts", "refs_to",
    "children_many", "parts_many", "refs_to_many", "get_attributes_many",
    "prefetch_closure", "parent", "part_of", "refs_from", "scan_ten",
    "get_text", "set_text", "get_bitmap", "set_bitmap",
)

#: (layer, module, class or None for module-level functions, callables).
#: Coarse seams only: per-slot and per-node-view calls stay unwrapped so
#: the traced run stays within about twice the untraced one.
SEAMS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("core.operations", "repro.core.operations", "Operations", _OPERATIONS),
    ("backends.oodb", "repro.backends.oodb", "OodbDatabase", _VERBS),
    ("backends.clientserver", "repro.backends.clientserver",
     "ClientServerDatabase", _VERBS),
    ("engine.store", "repro.engine.store", "ObjectStore",
     ("open", "close", "get", "get_many", "put", "update", "commit",
      "checkpoint", "index_lookup", "index_range", "scan_class",
      "class_of", "exists")),
    ("engine.serializer", "repro.engine.serializer", None,
     ("encode", "decode", "decode_view")),
    ("engine.heap", "repro.engine.heap", "HeapFile",
     ("read", "read_many", "insert", "update", "delete")),
    ("engine.buffer", "repro.engine.buffer", "BufferPool",
     ("get", "get_many", "prefetch", "flush_all", "dirty_pages")),
    ("engine.btree", "repro.engine.btree", "BTree",
     ("search", "search_unique", "scan_range", "insert", "update_value",
      "delete")),
    ("engine.wal", "repro.engine.wal", "WriteAheadLog",
     ("log_commit", "sync", "log_checkpoint")),
    ("netsim.cache", "repro.netsim.cache", "WorkstationCache",
     ("get", "get_many", "put", "put_many")),
    ("netsim.server", "repro.netsim.server", "ObjectServer",
     ("fetch", "fetch_many", "traverse", "readahead", "range_query",
      "scan_structure", "store", "exists", "store_list")),
)

#: Every layer a span can belong to (``engine.vfs`` comes from TimingVFS).
LAYERS = tuple(seam[0] for seam in SEAMS) + ("engine.vfs",)


class Tracer:
    """Records spans and their per-(root, name) aggregates."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: Open spans, outermost first: [name, start, child seconds, id].
        self._stack: List[list] = []
        self._next_id = 0
        #: (root span name, span name) -> [calls, total s, self s].
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        #: Identifier shared by every span of the current sequence.
        self.sequence = ""
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open a span by hand (the benchmark's own root spans)."""
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def end(self, counted: bool = True) -> None:
        """Close the innermost open span."""
        end = perf_counter()
        stack = self._stack
        name, start, child_seconds, span_id = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
            key = (stack[0][0], name)
        else:
            key = (name, name)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += counted
        entry[1] += duration
        entry[2] += duration - child_seconds
        if self.spans is not None:
            parent = stack[-1][3] if stack else 0
            self.spans.append(
                (span_id, name, start, end, parent, self.sequence)
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``.

        A generator function gets one span per resumption (the time the
        consumer spends between items is not the generator's), counted
        as a single call.
        """
        begin, end = self.begin, self.end
        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                counted = True
                while True:
                    begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(counted)
                    counted = False
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every seam callable (class- and module-level attributes)."""
        if self._installed:
            return
        for layer, module_name, class_name, names in SEAMS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for name in names:
                # An inherited verb is wrapped on the subclass and the
                # attribute deleted again on uninstall.
                original = vars(owner).get(name, _MISSING)
                wrapped = self.wrap(f"{layer}:{name}", getattr(owner, name))
                setattr(owner, name, wrapped)
                self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, name, original in reversed(self._installed):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._installed.clear()

    # -- reading -------------------------------------------------------------

    def self_seconds(self, roots: Tuple[str, ...], prefix: str) -> float:
        """Self time, beneath the given root spans, of the spans whose
        name starts with ``prefix`` (``"<layer>:"`` selects a layer)."""
        return sum(
            entry[2]
            for (root, name), entry in self.totals.items()
            if root in roots and name.startswith(prefix)
        )

    def calls(self, roots: Tuple[str, ...], prefix: str) -> int:
        """Calls of the spans whose name starts with ``prefix``."""
        return sum(
            int(entry[0])
            for (root, name), entry in self.totals.items()
            if root in roots and name.startswith(prefix)
        )

    def span_total(self, name: str) -> Tuple[int, float]:
        """(calls, total seconds) of one span name under any root."""
        calls, seconds = 0, 0.0
        for (_root, span_name), entry in self.totals.items():
            if span_name == name:
                calls += int(entry[0])
                seconds += entry[1]
        return calls, seconds

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in closing order."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, sequence in self.spans or ():
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "seq": sequence,
                }) + "\n")


class _TimingFile(VFSFile):
    """A file handle whose I/O calls are ``engine.vfs`` spans."""

    def __init__(self, inner: VFSFile, tracer: Tracer) -> None:
        self.path = inner.path
        self._inner = inner
        for name in ("read", "write", "seek", "truncate", "flush", "sync"):
            setattr(
                self, name,
                tracer.wrap(f"engine.vfs:{name}", getattr(inner, name)),
            )

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class TimingVFS(VFS):
    """The real filesystem with every file operation inside a span.

    Handed to the engine through the public ``vfs=`` backend option, so
    page reads, WAL appends and fsyncs show up as their own layer.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._base = RealVFS()
        self._tracer = tracer
        for name in ("exists", "size", "remove", "replace", "copy"):
            setattr(
                self, name,
                tracer.wrap(f"engine.vfs:{name}", getattr(self._base, name)),
            )

    def open(self, path: str, mode: str) -> VFSFile:
        self._tracer.begin("engine.vfs:open")
        try:
            return _TimingFile(self._base.open(path, mode), self._tracer)
        finally:
            self._tracer.end()
