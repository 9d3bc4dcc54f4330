"""Garbage collection of non-referenced objects (requirement R10).

R10 asks for "garbage collection of non-referenced objects".  The
engine stores plain state dictionaries and does not interpret them, so
reachability is defined by the *caller*: a set of root OIDs plus a
function extracting the outgoing references from one object's state.

:func:`collect_garbage` is a classic stop-the-world mark-and-sweep:

1. **Mark** — breadth-first traversal from the roots through the
   extracted references;
2. **Sweep** — scan every class extent and delete unmarked objects
   (in one commit, so the sweep is atomic and logged).

The HyperModel backend wraps this with its own reference semantics
(children, parts and refTo keep a node alive; the inverse ends do not)
and scrubs dangling inverse entries from survivors afterwards.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Set

from repro.engine.store import ObjectStore
from repro.errors import TransactionError

#: Extracts outgoing reference OIDs from (class name, state).
RefExtractor = Callable[[str, Dict], Iterable[int]]


@dataclasses.dataclass
class GcStats:
    """Outcome of one collection."""

    live: int
    collected: int
    roots: int

    @property
    def total(self) -> int:
        """Objects examined."""
        return self.live + self.collected


def mark(
    store: ObjectStore, roots: Iterable[int], extract_refs: RefExtractor
) -> Set[int]:
    """The mark phase: all OIDs reachable from ``roots``.

    Unresolvable references (already-deleted targets) are skipped
    rather than failing the collection.
    """
    marked: Set[int] = set()
    frontier: List[int] = [oid for oid in roots]
    while frontier:
        oid = frontier.pop()
        if oid in marked:
            continue
        if not store.exists(oid):
            continue
        marked.add(oid)
        class_name = store.class_of(oid)
        state = store.get(oid)
        for target in extract_refs(class_name, state):
            if target not in marked:
                frontier.append(target)
    return marked


def collect_garbage(
    store: ObjectStore,
    roots: Iterable[int],
    extract_refs: RefExtractor,
    classes: Iterable[str],
) -> GcStats:
    """Mark from ``roots`` and sweep the extents of ``classes``.

    Args:
        store: the open object store, with no pending writes.
        roots: OIDs that are live by definition.
        extract_refs: outgoing-reference extractor.
        classes: class names whose extents are swept (subclasses
            included).

    Returns:
        A :class:`GcStats` with live/collected counts.

    Raises:
        TransactionError: if the store has pending writes.
    """
    if store.current_transaction() is not None:
        raise TransactionError(
            "cannot collect garbage with uncommitted writes"
        )
    root_list = list(roots)
    marked = mark(store, root_list, extract_refs)

    candidates: Set[int] = set()
    for class_name in classes:
        candidates.update(store.scan_class(class_name))

    garbage = sorted(candidates - marked)
    if garbage:
        try:
            for oid in garbage:
                store.delete(oid)
            store.commit()
        except Exception:
            store.abort()
            raise
    return GcStats(
        live=len(candidates) - len(garbage),
        collected=len(garbage),
        roots=len(root_list),
    )
