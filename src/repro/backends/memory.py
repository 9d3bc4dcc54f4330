"""The in-memory backend: direct object references, no persistence.

This is the reproduction's stand-in for the Smalltalk-80 image the
paper implemented the benchmark on: every relationship traversal is a
Python attribute access, commits are no-ops, and "references" are the
node objects themselves.  It provides the upper performance bound that
the persistent backends are compared against, and doubles as the
reference implementation that backend conformance tests are written
against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.obs import Instrumentation, resolve
from repro.errors import (
    DatabaseClosedError,
    InvalidOperationError,
    NodeNotFoundError,
)


class _MemoryNode:
    """One node of the in-memory graph.

    Relationship ends are direct references: ``children`` is an ordered
    list, ``parts``/``part_of`` unordered lists, and ``refs_to`` keeps
    (target, attributes) pairs with ``refs_from`` as the maintained
    inverse.
    """

    __slots__ = (
        "unique_id",
        "ten",
        "hundred",
        "million",
        "kind",
        "text",
        "bitmap",
        "structure_id",
        "children",
        "parent",
        "parts",
        "part_of",
        "refs_to",
        "refs_from",
    )

    def __init__(self, data: NodeData) -> None:
        self.unique_id = data.unique_id
        self.ten = data.ten
        self.hundred = data.hundred
        self.million = data.million
        self.kind = data.kind
        self.text = data.text
        self.bitmap = data.bitmap.copy() if data.bitmap is not None else None
        self.structure_id = data.structure_id
        self.children: List["_MemoryNode"] = []
        self.parent: Optional["_MemoryNode"] = None
        self.parts: List["_MemoryNode"] = []
        self.part_of: List["_MemoryNode"] = []
        self.refs_to: List[Tuple["_MemoryNode", LinkAttributes]] = []
        self.refs_from: List["_MemoryNode"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_MemoryNode uid={self.unique_id} kind={self.kind.value}>"


class MemoryDatabase(HyperModelDatabase):
    """A HyperModel database held entirely in process memory."""

    def __init__(
        self, instrumentation: Optional[Instrumentation] = None
    ) -> None:
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        self._open = False
        self._by_uid: Dict[int, _MemoryNode] = {}
        self._insertion_order: List[_MemoryNode] = []
        self._node_lists: Dict[str, List[_MemoryNode]] = {}

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        self._open = True

    def close(self) -> None:
        """Close the handle.  The graph is retained: an in-memory
        database has no cold state to return to, which is exactly why
        the paper uses it as the warm-performance baseline."""
        self._open = False

    def commit(self) -> None:
        self._require_open()

    @property
    def is_open(self) -> bool:
        return self._open

    def _require_open(self) -> None:
        if not self._open:
            raise DatabaseClosedError("memory database is not open")

    def _node(self, ref: NodeRef) -> _MemoryNode:
        if not isinstance(ref, _MemoryNode):
            raise NodeNotFoundError(ref)
        return ref

    # -- creation ---------------------------------------------------------

    def create_node(self, data: NodeData) -> NodeRef:
        self._require_open()
        self._instr.count("backend.op.writes")
        if data.unique_id in self._by_uid:
            raise InvalidOperationError(
                f"duplicate uniqueId {data.unique_id}"
            )
        node = _MemoryNode(data)
        self._by_uid[data.unique_id] = node
        self._insertion_order.append(node)
        return node

    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        parent_node, child_node = self._node(parent), self._node(child)
        if child_node.parent is not None:
            raise InvalidOperationError(
                f"node {child_node.unique_id} already has a parent"
            )
        parent_node.children.append(child_node)
        child_node.parent = parent_node

    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        whole_node, part_node = self._node(whole), self._node(part)
        whole_node.parts.append(part_node)
        part_node.part_of.append(whole_node)

    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        source_node, target_node = self._node(source), self._node(target)
        source_node.refs_to.append((target_node, attrs))
        target_node.refs_from.append(source_node)

    # -- identity and attributes -------------------------------------------

    def lookup(self, unique_id: int) -> NodeRef:
        self._require_open()
        self._instr.count("backend.op.reads")
        try:
            return self._by_uid[unique_id]
        except KeyError:
            raise NodeNotFoundError(unique_id) from None

    def get_attribute(self, ref: NodeRef, name: str) -> int:
        self._require_open()
        self._instr.count("backend.op.reads")
        node = self._node(ref)
        if name == "uniqueId":
            return node.unique_id
        if name in ("ten", "hundred", "million"):
            return getattr(node, name)
        raise KeyError(f"unknown node attribute {name!r}")

    def set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        node = self._node(ref)
        if name == "uniqueId":
            raise InvalidOperationError("uniqueId is immutable")
        if name not in ("ten", "hundred", "million"):
            raise KeyError(f"unknown node attribute {name!r}")
        setattr(node, name, value)

    def kind_of(self, ref: NodeRef) -> NodeKind:
        self._require_open()
        self._instr.count("backend.op.reads")
        return self._node(ref).kind

    def structure_of(self, ref: NodeRef) -> int:
        self._require_open()
        return self._node(ref).structure_id

    # -- range lookups -------------------------------------------------------

    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.scans")
        return [n for n in self._insertion_order if low <= n.hundred <= high]

    def range_million(self, low: int, high: int) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.scans")
        return [n for n in self._insertion_order if low <= n.million <= high]

    # -- forward traversal ----------------------------------------------------

    def children(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return list(self._node(ref).children)

    def parts(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return list(self._node(ref).parts)

    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return list(self._node(ref).refs_to)

    # -- batched navigation ---------------------------------------------------

    def _batch(self, refs: Sequence[NodeRef]) -> List[_MemoryNode]:
        """Validate a frontier and account for the batch call."""
        nodes = [self._node(ref) for ref in refs]
        self._instr.count("backend.batch.calls")
        self._instr.count("backend.batch.items", len(nodes))
        self._instr.count("backend.op.reads")
        return nodes

    def children_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        self._require_open()
        if not refs:
            return []
        return [list(n.children) for n in self._batch(refs)]

    def parts_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        self._require_open()
        if not refs:
            return []
        return [list(n.parts) for n in self._batch(refs)]

    def refs_to_many(
        self, refs: Sequence[NodeRef]
    ) -> List[List[Tuple[NodeRef, LinkAttributes]]]:
        self._require_open()
        if not refs:
            return []
        return [list(n.refs_to) for n in self._batch(refs)]

    def get_attributes_many(
        self, refs: Sequence[NodeRef], name: str
    ) -> List[int]:
        self._require_open()
        if not refs:
            return []
        if name == "uniqueId":
            name = "unique_id"
        elif name not in ("ten", "hundred", "million"):
            raise KeyError(f"unknown node attribute {name!r}")
        return [getattr(n, name) for n in self._batch(refs)]

    # -- inverse traversal ------------------------------------------------------

    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return self._node(ref).parent

    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return list(self._node(ref).part_of)

    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        return list(self._node(ref).refs_from)

    # -- scan ----------------------------------------------------------------

    def scan_ten(self, structure_id: int = 1) -> int:
        self._require_open()
        self._instr.count("backend.op.scans")
        count = 0
        for node in self._insertion_order:
            if node.structure_id == structure_id:
                _ = node.ten
                count += 1
        return count

    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        self._require_open()
        for node in self._insertion_order:
            if node.structure_id == structure_id:
                yield node

    # -- content ----------------------------------------------------------------

    def get_text(self, ref: NodeRef) -> str:
        self._require_open()
        self._instr.count("backend.op.reads")
        node = self._node(ref)
        if node.kind is not NodeKind.TEXT:
            raise InvalidOperationError(
                f"node {node.unique_id} is not a text node"
            )
        return node.text  # type: ignore[return-value]

    def set_text(self, ref: NodeRef, text: str) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        node = self._node(ref)
        if node.kind is not NodeKind.TEXT:
            raise InvalidOperationError(
                f"node {node.unique_id} is not a text node"
            )
        node.text = text

    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        self._require_open()
        self._instr.count("backend.op.reads")
        node = self._node(ref)
        if node.kind is not NodeKind.FORM:
            raise InvalidOperationError(
                f"node {node.unique_id} is not a form node"
            )
        return node.bitmap  # type: ignore[return-value]

    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        node = self._node(ref)
        if node.kind is not NodeKind.FORM:
            raise InvalidOperationError(
                f"node {node.unique_id} is not a form node"
            )
        node.bitmap = bitmap

    # -- result lists ---------------------------------------------------------------

    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        self._require_open()
        self._instr.count("backend.op.writes")
        self._node_lists[name] = [self._node(r) for r in refs]

    def load_node_list(self, name: str) -> List[NodeRef]:
        self._require_open()
        self._instr.count("backend.op.reads")
        try:
            return list(self._node_lists[name])
        except KeyError:
            raise NodeNotFoundError(name) from None

    # -- introspection -----------------------------------------------------------------

    def node_count(self, structure_id: int = 1) -> int:
        self._require_open()
        return sum(
            1 for n in self._insertion_order if n.structure_id == structure_id
        )

    backend_name = "memory"
