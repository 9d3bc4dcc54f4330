"""The OODB backend: HyperModel on the from-scratch object engine.

This is the reproduction's analogue of the paper's GemStone/Vbase
implementations.  Nodes are persistent objects whose relationship ends
are OID lists stored *inside* the object (direct references, the
object-database idiom); ``uniqueId``, ``hundred`` and ``million`` carry
B+tree indexes; and the 1-N hierarchy is **clustered**: attaching a
child relocates it onto (or next to) its parent's page, so a cold
``closure1N`` faults contiguous pages — the effect section 5.2 predicts.

Construct with ``clustered=False`` for the ablation arm
(``oodb-unclustered`` in the registry).

Node references are engine OIDs, so op 02 (lookup by object id) is a
genuine direct dereference, distinct from the op 01 index lookup.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.core.schema import (
    NODE,
    NODE_ATTRIBUTES,
    RELATIONSHIPS,
    RelationshipKind,
)
from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.obs import Instrumentation, resolve
from repro.errors import (
    InvalidOperationError,
    NodeNotFoundError,
    RecordNotFoundError,
)

_KIND_TO_CLASS = {
    NodeKind.NODE: "Node",
    NodeKind.TEXT: "TextNode",
    NodeKind.FORM: "FormNode",
}
_CLASS_TO_KIND = {name: kind for kind, name in _KIND_TO_CLASS.items()}


def _node_fields() -> List[FieldDefinition]:
    """The engine fields of ``Node``, derived from Figure 1.

    The four attributes, the structure tag, then each relationship's
    forward and inverse role: OID lists, except the 1-N inverse
    (``parent``), a single OID with 0 for none.
    """
    fields = [FieldDefinition(a.name) for a in NODE.attributes]
    fields.append(FieldDefinition("structId", default=1))
    for rel in RELATIONSHIPS:
        one = rel.kind is RelationshipKind.AGGREGATION_1N
        fields.append(FieldDefinition(rel.forward_role, default=[]))
        fields.append(FieldDefinition(rel.inverse_role, default=0 if one else []))
    return fields


class OodbDatabase(HyperModelDatabase):
    """A HyperModel database stored in one engine file.

    ``sync_commits`` defaults to ``False``: commits flush through the
    OS but skip the per-commit ``fsync``, which is the conventional
    setting for benchmarking (it measures the engine, not the disk's
    flush latency).  Deployments that need power-loss durability should
    pass ``sync_commits=True``; crash *consistency* (process death) is
    guaranteed either way by the write-ahead log.

    ``vfs`` injects the engine's file-system seam (see
    :mod:`repro.engine.vfs`): ``create_backend("oodb", path, vfs=...)``
    threads a fault-injecting or counting VFS through the page file,
    the WAL and the buffer-pool flush paths.  ``group_commit`` batches
    consecutive commit fsyncs (``docs/durability.md``).
    """

    def __init__(
        self,
        path: str,
        clustered: bool = True,
        cache_pages: int = 512,
        sync_commits: bool = False,
        versioned: bool = False,
        instrumentation: Optional[Instrumentation] = None,
        vfs=None,
        group_commit: bool = False,
        group_commit_size: int = 8,
    ) -> None:
        self.path = path
        self.instrumentation = resolve(instrumentation)
        self._store = ObjectStore(
            path,
            cache_pages=cache_pages,
            clustered=clustered,
            sync_commits=sync_commits,
            versioned=versioned,
            instrumentation=self.instrumentation,
            vfs=vfs,
            group_commit=group_commit,
            group_commit_size=group_commit_size,
        )
        self._clustered = clustered
        self._pending_uids: set = set()

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        self._store.open()
        self._ensure_schema()

    def close(self) -> None:
        """Commit, checkpoint and close the file: the next open is cold."""
        if self._store.is_open:
            self._store.commit()
            self._store.close()

    def commit(self) -> None:
        try:
            self._store.commit()
        finally:
            # A refused commit ends aborted: its creations are gone too.
            self._pending_uids.clear()

    def abort(self) -> None:
        self._store.abort()
        self._pending_uids.clear()

    @property
    def is_open(self) -> bool:
        return self._store.is_open

    @property
    def store(self) -> ObjectStore:
        """The underlying engine store (for stats and ablations)."""
        return self._store

    def _ensure_schema(self) -> None:
        catalog = self._store.catalog
        if catalog.has_class("Node"):
            return
        self._store.define_class("Node", _node_fields())
        self._store.define_class(
            "TextNode", [FieldDefinition("text", default="")], base="Node"
        )
        self._store.define_class(
            "FormNode",
            [
                FieldDefinition("width", default=0),
                FieldDefinition("height", default=0),
                FieldDefinition("bits", default=b"")
            ],
            base="Node",
        )
        self._store.define_class(
            "NodeList",
            [FieldDefinition("name", default=""), FieldDefinition("items", default=[])],
        )
        self._store.create_index("Node", "uniqueId")
        self._store.create_index("Node", "hundred")
        self._store.create_index("Node", "million")
        self._store.commit()

    # -- internals -------------------------------------------------------

    def _get(self, ref: NodeRef, *fields: str) -> dict:
        """The named fields of a node: private copies, the caller's to keep."""
        try:
            return self._store.get(int(ref), fields=fields)
        except RecordNotFoundError:
            raise NodeNotFoundError(ref) from None

    # -- creation ---------------------------------------------------------

    def create_node(self, data: NodeData) -> NodeRef:
        if (
            data.unique_id in self._pending_uids
            or self._store.index_lookup("Node", "uniqueId", data.unique_id)
        ):
            raise InvalidOperationError(f"duplicate uniqueId {data.unique_id}")
        self._pending_uids.add(data.unique_id)
        state = {
            "uniqueId": data.unique_id,
            "ten": data.ten,
            "hundred": data.hundred,
            "million": data.million,
            "structId": data.structure_id,
        }
        if data.kind is NodeKind.TEXT:
            state["text"] = data.text
        elif data.kind is NodeKind.FORM:
            state["width"] = data.bitmap.width
            state["height"] = data.bitmap.height
            state["bits"] = data.bitmap.to_bytes()
        return self._store.new(_KIND_TO_CLASS[data.kind], state)

    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        children = self._get(parent, "children")["children"]
        child_state = self._get(child, "parent", "uniqueId")
        if child_state["parent"]:
            raise InvalidOperationError(
                f"node {child_state['uniqueId']} already has a parent"
            )
        children.append(int(child))
        self._store.update(int(parent), {"children": children})
        self._store.update(int(child), {"parent": int(parent)})
        if self._clustered:
            self._store.relocate_near(int(child), int(parent))

    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        parts = self._get(whole, "parts")["parts"]
        part_of = self._get(part, "partOf")["partOf"]
        self._store.update(int(whole), {"parts": parts + [int(part)]})
        self._store.update(int(part), {"partOf": part_of + [int(whole)]})

    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        refs = self._get(source, "refTo")["refTo"]
        refs_from = self._get(target, "refFrom")["refFrom"]
        refs.append([int(target), attrs.offset_from, attrs.offset_to])
        self._store.update(int(source), {"refTo": refs})
        self._store.update(int(target), {"refFrom": refs_from + [int(source)]})

    # -- identity ---------------------------------------------------------

    def lookup(self, unique_id: int) -> NodeRef:
        oids = self._store.index_lookup("Node", "uniqueId", unique_id)
        if not oids:
            raise NodeNotFoundError(unique_id)
        return oids[0]

    def get_attribute(self, ref: NodeRef, name: str) -> int:
        if name not in NODE_ATTRIBUTES:
            raise KeyError(f"unknown node attribute {name!r}")
        return self._get(ref, name)[name]

    def _set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        self._get(ref, name)  # existence check with the right error type
        self._store.update(int(ref), {name: value})

    def kind_of(self, ref: NodeRef) -> NodeKind:
        return _CLASS_TO_KIND[self._store.class_of(int(ref))]

    def structure_of(self, ref: NodeRef) -> int:
        return self._get(ref, "structId")["structId"]

    # -- range lookups ----------------------------------------------------

    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        return self._store.index_range("Node", "hundred", low, high)

    def range_million(self, low: int, high: int) -> List[NodeRef]:
        return self._store.index_range("Node", "million", low, high)

    # -- forward traversal -------------------------------------------------

    def children(self, ref: NodeRef) -> List[NodeRef]:
        return self._get(ref, "children")["children"]

    def parts(self, ref: NodeRef) -> List[NodeRef]:
        return self._get(ref, "parts")["parts"]

    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        refs = self._get(ref, "refTo")["refTo"]
        return [
            (target, LinkAttributes(offset_from, offset_to))
            for target, offset_from, offset_to in refs
        ]

    # -- batched navigation ----------------------------------------------------

    def _get_many(self, refs: Sequence[NodeRef], *fields: str) -> dict:
        """Batch fetch of the named fields, keyed by oid, clustering-aware.

        Delegates to :meth:`ObjectStore.get_many`, which sorts the oids
        by heap page and prefetches the page set through the buffer
        pool — the traversal analogue of the 1-N clustering policy.
        """
        self.instrumentation.count("backend.batch.calls")
        self.instrumentation.count("backend.batch.items", len(refs))
        try:
            return self._store.get_many([int(r) for r in refs], fields=fields)
        except RecordNotFoundError as exc:
            raise NodeNotFoundError(exc.args[0] if exc.args else refs) from None

    def children_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        if not refs:
            return []
        states = self._get_many(refs, "children")
        return [states[int(r)]["children"] for r in refs]

    def parts_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        if not refs:
            return []
        states = self._get_many(refs, "parts")
        return [states[int(r)]["parts"] for r in refs]

    def refs_to_many(
        self, refs: Sequence[NodeRef]
    ) -> List[List[Tuple[NodeRef, LinkAttributes]]]:
        if not refs:
            return []
        states = self._get_many(refs, "refTo")
        return [
            [
                (target, LinkAttributes(offset_from, offset_to))
                for target, offset_from, offset_to in states[int(r)]["refTo"]
            ]
            for r in refs
        ]

    def get_attributes_many(
        self, refs: Sequence[NodeRef], name: str
    ) -> List[int]:
        if name not in NODE_ATTRIBUTES:
            raise KeyError(f"unknown node attribute {name!r}")
        if not refs:
            return []
        states = self._get_many(refs, name)
        return [states[int(r)][name] for r in refs]

    # -- inverse traversal ---------------------------------------------------

    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        return self._get(ref, "parent")["parent"] or None

    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        return self._get(ref, "partOf")["partOf"]

    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        return self._get(ref, "refFrom")["refFrom"]

    # -- scan ------------------------------------------------------------------

    def scan_ten(self, structure_id: int = 1) -> int:
        """Extent scan filtered by the structure tag.

        The paper forbids relying on *all* Node instances being the
        test structure; the filter on ``structId`` is the direct
        equivalent of the relational ``WHERE`` clause a multi-structure
        database needs.
        """
        count = 0
        for oid in self._store.scan_class("Node"):
            state = self._store.get(oid, fields=("structId", "ten"))
            if state["structId"] == structure_id:
                _ = state["ten"]
                count += 1
        return count

    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        for oid in self._store.scan_class("Node"):
            state = self._store.get(oid, fields=("structId",))
            if state["structId"] == structure_id:
                yield oid

    # -- content -----------------------------------------------------------------

    def get_text(self, ref: NodeRef) -> str:
        if self._store.class_of(int(ref)) != "TextNode":
            raise InvalidOperationError(f"object {ref} is not a text node")
        return self._get(ref, "text")["text"]

    def set_text(self, ref: NodeRef, text: str) -> None:
        if self._store.class_of(int(ref)) != "TextNode":
            raise InvalidOperationError(f"object {ref} is not a text node")
        self._store.update(int(ref), {"text": text})

    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        if self._store.class_of(int(ref)) != "FormNode":
            raise InvalidOperationError(f"object {ref} is not a form node")
        state = self._get(ref, "width", "height", "bits")
        return Bitmap.from_bytes(state["width"], state["height"], state["bits"])

    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        if self._store.class_of(int(ref)) != "FormNode":
            raise InvalidOperationError(f"object {ref} is not a form node")
        self._store.update(
            int(ref),
            {
                "width": bitmap.width,
                "height": bitmap.height,
                "bits": bitmap.to_bytes(),
            },
        )

    # -- result lists ----------------------------------------------------------------

    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        existing = self._find_node_list(name)
        items = [int(r) for r in refs]
        if existing is None:
            self._store.new("NodeList", {"name": name, "items": items})
        else:
            self._store.update(existing, {"items": items})

    def load_node_list(self, name: str) -> List[NodeRef]:
        oid = self._find_node_list(name)
        if oid is None:
            raise NodeNotFoundError(name)
        return self._store.get(oid, fields=("items",))["items"]

    def _find_node_list(self, name: str) -> Optional[int]:
        for oid in self._store.scan_class("NodeList", include_subclasses=False):
            if self._store.get(oid, fields=("name",))["name"] == name:
                return oid
        return None

    # -- introspection ------------------------------------------------------------------

    def node_count(self, structure_id: int = 1) -> int:
        return sum(1 for _ in self.iter_nodes(structure_id))

    backend_name = "oodb"

    def drop_cache(self) -> None:
        """Expose the engine's cold-cache hook to the harness."""
        self._store.commit()
        self._store.drop_cache()

    # -- maintenance (R10) -------------------------------------------------

    def collect_garbage(self, roots: Sequence[NodeRef]) -> "GcStats":
        """Delete nodes unreachable from ``roots`` (R10's GC).

        Reachability follows the *owning* directions — children, parts
        and outgoing references — plus every stored node list.  The
        inverse ends (parent, partOf, refFrom) do not keep a node
        alive; after the sweep, survivors' inverse lists are scrubbed
        of entries pointing at collected nodes.
        """
        from repro.engine.gc import GcStats, collect_garbage

        self._store.commit()

        def extract_refs(class_name: str, state: dict):
            if class_name == "NodeList":
                return list(state["items"])
            refs = list(state["children"]) + list(state["parts"])
            refs.extend(target for target, _f, _t in state["refTo"])
            return refs

        all_roots = [int(r) for r in roots]
        all_roots.extend(
            self._store.scan_class("NodeList", include_subclasses=False)
        )
        stats = collect_garbage(
            self._store, all_roots, extract_refs, classes=["Node"]
        )
        if stats.collected:
            self._scrub_dangling_inverses()
        self._store.commit()
        return stats

    def _scrub_dangling_inverses(self) -> None:
        """Drop parent/partOf/refFrom entries that point at dead OIDs."""
        for oid in list(self._store.scan_class("Node")):
            state = self._store.get(
                oid, fields=("parent", "partOf", "refFrom")
            )
            changes = {}
            if state["parent"] and not self._store.exists(state["parent"]):
                changes["parent"] = 0
            part_of = [o for o in state["partOf"] if self._store.exists(o)]
            if len(part_of) != len(state["partOf"]):
                changes["partOf"] = part_of
            refs_from = [o for o in state["refFrom"] if self._store.exists(o)]
            if len(refs_from) != len(state["refFrom"]):
                changes["refFrom"] = refs_from
            if changes:
                self._store.update(oid, changes)

    def backup(self, path: str) -> None:
        """Snapshot the database file (R10 backup)."""
        self._store.backup(path)
