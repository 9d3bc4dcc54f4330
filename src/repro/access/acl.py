"""Subtree-scoped access-control policies and the enforcing wrapper.

Policies attach to *document roots* (any node of the 1-N hierarchy) and
cover the whole subtree below them; a node's effective permissions come
from the nearest ancestor (including itself) carrying a policy for the
requesting principal, falling back to the ``PUBLIC`` pseudo-principal
and finally to the controller's default.  This matches R11's example:
set public read on one document structure and public write on another —
and because policy lookup never follows association links, links
*between* differently-protected structures keep working.

:class:`GuardedDatabase` wraps any backend and checks READ on every
retrieval and WRITE on every mutation, raising
:class:`~repro.errors.AccessDeniedError` with the principal, action and
node.  Structural queries that the schema needs to stay navigable
(lookup, kind) are treated as READ of the node itself.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.errors import AccessDeniedError

#: The pseudo-principal every user belongs to.
PUBLIC = "*"


class Permission(enum.Flag):
    """Grantable rights; WRITE does not imply READ (grant both)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


class AccessController:
    """Policy storage and resolution over one backend's 1-N hierarchy."""

    def __init__(
        self,
        db: HyperModelDatabase,
        default: Permission = Permission.READ_WRITE,
    ) -> None:
        self.db = db
        self.default = default
        #: uid -> {principal -> Permission}
        self._policies: Dict[int, Dict[str, Permission]] = {}

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------

    def set_policy(
        self, root_uid: int, principal: str, permission: Permission
    ) -> None:
        """Attach a policy to a document root (covers its subtree)."""
        self._policies.setdefault(root_uid, {})[principal] = permission

    def clear_policy(self, root_uid: int, principal: Optional[str] = None) -> None:
        """Remove one principal's policy, or the whole node's policies."""
        if root_uid not in self._policies:
            return
        if principal is None:
            del self._policies[root_uid]
        else:
            self._policies[root_uid].pop(principal, None)
            if not self._policies[root_uid]:
                del self._policies[root_uid]

    def policies_on(self, root_uid: int) -> Dict[str, Permission]:
        """The policies attached directly to one node."""
        return dict(self._policies.get(root_uid, {}))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def effective_permission(self, principal: str, ref: NodeRef) -> Permission:
        """Resolve a node's permissions by walking up the 1-N hierarchy.

        The nearest ancestor carrying a policy relevant to the
        principal wins; a node-specific principal entry shadows a
        PUBLIC entry *on the same node*.
        """
        db = self.db
        current: Optional[NodeRef] = ref
        while current is not None:
            uid = db.get_attribute(current, "uniqueId")
            node_policies = self._policies.get(uid)
            if node_policies is not None:
                if principal in node_policies:
                    return node_policies[principal]
                if PUBLIC in node_policies:
                    return node_policies[PUBLIC]
            current = db.parent(current)
        return self.default

    def check(self, principal: str, ref: NodeRef, needed: Permission) -> None:
        """Raise unless the principal holds ``needed`` on the node.

        Raises:
            AccessDeniedError: when the effective permission lacks any
                needed right.
        """
        effective = self.effective_permission(principal, ref)
        if needed & ~effective:
            action = "write" if needed & Permission.WRITE else "read"
            raise AccessDeniedError(
                principal, action, self.db.get_attribute(ref, "uniqueId")
            )


class GuardedDatabase(HyperModelDatabase):
    """A HyperModel backend with per-operation access checks.

    All reads require READ on the touched node; all mutations require
    WRITE.  Creating links requires WRITE on the *source* side only
    (adding a reference annotates the source; R11 explicitly wants
    links between differently-protected structures to remain possible)
    — except the 1-N and M-N aggregations, which restructure both
    documents and therefore need WRITE on both ends.
    """

    def __init__(
        self,
        inner: HyperModelDatabase,
        controller: Optional[AccessController] = None,
        principal: str = PUBLIC,
    ) -> None:
        self.inner = inner
        self.controller = controller or AccessController(inner)
        self.principal = principal
        self.backend_name = f"guarded({inner.backend_name})"

    def as_principal(self, principal: str) -> "GuardedDatabase":
        """A view of the same database acting as another principal."""
        return GuardedDatabase(self.inner, self.controller, principal)

    def _read(self, ref: NodeRef) -> None:
        self.controller.check(self.principal, ref, Permission.READ)

    def _write(self, ref: NodeRef) -> None:
        self.controller.check(self.principal, ref, Permission.WRITE)

    # -- lifecycle (not permissioned) ---------------------------------------

    def open(self) -> None:
        self.inner.open()

    def close(self) -> None:
        self.inner.close()

    def commit(self) -> None:
        self.inner.commit()

    def abort(self) -> None:
        self.inner.abort()

    @property
    def is_open(self) -> bool:
        return self.inner.is_open

    @property
    def supports_object_identity(self) -> bool:
        return self.inner.supports_object_identity

    # -- creation -------------------------------------------------------------

    def create_node(self, data: NodeData) -> NodeRef:
        return self.inner.create_node(data)

    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        self._write(parent)
        self._write(child)
        self.inner.add_child(parent, child)

    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        self._write(whole)
        self._write(part)
        self.inner.add_part(whole, part)

    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        self._write(source)
        self._read(target)
        self.inner.add_reference(source, target, attrs)

    # -- identity ---------------------------------------------------------------

    def lookup(self, unique_id: int) -> NodeRef:
        ref = self.inner.lookup(unique_id)
        self._read(ref)
        return ref

    def get_attribute(self, ref: NodeRef, name: str) -> int:
        self._read(ref)
        return self.inner.get_attribute(ref, name)

    def set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        self._write(ref)
        self.inner.set_attribute(ref, name, value)

    def kind_of(self, ref: NodeRef) -> NodeKind:
        self._read(ref)
        return self.inner.kind_of(ref)

    def structure_of(self, ref: NodeRef) -> int:
        self._read(ref)
        return self.inner.structure_of(ref)

    # -- range lookups --------------------------------------------------------------

    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        return self._readable(self.inner.range_hundred(low, high))

    def range_million(self, low: int, high: int) -> List[NodeRef]:
        return self._readable(self.inner.range_million(low, high))

    def _readable(self, refs: List[NodeRef]) -> List[NodeRef]:
        """Filter a result set down to nodes the principal may read."""
        allowed = []
        for ref in refs:
            if (
                self.controller.effective_permission(self.principal, ref)
                & Permission.READ
            ):
                allowed.append(ref)
        return allowed

    # -- traversal ----------------------------------------------------------------------

    def children(self, ref: NodeRef) -> List[NodeRef]:
        self._read(ref)
        return self.inner.children(ref)

    def parts(self, ref: NodeRef) -> List[NodeRef]:
        self._read(ref)
        return self.inner.parts(ref)

    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        self._read(ref)
        return self.inner.refs_to(ref)

    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        self._read(ref)
        return self.inner.parent(ref)

    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        self._read(ref)
        return self.inner.part_of(ref)

    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        self._read(ref)
        return self.inner.refs_from(ref)

    # -- scan ------------------------------------------------------------------------------

    def scan_ten(self, structure_id: int = 1) -> int:
        count = 0
        for ref in self.inner.iter_nodes(structure_id):
            if (
                self.controller.effective_permission(self.principal, ref)
                & Permission.READ
            ):
                self.inner.get_attribute(ref, "ten")
                count += 1
        return count

    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        for ref in self.inner.iter_nodes(structure_id):
            if (
                self.controller.effective_permission(self.principal, ref)
                & Permission.READ
            ):
                yield ref

    # -- content --------------------------------------------------------------------------

    def get_text(self, ref: NodeRef) -> str:
        self._read(ref)
        return self.inner.get_text(ref)

    def set_text(self, ref: NodeRef, text: str) -> None:
        self._write(ref)
        self.inner.set_text(ref, text)

    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        self._read(ref)
        return self.inner.get_bitmap(ref)

    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        self._write(ref)
        self.inner.set_bitmap(ref, bitmap)

    # -- result lists ----------------------------------------------------------------------

    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        self.inner.store_node_list(name, refs)

    def load_node_list(self, name: str) -> List[NodeRef]:
        return self.inner.load_node_list(name)

    # -- introspection ------------------------------------------------------------------------

    def node_count(self, structure_id: int = 1) -> int:
        return self.inner.node_count(structure_id)
