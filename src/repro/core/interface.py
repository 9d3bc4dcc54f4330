"""The backend protocol every HyperModel database must implement.

The paper specifies its operations "at a conceptual level, suitable for
transformation to different actual database management systems".  This
module is that transformation seam: :class:`HyperModelDatabase` is the
abstract navigational interface the generator (section 5.2), the
operations (section 6) and the harness all run against, and each
backend (in-memory, relational, OODB, client/server) implements.

Node references are opaque.  The paper is explicit that inputs and
outputs of operations are *references* — key values in a relational
system, object identifiers in an object-oriented one — never copies of
nodes, and that a returned list of references must itself be storable
in the database.  The interface mirrors this with ``NodeRef = Any``
plus :meth:`store_node_list` / :meth:`load_node_list`.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.model import LinkAttributes, NodeData, NodeKind, check_int
from repro.core.schema import MUTABLE_ATTRIBUTES, NODE_ATTRIBUTES
from repro.errors import InvalidOperationError
from repro.obs import NO_OP, Instrumentation

#: An opaque, backend-specific node reference (key value or object id).
NodeRef = Any


class HyperModelDatabase(abc.ABC):
    """Abstract navigational interface to one HyperModel database.

    Lifecycle: a backend is constructed closed; :meth:`open` makes it
    usable, :meth:`close` flushes and releases it (and, per section
    5.3(e), drops any cache so the next open starts cold).  Mutations
    become durable at :meth:`commit`.

    Backends are also context managers::

        with create_backend("memory") as db:
            ...            # opened on entry
        # closed on exit; aborted first if the block raised

    and each carries an :attr:`instrumentation` handle (the no-op
    singleton unless one was supplied at construction) whose counters
    the harness snapshots around every cold/warm run.
    """

    #: The measurement handle; backends overwrite this in ``__init__``
    #: with whatever :func:`repro.obs.resolve` gives them.
    instrumentation: Instrumentation = NO_OP

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def open(self) -> None:
        """Open the database, making operations available."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush, release resources and drop caches (section 5.3(e))."""

    @abc.abstractmethod
    def commit(self) -> None:
        """Make all changes since the last commit durable."""

    def abort(self) -> None:
        """Discard uncommitted changes.  Optional; default is a no-op
        for backends without transaction support."""

    @property
    @abc.abstractmethod
    def is_open(self) -> bool:
        """Whether the database is currently open."""

    def __enter__(self) -> "HyperModelDatabase":
        """Open the database (if closed) and return it."""
        if not self.is_open:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close on exit; abort uncommitted work first if the block raised.

        The clean path relies on :meth:`close` flushing committed work
        (every backend's close implies a final commit of pending
        writes); the exception path calls :meth:`abort` first so a
        failed block's half-done mutations are discarded, honouring the
        "abort-on-exception" contract.
        """
        try:
            if exc_type is not None and self.is_open:
                self.abort()
        finally:
            if self.is_open:
                self.close()
        return False

    @property
    def supports_object_identity(self) -> bool:
        """Whether op 02 (lookup by object id) is distinct from op 01.

        Relational backends return ``False``: their only node reference
        is the key value, so the paper's "if applicable" clause excuses
        them from the OID-lookup measurement.
        """
        return True

    # ------------------------------------------------------------------
    # Creation (used by the generator; timed by the creation benchmark)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_node(self, data: NodeData) -> NodeRef:
        """Create a node with the given attributes; return its reference."""

    @abc.abstractmethod
    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        """Append ``child`` to the *ordered* 1-N children of ``parent``."""

    @abc.abstractmethod
    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        """Add ``part`` to the unordered M-N parts of ``whole``."""

    @abc.abstractmethod
    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        """Create an attributed refTo link from ``source`` to ``target``."""

    # ------------------------------------------------------------------
    # Identity and attributes (ops 01/02)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def lookup(self, unique_id: int) -> NodeRef:
        """Resolve a ``uniqueId`` key to a node reference (op 01 path).

        Raises:
            NodeNotFoundError: if no node has that uniqueId.
        """

    @abc.abstractmethod
    def get_attribute(self, ref: NodeRef, name: str) -> int:
        """Read one of the integer attributes of a node by reference."""

    def set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        """Write one of the integer attributes of a node (op 12).

        The one attribute-write check of every backend, made before
        anything is touched: a refused write leaves the node and the
        transaction as they were.

        Raises:
            KeyError: for a name Figure 1 does not declare.
            InvalidOperationError: for ``uniqueId`` (the key) or a
                value that is not an ``int``.
        """
        if name not in MUTABLE_ATTRIBUTES:
            if name in NODE_ATTRIBUTES:
                raise InvalidOperationError(f"{name} is immutable")
            raise KeyError(f"unknown node attribute {name!r}")
        if value.__class__ is not int:  # an exact int needs no call
            check_int(name, value)
        self._set_attribute(ref, name, value)

    @abc.abstractmethod
    def _set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        """Store a checked attribute write (see :meth:`set_attribute`)."""

    @abc.abstractmethod
    def kind_of(self, ref: NodeRef) -> NodeKind:
        """Return which class of the generalization hierarchy a node is."""

    @abc.abstractmethod
    def structure_of(self, ref: NodeRef) -> int:
        """Return which test structure a node belongs to."""

    # ------------------------------------------------------------------
    # Range lookups (ops 03/04)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        """Nodes whose ``hundred`` is in the inclusive range (op 03)."""

    @abc.abstractmethod
    def range_million(self, low: int, high: int) -> List[NodeRef]:
        """Nodes whose ``million`` is in the inclusive range (op 04)."""

    # ------------------------------------------------------------------
    # Group lookups — forward traversal (ops 05A/05B/06)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def children(self, ref: NodeRef) -> List[NodeRef]:
        """The ordered children of a node via the 1-N aggregation."""

    @abc.abstractmethod
    def parts(self, ref: NodeRef) -> List[NodeRef]:
        """The parts of a node via the M-N aggregation (unordered)."""

    @abc.abstractmethod
    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        """Outgoing attributed references with their offsets (op 06)."""

    # ------------------------------------------------------------------
    # Batched navigation (frontier traversal; see docs/performance.md)
    # ------------------------------------------------------------------
    #
    # The closure operations (ops 10-15/18) traverse one *frontier* of
    # nodes at a time.  Issued per node, a frontier costs one backend
    # interaction per member — N simulated round trips on the
    # client/server backend, N un-clustered store reads on the paged
    # engine.  The ``*_many`` methods let a backend answer a whole
    # frontier in one interaction (one ``IN (...)`` query, one batch
    # RPC, one page-ordered prefetch).
    #
    # Contract, shared by every implementation:
    #
    # * results align 1:1 with ``refs`` — element *i* is exactly what
    #   the corresponding per-item method would return for ``refs[i]``,
    #   including order within each element;
    # * duplicate refs are answered per occurrence (the *query* may be
    #   deduplicated, the result must not be);
    # * an empty ``refs`` returns an empty list without touching the
    #   backend;
    # * unknown refs raise exactly what the per-item method raises.
    #
    # The defaults below fall back to per-item calls so third-party
    # backends keep working unchanged; built-in backends override them
    # natively and count ``backend.batch.calls`` / ``backend.batch.items``.

    def children_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        """Ordered 1-N children for each of ``refs`` (aligned)."""
        return [self.children(ref) for ref in refs]

    def parts_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        """M-N parts for each of ``refs`` (aligned)."""
        return [self.parts(ref) for ref in refs]

    def refs_to_many(
        self, refs: Sequence[NodeRef]
    ) -> List[List[Tuple[NodeRef, LinkAttributes]]]:
        """Outgoing attributed references for each of ``refs`` (aligned)."""
        return [self.refs_to(ref) for ref in refs]

    def get_attributes_many(
        self, refs: Sequence[NodeRef], name: str
    ) -> List[int]:
        """One integer attribute read for each of ``refs`` (aligned)."""
        return [self.get_attribute(ref, name) for ref in refs]

    def prefetch_closure(
        self,
        root: NodeRef,
        relation: str,
        depth: Optional[int] = None,
    ) -> bool:
        """Hint that a closure over ``relation`` from ``root`` follows.

        ``relation`` is one of ``"children"``, ``"parts"`` or
        ``"refTo"``; ``depth`` bounds the traversal (``None`` =
        unbounded).  A backend that can warm the reachable set cheaply
        — e.g. by pushing the whole traversal down to a remote server
        in one request — may do so and return ``True``; the default
        does nothing and returns ``False``.  Purely an optimization
        hint: callers must behave identically either way, because the
        subsequent per-item/batched reads define the result.
        """
        return False

    # ------------------------------------------------------------------
    # Reference lookups — inverse traversal (ops 07A/07B/08)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        """The 1-N parent of a node, or ``None`` for the root (op 07A)."""

    @abc.abstractmethod
    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        """The composites this node is a part of via M-N (op 07B)."""

    @abc.abstractmethod
    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        """Nodes that reference this node (possibly empty; op 08)."""

    # ------------------------------------------------------------------
    # Sequential scan (op 09)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def scan_ten(self, structure_id: int = 1) -> int:
        """Visit every node of one test structure, reading its ``ten``.

        Returns the number of nodes visited.  The paper forbids using
        the global class extent (a second copy of the structure may
        coexist), so backends must filter on the structure tag.
        """

    @abc.abstractmethod
    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        """Iterate references to every node of one test structure.

        Used by verification and the ad-hoc query executor, not by the
        timed benchmark operations.
        """

    # ------------------------------------------------------------------
    # Content access (ops 16/17)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def get_text(self, ref: NodeRef) -> str:
        """Return the body of a text node."""

    @abc.abstractmethod
    def set_text(self, ref: NodeRef, text: str) -> None:
        """Replace the body of a text node (size may change; op 16)."""

    @abc.abstractmethod
    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        """Return the bitmap of a form node."""

    @abc.abstractmethod
    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        """Replace the bitmap of a form node (op 17)."""

    # ------------------------------------------------------------------
    # Result-list storage (section 6 preamble)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        """Persist a named list of node references in the database.

        The paper requires that a list returned from an operation "should
        itself be storable in the database" (e.g. as a table of
        contents); closure benchmarks exercise this.
        """

    @abc.abstractmethod
    def load_node_list(self, name: str) -> List[NodeRef]:
        """Load a previously stored named list of node references."""

    # ------------------------------------------------------------------
    # Introspection for the harness
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def node_count(self, structure_id: int = 1) -> int:
        """Number of nodes in one test structure."""

    #: The label reports print.  A class states its default;
    #: :func:`~repro.backends.registry.create_backend` overwrites it on
    #: the instance with the registry name the backend was built from,
    #: so presets of one class (``clientserver`` / ``clientserver-bfs``)
    #: stay distinct in a result set.
    backend_name: str = "unnamed"
