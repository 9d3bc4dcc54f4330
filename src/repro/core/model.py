"""Value objects of the HyperModel conceptual schema (section 5.1).

A HyperModel database is a graph of *nodes* connected by three
relationship types:

* ``parent``/``children`` — an **ordered 1-N aggregation** forming the
  document hierarchy (sections within chapters within documents).
* ``partOf``/``parts`` — an **unordered M-N aggregation** that lets a
  node be a shared sub-part of several composites.
* ``refTo``/``refFrom`` — an **M-N association with attributes**: each
  link carries ``offsetFrom`` and ``offsetTo`` integers, turning the
  reference graph into a directed weighted graph.

``TextNode`` and ``FormNode`` specialize ``Node`` through
generalization.  Backends are free to represent nodes however they
like; :class:`NodeData` is the *transfer object* the generator hands a
backend when creating a node, and :class:`LinkAttributes` carries the
weights of an attributed link.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from repro.core.bitmap import Bitmap
from repro.core.schema import NODE_ATTRIBUTES
from repro.errors import InvalidOperationError


class NodeKind(enum.Enum):
    """The three classes of the generalization hierarchy of Figure 1."""

    NODE = "node"
    TEXT = "text"
    FORM = "form"

    @property
    def is_leaf_kind(self) -> bool:
        """Whether instances of this kind carry leaf content."""
        return self is not NodeKind.NODE


def check_int(name: str, value: object) -> None:
    """Refuse a value an integer attribute cannot hold.

    The one type check of a node attribute write: ``bool`` is refused
    although Python makes it an ``int``.  Domains (``ten`` in 1..10 and
    so on) are not checked here; they describe the generator.

    Raises:
        InvalidOperationError: if ``value`` is not an ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidOperationError(
            f"attribute {name!r} takes an int, not {value!r}"
        )


@dataclasses.dataclass
class NodeData:
    """A node's attribute values, independent of any backend.

    Attributes:
        unique_id: unique integer key, 1..total_nodes (the paper's
            ``uniqueId``; it must *not* encode structural position).
        ten / hundred / million: random integers drawn uniformly from
            1..10, 1..100 and 1..1 000 000 respectively.
        kind: which class of the generalization hierarchy this is.
        text: the text body for ``TextNode`` instances, else ``None``.
        bitmap: the bitmap for ``FormNode`` instances, else ``None``.
        structure_id: which test structure the node belongs to.  The
            paper allows several copies of the test database to coexist
            and forbids the sequential scan from using the global class
            extent, so every node is tagged with its structure.
    """

    unique_id: int
    ten: int
    hundred: int
    million: int
    kind: NodeKind = NodeKind.NODE
    text: Optional[str] = None
    bitmap: Optional[Bitmap] = None
    structure_id: int = 1

    def __post_init__(self) -> None:
        for name in NODE_ATTRIBUTES:
            check_int(name, self.attribute(name))
        if self.kind is NodeKind.TEXT and self.text is None:
            raise ValueError("TextNode requires a text body")
        if self.kind is NodeKind.FORM and self.bitmap is None:
            raise ValueError("FormNode requires a bitmap")
        if self.kind is NodeKind.NODE and (self.text or self.bitmap):
            raise ValueError("plain Node carries no content")

    def attribute(self, name: str) -> int:
        """Return one of the four integer attributes by paper name."""
        if name not in NODE_ATTRIBUTES:
            raise KeyError(f"unknown node attribute {name!r}")
        return getattr(self, "unique_id" if name == "uniqueId" else name)


@dataclasses.dataclass(frozen=True)
class LinkAttributes:
    """Weights of one refTo/refFrom link (Figure 4).

    ``offset_from`` is the weight reading the link source-to-target,
    ``offset_to`` the weight in the opposite direction; both are drawn
    uniformly from 0..9 by the generator.
    """

    offset_from: int
    offset_to: int

    def __post_init__(self) -> None:
        if self.offset_from < 0 or self.offset_to < 0:
            raise ValueError("link offsets must be non-negative")


@dataclasses.dataclass(frozen=True)
class Reference:
    """A resolved attributed link: target node reference plus weights."""

    target: object
    attributes: LinkAttributes
