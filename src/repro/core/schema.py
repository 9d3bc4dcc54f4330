"""Figure 1 as one frozen declaration: the schema every backend reads.

The paper presents its schema with the Object Modeling Technique (OMT):
classes, generalization between them, and three relationship types with
cardinality, ordering and attribute annotations.  This module states
that diagram once, as immutable data.  Everything that needs a name
from it derives the name from here: the node attribute names and their
mutable subset (``core/model.py``, ``query/ast.py``, the workspace and
the four backends) and the ``Node`` field list of the object engine's
catalog (``backends/oodb.py``).

The declaration is not an evolution API.  Requirement R4 (add a
``DrawNode`` class, add an attribute at run time) is the engine
catalog's job (``engine/catalog.py``, shown by
``examples/versions_and_access.py``).  The attribute domains of section
5.1 are facts about the generator (``core/config.py``), checked by
``verify_database``, not write constraints: op 12 writes
``99 - hundred``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple


class RelationshipKind(enum.Enum):
    """OMT relationship categories used in Figure 1."""

    AGGREGATION_1N = "aggregation-1-N"
    AGGREGATION_MN = "aggregation-M-N"
    ASSOCIATION_MN = "association-M-N"


@dataclasses.dataclass(frozen=True)
class AttributeDef:
    """One attribute of a class: a name, a simple type name, and
    whether a write may change it (``uniqueId`` is the key)."""

    name: str
    type_name: str
    mutable: bool = True


@dataclasses.dataclass(frozen=True)
class ClassDef:
    """One class of the generalization hierarchy."""

    name: str
    base: Optional[str]
    attributes: Tuple[AttributeDef, ...]


@dataclasses.dataclass(frozen=True)
class RelationshipDef:
    """One relationship of the schema.

    Attributes:
        name: identifier of the relationship.
        kind: aggregation or association and its cardinality.
        forward_role / inverse_role: the two traversal role names the
            paper uses (e.g. ``children`` / ``parent``).
        ordered: whether the many-end keeps insertion order (the black
            circle-with-ring notation; true only for parent/children).
        attributes: attributes attached to the relationship itself
            (the offsets of ``refTo``/``refFrom``).
    """

    name: str
    kind: RelationshipKind
    forward_role: str
    inverse_role: str
    ordered: bool = False
    attributes: Tuple[AttributeDef, ...] = ()


#: ``Node`` and its four integer attributes.
NODE = ClassDef(
    "Node",
    None,
    (
        AttributeDef("uniqueId", "int", mutable=False),
        AttributeDef("ten", "int"),
        AttributeDef("hundred", "int"),
        AttributeDef("million", "int"),
    ),
)

#: The three classes, base first: ``TextNode`` adds a ``text`` string
#: and ``FormNode`` a ``bitMap``.
CLASSES: Tuple[ClassDef, ...] = (
    NODE,
    ClassDef("TextNode", "Node", (AttributeDef("text", "str"),)),
    ClassDef("FormNode", "Node", (AttributeDef("bitMap", "bitmap"),)),
)

#: The ordered 1-N aggregation, the M-N aggregation and the attributed
#: M-N association.
RELATIONSHIPS: Tuple[RelationshipDef, ...] = (
    RelationshipDef(
        "parentChildren",
        RelationshipKind.AGGREGATION_1N,
        "children",
        "parent",
        ordered=True,
    ),
    RelationshipDef(
        "partOfParts", RelationshipKind.AGGREGATION_MN, "parts", "partOf"
    ),
    RelationshipDef(
        "refToRefFrom",
        RelationshipKind.ASSOCIATION_MN,
        "refTo",
        "refFrom",
        attributes=(
            AttributeDef("offsetFrom", "int"),
            AttributeDef("offsetTo", "int"),
        ),
    ),
)

#: Names of the integer attributes every node carries, in Figure 1 order.
NODE_ATTRIBUTES: Tuple[str, ...] = tuple(a.name for a in NODE.attributes)

#: The attributes a write may change.
MUTABLE_ATTRIBUTES: Tuple[str, ...] = tuple(
    a.name for a in NODE.attributes if a.mutable
)
