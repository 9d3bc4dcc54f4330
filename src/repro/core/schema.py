"""An introspectable description of the HyperModel schema (Figure 1).

The paper presents its schema with the Object Modeling Technique (OMT):
classes, generalization between them, and three relationship types with
cardinality, ordering and attribute annotations.  This module encodes
that diagram as data so that tests can assert structural facts against
the paper (``tests/test_schema.py``) and a reader can extend it the way
the DrawNode schema-evolution experiment (R4 / section 6.8) does.  It
is a description only: no backend is derived from it (each states its
own mapping — the relational DDL is written out in
``backends/sqlite_backend.py``), and the package root re-exports it as
part of the public model.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Tuple

from repro.errors import SchemaError


class RelationshipKind(enum.Enum):
    """OMT relationship categories used in Figure 1."""

    AGGREGATION_1N = "aggregation-1-N"
    AGGREGATION_MN = "aggregation-M-N"
    ASSOCIATION_MN = "association-M-N"


@dataclasses.dataclass(frozen=True)
class AttributeDef:
    """One attribute of a class: a name plus a simple type name."""

    name: str
    type_name: str


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


@dataclasses.dataclass
class ClassDef:
    """One class of the generalization hierarchy."""

    name: str
    base: Optional[str] = None
    attributes: List[AttributeDef] = dataclasses.field(default_factory=list)


class Schema:
    """A mutable collection of classes and relationships.

    Mutability is deliberate: requirement R4 asks for dynamic schema
    modification, demonstrated by adding a ``DrawNode`` class at run
    time (:func:`add_draw_node_class`).
    """

    def __init__(self) -> None:
        self._classes: Dict[str, ClassDef] = {}
        self._relationships: Dict[str, RelationshipDef] = {}

    # -- classes -------------------------------------------------------

    def add_class(self, cls: ClassDef) -> None:
        """Register a class; its base (if any) must already exist."""
        if cls.name in self._classes:
            raise SchemaError(f"class {cls.name!r} already defined")
        if cls.base is not None and cls.base not in self._classes:
            raise SchemaError(f"unknown base class {cls.base!r}")
        self._classes[cls.name] = cls

    def get_class(self, name: str) -> ClassDef:
        """Look up a class definition by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def add_attribute(self, class_name: str, attribute: AttributeDef) -> None:
        """Dynamically add an attribute to an existing class (R4)."""
        cls = self.get_class(class_name)
        if any(a.name == attribute.name for a in cls.attributes):
            raise SchemaError(
                f"class {class_name!r} already has attribute {attribute.name!r}"
            )
        cls.attributes.append(attribute)

    def all_attributes(self, class_name: str) -> List[AttributeDef]:
        """Attributes of a class including those inherited from bases."""
        cls = self.get_class(class_name)
        inherited = self.all_attributes(cls.base) if cls.base else []
        return inherited + list(cls.attributes)

    def subclasses(self, class_name: str) -> List[str]:
        """Direct subclasses of a class, in definition order."""
        return [c.name for c in self._classes.values() if c.base == class_name]

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """Whether ``name`` equals or transitively specializes ``ancestor``."""
        current: Optional[str] = name
        while current is not None:
            if current == ancestor:
                return True
            current = self.get_class(current).base
        return False

    @property
    def class_names(self) -> List[str]:
        """Names of all classes, in definition order."""
        return list(self._classes)

    # -- relationships --------------------------------------------------

    def add_relationship(self, rel: RelationshipDef) -> None:
        """Register a relationship definition."""
        if rel.name in self._relationships:
            raise SchemaError(f"relationship {rel.name!r} already defined")
        self._relationships[rel.name] = rel

    def get_relationship(self, name: str) -> RelationshipDef:
        """Look up a relationship definition by name."""
        try:
            return self._relationships[name]
        except KeyError:
            raise SchemaError(f"unknown relationship {name!r}") from None

    @property
    def relationship_names(self) -> List[str]:
        """Names of all relationships, in definition order."""
        return list(self._relationships)


def build_hypermodel_schema() -> Schema:
    """Construct the exact schema of Figure 1.

    ``Node`` carries the four integer attributes; ``TextNode`` adds a
    ``text`` string and ``FormNode`` a ``bitMap``; the three
    relationships are the ordered 1-N aggregation, the M-N aggregation
    and the attributed M-N association.
    """
    schema = Schema()
    schema.add_class(
        ClassDef(
            "Node",
            attributes=[
                AttributeDef("uniqueId", "int"),
                AttributeDef("ten", "int"),
                AttributeDef("hundred", "int"),
                AttributeDef("million", "int"),
            ],
        )
    )
    schema.add_class(
        ClassDef("TextNode", base="Node", attributes=[AttributeDef("text", "str")])
    )
    schema.add_class(
        ClassDef("FormNode", base="Node", attributes=[AttributeDef("bitMap", "bitmap")])
    )
    schema.add_relationship(
        RelationshipDef(
            name="parentChildren",
            kind=RelationshipKind.AGGREGATION_1N,
            forward_role="children",
            inverse_role="parent",
            ordered=True,
        )
    )
    schema.add_relationship(
        RelationshipDef(
            name="partOfParts",
            kind=RelationshipKind.AGGREGATION_MN,
            forward_role="parts",
            inverse_role="partOf",
        )
    )
    schema.add_relationship(
        RelationshipDef(
            name="refToRefFrom",
            kind=RelationshipKind.ASSOCIATION_MN,
            forward_role="refTo",
            inverse_role="refFrom",
            attributes=(
                AttributeDef("offsetFrom", "int"),
                AttributeDef("offsetTo", "int"),
            ),
        )
    )
    return schema


def add_draw_node_class(schema: Schema) -> ClassDef:
    """Perform the R4 schema-evolution experiment of section 6.8.

    Adds a ``DrawNode`` subclass of ``Node`` holding counts of circles,
    rectangles and ellipses, exactly as the requirement sketches.
    """
    draw = ClassDef(
        "DrawNode",
        base="Node",
        attributes=[
            AttributeDef("circles", "int"),
            AttributeDef("rectangles", "int"),
            AttributeDef("ellipses", "int"),
        ],
    )
    schema.add_class(draw)
    return draw
