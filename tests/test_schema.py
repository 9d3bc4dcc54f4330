"""Figure 1 as one frozen declaration, and R4 evolution on the catalog
the object engine derives from it."""

import dataclasses

import pytest

from repro.backends.oodb import OodbDatabase
from repro.core import model
from repro.core.schema import (
    CLASSES,
    MUTABLE_ATTRIBUTES,
    NODE,
    NODE_ATTRIBUTES,
    RELATIONSHIPS,
    RelationshipKind,
)
from repro.engine.catalog import FieldDefinition
from repro.errors import SchemaError
from repro.query import ast

CLASS = {cls.name: cls for cls in CLASSES}
RELATIONSHIP = {rel.name: rel for rel in RELATIONSHIPS}


class TestFigure1Structure:
    def test_three_classes(self):
        assert list(CLASS) == ["Node", "TextNode", "FormNode"]

    def test_generalization_edges(self):
        assert CLASS["Node"].base is None
        assert CLASS["TextNode"].base == "Node"
        assert CLASS["FormNode"].base == "Node"

    def test_node_has_the_four_attributes(self):
        assert NODE_ATTRIBUTES == ("uniqueId", "ten", "hundred", "million")
        assert {a.type_name for a in NODE.attributes} == {"int"}

    def test_subtype_attributes_inherited(self):
        for name, own in (("TextNode", "text"), ("FormNode", "bitMap")):
            cls = CLASS[name]
            inherited = CLASS[cls.base].attributes + cls.attributes
            assert [a.name for a in inherited] == [*NODE_ATTRIBUTES, own]

    def test_three_relationships(self):
        assert list(RELATIONSHIP) == [
            "parentChildren", "partOfParts", "refToRefFrom",
        ]

    def test_only_the_1n_aggregation_is_ordered(self):
        assert RELATIONSHIP["parentChildren"].ordered
        assert not RELATIONSHIP["partOfParts"].ordered
        assert not RELATIONSHIP["refToRefFrom"].ordered

    def test_relationship_kinds(self):
        assert [rel.kind for rel in RELATIONSHIPS] == [
            RelationshipKind.AGGREGATION_1N,
            RelationshipKind.AGGREGATION_MN,
            RelationshipKind.ASSOCIATION_MN,
        ]

    def test_only_the_association_carries_attributes(self):
        offsets = RELATIONSHIP["refToRefFrom"].attributes
        assert [a.name for a in offsets] == ["offsetFrom", "offsetTo"]
        assert RELATIONSHIP["parentChildren"].attributes == ()
        assert RELATIONSHIP["partOfParts"].attributes == ()

    def test_roles_match_the_paper(self):
        assert [(r.forward_role, r.inverse_role) for r in RELATIONSHIPS] == [
            ("children", "parent"), ("parts", "partOf"), ("refTo", "refFrom"),
        ]


class TestDeclaration:
    def test_declaration_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            NODE.base = "Other"  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            NODE.attributes[1].mutable = False  # type: ignore[misc]
        assert isinstance(CLASSES, tuple) and isinstance(RELATIONSHIPS, tuple)

    def test_only_the_key_is_immutable(self):
        assert MUTABLE_ATTRIBUTES == ("ten", "hundred", "million")

    def test_names_are_read_from_the_declaration(self):
        assert model.NODE_ATTRIBUTES is NODE_ATTRIBUTES
        assert ast.ATTRIBUTES == frozenset(NODE_ATTRIBUTES)


@pytest.fixture
def catalog(tmp_path):
    """The engine catalog of a fresh oodb database (Figure 1 derived)."""
    db = OodbDatabase(str(tmp_path / "schema.hmdb"))
    db.open()
    yield db.store.catalog, db.store
    db.close()


class TestDerivedCatalog:
    def test_node_fields_follow_the_declaration(self, catalog):
        cat, _store = catalog
        fields = cat.get("Node").fields
        roles = [
            role
            for rel in RELATIONSHIPS
            for role in (rel.forward_role, rel.inverse_role)
        ]
        assert [f.name for f in fields] == [*NODE_ATTRIBUTES, "structId", *roles]
        defaults = {f.name: f.default for f in fields}
        assert defaults["parent"] == 0
        assert all(defaults[role] == [] for role in roles if role != "parent")

    def test_classes_follow_the_declaration(self, catalog):
        cat, _store = catalog
        for cls in CLASSES:
            assert cat.get(cls.name).base == cls.base


class TestSubclassing:
    def test_is_subclass_reflexive_and_transitive(self, catalog):
        cat, _store = catalog
        assert cat.is_subclass("Node", "Node")
        assert cat.is_subclass("TextNode", "Node")
        assert not cat.is_subclass("Node", "TextNode")
        assert not cat.is_subclass("TextNode", "FormNode")


class TestEvolution:
    """R4 (section 6.8) on the engine catalog of a Figure 1 database."""

    def test_add_draw_node_class(self, catalog):
        """The R4 experiment: a DrawNode with circles/rectangles/ellipses."""
        cat, store = catalog
        draw = store.define_class(
            "DrawNode",
            [
                FieldDefinition("circles", default=0),
                FieldDefinition("rectangles", default=0),
                FieldDefinition("ellipses", default=0),
            ],
            base="Node",
        )
        assert draw.base == "Node"
        assert cat.is_subclass("DrawNode", "Node")
        names = cat.all_field_names("DrawNode")
        assert names[-3:] == ["circles", "rectangles", "ellipses"]
        assert names[:4] == list(NODE_ATTRIBUTES)

    def test_add_attribute_dynamically(self, catalog):
        cat, store = catalog
        store.add_field("TextNode", FieldDefinition("language", default="en"))
        assert cat.all_field_names("TextNode")[-1] == "language"

    def test_duplicate_attribute_rejected(self, catalog):
        _cat, store = catalog
        with pytest.raises(SchemaError):
            store.add_field("Node", FieldDefinition("ten"))


class TestErrors:
    """The refusals of the Figure 1 catalog, the one place classes are defined."""

    def test_duplicate_class_rejected(self, catalog):
        _cat, store = catalog
        with pytest.raises(SchemaError):
            store.define_class("Node", [])

    def test_unknown_base_rejected(self, catalog):
        _cat, store = catalog
        with pytest.raises(SchemaError):
            store.define_class("Child", [], base="Ghost")

    def test_unknown_class_lookup(self, catalog):
        cat, _store = catalog
        with pytest.raises(SchemaError):
            cat.get("Ghost")
