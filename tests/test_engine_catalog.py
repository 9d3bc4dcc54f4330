"""The persistent class catalog and lazy schema evolution (R4)."""

import pytest

from repro.engine.buffer import BufferPool
from repro.engine.catalog import Catalog, ClassDefinition, FieldDefinition
from repro.engine.heap import HeapFile
from repro.engine.pages import PageFile
from repro.errors import SchemaError


@pytest.fixture
def setup(tmp_path):
    pf = PageFile(str(tmp_path / "cat.db"))
    pool = BufferPool(pf, capacity=16)
    heap = HeapFile(pool, "data")
    catalog = Catalog(heap)
    yield catalog, heap, pf, pool
    pool.flush_all()
    pf.close()


def _node_fields():
    return [
        FieldDefinition("uniqueId"),
        FieldDefinition("ten", default=1),
        FieldDefinition("hundred", default=1),
    ]


class TestClasses:
    def test_define_and_lookup(self, setup):
        catalog, *_ = setup
        definition = catalog.define_class("Node", _node_fields())
        assert definition.class_id == 1
        assert catalog.get("Node") is definition
        assert catalog.get_by_id(1).name == "Node"
        assert catalog.has_class("Node")

    def test_subclass_inherits_fields(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        catalog.define_class(
            "TextNode", [FieldDefinition("text", default="")], base="Node"
        )
        assert catalog.all_field_names("TextNode") == [
            "uniqueId", "ten", "hundred", "text",
        ]
        assert catalog.is_subclass("TextNode", "Node")
        assert not catalog.is_subclass("Node", "TextNode")

    def test_duplicate_class_rejected(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        with pytest.raises(SchemaError):
            catalog.define_class("Node", [])

    def test_unknown_base_rejected(self, setup):
        catalog, *_ = setup
        with pytest.raises(SchemaError):
            catalog.define_class("Orphan", [], base="Ghost")

    def test_field_collision_with_inherited_rejected(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        with pytest.raises(SchemaError):
            catalog.define_class(
                "Sub", [FieldDefinition("ten")], base="Node"
            )

    def test_unknown_lookups_raise(self, setup):
        catalog, *_ = setup
        with pytest.raises(SchemaError):
            catalog.get("Ghost")
        with pytest.raises(SchemaError):
            catalog.get_by_id(99)


class TestEvolution:
    def test_add_field_bumps_version(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        assert catalog.get("Node").version == 1
        catalog.add_field("Node", FieldDefinition("million", default=0))
        assert catalog.get("Node").version == 2
        assert catalog.all_field_names("Node")[-1] == "million"

    def test_add_duplicate_field_rejected(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        with pytest.raises(SchemaError):
            catalog.add_field("Node", FieldDefinition("ten"))

    def test_lazy_upgrade_fills_defaults(self, setup):
        # A record written before the addition is a prefix of the
        # layout; the store fills the tail from these defaults.
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        before = catalog.layout(1)
        catalog.add_field("Node", FieldDefinition("million", default=42))
        names, defaults = catalog.layout(1)
        assert names[:3] == before[0] == ("uniqueId", "ten", "hundred")
        assert (names[3], defaults[3]) == ("million", 42)
        assert defaults[:3] == (None, 1, 1)

    def test_upgrade_covers_inherited_additions(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        catalog.define_class("TextNode", [FieldDefinition("text")], base="Node")
        catalog.add_field("TextNode", FieldDefinition("language", default="en"))
        text_id = catalog.get("TextNode").class_id
        assert catalog.layout(text_id)[0][-2:] == ("text", "language")
        assert catalog.layout(1)[0] == ("uniqueId", "ten", "hundred")
        # A field added to the base reaches the subclass's layout too,
        # appended after everything its older records hold.
        catalog.add_field("Node", FieldDefinition("extra", default=5))
        names, defaults = catalog.layout(text_id)
        assert (names[-1], defaults[-1]) == ("extra", 5)
        assert catalog.get("TextNode").version == 3
        assert catalog.all_field_names("TextNode") == [
            "uniqueId", "ten", "hundred", "extra", "text", "language",
        ]

    def test_base_addition_must_not_collide_with_a_subclass(self, setup):
        catalog, *_ = setup
        catalog.define_class("Node", _node_fields())
        catalog.define_class("TextNode", [FieldDefinition("text")], base="Node")
        with pytest.raises(SchemaError):
            catalog.add_field("Node", FieldDefinition("text"))


class TestPersistence:
    def test_catalog_survives_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        pf = PageFile(path)
        pool = BufferPool(pf, capacity=16)
        catalog = Catalog(HeapFile(pool, "data"))
        catalog.define_class("Node", _node_fields())
        catalog.define_class("TextNode", [FieldDefinition("text")], base="Node")
        catalog.add_field("Node", FieldDefinition("extra", default=5))
        pool.flush_all()
        pf.sync()
        pf.close()

        pf2 = PageFile(path)
        catalog2 = Catalog(HeapFile(BufferPool(pf2, capacity=16), "data"))
        assert catalog2.class_names() == ["Node", "TextNode"]
        assert catalog2.get("Node").version == 2
        assert catalog2.all_field_names("TextNode") == [
            "uniqueId", "ten", "hundred", "extra", "text",
        ]
        # Class ids keep incrementing after reload.
        catalog2.define_class("FormNode", [], base="Node")
        assert catalog2.get("FormNode").class_id == 3
        pf2.close()

    def test_definition_serialization_roundtrip(self):
        definition = ClassDefinition(
            5, "X", "Base", [FieldDefinition("f", default=3)], 2, ["e", "f"]
        )
        clone = ClassDefinition.from_dict(definition.to_dict())
        assert clone == definition
