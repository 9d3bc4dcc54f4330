"""NodeData / LinkAttributes transfer objects and their validation."""

import pytest

from repro.core.bitmap import Bitmap
from repro.core.model import (
    NODE_ATTRIBUTES,
    LinkAttributes,
    NodeData,
    NodeKind,
    Reference,
)
from repro.errors import InvalidOperationError


def _plain(uid=1, **overrides):
    base = dict(unique_id=uid, ten=5, hundred=50, million=500_000)
    base.update(overrides)
    return NodeData(**base)


class TestNodeData:
    def test_plain_node_carries_no_content(self):
        node = _plain()
        assert node.kind is NodeKind.NODE
        assert node.text is None
        assert node.bitmap is None

    def test_text_node_requires_body(self):
        with pytest.raises(ValueError):
            _plain(kind=NodeKind.TEXT)

    def test_form_node_requires_bitmap(self):
        with pytest.raises(ValueError):
            _plain(kind=NodeKind.FORM)

    def test_plain_node_rejects_content(self):
        with pytest.raises(ValueError):
            _plain(text="hi")
        with pytest.raises(ValueError):
            _plain(bitmap=Bitmap(8, 8))

    def test_attribute_accessor_covers_all_four(self):
        node = _plain(uid=7)
        assert [node.attribute(name) for name in NODE_ATTRIBUTES] == [
            7, 5, 50, 500_000,
        ]

    def test_attribute_accessor_rejects_unknown(self):
        with pytest.raises(KeyError):
            _plain().attribute("thousand")

    @pytest.mark.parametrize("field", ("unique_id", "ten", "hundred", "million"))
    @pytest.mark.parametrize("value", ("x", 1.5, True, None))
    def test_non_int_attribute_refused(self, field, value):
        with pytest.raises(InvalidOperationError):
            _plain(**{field: value})

    def test_out_of_domain_ints_accepted(self):
        assert _plain(ten=-1, hundred=0, million=9999).hundred == 0

    def test_default_structure_id_is_one(self):
        assert _plain().structure_id == 1

    def test_valid_text_node(self):
        node = _plain(kind=NodeKind.TEXT, text="version1 a version1 b version1")
        assert node.kind.is_leaf_kind
        assert node.text.startswith("version1")

    def test_valid_form_node(self):
        node = _plain(kind=NodeKind.FORM, bitmap=Bitmap(100, 100))
        assert node.bitmap.is_white()


class TestNodeKind:
    def test_leaf_kind_flags(self):
        assert not NodeKind.NODE.is_leaf_kind
        assert NodeKind.TEXT.is_leaf_kind
        assert NodeKind.FORM.is_leaf_kind

    def test_values_are_stable_identifiers(self):
        assert NodeKind.NODE.value == "node"
        assert NodeKind.TEXT.value == "text"
        assert NodeKind.FORM.value == "form"


class TestLinkAttributes:
    def test_offsets_stored(self):
        attrs = LinkAttributes(offset_from=3, offset_to=7)
        assert (attrs.offset_from, attrs.offset_to) == (3, 7)

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError):
            LinkAttributes(-1, 0)
        with pytest.raises(ValueError):
            LinkAttributes(0, -1)

    def test_frozen_and_hashable(self):
        attrs = LinkAttributes(1, 2)
        with pytest.raises(Exception):
            attrs.offset_from = 9  # type: ignore[misc]
        assert len({attrs, LinkAttributes(1, 2)}) == 1

    def test_reference_pairs_target_and_attributes(self):
        ref = Reference(target=42, attributes=LinkAttributes(1, 2))
        assert ref.target == 42
        assert ref.attributes.offset_to == 2
