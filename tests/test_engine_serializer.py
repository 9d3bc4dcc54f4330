"""The binary serializer: roundtrips, edge values and corruption."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.serializer import decode, decode_view, encode, encoded_size
from repro.errors import StorageError


class TestRoundtrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**62,
            -(2**62),
            0.0,
            3.141592653589793,
            -1e300,
            "",
            "hello",
            "unicode: æøå 中文 🙂",
            b"",
            b"\x00\xff" * 100,
            [],
            [1, 2, 3],
            [[1], [2, [3]]],
            {},
            {"a": 1, "b": [True, None]},
            {"nested": {"deep": {"deeper": b"bytes"}}},
        ],
    )
    def test_value_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2, 3))) == [1, 2, 3]

    def test_object_state_shape(self):
        state = {
            "uniqueId": 42,
            "children": [1, 2, 3, 4, 5],
            "refTo": [[7, 3, 8]],
            "text": "version1 words version1",
            "bits": b"\x00" * 1000,
        }
        assert decode(encode(state)) == state

    def test_int_keys_in_dicts(self):
        assert decode(encode({1: "a", 2: "b"})) == {1: "a", 2: "b"}

    @pytest.mark.parametrize(
        "value",
        [
            [[], {}, [{}], {"a": []}],
            {"a": {"b": {"c": [1, [2, [3, {"d": b"x"}]]]}}},
            [[[[[[[["deep"]]]]]]]],
            {"": {"": {"": None}}},
            [{"k": [b"", ""]}, [{}, [{}]], [[], [[]]]],
        ],
    )
    def test_nested_edge_cases(self, value):
        assert decode(encode(value)) == value

    def test_decode_view_accepts_memoryview(self):
        value = {"s": "hello", "b": b"\x00\x01", "l": [1, [2.5, None]]}
        blob = encode(value)
        assert decode_view(memoryview(blob)) == value
        # Offcut views decode too (the slotted page case).
        padded = b"xx" + blob + b"yy"
        assert decode_view(memoryview(padded)[2:-2]) == value

    def test_decoder_is_iterative(self):
        """Deep nesting must not hit the interpreter recursion limit."""
        depth = 900
        value = "leaf"
        for _ in range(depth):
            value = [value]
        blob = encode(value)  # the encoder recurses: encode first
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(80)
        try:
            decoded = decode(blob)
        finally:
            sys.setrecursionlimit(limit)
        for _ in range(depth):
            assert isinstance(decoded, list) and len(decoded) == 1
            decoded = decoded[0]
        assert decoded == "leaf"


class TestErrors:
    def test_unserializable_type_rejected(self):
        with pytest.raises(StorageError):
            encode(object())

    def test_int_outside_64_bits_rejected(self):
        with pytest.raises(StorageError):
            encode(2**64)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(StorageError):
            decode(encode(1) + b"junk")

    def test_truncation_rejected(self):
        blob = encode({"key": "a long enough string value"})
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(StorageError):
                decode(blob[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode(b"Z")

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError):
            decode(b"")


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@given(value=_values)
def test_property_roundtrip_any_supported_value(value):
    """encode/decode is the identity for all supported shapes."""
    assert decode(encode(value)) == value


@given(value=_values)
def test_property_encoding_is_deterministic(value):
    """Equal values encode to identical bytes (stable dict order given)."""
    assert encode(value) == encode(value)


@settings(max_examples=40, deadline=None)
@given(value=_values)
def test_property_truncation_at_every_offset_rejected(value):
    """Cutting an encoding at *any* byte offset must raise, not crash.

    Every strict prefix is either a truncated value or leaves trailing
    state on the decoder's stack — both are StorageError, never an
    IndexError/UnicodeDecodeError leaking from the internals.
    """
    blob = encode(value)
    for cut in range(len(blob)):
        with pytest.raises(StorageError):
            decode(blob[:cut])
        with pytest.raises(StorageError):
            decode_view(memoryview(blob)[:cut])


@settings(max_examples=40, deadline=None)
@given(value=_values)
def test_property_view_and_bytes_decode_agree(value):
    """decode over bytes and decode_view over a view are identical."""
    blob = encode(value)
    assert decode_view(memoryview(blob)) == decode(blob)


# ----------------------------------------------------------------------
# encoded_size: the wire-accounting identity (netsim charges by it)
# ----------------------------------------------------------------------

#: Lengths and counts either side of the 1→2 and 2→3 byte varint edges.
_edge_lengths = st.sampled_from([0, 1, 127, 128, 129, 16383, 16384, 16385])

_sized_scalars = st.one_of(
    _scalars,
    st.floats(),  # NaN and the infinities pack like any double
    st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, -64, -65, 63, 64]),
    st.binary(max_size=40).map(bytearray),
    # "é" is two UTF-8 bytes: the byte length crosses an edge the
    # character count does not.
    st.builds(lambda char, n: char * n, st.sampled_from("aé中🙂"), _edge_lengths),
    _edge_lengths.map(bytes),
    _edge_lengths.map(lambda n: [None] * n),
    st.sampled_from([127, 128, 129]).map(lambda n: dict.fromkeys(range(n))),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
        st.dictionaries(st.integers(-200, 200), children, max_size=6),
    )


_sized_values = st.recursive(_sized_scalars, _containers, max_leaves=25)

#: Leaves ``encode`` rejects with StorageError.
_rejected = st.one_of(
    st.sampled_from([2**63, -(2**63) - 1, 2**64, -(2**200)]),
    st.builds(object),
    st.just({1, 2}),
    st.just(1j),
)


@settings(deadline=None)
@given(value=_sized_values)
def test_property_encoded_size_is_the_encoded_length(value):
    """``encoded_size(v) == len(encode(v))`` — no charged byte moves."""
    assert encoded_size(value) == len(encode(value))


@settings(deadline=None)
@given(
    value=st.recursive(
        st.one_of(_scalars, _rejected), _containers, max_leaves=12
    )
)
def test_property_encoded_size_rejects_what_encode_rejects(value):
    """StorageError parity: same inputs refused, same exception type."""
    try:
        expected = len(encode(value))
    except StorageError:
        with pytest.raises(StorageError):
            encoded_size(value)
    else:
        assert encoded_size(value) == expected
