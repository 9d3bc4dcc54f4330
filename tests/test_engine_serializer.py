"""The binary serializer: roundtrips, edge values and corruption."""

import enum
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

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

    def test_stop_decodes_a_list_prefix(self):
        value = [3, 158, "x", [1, [2]], {"k": b"v"}, 2.5, None]
        blob = encode(value)
        for stop in range(len(value) + 2):
            assert decode_view(blob, stop) == value[:stop]
        # The bytes after the prefix are not looked at: a cut blob
        # decodes as long as it holds the elements asked for.
        assert decode_view(memoryview(blob)[:-3], 5) == value[:5]
        with pytest.raises(StorageError):
            decode_view(blob[:6], 4)
        with pytest.raises(StorageError, match="needs a list"):
            decode_view(encode({"a": 1}), 1)

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

    def test_lone_surrogate_rejected_by_encode_and_encoded_size(self):
        for value in ("\ud800", ["ok", {"k": "a\udfff"}], {"\ud800": 1}):
            with pytest.raises(StorageError):
                encode(value)
            with pytest.raises(StorageError):
                encoded_size(value)

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (b"i" + b"\xff" * 10 + b"\x01", "longer than 10 bytes"),
            (b"i" + b"\xff" * 9 + b"\x02", "outside 64 bits"),
            (b"s\x02\xff\xfe", "invalid UTF-8"),
            (b"s\x03\xed\xa0\x80", "invalid UTF-8"),  # an encoded surrogate
            (b"d\x01l\x00i\x00", "dict key"),
            (b"d\x01d\x00i\x00", "dict key"),
            (b"l\x01s\x05ab", "truncated"),
            (b"d\x01s\x01k", "truncated"),  # the dict ends after its key
        ],
    )
    def test_malformed_input_raises_storage_error(self, blob, reason):
        with pytest.raises(StorageError, match=reason):
            decode(blob)
        with pytest.raises(StorageError, match=reason):
            decode_view(memoryview(bytearray(blob)))


class _Colour(enum.IntEnum):
    RED = 3


#: A level-3 TextNode's body, as the generator wrote it.
_TEXT = (
    "version1 iksf weqx j w tojpsbjez oo reecdtpgp u ytumw pekymt "
    "wjdxguppne zwlsktp iplgirleou nvwbtkcc wyw amjb yr chhps ug fjozg "
    "bucgn jnolqp qt uxr lawasahhnq eve erz mnw zdol xswnux vv ntm "
    "igjpfytm cjqbycbem piut zfmqwzkcl zrlt version1 gubykaea dfljflgdy "
    "ws umm zucpfff xor abvctjr owpfhzzc vmyrxk r divsle bcpkgbls "
    "bwwtpup vmlnbhf xc p ft cbimn jijacd ks ueacyj bhfdpgxe q mecxgmxj "
    "pfbzbnh swar nbtrcnv gyacbpngt zxge jlczjlzs oa uqerbnse shqbscuue "
    "pbcarcvwwp xrz hvpyelfg lksksjhsme version1"
)


def _five_digit_keys(n):
    return {f"{i:05d}": None for i in range(n)}


def _five_digit_keys_hex(n):
    """The entries of :func:`_five_digit_keys`, spelled from the format."""
    return "".join("7305" + f"{i:05d}".encode().hex() + "4e" for i in range(n))


#: Integers either side of the one/two/three-byte varint edges; inside a
#: container they take the encoder's inline path, alone the general one.
_EDGE_INTS = [0, 63, -63, 64, -64, 127, 128, 8191, -8192, 8192, -8193, 2**20]

#: ``(value, hex of encode(value))``.  These bytes are the on-disk
#: format: a change that moves any of them breaks every existing
#: database file.
GOLDEN = [
    # varint edges
    (0, "6900"),
    (63, "697e"),
    (-63, "697d"),
    (64, "698001"),
    (-64, "697f"),
    (127, "69fe01"),
    (128, "698002"),
    (8191, "69fe7f"),
    (8192, "69808001"),
    (2**20, "6980808001"),
    (-(2**63), "69ffffffffffffffffff01"),
    (2**63 - 1, "69feffffffffffffffff01"),
    (
        _EDGE_INTS,
        "6c0c" "6900" "697e" "697d" "698001" "697f" "69fe01" "698002"
        "69fe7f" "69ff7f" "69808001" "69818001" "6980808001",
    ),
    (
        {"x": -(2**63), "y": 2**63 - 1, "z": 8192},
        "6403" "730178" "69ffffffffffffffffff01"
        "730179" "69feffffffffffffffff01" "73017a" "69808001",
    ),
    # lengths and counts either side of the 1/2/3-byte edges
    ("a" * 127, "737f" + "61" * 127),
    ("a" * 128, "738001" + "61" * 128),
    ("a" * 16383, "73ff7f" + "61" * 16383),
    ("a" * 16384, "73808001" + "61" * 16384),
    ("é", "7302c3a9"),
    ("\U0001f642", "7304f09f9982"),
    (b"\x00" * 127, "627f" + "00" * 127),
    (b"\x00" * 128, "628001" + "00" * 128),
    (b"\x00" * 16383, "62ff7f" + "00" * 16383),
    (b"\x00" * 16384, "62808001" + "00" * 16384),
    ([None] * 127, "6c7f" + "4e" * 127),
    ([None] * 128, "6c8001" + "4e" * 128),
    ([None] * 16383, "6cff7f" + "4e" * 16383),
    ([None] * 16384, "6c808001" + "4e" * 16384),
    (_five_digit_keys(127), "647f" + _five_digit_keys_hex(127)),
    (_five_digit_keys(128), "648001" + _five_digit_keys_hex(128)),
    (_five_digit_keys(16383), "64ff7f" + _five_digit_keys_hex(16383)),
    (_five_digit_keys(16384), "64808001" + _five_digit_keys_hex(16384)),
    # the tags without a varint
    (True, "54"),
    (False, "46"),
    (None, "4e"),
    (0.0, "660000000000000000"),
    (-0.0, "660000000000000080"),
    (float("inf"), "66000000000000f07f"),
    (float("-inf"), "66000000000000f0ff"),
    (float("nan"), "66000000000000f87f"),
    ([True, 1, False, 0], "6c04" "54" "6902" "46" "6900"),
    # tuples, int keys, an IntEnum member
    ((1, "a", None), "6c03" "6902" "730161" "4e"),
    ({1: "a", -2: [True]}, "6402" "6902" "730161" "6903" "6c0154"),
    (_Colour.RED, "6906"),
    ([_Colour.RED], "6c01" "6906"),
    # a level-3 Node, TextNode and FormNode record in the named-field
    # shape of file format 1 (format 2 stores the values as a list)
    (
        {"c": 1, "v": 1, "s": {
            "uniqueId": 2, "ten": 2, "hundred": 57, "million": 284634,
            "structId": 1, "children": [7, 8, 9, 10, 11], "parent": 1,
            "parts": [31, 21, 18, 12, 7], "partOf": [1],
            "refTo": [[2, 1, 2]], "refFrom": [2, 41],
        }, "p": 0, "ts": 5},
        "640573016369027301766902730173640b7308756e6971756549646904730374"
        "656e6904730768756e64726564697273076d696c6c696f6e69b4df2273087374"
        "727563744964690273086368696c6472656e6c05690e69106912691469167306"
        "706172656e746902730570617274736c05693e692a69246918690e7306706172"
        "744f666c0169027305726566546f6c016c03690469026904730772656646726f"
        "6d6c0269046952730170690073027473690a",
    ),
    (
        {"c": 2, "v": 1, "s": {
            "uniqueId": 33, "ten": 4, "hundred": 55, "million": 776577,
            "structId": 1, "children": [], "parent": 7, "parts": [],
            "partOf": [10, 20], "refTo": [[56, 0, 9]],
            "refFrom": [80, 134, 155], "text": _TEXT,
        }, "p": 0, "ts": 5},
        "640573016369047301766902730173640c7308756e6971756549646942730374"
        "656e6908730768756e64726564696e73076d696c6c696f6e6982e65e73087374"
        "727563744964690273086368696c6472656e6c007306706172656e74690e7305"
        "70617274736c007306706172744f666c02691469287305726566546f6c016c03"
        "697069006912730772656646726f6d6c0369a001698c0269b602730474657874"
        "73ee03" + _TEXT.encode().hex() + "730170690073027473690a",
    ),
    (
        {"c": 3, "v": 1, "s": {
            "uniqueId": 156, "ten": 2, "hundred": 33, "million": 638645,
            "structId": 1, "children": [], "parent": 31, "parts": [],
            "partOf": [], "refTo": [[123, 6, 8]], "refFrom": [],
            "width": 254, "height": 225, "bits": b"\x00" * 7200,
        }, "p": 0, "ts": 5},
        "640573016369067301766902730173640e7308756e69717565496469b8027303"
        "74656e6904730768756e64726564694273076d696c6c696f6e69eafa4d730873"
        "74727563744964690273086368696c6472656e6c007306706172656e74693e73"
        "0570617274736c007306706172744f666c007305726566546f6c016c0369f601"
        "690c6910730772656646726f6d6c007305776964746869fc0373066865696768"
        "7469c20373046269747362a038" + "00" * 7200 + "730170690073027473690a",
    ),
]


@pytest.mark.parametrize(
    "value, hexed", GOLDEN, ids=[f"golden{i}" for i in range(len(GOLDEN))]
)
def test_golden_vector(value, hexed):
    """The format is frozen: each vector encodes to its bytes and back."""
    blob = bytes.fromhex(hexed)
    assert encode(value) == blob
    assert encoded_size(value) == len(blob)
    decoded = decode(blob)
    assert encode(decoded) == blob  # -0.0 and NaN compare by their bits
    if value == value:
        assert decoded == (list(value) if type(value) is tuple else value)


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


@st.composite
def _one_byte_mutations(draw):
    blob = encode(draw(_values))
    at = draw(st.integers(0, len(blob) - 1))
    return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]


#: Byte strings built mostly from tags and varint edge bytes, so random
#: input reaches past the first tag check.
_tag_soup = st.lists(
    st.sampled_from(b"NTFifsbld\x00\x01\x02\x7f\x80\xc3\xed\xff"), max_size=40
).map(bytes)


@settings(deadline=None)
@given(blob=st.one_of(st.binary(max_size=48), _tag_soup, _one_byte_mutations()))
@example(blob=b"d\x01l\x00i\x00")  # a list as a dict key
@example(blob=b"s\x02\xff\xfe")  # invalid UTF-8
@example(blob=b"i" + b"\xff" * 10 + b"\x01")  # an eleven-byte varint
def test_property_decode_raises_only_storage_error(blob):
    """Any input: ``StorageError``, or a value ``encode`` accepts.

    Both entry points agree — on refusing, and on what they return
    (compared by encoding, so a NaN equals itself).
    """
    try:
        value = decode(blob)
    except StorageError:
        with pytest.raises(StorageError):
            decode_view(memoryview(blob))
        return
    assert encode(decode_view(memoryview(blob))) == encode(value)


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
    st.just("\ud800"),
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
