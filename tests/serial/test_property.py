"""Property-based tests for the serializer (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.measure import encoded_size
from repro.serial.registry import TypeRegistry

_registry = TypeRegistry()
_encoder = Encoder(_registry)
_decoder = Decoder(_registry)

# JSON-ish values: everything the wire format supports natively, nested.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**256), max_value=2**256),
    st.floats(allow_nan=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)

hashables = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.text(max_size=20),
    st.binary(max_size=20),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(hashables, children, max_size=6),
        st.sets(hashables, max_size=6),
        st.frozensets(hashables, max_size=6),
        st.tuples(children, children),
    ),
    max_leaves=25,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_roundtrip_identity(value):
    assert _decoder.decode(_encoder.encode(value)) == value


@given(values)
@settings(max_examples=150, deadline=None)
def test_encoding_is_deterministic(value):
    assert _encoder.encode(value) == _encoder.encode(value)


@given(values)
@settings(max_examples=150, deadline=None)
def test_encoded_size_matches_frame_length(value):
    assert encoded_size(value, _registry) == len(_encoder.encode(value))


@given(values)
@settings(max_examples=100, deadline=None)
def test_type_preservation(value):
    result = _decoder.decode(_encoder.encode(value))
    assert type(result) is type(value)


@given(st.lists(st.integers(), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_aliased_sublists_stay_aliased(items):
    result = _decoder.decode(_encoder.encode([items, items, {"again": items}]))
    assert result[0] is result[1]
    assert result[0] is result[2]["again"]


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes_on_noise(noise):
    """Arbitrary bytes must either decode or raise SerializationError —
    never segfault, hang, or raise something unexpected."""
    from repro.util.errors import SerializationError

    try:
        _decoder.decode(noise)
    except SerializationError:  # obilint: disable=OBI107 -- the property under test: noise may fail only with SerializationError
        pass
