"""Tests for obicodec: the schema-compiled object frame."""

import pytest

from repro.core.telemetry import SerialPathStats
from repro.serial import tags
from repro.serial import compiled
from repro.serial.compiled import (
    ANY,
    INT64_MAX,
    codec_for,
    derive_schema,
    registered_codec_names,
    schema_hash_of,
)
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry
from repro.util.errors import SerializationError


@pytest.fixture
def registry():
    return TypeRegistry()


def compiled_pair(registry):
    return Encoder(registry), Decoder(registry)


class Stateful:
    """No schema: the wire state is whatever ``__getstate__`` says."""

    def __init__(self, payload=None):
        self.payload = payload

    def __getstate__(self):
        return {"payload": self.payload}

    def __setstate__(self, state):
        self.payload = state["payload"]


# ----------------------------------------------------------------------
# schema derivation
# ----------------------------------------------------------------------
class TestDeriveSchema:
    def test_parameter_annotations(self):
        class Point:
            def __init__(self, x: int, y: float, label: str):
                self.x = x
                self.y = y
                self.label = label

        assert derive_schema(Point) == (("x", "int"), ("y", "float"), ("label", "str"))

    def test_literal_defaults(self):
        class Counter:
            def __init__(self):
                self.count = 0
                self.rate = 0.0
                self.name = ""
                self.live = False
                self.blob = b""

        assert derive_schema(Counter) == (
            ("count", "int"),
            ("rate", "float"),
            ("name", "str"),
            ("live", "bool"),
            ("blob", "bytes"),
        )

    def test_negative_literal_and_constructor_call(self):
        class Sensor:
            def __init__(self, raw):
                self.offset = -1
                self.reading = float(raw)

        assert derive_schema(Sensor) == (("offset", "int"), ("reading", "float"))

    def test_class_annotations(self):
        class Annotated:
            x: int
            y: str

            def __init__(self, x, y):
                self.x = x
                self.y = y

        assert derive_schema(Annotated) == (("x", "int"), ("y", "str"))

    def test_parameter_default_infers_kind(self):
        class Defaulted:
            def __init__(self, limit=10):
                self.limit = limit

        assert derive_schema(Defaulted) == (("limit", "int"),)

    def test_no_init_yields_empty_schema(self):
        class Bare:
            pass

        assert derive_schema(Bare) == ()

    # The four below are rejected *as scalars*: nothing proves one scalar
    # kind, so the field rides as an any slot and the class still compiles.
    def test_uninferable_field_rejected(self):
        class Opaque:
            def __init__(self, thing):
                self.thing = thing

        assert derive_schema(Opaque) == (("thing", ANY),)

    def test_container_field_rejected(self):
        class Listy:
            def __init__(self):
                self.items = []

        assert derive_schema(Listy) == (("items", ANY),)

    def test_conflicting_assignments_rejected(self):
        class Poly:
            def __init__(self, flag: bool):
                if flag:
                    self.value = 0
                else:
                    self.value = ""

        assert derive_schema(Poly) == (("value", ANY),)

    def test_tuple_unpack_rejected(self):
        class Unpacked:
            def __init__(self):
                self.a, self.b = 1, 2

        assert derive_schema(Unpacked) == (("a", ANY), ("b", ANY))

    def test_reference_field_is_an_any_slot_between_scalars(self):
        class Node:
            def __init__(self, index: int = 0, nxt: "Node | None" = None):
                self.index = index
                self.next = nxt
                self.done = False

        assert derive_schema(Node) == (("index", "int"), ("next", ANY), ("done", "bool"))

    def test_slots_dataclass_declares_its_fields(self):
        from dataclasses import dataclass, field

        @dataclass(slots=True)
        class Envelope:
            oid: str = ""
            version: int = 0
            payload: bytes = b""
            meta: dict = field(default_factory=dict)
            ref: "Envelope | None" = None

        assert derive_schema(Envelope) == (
            ("oid", "str"),
            ("version", "int"),
            ("payload", "bytes"),
            ("meta", ANY),
            ("ref", ANY),
        )

    def test_obi_id_assignment_rejected(self):
        class Reserved:
            def __init__(self):
                self._obi_id = "oid-1"

        assert derive_schema(Reserved) is None

    def test_slots_rejected(self):
        class Slotted:
            __slots__ = ("x",)

            def __init__(self, x: int):
                self.x = x

        assert derive_schema(Slotted) is None

    def test_custom_getstate_rejected(self):
        class Hooked:
            def __init__(self):
                self.x = 1

            def __getstate__(self):
                return (self.x,)

        assert derive_schema(Hooked) is None

    def test_sourceless_class_rejected(self):
        namespace = {}
        exec("class Dynamic:\n    def __init__(self):\n        self.x = 1\n", namespace)
        assert derive_schema(namespace["Dynamic"]) is None


# ----------------------------------------------------------------------
# codec compilation and the cache
# ----------------------------------------------------------------------
class TestCodecCompilation:
    def test_registration_compiles_a_codec(self, registry):
        class Reading:
            def __init__(self, value: float, station: str):
                self.value = value
                self.station = station

        entry = registry.register(Reading)
        codec = codec_for(Reading)
        assert codec is not None
        assert codec.name == entry.name
        assert codec.fields == (("value", "float"), ("station", "str"))
        assert codec.schema_hash == schema_hash_of(codec.fields)
        assert codec.name in registered_codec_names()

    def test_custom_hooks_opt_out(self, registry):
        class Handled:
            def __init__(self):
                self.x = 1

        registry.register(Handled, get_state=lambda o: o.x, set_state=lambda o, s: setattr(o, "x", s))
        assert codec_for(Handled) is None

    def test_rejection_is_cached(self, registry):
        class NoSchema(Stateful):
            pass

        registry.register(NoSchema)
        assert codec_for(NoSchema) is None
        assert NoSchema in compiled._codecs  # tried once, remembered

    def test_generated_source_is_kept(self, registry):
        class Kept:
            def __init__(self, n: int):
                self.n = n

        registry.register(Kept)
        source = codec_for(Kept).source
        assert "_obicodec_encode_" in source
        assert "_obicodec_decode_" in source


# ----------------------------------------------------------------------
# roundtrips and wire bytes
# ----------------------------------------------------------------------
class TestCompiledRoundtrip:
    def test_all_scalar_kinds_roundtrip(self, registry):
        class Mixed:
            def __init__(self, i: int, f: float, b: bool, s: str, raw: bytes):
                self.i = i
                self.f = f
                self.b = b
                self.s = s
                self.raw = raw

        registry.register(Mixed)
        encoder, decoder = compiled_pair(registry)
        original = Mixed(-42, 2.5, True, "héllo ✓", b"\x00\xff")
        frame = encoder.encode(original)
        assert frame[0] == tags.OBJECT_SCHEMA
        result = decoder.decode(frame)
        assert type(result) is Mixed
        assert vars(result) == vars(original)
        assert list(vars(result)) == list(vars(original))  # dict order too

    def test_obi_id_travels_in_header(self, registry):
        class Tagged:
            def __init__(self, n: int):
                self.n = n

        registry.register(Tagged)
        encoder, decoder = compiled_pair(registry)
        original = Tagged(7)
        original._obi_id = "oid-compiled-1"
        result = decoder.decode(encoder.encode(original))
        assert result._obi_id == "oid-compiled-1"
        assert result.n == 7
        assert list(vars(result)) == ["n", "_obi_id"]

    def test_compiled_frame_smaller_than_reflective(self, registry):
        class Wide:
            def __init__(self):
                self.alpha = 1
                self.bravo = 2
                self.charlie = 3.0
                self.delta_field = "x"

        registry.register(Wide)
        schema_frame = Encoder(registry).encode(Wide())
        drifted = Wide()
        del drifted.delta_field  # one attribute short of the schema: the generic frame
        generic_frame = Encoder(registry).encode(drifted)
        assert schema_frame[0] == tags.OBJECT_SCHEMA
        assert generic_frame[0] == tags.OBJECT
        assert len(schema_frame) < len(generic_frame)  # four fields beat three with names

    def test_reflective_encoder_unaffected_by_codec(self, registry):
        """A class with no schema keeps the generic ``OBJECT`` frame,
        whatever codecs its neighbours in the registry compiled."""

        class Quiet:
            def __init__(self, n: int):
                self.n = n

        registry.register(Quiet)
        registry.register(Stateful)
        assert codec_for(Quiet) is not None
        frame = Encoder(registry).encode(Stateful(Quiet(1)))
        assert frame[0] == tags.OBJECT
        assert Decoder(registry).decode(frame).payload.n == 1

    def test_compiled_frames_deterministic(self, registry):
        class Det:
            def __init__(self, a: int, b: str):
                self.a = a
                self.b = b

        registry.register(Det)
        first = Encoder(registry).encode(Det(3, "x"))
        second = Encoder(registry).encode(Det(3, "x"))
        assert first == second

    def test_aliasing_preserved_across_fast_path(self, registry):
        class Leaf:
            def __init__(self, n: int):
                self.n = n

        registry.register(Leaf)
        encoder, decoder = compiled_pair(registry)
        leaf = Leaf(5)
        result = decoder.decode(encoder.encode([leaf, leaf, [leaf]]))
        assert result[0] is result[1]
        assert result[2][0] is result[0]

    def test_memo_parity_with_reflective_neighbours(self, registry):
        """Compiled and reflective objects mix in one frame: the memo
        indices stay consistent because both paths claim exactly one slot
        per instance on each side."""

        class Fast:
            def __init__(self, n: int):
                self.n = n

        class Slow(Stateful):
            pass

        registry.register(Fast)
        registry.register(Slow)
        assert codec_for(Fast) is not None
        assert codec_for(Slow) is None
        encoder, decoder = compiled_pair(registry)
        fast, slow = Fast(1), Slow([1, 2])
        result = decoder.decode(encoder.encode([fast, slow, fast, slow]))
        assert result[0] is result[2]
        assert result[1] is result[3]
        assert result[1].payload == [1, 2]


# ----------------------------------------------------------------------
# fallback to the reflective path
# ----------------------------------------------------------------------
class TestFallback:
    def test_shape_drift_falls_back(self, registry):
        class Drifter:
            def __init__(self, n: int):
                self.n = n

        registry.register(Drifter)
        encoder, decoder = compiled_pair(registry)
        drifted = Drifter(1)
        drifted.extra = [1, 2]  # not in the schema
        frame = encoder.encode(drifted)
        assert frame[0] == tags.OBJECT
        result = decoder.decode(frame)
        assert result.n == 1 and result.extra == [1, 2]

    def test_polymorphic_value_falls_back(self, registry):
        class Typed:
            def __init__(self, n: int):
                self.n = n

        registry.register(Typed)
        encoder, decoder = compiled_pair(registry)
        wrong = Typed(1)
        wrong.n = "actually a string"
        frame = encoder.encode(wrong)
        assert frame[0] == tags.OBJECT
        assert decoder.decode(frame).n == "actually a string"

    def test_out_of_range_int_falls_back(self, registry):
        class Big:
            def __init__(self, n: int):
                self.n = n

        registry.register(Big)
        encoder, decoder = compiled_pair(registry)
        frame = encoder.encode(Big(INT64_MAX + 1))
        assert frame[0] == tags.OBJECT
        assert decoder.decode(frame).n == INT64_MAX + 1

    def test_boundary_ints_stay_compiled(self, registry):
        class Edge:
            def __init__(self, n: int):
                self.n = n

        registry.register(Edge)
        encoder, decoder = compiled_pair(registry)
        for value in (INT64_MAX, -(2**63)):
            frame = encoder.encode(Edge(value))
            assert frame[0] == tags.OBJECT_SCHEMA
            assert decoder.decode(frame).n == value

    def test_non_str_obi_id_falls_back(self, registry):
        class Odd:
            def __init__(self, n: int):
                self.n = n

        registry.register(Odd)
        encoder, _ = compiled_pair(registry)
        odd = Odd(1)
        odd._obi_id = 123  # ids are strings; anything else is drift
        assert encoder.encode(odd)[0] == tags.OBJECT


# ----------------------------------------------------------------------
# decoder hardening
# ----------------------------------------------------------------------
class TestDecoderHardening:
    def _frame(self, registry):
        class Hard:
            def __init__(self, n: int, s: str):
                self.n = n
                self.s = s

        entry = registry.register(Hard)
        frame = Encoder(registry).encode(Hard(1, "payload"))
        assert frame[0] == tags.OBJECT_SCHEMA
        return frame, entry

    def test_schema_hash_mismatch_raises(self, registry):
        frame, entry = self._frame(registry)
        name_len = len(entry.name.encode("utf-8"))
        hash_end = 1 + 4 + name_len + 4
        tampered = bytearray(frame)
        tampered[hash_end - 1] ^= 0xFF
        with pytest.raises(SerializationError, match="does not match a codec"):
            Decoder(registry).decode(bytes(tampered))

    def test_unknown_name_raises(self, registry):
        frame, _ = self._frame(registry)
        with pytest.raises(SerializationError, match="unknown wire type"):
            Decoder(TypeRegistry()).decode(frame)

    def test_truncated_compiled_frame_raises(self, registry):
        frame, _ = self._frame(registry)
        for cut in (len(frame) - 3, len(frame) // 2):
            with pytest.raises(SerializationError):
                Decoder(registry).decode(frame[:cut])

    def test_no_codec_on_receiver_raises(self, registry):
        frame, entry = self._frame(registry)
        receiver = TypeRegistry()

        class Unrelated(Stateful):
            pass

        receiver.register(Unrelated, name=entry.name)
        with pytest.raises(SerializationError, match="does not match a codec"):
            Decoder(receiver).decode(frame)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
class TestSerialStats:
    def test_encoder_and_decoder_count_fast_frames(self, registry):
        class Counted:
            def __init__(self, n: int):
                self.n = n

        registry.register(Counted)
        stats = SerialPathStats()
        encoder = Encoder(registry, stats=stats)
        decoder = Decoder(registry, stats=stats)
        decoder.decode(encoder.encode([Counted(1), Counted(2)]))
        assert stats.frames_encoded == 1
        assert stats.frames_decoded == 1
        assert stats.encodes_fast == 2
        assert stats.decodes_fast == 2
        assert stats.encodes_reflective == 0
        assert stats.encode_ns >= 0 and stats.decode_ns >= 0

    def test_fallbacks_counted_as_reflective(self, registry):
        class Mixed:
            def __init__(self, n: int):
                self.n = n

        class Opaque(Stateful):
            pass

        registry.register(Mixed)
        registry.register(Opaque)
        stats = SerialPathStats()
        encoder = Encoder(registry, stats=stats)
        encoder.encode([Mixed(1), Opaque("x")])
        assert stats.encodes_fast == 1
        assert stats.encodes_reflective == 1

    def test_reflective_encoder_counts_nothing_fast(self, registry):
        registry.register(Stateful)
        stats = SerialPathStats()
        Encoder(registry, stats=stats).encode(Stateful(1))
        assert stats.encodes_fast == 0
        assert stats.encodes_reflective == 1
        assert stats.frames_encoded == 1
