"""Tests for swizzle hooks."""

import pytest

from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import SerializationError


class Secret:
    """A type the encoder will swizzle away instead of serializing."""

    def __init__(self, token: str):
        self.token = token


class TokenSwizzler:
    """Encodes Secret values as descriptors carrying only the token."""

    def swizzle(self, value):
        if isinstance(value, Secret):
            return SwizzleDescriptor("secret", value.token)
        return None

    def unswizzle(self, descriptor):
        raise AssertionError("encoder-side hook should not decode")


class TokenUnswizzler:
    def __init__(self):
        self.seen: list[SwizzleDescriptor] = []

    def swizzle(self, value):
        raise AssertionError("decoder-side hook should not encode")

    def unswizzle(self, descriptor):
        self.seen.append(descriptor)
        return Secret(descriptor.data + ":rebuilt")


def test_swizzled_value_travels_as_descriptor():
    registry = TypeRegistry()
    unswizzler = TokenUnswizzler()
    encoder = Encoder(registry, TokenSwizzler())
    decoder = Decoder(registry, unswizzler)

    data = encoder.encode({"cred": Secret("abc")})
    result = decoder.decode(data)
    assert isinstance(result["cred"], Secret)
    assert result["cred"].token == "abc:rebuilt"
    assert unswizzler.seen[0].kind == "secret"


def test_swizzled_aliases_materialize_once():
    registry = TypeRegistry()
    unswizzler = TokenUnswizzler()
    encoder = Encoder(registry, TokenSwizzler())
    decoder = Decoder(registry, unswizzler)

    secret = Secret("shared")
    result = decoder.decode(encoder.encode([secret, secret]))
    assert result[0] is result[1]
    assert len(unswizzler.seen) == 1


def test_unswizzled_descriptor_decodes_as_itself_by_default():
    registry = TypeRegistry()
    encoder = Encoder(registry, TokenSwizzler())
    decoder = Decoder(registry)  # no unswizzler: the descriptor comes back
    result = decoder.decode(encoder.encode(Secret("x")))
    assert isinstance(result, SwizzleDescriptor)
    assert (result.kind, result.data) == ("secret", "x")


def test_unregistered_type_without_swizzler_fails():
    registry = TypeRegistry()
    encoder = Encoder(registry)
    with pytest.raises(SerializationError):
        encoder.encode(Secret("x"))


def test_swizzler_can_pass_structured_data():
    registry = TypeRegistry()

    class StructSwizzler(TokenSwizzler):
        def swizzle(self, value):
            if isinstance(value, Secret):
                return SwizzleDescriptor("secret", {"token": value.token, "n": 3})
            return None

    decoder = Decoder(registry)
    result = decoder.decode(Encoder(registry, StructSwizzler()).encode(Secret("t")))
    assert result.data == {"token": "t", "n": 3}


def test_descriptor_data_travels_as_given():
    """A descriptor is the swizzler's last word: whatever its data holds
    is written by state, without asking the swizzler again."""
    registry = TypeRegistry()
    registry.register(Secret)

    class Wrapping(TokenSwizzler):
        def swizzle(self, value):  # would wrap the inner Secret too, forever
            if isinstance(value, Secret):
                return SwizzleDescriptor("secret", [Secret("inner:" + value.token)])
            return None

    result = Decoder(registry).decode(Encoder(registry, Wrapping()).encode(Secret("t")))
    (inner,) = result.data
    assert isinstance(inner, Secret) and inner.token == "inner:t"
