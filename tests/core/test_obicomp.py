"""Tests for the obicomp compiler, porting helpers and source emission."""

import pytest

from repro import obiwan
from repro.core.meta import compiled_registry, interface_of, is_compiled_class
from repro.core.obicomp import (
    compile_class,
    derive_interface,
    emit_module,
    emit_proxy_source,
    port_legacy_class,
    port_rmi_class,
)
from repro.core.proxy_in import ProxyIn
from repro.core.proxy_out import ProxyOutBase
from repro.util.errors import ReplicationError


class TestDeriveInterface:
    def test_public_methods_in_definition_order(self):
        class Ordered:
            def zulu(self):
                pass

            def alpha(self):
                pass

        iface = derive_interface(Ordered)
        assert iface.methods == ("zulu", "alpha")
        assert iface.name == "IOrdered"

    def test_private_and_dunder_excluded(self):
        class Mixed:
            def visible(self):
                pass

            def _hidden(self):
                pass

            def __also_hidden(self):
                pass

        assert derive_interface(Mixed).methods == ("visible",)

    def test_inherited_methods_included(self):
        class Base:
            def base_method(self):
                pass

        class Derived(Base):
            def own_method(self):
                pass

        iface = derive_interface(Derived)
        assert set(iface.methods) == {"base_method", "own_method"}

    def test_static_and_class_methods_excluded(self):
        class WithStatics:
            def instance_method(self):
                pass

            @staticmethod
            def static_method():
                pass

            @classmethod
            def class_method(cls):
                pass

        assert derive_interface(WithStatics).methods == ("instance_method",)

    def test_property_rejected_with_guidance(self):
        class WithProperty:
            def method(self):
                pass

            @property
            def broken(self):
                return 1

        with pytest.raises(ReplicationError, match="property"):
            derive_interface(WithProperty)

    def test_empty_interface_rejected(self):
        class Empty:
            pass

        with pytest.raises(ReplicationError, match="no public methods"):
            derive_interface(Empty)

    def test_custom_name(self):
        class Named:
            def m(self):
                pass

        assert derive_interface(Named, name="ICustom").name == "ICustom"

    def test_non_class_rejected(self):
        with pytest.raises(ReplicationError):
            derive_interface(42)  # type: ignore[arg-type]


class TestCompile:
    def test_compile_registers_everywhere(self):
        @compile_class
        class FreshlyCompiled:
            def act(self):
                return "ok"

        assert is_compiled_class(FreshlyCompiled)
        assert "IFreshlyCompiled" in compiled_registry
        entry = compiled_registry.by_interface("IFreshlyCompiled")
        assert issubclass(entry.proxy_out_cls, ProxyOutBase)
        assert "act" in entry.interface

    def test_compile_is_idempotent(self):
        @compile_class
        class Once:
            def m(self):
                pass

        again = compile_class(Once)
        assert again is Once

    def test_compile_with_interface_name(self):
        @compile_class(interface_name="IRenamed")
        class OriginalName:
            def m(self):
                pass

        assert interface_of(OriginalName).name == "IRenamed"

    def test_slots_rejected(self):
        class Slotted:
            __slots__ = ("x",)

            def m(self):
                pass

        with pytest.raises(ReplicationError, match="__slots__"):
            compile_class(Slotted)

    def test_inherited_slots_rejected(self):
        # __slots__ anywhere along the MRO removes the instance __dict__
        # replication relies on — a subclass cannot undo the restriction.
        class SlottedBase:
            __slots__ = ("x",)

        class Derived(SlottedBase):
            def m(self):
                pass

        with pytest.raises(ReplicationError, match="__slots__"):
            compile_class(Derived)

    def test_slots_rejection_leaves_class_uncompiled(self):
        class Slotted:
            __slots__ = ("x",)

            def m(self):
                pass

        with pytest.raises(ReplicationError):
            compile_class(Slotted)
        assert not is_compiled_class(Slotted)
        assert "ISlotted" not in compiled_registry

    def test_recompilation_preserves_interface_identity(self):
        @compile_class
        class Stable:
            def m(self):
                pass

        before = interface_of(Stable)
        entry_before = compiled_registry.by_interface("IStable")
        compile_class(Stable)
        assert interface_of(Stable) is before
        assert compiled_registry.by_interface("IStable") is entry_before

    def test_interface_name_override_registers_under_custom_name(self):
        @compile_class(interface_name="ICustomWire")
        class CustomNamed:
            def m(self):
                pass

        entry = compiled_registry.by_interface("ICustomWire")
        assert entry.cls is CustomNamed
        assert "ICustomNamed" not in compiled_registry

    def test_interface_name_collision_rejected(self):
        @compile_class(interface_name="ITakenName")
        class First:
            def m(self):
                pass

        class Second:
            def m(self):
                pass

        with pytest.raises(ReplicationError, match="ITakenName"):
            compile_class(Second, interface_name="ITakenName")

    def test_non_class_rejected(self):
        with pytest.raises(ReplicationError, match="classes"):
            compile_class(lambda: None)  # type: ignore[arg-type]

    def test_empty_class_rejected_and_unregistered(self):
        class NoMethods:
            pass

        with pytest.raises(ReplicationError, match="no public methods"):
            compile_class(NoMethods)
        assert not is_compiled_class(NoMethods)

    def test_setattr_left_alone(self):
        class Plain:
            def m(self):
                pass

        class Validating:
            def __setattr__(self, name, value):
                if name == "forbidden":
                    raise AttributeError(name)
                object.__setattr__(self, name, value)

            def m(self):
                pass

        own = Validating.__setattr__
        compile_class(Plain)
        compile_class(Validating)
        assert "__setattr__" not in vars(Plain)
        assert Plain.__setattr__ is object.__setattr__
        assert vars(Validating)["__setattr__"] is own


class TestPorting:
    def test_port_legacy_class(self):
        class LegacyThing:
            def work(self):
                return "done"

        Ported = port_legacy_class(LegacyThing)
        assert Ported is LegacyThing
        assert interface_of(Ported).methods == ("work",)

    def test_port_rmi_class_strips_suffix_and_plumbing(self):
        class WidgetRemoteImpl:
            def business(self):
                return 1

            def export(self):
                raise NotImplementedError

            def lookup(self, name):
                raise NotImplementedError

        Local = port_rmi_class(WidgetRemoteImpl)
        assert Local.__name__ == "Widget"
        assert interface_of(Local).methods == ("business",)
        assert issubclass(Local, WidgetRemoteImpl)
        assert Local().business() == 1

    def test_port_rmi_without_suffix_keeps_name(self):
        class PlainService:
            def serve(self):
                return "served"

            def bind(self, name):
                pass

        Local = port_rmi_class(PlainService)
        assert Local.__name__ == "PlainService"
        assert interface_of(Local).methods == ("serve",)

    def test_port_rmi_all_plumbing_rejected(self):
        class OnlyPlumbingRemoteImpl:
            def export(self):
                pass

        with pytest.raises(ReplicationError, match="business"):
            port_rmi_class(OnlyPlumbingRemoteImpl)


class TestEmit:
    def test_emitted_source_is_valid_python(self):
        from tests.models import Box, Chain

        source = emit_module([Box, Chain])
        namespace: dict = {}
        exec(compile(source, "<emitted>", "exec"), namespace)
        assert "IBox" in namespace
        assert issubclass(namespace["BoxProxyOut"], ProxyOutBase)
        assert issubclass(namespace["ChainProxyIn"], ProxyIn)

    def test_emitted_proxy_faults_like_the_generated_one(self):
        from tests.models import Box

        source = emit_proxy_source(Box)
        import struct
        from typing import Protocol

        namespace = {
            "ProxyOutBase": ProxyOutBase,
            "ProxyIn": ProxyIn,
            "Protocol": Protocol,
            "_struct": struct,
        }
        exec(compile(source, "<emitted>", "exec"), namespace)
        emitted_cls = namespace["BoxProxyOut"]
        assert hasattr(emitted_cls, "get")
        assert hasattr(emitted_cls, "set")

    def test_emitted_module_has_header(self):
        from tests.models import Box

        source = emit_module([Box])
        assert source.startswith('"""Generated by obicomp')

    def test_emitted_module_carries_codec_source(self):
        from tests.models import Counter

        from repro.serial.compiled import codec_for

        assert codec_for(Counter) is not None  # Counter: value: int = 0
        source = emit_module([Counter])
        assert "import struct as _struct" in source
        assert "_obicodec_encode_" in source
        namespace: dict = {}
        exec(compile(source, "<emitted>", "exec"), namespace)
        encode = next(
            fn for name, fn in namespace.items() if name.startswith("_obicodec_encode_")
        )
        decode = next(
            fn for name, fn in namespace.items() if name.startswith("_obicodec_decode_")
        )
        out = bytearray()
        original = Counter(33)
        assert encode(original, out, None, 0)  # all scalar: no any-slot callback
        header = codec_for(Counter).header
        assert out.startswith(header)
        memo: list = []
        rebuilt, end = decode(
            bytes(out), len(header), len(out), memo, None, 0, lambda: Counter.__new__(Counter)
        )
        assert rebuilt.value == 33
        assert end == len(out)
        assert memo == [rebuilt]

    def test_codecless_class_emits_no_codec_section(self):
        @compile_class
        class Stateful:
            def __init__(self):
                self.value = 0

            def __getstate__(self):
                return (self.value,)

            def __setstate__(self, state):
                (self.value,) = state

            def peek(self):
                return self.value

        assert "_obicodec_" not in emit_proxy_source(Stateful)
