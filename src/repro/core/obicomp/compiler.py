"""The compile step: augment a user class for OBIWAN.

Equivalent to running the paper's ``obicomp`` tool on class ``A``:

1. derive interface ``IA`` from the public methods;
2. synthesize the ``AProxyOut`` class (every method faults);
3. register ``A`` with the wire-type registry so replicas can travel —
   which derives ``A``'s field schema from ``__init__`` and generates its
   wire codec (:mod:`repro.serial.compiled`);
4. record everything in the compiled-class registry that all sites share
   (the deployment analogue of shipping obicomp output everywhere).

The proxy-in side needs no per-class generation at run time — the generic
:class:`repro.core.proxy_in.ProxyIn` dispatches reflectively — but
:mod:`repro.core.obicomp.emit` can still write per-class sources.
"""

from __future__ import annotations

from repro.core.meta import (
    OBI_INTERFACE_ATTR,
    CompiledEntry,
    compiled_registry,
    is_compiled_class,
)
from repro.core.obicomp.interface import derive_interface
from repro.core.proxy_out import make_proxy_out_class
from repro.core.versions import note_write
from repro.serial.registry import global_registry
from repro.util.errors import ReplicationError

#: Class attribute marking that the dirty-tracking write hook is installed.
OBI_WRITE_HOOK_ATTR = "_obi_write_hooked"


def _install_write_hook(target: type) -> None:
    """Wrap ``target.__setattr__`` to notify the dirty tracker.

    The wrapper delegates to whatever ``__setattr__`` the class had
    (custom or ``object``'s) and only notes the write after it succeeds,
    so failing setters never mark fields dirty.  Idempotent per class;
    a compiled subclass of a compiled base gets its own wrapper, and the
    resulting double note is harmless (the dirty set is a set).
    """
    if vars(target).get(OBI_WRITE_HOOK_ATTR):
        return
    inherited = target.__setattr__

    def __setattr__(self, name, value, _inherited=inherited):
        _inherited(self, name, value)
        note_write(self, name)

    __setattr__.__qualname__ = f"{target.__qualname__}.__setattr__"
    __setattr__.__module__ = target.__module__
    target.__setattr__ = __setattr__
    setattr(target, OBI_WRITE_HOOK_ATTR, True)


def compile_class(cls: type | None = None, *, interface_name: str | None = None):
    """Compile ``cls`` for OBIWAN; usable as ``@compile_class`` directly
    or as ``@compile_class(interface_name="IThing")``.

    Compilation is idempotent.  Classes using ``__slots__`` are rejected:
    replica state management relies on instance ``__dict__``, as the Java
    prototype relies on field reflection.
    """

    def apply(target: type) -> type:
        if not isinstance(target, type):
            raise ReplicationError(f"obicomp can only compile classes, got {target!r}")
        if is_compiled_class(target):
            return target
        if any("__slots__" in vars(klass) for klass in target.__mro__ if klass is not object):
            raise ReplicationError(
                f"class {target.__name__} uses __slots__; OBIWAN-managed state "
                "must live in the instance __dict__"
            )
        interface = derive_interface(target, interface_name)
        proxy_out_cls = make_proxy_out_class(interface)
        setattr(target, OBI_INTERFACE_ATTR, interface)
        _install_write_hook(target)
        global_registry.register(target)
        compiled_registry.add(CompiledEntry(target, interface, proxy_out_cls))
        return target

    if cls is not None:
        return apply(cls)
    return apply
