"""The invocation protocol: what travels inside transport payloads.

Three frame bodies, each a slots dataclass whose declared fields are its
positional wire schema (:mod:`repro.serial.compiled`):

* :class:`InvokeRequest` — target object id, method name, arguments;
* :class:`InvokeSuccess` — the return value;
* :class:`InvokeFailure` — a structured description of a remote exception.

Failures carry the exception's wire name so well-known middleware
exceptions (``NameNotFoundError``, ``DisconnectedError``, …) re-raise as
their own types at the caller, while arbitrary application exceptions
surface as :class:`~repro.util.errors.RemoteError` — the same split Java
RMI makes between declared exceptions and ``RemoteException``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serial.registry import global_registry
from repro.util import errors
from repro.util.errors import RemoteError


@dataclass(slots=True)
class InvokeRequest:
    """A method call on an exported object.

    ``trace`` is optional causal-trace context — the caller's
    ``(trace_id, span_id)`` from :mod:`repro.obs.context`; an untraced
    caller never stamps it and it costs one ``NONE`` byte on the wire.
    """

    object_id: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    trace: tuple | None = None


@dataclass(slots=True)
class InvokeSuccess:
    """A normal return."""

    value: object = None


@dataclass(slots=True)
class InvokeFailure:
    """A remote exception, flattened for the wire."""

    error_name: str = ""
    message: str = ""
    remote_traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException, traceback_text: str = "") -> "InvokeFailure":
        return cls(
            error_name=type(exc).__name__,
            message=str(exc),
            remote_traceback=traceback_text,
        )

    def to_exception(self) -> BaseException:
        """The local exception this failure reconstructs to.

        Middleware exceptions from :mod:`repro.util.errors` reconstruct as
        their own type; anything else becomes :class:`RemoteError`.
        """
        error_cls = _WELL_KNOWN.get(self.error_name)
        if error_cls is not None:
            return error_cls(self.message)
        return RemoteError(
            f"remote invocation failed: {self.error_name}: {self.message}",
            remote_type=self.error_name,
            remote_traceback=self.remote_traceback,
        )

    def raise_(self) -> "NoReturn":  # type: ignore[name-defined]  # noqa: F821
        """Re-raise at the caller."""
        raise self.to_exception()


#: Middleware exception types that cross the wire losslessly.
_WELL_KNOWN: dict[str, type[BaseException]] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type)
    and issubclass(obj, errors.ObiwanError)
    and obj is not errors.ObiwanError
}


for _protocol_cls, _wire_name in (
    (InvokeRequest, "rmi.InvokeRequest"),
    (InvokeSuccess, "rmi.InvokeSuccess"),
    (InvokeFailure, "rmi.InvokeFailure"),
):
    global_registry.register(_protocol_cls, name=_wire_name)
