"""One site's RMI endpoint: serializer + object table + network binding.

The endpoint is where the layers meet:

* inbound transport frames decode into
  :class:`~repro.rmi.protocol.InvokeRequest` and dispatch through the
  site's :class:`~repro.rmi.skeleton.ObjectTable`; a frame refused while
  decoding is answered with an :class:`~repro.rmi.protocol.InvokeFailure`,
  as a failed dispatch is;
* outbound :meth:`invoke` calls encode, travel, and re-raise remote
  failures locally;
* swizzle hooks are pluggable so the replication layer above can intercept
  object references crossing the wire.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

from repro.obs.context import NULL_TRACER, activate, current, deactivate
from repro.rmi.nameserver import (
    NAMESERVER_METHODS,
    NAMESERVER_OBJECT_ID,
    NameServer,
)
from repro.rmi.protocol import InvokeFailure, InvokeRequest, InvokeSuccess
from repro.rmi.refs import RemoteRef
from repro.rmi.skeleton import ObjectTable
from repro.rmi.stub import Stub, make_stub
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry, global_registry
from repro.serial.swizzle import Swizzler, Unswizzler
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.util.errors import ObiwanError, ProtocolError


class RmiEndpoint:
    """Binds one site id to a network and provides RMI semantics."""

    def __init__(
        self,
        network: Network,
        site_id: str,
        *,
        registry: TypeRegistry | None = None,
        nameserver_site: str | None = None,
    ):
        self.site_id = site_id
        self.network = network
        self.registry = registry if registry is not None else global_registry
        self.objects = ObjectTable(site_id)
        self.set_swizzle_hooks(None, None)
        self._caller = threading.local()
        #: Causal tracer shared with the owning site; ``NULL_TRACER``
        #: (pure no-ops) until ``Site.enable_tracing`` swaps a live one in.
        self.tracer = NULL_TRACER
        self._endpoint = network.attach(site_id, self._handle_frame)
        #: Which site hosts the name server; defaults to this site if it
        #: hosts one (see :meth:`host_nameserver`).
        self.nameserver_site = nameserver_site

    # ------------------------------------------------------------------
    # swizzle hooks (installed by the replication layer)
    # ------------------------------------------------------------------
    def set_swizzle_hooks(self, swizzler: Swizzler | None, unswizzler: Unswizzler | None) -> None:
        """(Re)build the endpoint's one encoder/decoder pair.  Both are
        stateless between frames, so every thread of the endpoint shares
        them."""
        self._encoder = Encoder(self.registry, swizzler)
        self._decoder = Decoder(self.registry, unswizzler)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def export(self, obj: object, *, object_id: str | None = None, interface: str = "") -> RemoteRef:
        """Make ``obj`` remotely invocable on this site."""
        return self.objects.export(obj, object_id=object_id, interface=interface)

    def unexport(self, object_id: str) -> None:
        self.objects.unexport(object_id)

    @property
    def current_caller(self) -> str | None:
        """The site id of the remote caller being served on this thread,
        or ``None`` outside a dispatch (i.e. for local invocations)."""
        return getattr(self._caller, "site", None)

    def _handle_frame(self, message: Message) -> bytes | None:
        try:
            body = self._decoder.decode(message.payload)
        except ObiwanError as exc:
            # A request refused while decoding (say, an ill-formed mode)
            # fails like one refused in dispatch: typed at the caller on
            # every transport, not as the transport's handler error.
            return self._encoder.encode(InvokeFailure.from_exception(exc))
        self._caller.site = message.src
        try:
            if isinstance(body, InvokeRequest):
                result = self._dispatch_traced(body, caller=message.src)
            else:
                raise ProtocolError(
                    f"site {self.site_id!r} received unexpected frame body "
                    f"{type(body).__name__}"
                )
        finally:
            self._caller.site = None
        return self._encoder.encode(result)

    def _dispatch_traced(self, request: InvokeRequest, *, caller: str) -> object:
        """Dispatch one inbound request under its wire trace context.

        Untraced requests (``trace is None``, the common case) go straight
        to the object table.  Traced ones get the caller's context
        installed for the duration of dispatch — so spans this dispatch
        creates, and any context it forwards downstream, parent correctly
        across sites — plus a local ``rmi.serve`` span when this site is
        itself tracing.
        """
        trace = request.trace
        if trace is None:
            return self.objects.dispatch(request)
        token = activate(trace[0], trace[1])
        try:
            with self.tracer.span(
                "rmi.serve", name=request.method, src=caller
            ) as span:
                result = self.objects.dispatch(request)
                if isinstance(result, InvokeFailure):
                    span.set(error=result.error_name)
                return result
        finally:
            deactivate(token)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def invoke(self, ref: RemoteRef, method: str, args: tuple = (), kwargs: dict | None = None) -> object:
        """Call ``method`` on the remote object behind ``ref``.

        Local refs short-circuit through the local object table — the same
        optimisation the JVM applies to colocated RMI — but still go
        through dispatch so failure semantics are identical.
        """
        request = InvokeRequest(
            object_id=ref.object_id, method=method, args=args, kwargs=kwargs or {}
        )
        if ref.site_id == self.site_id:
            result = self.objects.dispatch(request)
        else:
            with self.tracer.span(
                "rmi.invoke", name=method, dst=ref.site_id
            ) as span:
                request.trace = current()
                payload = self._encoder.encode(request)
                response_payload = self._endpoint.call(ref.site_id, payload)
                result = self._decoder.decode(response_payload)
                if isinstance(result, InvokeFailure):
                    span.set(error=result.error_name)
        if isinstance(result, InvokeSuccess):
            return result.value
        if isinstance(result, InvokeFailure):
            result.raise_()
        raise ProtocolError(
            f"invocation of {method!r} on {ref} returned unexpected body "
            f"{type(result).__name__}"
        )

    def invoke_async(
        self, ref: RemoteRef, method: str, args: tuple = (), kwargs: dict | None = None
    ) -> "InvokeFuture":
        """Start a remote invocation without waiting for its result.

        Returns an :class:`InvokeFuture` whose :meth:`~InvokeFuture.result`
        blocks (and re-raises remote failures) exactly like
        :meth:`invoke`.  The request completes before this returns, so
        the future is already settled.  Local refs dispatch immediately.
        """
        request = InvokeRequest(
            object_id=ref.object_id, method=method, args=args, kwargs=kwargs or {}
        )
        if ref.site_id == self.site_id:
            return InvokeFuture._settled(self, self.objects.dispatch(request), method, ref)
        with self.tracer.span("rmi.invoke", name=method, dst=ref.site_id):
            request.trace = current()
            payload = self._encoder.encode(request)
            pending = self._endpoint.submit(ref.site_id, payload)
        return InvokeFuture(self, pending, method, ref)

    def invoke_oneway(self, ref: RemoteRef, method: str, args: tuple = (), kwargs: dict | None = None) -> None:
        """Fire-and-forget invocation (update dissemination, invalidations).

        The remote method runs, but its result — and any exception — is
        discarded.  Local refs dispatch immediately.
        """
        request = InvokeRequest(
            object_id=ref.object_id, method=method, args=args, kwargs=kwargs or {}
        )
        if ref.site_id == self.site_id:
            self.objects.dispatch(request)
            return
        with self.tracer.span(
            "rmi.oneway", name=method, dst=ref.site_id
        ):
            request.trace = current()
            payload = self._encoder.encode(request)
            self._endpoint.cast(ref.site_id, payload)

    def stub(self, ref: RemoteRef, methods: Sequence[str], *, interface_name: str | None = None) -> Stub:
        """Build a client stub for ``ref`` exposing ``methods``."""
        return make_stub(self._invoker, ref, methods, interface_name=interface_name)

    def _invoker(self, ref: RemoteRef, method: str, args: tuple, kwargs: dict) -> object:
        return self.invoke(ref, method, args, kwargs)

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def host_nameserver(self) -> NameServer:
        """Create and export a name server on this site."""
        server = NameServer()
        self.objects.export(server, object_id=NAMESERVER_OBJECT_ID, interface="INameServer")
        self.nameserver_site = self.site_id
        return server

    @property
    def naming(self) -> Stub:
        """A stub on the world's name server."""
        if self.nameserver_site is None:
            raise ProtocolError(
                f"site {self.site_id!r} knows no name-server site; "
                "host one with host_nameserver() or pass nameserver_site="
            )
        ref = RemoteRef(
            site_id=self.nameserver_site,
            object_id=NAMESERVER_OBJECT_ID,
            interface="INameServer",
        )
        return self.stub(ref, NAMESERVER_METHODS)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @property
    def clock(self):
        return self.network.clock

    def close(self) -> None:
        self.network.detach(self.site_id)

    def __repr__(self) -> str:
        return f"RmiEndpoint({self.site_id!r}, {len(self.objects)} exported)"


class InvokeFuture:
    """Handle on an in-flight remote invocation (see ``invoke_async``)."""

    def __init__(self, endpoint: RmiEndpoint, pending, method: str, ref: RemoteRef):
        self._rmi = endpoint
        self._pending = pending
        self._method = method
        self._ref = ref
        self._local_result: object | None = None

    @classmethod
    def _settled(
        cls, endpoint: RmiEndpoint, result: object, method: str, ref: RemoteRef
    ) -> "InvokeFuture":
        """A future for a local dispatch that already ran."""
        future = cls(endpoint, None, method, ref)
        future._local_result = result
        return future

    def done(self) -> bool:
        return self._pending is None or self._pending.done()

    def cancel(self) -> bool:
        """Abandon the invocation; only this request is poisoned."""
        return False if self._pending is None else self._pending.cancel()

    def result(self, timeout: float | None = None) -> object:
        """The invocation's return value; re-raises remote failures
        locally, exactly like :meth:`RmiEndpoint.invoke`."""
        if self._pending is None:
            body = self._local_result
        else:
            body = self._rmi._decoder.decode(self._pending.result(timeout))
        if isinstance(body, InvokeSuccess):
            return body.value
        if isinstance(body, InvokeFailure):
            body.raise_()
        raise ProtocolError(
            f"invocation of {self._method!r} on {self._ref} returned unexpected "
            f"body {type(body).__name__}"
        )

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"InvokeFuture({self._method!r} on {self._ref.site_id!r}, {state})"
