"""Placement-as-a-service: a long-running asyncio placement server.

``beaconplace place-serve`` answers concurrent placement queries over the
same length-prefixed JSON framing the sweep executors speak — the byte
layer is :func:`repro.sim.executors.wire.encode_frame` /
:func:`~repro.sim.executors.wire.decode_frame` verbatim, lifted onto
asyncio streams here.  Frame types:

===========  =====  =====================================================
type         dir    fields
===========  =====  =====================================================
hello        c → s  ``protocol``, ``service`` (``"placement"``; a hello
                    without one is a sweep worker's, and is rejected)
welcome      s → c  ``protocol``, ``service``, ``heartbeat`` (seconds),
                    ``cache`` (capacity/size)
reject       s → c  ``reason`` — protocol or service mismatch
place        c → s  ``id`` (client-chosen echo token), ``spec`` (a
                    :class:`~repro.serve.schema.PlacementRequest` payload)
result       s → c  ``id``, ``algorithm``, ``picks``, ``mean``,
                    ``median`` (:func:`~repro.serve.schema.encode_float`),
                    ``errors`` (:func:`~repro.serve.schema.encode_array`),
                    ``cache_hit``, ``fingerprint``, ``seconds``
error        s → c  ``id`` (when attributable), ``error``
heartbeat    both   liveness ping; the server echoes one back (a pong)
status       c → s  optional ``prom`` — reply carries request/cache/error
                    counters, or Prometheus text exposition
goodbye      c → s  clean exit
===========  =====  =====================================================

Concurrency model: the event loop owns all sockets; placement solves run
on a single dedicated compute thread (``run_in_executor``), so the
shared :class:`~repro.sim.incremental.FieldCache` and the world-component
caches stay single-threaded *by construction* while heartbeats, status
probes and new connections keep flowing during a long solve.  Repeat and
near-duplicate queries are allocation-light: the expected-LE map comes
from the fingerprint-keyed cache and the world components (grid, layout,
localizer, realization) from the process-local caches the sweep workers
already use.

Observability: every request runs under a ``serve.request`` span and
bumps ``serve.requests`` / ``serve.cache_hits`` / ``serve.errors``;
request latency lands in the ``serve.request_seconds`` histogram.  The
``status`` frame with ``"prom": true`` returns the same Prometheus text
exposition ``beaconplace status --prom`` renders.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..obs import (
    enable_metrics,
    get_metrics,
    get_tracer,
    metrics_enabled,
    snapshot_to_prometheus,
)
from ..sim.executors.wire import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    enable_nodelay,
    encode_frame,
    frame_service,
    _HEADER,
)
from ..sim.incremental import FieldCache
from .schema import PlacementRequest, encode_array, encode_float, solve_request

__all__ = [
    "SERVICE_NAME",
    "SERVE_PROTOCOL_VERSION",
    "PlacementServer",
    "read_stream_frame",
    "write_stream_frame",
]

#: Bumped whenever service frame semantics change; hello/welcome carry it.
SERVE_PROTOCOL_VERSION = 1

#: Advertised in the welcome frame; guards against pointing a placement
#: client at a sweep server (both speak the same byte framing).
SERVICE_NAME = "placement"


async def read_stream_frame(reader: asyncio.StreamReader) -> dict | None:
    """Receive one frame from an asyncio stream; ``None`` on clean close.

    Same hardening as :func:`repro.sim.executors.wire.recv_frame`: a close
    *inside* a frame (mid-header or mid-payload), an oversized length or a
    non-JSON payload raise :exc:`ProtocolError`.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # orderly shutdown at a frame boundary
        raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the protocol cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(payload)


async def write_stream_frame(writer: asyncio.StreamWriter, message: dict) -> int:
    """Serialize and send one frame on an asyncio stream; returns bytes."""
    data = encode_frame(message)
    writer.write(data)
    await writer.drain()
    return len(data)


class PlacementServer:
    """Serve placement queries to TCP clients.

    Args:
        bind: ``(host, port)`` to listen on; port 0 picks a free port
            (read it back from :attr:`address` after :meth:`start`).
        cache_capacity: expected-LE maps held in the shared
            :class:`FieldCache` (each is one float64 lattice array).
        heartbeat: advertised heartbeat interval, seconds.  Connections
            silent for ``3 ×`` this window are dropped.
        max_requests: optional total ``place``-request budget; once
            answered, :meth:`serve_forever` returns (CI smoke runs).
    """

    def __init__(
        self,
        bind=("127.0.0.1", 0),
        *,
        cache_capacity: int = 256,
        heartbeat: float = 30.0,
        max_requests: int | None = None,
    ):
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be positive, got {heartbeat}")
        if max_requests is not None and max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self._bind = tuple(bind)
        self.heartbeat = float(heartbeat)
        self.cache = FieldCache(capacity=cache_capacity)
        self.max_requests = max_requests
        self.requests = 0
        self.cache_hits = 0
        self.errors = 0
        self._server: asyncio.AbstractServer | None = None
        # One compute thread: solves serialize, the cache and the world-
        # component caches stay single-threaded, and the event loop keeps
        # answering heartbeats/status while a cold query builds its world.
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="place-serve"
        )
        self._done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()

    # -- Lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — where clients connect."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "PlacementServer":
        """Bind the listener and start accepting connections."""
        # A long-running service without live counters has no story to tell
        # `status --prom`; install a recording registry unless the caller
        # (an ObsSession run dir, a test) already did.
        if not metrics_enabled():
            enable_metrics()
        host, port = self._bind
        self._server = await asyncio.start_server(self._handle, host, port)
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (or the ``max_requests`` budget is spent).

        Shutdown is graceful: the listener closes first, then in-flight
        conversations get a short grace period to finish (a budgeted CI
        client still wants its trailing status/goodbye answered) before
        any stragglers are cancelled.
        """
        if self._server is None:
            await self.start()
        waiter = asyncio.create_task(self._done.wait())
        try:
            await waiter
        finally:
            waiter.cancel()
        self._server.close()
        await self._server.wait_closed()
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            _, pending = await asyncio.wait(
                pending, timeout=min(self.heartbeat, 5.0)
            )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def aclose(self) -> None:
        """Stop accepting connections and release the compute thread."""
        self._done.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._compute.shutdown(wait=False)

    # -- Request handling ----------------------------------------------------

    def _solve(self, request: PlacementRequest):
        """Run one solve on the compute thread (span + counters included)."""
        metrics = get_metrics()
        with get_tracer().span(
            "serve.request",
            algorithm=request.algorithm,
            fingerprint=request.fingerprint(),
        ):
            metrics.counter("serve.requests").inc()
            solution = solve_request(request, cache=self.cache)
        return solution

    async def _answer_place(self, writer, message: dict) -> None:
        request_id = message.get("id")
        metrics = get_metrics()
        started = time.perf_counter()
        try:
            request = PlacementRequest.from_payload(message.get("spec"))
            loop = asyncio.get_running_loop()
            solution = await loop.run_in_executor(
                self._compute, self._solve, request
            )
        except (TypeError, ValueError) as exc:
            self.errors += 1
            metrics.counter("serve.errors").inc()
            await write_stream_frame(
                writer, {"type": "error", "id": request_id, "error": str(exc)}
            )
            return
        elapsed = time.perf_counter() - started
        self.requests += 1
        if solution.cache_hit:
            self.cache_hits += 1
        metrics.histogram("serve.request_seconds").observe(elapsed)
        await write_stream_frame(
            writer,
            {
                "type": "result",
                "id": request_id,
                "algorithm": solution.algorithm,
                "picks": [[x, y] for x, y in solution.picks],
                "mean": encode_float(solution.base_mean),
                "median": encode_float(solution.base_median),
                "errors": encode_array(solution.errors),
                "cache_hit": solution.cache_hit,
                "fingerprint": solution.fingerprint,
                "seconds": elapsed,
            },
        )
        if self.max_requests is not None and self.requests >= self.max_requests:
            self._done.set()

    def _status_frame(self, message: dict) -> dict:
        if message.get("prom"):
            return {
                "type": "status",
                "prom": snapshot_to_prometheus(get_metrics().snapshot()),
            }
        return {
            "type": "status",
            "requests": self.requests,
            "errors": self.errors,
            "cache": {
                "hits": self.cache_hits,
                "size": len(self.cache),
                "capacity": self.cache.capacity,
            },
        }

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Result frames and heartbeat pongs are small and latency-
            # sensitive; never let Nagle sit on them.
            enable_nodelay(sock)
        metrics = get_metrics()
        metrics.counter("serve.connections").inc()
        try:
            hello = await asyncio.wait_for(
                read_stream_frame(reader), timeout=self.heartbeat * 3
            )
            if hello is None:
                return
            if (
                hello.get("type") != "hello"
                or hello.get("protocol") != SERVE_PROTOCOL_VERSION
                or frame_service(hello) != SERVICE_NAME
            ):
                await write_stream_frame(
                    writer,
                    {
                        "type": "reject",
                        "reason": (
                            f"expected hello for service {SERVICE_NAME!r} "
                            f"protocol {SERVE_PROTOCOL_VERSION} "
                            f"(got {hello.get('type')!r} protocol "
                            f"{hello.get('protocol')!r} service "
                            f"{frame_service(hello)!r})"
                        ),
                    },
                )
                return
            await write_stream_frame(
                writer,
                {
                    "type": "welcome",
                    "protocol": SERVE_PROTOCOL_VERSION,
                    "service": SERVICE_NAME,
                    "heartbeat": self.heartbeat,
                    "cache": {
                        "capacity": self.cache.capacity,
                        "size": len(self.cache),
                    },
                },
            )
            while True:
                message = await asyncio.wait_for(
                    read_stream_frame(reader), timeout=self.heartbeat * 3
                )
                if message is None:
                    return
                kind = message.get("type")
                if kind == "place":
                    await self._answer_place(writer, message)
                elif kind == "heartbeat":
                    await write_stream_frame(writer, {"type": "heartbeat"})
                elif kind == "status":
                    await write_stream_frame(writer, self._status_frame(message))
                elif kind == "goodbye":
                    return
                else:
                    self.errors += 1
                    metrics.counter("serve.errors").inc()
                    await write_stream_frame(
                        writer,
                        {
                            "type": "error",
                            "id": message.get("id"),
                            "error": f"unknown frame type {kind!r}",
                        },
                    )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # silent/dead peer; nothing to answer
        except ProtocolError as exc:
            metrics.counter("serve.protocol_errors").inc()
            try:
                await write_stream_frame(
                    writer, {"type": "error", "error": str(exc)}
                )
            except (ConnectionError, OSError, ProtocolError):
                pass
        finally:
            # Every reply already ran through drain(); close() flushes the
            # rest without an await that loop teardown could cancel.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
