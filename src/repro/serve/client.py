"""Clients for the placement service: blocking and asyncio flavors.

:class:`PlacementClient` is the ergonomic one — ``beaconplace
place-client`` and the tests use it; one blocking socket, connect-with-
retry, handshake on connect.  :class:`AsyncPlacementClient` is the same
conversation on asyncio streams, for callers that multiplex many
connections from one thread (``benchmarks/bench_serve.py`` drives
thousands of them).

Both return :class:`~repro.serve.schema.PlacementSolution` objects
reconstructed from the wire — picks and statistics round-trip through
JSON's exact ``repr`` floats and the base64 array block, so a solution
received here is byte-identical to :func:`~repro.serve.schema.solve_request`
run locally (the property ``tests/test_serve.py`` pins).
"""

from __future__ import annotations

import asyncio
import socket
import time

from ..sim.executors.wire import (
    ProtocolError,
    enable_nodelay,
    recv_frame,
    send_frame,
)
from .schema import (
    PlacementRequest,
    PlacementSolution,
    decode_array,
    decode_float,
)

__all__ = ["AsyncPlacementClient", "PlacementClient", "PlacementServiceError"]


class PlacementServiceError(RuntimeError):
    """The server answered with an error (or reject) frame."""


def _hello_frame() -> dict:
    from .server import SERVE_PROTOCOL_VERSION, SERVICE_NAME

    return {
        "type": "hello",
        "protocol": SERVE_PROTOCOL_VERSION,
        "service": SERVICE_NAME,
    }


def _check_welcome(message: dict | None) -> dict:
    if message is None:
        raise PlacementServiceError("server closed the connection during handshake")
    if message.get("type") == "reject":
        raise PlacementServiceError(f"server rejected handshake: {message.get('reason')}")
    if message.get("type") != "welcome":
        raise PlacementServiceError(f"expected welcome, got {message.get('type')!r}")
    return message


def _decode_result(message: dict | None, request_id) -> PlacementSolution:
    if message is None:
        raise PlacementServiceError("server closed the connection mid-request")
    if message.get("type") == "error":
        raise PlacementServiceError(str(message.get("error")))
    if message.get("type") != "result" or message.get("id") != request_id:
        raise PlacementServiceError(
            f"unexpected frame {message.get('type')!r} (id {message.get('id')!r})"
        )
    return PlacementSolution(
        algorithm=message["algorithm"],
        picks=tuple((float(x), float(y)) for x, y in message["picks"]),
        base_mean=decode_float(message["mean"]),
        base_median=decode_float(message["median"]),
        errors=decode_array(message["errors"]),
        cache_hit=bool(message["cache_hit"]),
        fingerprint=message.get("fingerprint"),
    )


class PlacementClient:
    """Blocking placement-service client.

    Args:
        address: server ``(host, port)``.
        timeout: per-frame socket timeout, seconds.
        retry_for: keep retrying the initial connect for this many seconds
            (covers "client raced the server's bind" in scripts and CI).
    """

    def __init__(self, address, *, timeout: float = 60.0, retry_for: float = 10.0):
        host, port = address
        deadline = time.monotonic() + retry_for
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
        enable_nodelay(self._sock)
        self._sock.settimeout(timeout)
        self._next_id = 0
        try:
            send_frame(self._sock, _hello_frame())
            try:
                welcome = self._recv()
            except (ConnectionError, ProtocolError) as exc:
                # A peer that slams the door on our hello may RST before the
                # unread frame drains — still a handshake failure, not a crash.
                raise PlacementServiceError(f"handshake failed: {exc}") from exc
            self.welcome = _check_welcome(welcome)
        except BaseException:
            self._sock.close()  # no caller holds a client to close
            raise

    def _recv(self) -> dict | None:
        message, _ = recv_frame(self._sock)
        return message

    def __enter__(self) -> "PlacementClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def place(self, request: PlacementRequest) -> PlacementSolution:
        """Ship one request; block for (and decode) the solution."""
        self._next_id += 1
        request_id = self._next_id
        send_frame(
            self._sock,
            {"type": "place", "id": request_id, "spec": request.payload()},
        )
        return _decode_result(self._recv(), request_id)

    def heartbeat(self) -> bool:
        """Ping the server; True when it pongs."""
        send_frame(self._sock, {"type": "heartbeat"})
        message = self._recv()
        return message is not None and message.get("type") == "heartbeat"

    def status(self, *, prom: bool = False) -> dict:
        """Fetch server counters (or Prometheus text when ``prom``)."""
        send_frame(self._sock, {"type": "status", "prom": bool(prom)})
        message = self._recv()
        if message is None or message.get("type") != "status":
            raise PlacementServiceError(
                f"expected status, got {None if message is None else message.get('type')!r}"
            )
        return message

    def close(self) -> None:
        """Say goodbye and release the socket."""
        try:
            send_frame(self._sock, {"type": "goodbye"})
        except (OSError, ProtocolError):
            pass
        self._sock.close()


class AsyncPlacementClient:
    """Asyncio placement-service client (one stream pair per instance).

    Usage::

        client = await AsyncPlacementClient.connect(server.address)
        solution = await client.place(request)
        await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self.welcome: dict | None = None

    @classmethod
    async def connect(cls, address) -> "AsyncPlacementClient":
        from .server import read_stream_frame, write_stream_frame

        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            enable_nodelay(sock)
        client = cls(reader, writer)
        try:
            await write_stream_frame(writer, _hello_frame())
            try:
                welcome = await read_stream_frame(reader)
            except (ConnectionError, ProtocolError) as exc:
                raise PlacementServiceError(f"handshake failed: {exc}") from exc
            client.welcome = _check_welcome(welcome)
        except BaseException:
            writer.close()  # no caller holds a client to close
            raise
        return client

    async def place(self, request: PlacementRequest) -> PlacementSolution:
        from .server import read_stream_frame, write_stream_frame

        self._next_id += 1
        request_id = self._next_id
        await write_stream_frame(
            self._writer,
            {"type": "place", "id": request_id, "spec": request.payload()},
        )
        return _decode_result(await read_stream_frame(self._reader), request_id)

    async def heartbeat(self) -> bool:
        from .server import read_stream_frame, write_stream_frame

        await write_stream_frame(self._writer, {"type": "heartbeat"})
        message = await read_stream_frame(self._reader)
        return message is not None and message.get("type") == "heartbeat"

    async def close(self) -> None:
        from .server import write_stream_frame

        try:
            await write_stream_frame(self._writer, {"type": "goodbye"})
        except (OSError, ProtocolError, ConnectionError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass
