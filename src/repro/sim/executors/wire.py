"""Wire protocol for socket sweeps: length-prefixed JSON frames.

Every frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON — trivially parseable from any language, debuggable
with a hex dump, and immune to message boundaries drifting on slow links.
The JSON envelope carries a ``"type"`` plus type-specific fields:

===========  =====  =====================================================
type         dir    fields
===========  =====  =====================================================
hello        w → s  ``protocol``, optional ``fingerprint``
welcome      s → w  ``protocol``, ``fingerprint``, ``fn`` (module:qualname
                    reference), ``instrument``, ``heartbeat`` (seconds),
                    optional ``extras`` (shm handle, trace context — see
                    ``base.dispatch_extras``)
reject       s → w  ``reason`` — protocol or fingerprint mismatch
batch        s → w  ``id``, ``cells``: list of ``{"key": […], "args": …}``
result       w → s  ``batch``, ``index``, ``outcome`` (one cell, streamed
                    as soon as it finishes — crash accounting stays exact)
heartbeat    w → s  liveness while a long cell runs; optionally ``status``
                    (pid/host/worker, cells completed, current cell key)
                    and ``metrics`` (a registry snapshot *delta*, merged
                    into the driver registry on receipt)
drain        s → w  ``{}`` — no more batches; finish and say goodbye
goodbye      w → s  clean exit; optional ``metrics`` — the worker's final
                    unshipped session delta
===========  =====  =====================================================

Optional fields are additive: version-1 peers that omit them interoperate
with peers that send them, so old workers join new servers and vice versa.

Cell ``args``, result values and shipped metrics snapshots are arbitrary
Python objects (configs, fault models, algorithm instances), so they ride
inside the JSON as base64-pickled strings (:func:`encode_payload` /
:func:`decode_payload`) — the same fidelity process pools get from pickled
task tuples.  Pickle means the socket backend trusts its peers: run it on
networks you control, exactly like every other cluster job runner.

The envelope itself is strict JSON: :func:`send_frame` refuses NaN and
Infinity (``allow_nan=False``) rather than emitting the bare ``NaN`` /
``Infinity`` tokens Python's encoder would otherwise produce — those are
not JSON and break the "parseable from any language" contract.  Payloads
that legitimately carry non-finite floats (an all-beacons-down LE metric,
say) must ride through :func:`encode_payload`, or as the explicit
``{"dtype", "shape", "data"}`` base64 array encoding the placement
service uses.

The byte-level framing is exposed as :func:`encode_frame` /
:func:`decode_frame` so transports other than blocking sockets (the
asyncio placement service in :mod:`repro.serve`) reuse exactly the same
hardened envelope — one place validates lengths, JSON and frame typing.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_frame",
    "decode_payload",
    "enable_nodelay",
    "encode_frame",
    "encode_payload",
    "recv_frame",
    "send_frame",
]

#: Bumped whenever frame semantics change; hello/welcome both carry it.
PROTOCOL_VERSION = 1

#: Refuse frames beyond this size — a corrupt length prefix must not
#: trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent something the wire protocol does not allow."""


def encode_payload(obj) -> str:
    """Pickle an arbitrary object into a JSON-safe base64 string."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str):
    """Invert :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def encode_frame(message: dict) -> bytes:
    """Serialize one frame (header + payload) to wire bytes.

    Strict JSON only: a message carrying NaN or Infinity raises
    :exc:`ProtocolError` instead of emitting tokens no cross-language
    parser accepts — wrap such values with :func:`encode_payload`.
    """
    try:
        payload = json.dumps(
            message, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except ValueError as exc:
        raise ProtocolError(
            "frame contains non-finite numbers (NaN/Infinity are not JSON); "
            "ship such values through encode_payload instead"
        ) from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the protocol cap")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Validate and parse one frame payload into its typed message."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed object: {message!r}")
    return message


def send_frame(sock: socket.socket, message: dict) -> int:
    """Serialize and send one frame; returns bytes put on the wire."""
    data = encode_frame(message)
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` only on a close at a boundary.

    A peer that disappears *after* sending part of the requested span left
    a torn frame on the wire — that is a protocol error, not a clean
    end-of-stream, so partial reads raise instead of masquerading as an
    orderly shutdown.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # orderly shutdown at a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict | None, int]:
    """Receive one frame; ``(message, bytes_read)``.

    ``message`` is ``None`` when the peer closed the connection at a frame
    boundary (a clean end-of-stream, not an error).  A close *inside* a
    frame — even one or two bytes into the 4-byte header — an oversized
    length or non-JSON payload raise :exc:`ProtocolError`.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None, 0
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the protocol cap")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_frame(payload), _HEADER.size + length


def enable_nodelay(sock: socket.socket) -> None:
    """Best-effort ``TCP_NODELAY`` on ``sock``.

    Every frame this protocol ships is small (a per-cell result, a
    heartbeat, a placement response header) and latency-sensitive; Nagle
    batching such writes adds up to one delayed-ACK round trip (~40 ms on
    Linux loopback) per frame for nothing.  Non-TCP sockets (the
    ``socketpair`` used in tests) simply ignore the request.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
