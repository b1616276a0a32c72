"""Span-based tracing to an append-only JSONL event file.

A *span* is one named, timed section of work with free-form attributes::

    with get_tracer().span("sweep.cell", noise=0.3, count=40, index=7):
        ...

Spans nest (the tracer tracks a per-thread stack of span ids, so records
carry both a ``depth`` and a resolvable ``parent``) and land in the trace
file as one flushed JSON line each, following the conventions of the sweep
journal (:class:`repro.sim.SweepJournal`): line 1 is a header record, every
other line is self-contained, lines are flushed as written, and a partial
trailing line from a killed process is tolerated by :func:`read_jsonl`, the
one loader of both files, and cut by :func:`open_jsonl_append` before
either writer appends.

Every span record also carries identity fields so a distributed run
stitches back into one tree (:func:`repro.obs.summary.stitch_trace`):

* ``trace`` — the run-wide trace id.  The driver mints it; executors ship
  it to workers in dispatch extras / the socket welcome, installed with
  :func:`set_trace_context`.
* ``span`` / ``parent`` — per-span ids.  A worker-side record's parent is
  the driver span that dispatched it, so driver → worker → cell edges
  resolve across process and machine boundaries.
* ``pid`` / ``host`` / optional ``worker`` — process metadata making each
  record attributable.

Workers usually have no tracer of their own: :func:`span_record` builds a
complete record against the installed remote context, the executor ships
it home in the outcome, and the driver writes it verbatim with
:meth:`Tracer.write_span_record` — the trace stays a single-writer file.

Like metrics, tracing is off by default: :data:`NULL_TRACER` hands out a
shared no-op context manager, so instrumented code costs one method call
and an ``with`` block — nanoseconds against cells that run for
milliseconds to seconds.
"""

from __future__ import annotations

import json
import os
import socket as _socket
import threading
import time
from pathlib import Path

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "read_jsonl",
    "open_jsonl_append",
    "read_trace",
    "new_trace_id",
    "set_trace_context",
    "clear_trace_context",
    "current_trace_context",
    "set_worker_id",
    "process_metadata",
    "span_record",
]

TRACE_VERSION = 2  # v2: span/trace ids + process metadata on every record

_host_cache: str | None = None

# Remote trace context installed on workers: {"trace": id, "parent": span id}.
# Thread-local so an in-process socket worker (tests run them on threads)
# cannot leak its context into the driver thread's spans.
_context_local = threading.local()
# Worker identity stamped onto records written by this process ("pool:1234").
_worker_id: str | None = None


def _remote() -> dict | None:
    return getattr(_context_local, "remote", None)


def _hostname() -> str:
    global _host_cache
    if _host_cache is None:
        try:
            _host_cache = _socket.gethostname()
        except OSError:
            _host_cache = "unknown"
    return _host_cache


def new_trace_id() -> str:
    """A fresh 64-bit hex id (used for both trace and span ids)."""
    return os.urandom(8).hex()


def set_trace_context(trace_id: str | None, parent_id: str | None = None) -> None:
    """Install the remote trace context shipped by the driver.

    Called worker-side when dispatch extras (pool chunk payloads, the
    socket welcome) carry a ``trace`` entry.  Records built afterwards via
    :func:`span_record` — and spans written by a local tracer with an empty
    stack — adopt this trace id and parent.  The context is per-thread.
    """
    if trace_id is None:
        _context_local.remote = None
    else:
        _context_local.remote = {"trace": str(trace_id), "parent": parent_id}


def clear_trace_context() -> None:
    """Drop any installed remote trace context."""
    set_trace_context(None)


def current_trace_context() -> dict | None:
    """The context to ship with a dispatch, or ``None`` when not tracing.

    On the driver this is the active tracer's trace id plus the innermost
    open span on the calling thread; in a worker that itself re-dispatches
    it relays the installed remote context.
    """
    tracer = get_tracer()
    if tracer.enabled:
        return {"trace": tracer.trace_id, "parent": tracer.current_span_id()}
    remote = _remote()
    if remote is not None:
        return dict(remote)
    return None


def set_worker_id(worker_id: str | None) -> None:
    """Stamp subsequent span records from this process with ``worker_id``."""
    global _worker_id
    _worker_id = None if worker_id is None else str(worker_id)


def process_metadata() -> dict:
    """Identity fields for this process: pid, host, optional worker id."""
    meta = {"pid": os.getpid(), "host": _hostname()}
    if _worker_id is not None:
        meta["worker"] = _worker_id
    return meta


def span_record(name: str, seconds: float, **attrs) -> dict:
    """A complete span record for work measured in this process.

    Built against the installed remote context (trace id + driver parent)
    and process metadata, without needing an active tracer — workers ship
    the dict home and the driver writes it with
    :meth:`Tracer.write_span_record`.
    """
    record = {
        "kind": "span",
        "name": name,
        "ts": time.time() - seconds,
        "dur": float(seconds),
        "depth": 0,
        "span": new_trace_id(),
        **process_metadata(),
    }
    remote = _remote()
    if remote is not None:
        record["trace"] = remote["trace"]
        if remote.get("parent"):
            record["parent"] = remote["parent"]
    if attrs:
        record["attrs"] = attrs
    return record


class _Span:
    """Context manager for one traced section (created by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_wall", "_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._wall = time.time()
        self._start = time.perf_counter()
        self._id = new_trace_id()
        self._tracer._stack().append(self._id)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        attrs = self._attrs
        if exc_type is not None:
            attrs = {**attrs, "error": exc_type.__name__}
        self._tracer._write(
            {
                "kind": "span",
                "name": self._name,
                "ts": self._wall,
                "dur": duration,
                "depth": len(stack),
                "trace": self._tracer.trace_id,
                "span": self._id,
                **self._tracer._parent_fields(stack),
                **process_metadata(),
                **({"attrs": attrs} if attrs else {}),
            }
        )


class _NullSpan:
    """Shared no-op span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class Tracer:
    """Writes span/event records to one JSONL file.

    Args:
        path: the trace file.  Created (with a header line) if missing;
            appended to otherwise, so several sweeps of one session share a
            file the way resumed runs share a journal.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        remote = _remote()
        self.trace_id = remote["trace"] if remote is not None else new_trace_id()
        self._handle = open_jsonl_append(self.path)
        fresh = self._handle.tell() == 0
        self._lock = threading.Lock()
        self._local = threading.local()
        if fresh:
            self._write(
                {
                    "kind": "header",
                    "format": "repro-trace",
                    "version": TRACE_VERSION,
                    "trace": self.trace_id,
                    "pid": os.getpid(),
                    "host": _hostname(),
                }
            )

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_fields(self, stack: list) -> dict:
        if stack:
            return {"parent": stack[-1]}
        remote = _remote()
        if remote is not None and remote.get("parent"):
            return {"parent": remote["parent"]}
        return {}

    @property
    def enabled(self) -> bool:
        """Whether records reach a file (False only for the null tracer)."""
        return True

    def current_span_id(self) -> str | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> _Span:
        """A context manager tracing one named section."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous event."""
        self._write(
            {
                "kind": "event",
                "name": name,
                "ts": time.time(),
                "trace": self.trace_id,
                **process_metadata(),
                **({"attrs": attrs} if attrs else {}),
            }
        )

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        """Record a span measured elsewhere (e.g. inside a pool worker).

        Pool cells time themselves in the worker; the parent calls this with
        the reported duration so the trace stays a single-writer file.  The
        record parents under the calling thread's innermost open span.
        """
        stack = self._stack()
        self._write(
            {
                "kind": "span",
                "name": name,
                "ts": time.time() - seconds,
                "dur": float(seconds),
                "depth": 0,
                "trace": self.trace_id,
                "span": new_trace_id(),
                **self._parent_fields(stack),
                **process_metadata(),
                **({"attrs": attrs} if attrs else {}),
            }
        )

    def write_span_record(self, record: dict) -> None:
        """Write a record built elsewhere (:func:`span_record`) verbatim.

        Used by executors to land worker-built spans — complete with the
        worker's pid/host/worker identity and the shipped parent id — in
        the driver's single-writer trace file.
        """
        self._write(dict(record))

    def _write(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the trace file."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class _NullTracer(Tracer):
    """The do-nothing tracer installed by default."""

    _SPAN = _NullSpan()

    def __init__(self):  # noqa: D107 — no file, no state
        self.trace_id = None

    @property
    def enabled(self) -> bool:
        return False

    def current_span_id(self) -> None:
        return None

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        pass

    def write_span_record(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = _NullTracer()
_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently installed tracer (the null tracer by default)."""
    return _active


def tracing_enabled() -> bool:
    """Whether a real (writing) tracer is installed."""
    return _active.enabled


def enable_tracing(path) -> Tracer:
    """Install a :class:`Tracer` writing to ``path``."""
    global _active
    if _active.enabled:
        _active.close()
    _active = Tracer(path)
    return _active


def disable_tracing() -> None:
    """Close any active tracer and restore the no-op null tracer."""
    global _active
    _active.close()
    _active = NULL_TRACER


def read_jsonl(path) -> list[dict]:
    """Every complete record of an append-only JSONL file, in order.

    Stops at the first line that does not parse — a killed writer's partial
    tail; lines before it are intact, being flushed one by one.  Callers
    check their own header record.
    """
    records: list[dict] = []
    with Path(path).open() as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return records


def open_jsonl_append(path):
    """Open an append-only JSONL file for appending, dropping a torn tail.

    A writer killed mid-line leaves a last line without its ``\\n``.
    Appending after it would glue the next record onto that partial line,
    where :func:`read_jsonl` stops, and every record written after the
    resume would be lost.  The file is created if missing.
    """
    path = Path(path)
    with path.open("ab+") as handle:
        keep = end = handle.seek(0, os.SEEK_END)
        while keep > 0:
            start = max(0, keep - 4096)
            handle.seek(start)
            newline = handle.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < end:
            handle.truncate(keep)
    return path.open("a")


def read_trace(path) -> tuple[dict, list[dict]]:
    """Load a trace file: ``(header, records)`` (via :func:`read_jsonl`).

    Raises:
        ValueError: if the file does not start with a trace header.
    """
    records = read_jsonl(path)
    header = records[0] if records else {}
    if header.get("kind") != "header" or header.get("format") != "repro-trace":
        raise ValueError(f"{path} is not a repro trace file (no header)")
    return header, records[1:]
