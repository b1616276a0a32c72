"""Tests for repro.sim.executors: serial/pool/socket backends, the wire
protocol, per-worker world caching and journal merging."""

import os
import socket as socket_mod
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.obs import (
    MetricsRegistry,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    merge_journals,
    read_trace,
)
from repro.placement import MaxPlacement, RandomPlacement
from repro.sim import (
    Curve,
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SocketExecutor,
    SweepJournal,
    WorkerRejected,
    build_world,
    make_executor,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    run_cells,
    run_worker,
    spawn_context,
    validate_workers,
)
from repro.sim.executors.base import cell_fn_ref, resolve_cell_fn, run_one_cell
from repro.sim.executors.cache import (
    cached_grid,
    cached_layout,
    clear_world_cache,
)
from repro.sim.executors.local import auto_chunk
from repro.sim.executors.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_payload,
    enable_nodelay,
    encode_frame,
    encode_payload,
    recv_frame,
    send_frame,
)


def _double(args):
    return args * 2


def _exit_on_die(args):
    # Kills its whole process — only ever run in a subprocess worker.
    if args == "die":
        os._exit(1)
    return args * 10


def _worker_process_main(host, port):
    from repro.sim.executors import run_worker as rw

    rw((host, port), connect_timeout=30.0)


class _WorkerThread(threading.Thread):
    """run_worker on a background thread, capturing its result/exception."""

    def __init__(self, address, **kwargs):
        super().__init__(daemon=True)
        self.address = address
        self.kwargs = kwargs
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = run_worker(self.address, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


# -- Wire protocol -----------------------------------------------------------


class TestWire:
    def test_frame_roundtrip_counts_bytes(self):
        a, b = socket_mod.socketpair()
        try:
            sent = send_frame(a, {"type": "hello", "protocol": 1})
            message, read = recv_frame(b)
            assert message == {"type": "hello", "protocol": 1}
            assert read == sent
        finally:
            a.close()
            b.close()

    def test_clean_close_returns_none(self):
        a, b = socket_mod.socketpair()
        a.close()
        try:
            assert recv_frame(b) == (None, 0)
        finally:
            b.close()

    def test_mid_frame_close_raises(self):
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", 16) + b"abc")  # promises 16, sends 3
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_length_rejected(self):
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_untyped_frame_rejected(self):
        a, b = socket_mod.socketpair()
        payload = b'{"no_type": 1}'
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(ProtocolError, match="typed"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_payload_roundtrip(self):
        args = (1.5, "stall", (2, 3), {"k": [None, True]})
        assert decode_payload(encode_payload(args)) == args

    @pytest.mark.parametrize("partial", [1, 2, 3])
    def test_mid_header_close_raises(self, partial):
        # A peer that dies 1-3 bytes into the 4-byte header left a torn
        # frame; this must NOT be reported as a clean (None, 0) close.
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", 16)[:partial])
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_mid_payload_close_raises(self):
        a, b = socket_mod.socketpair()
        payload = encode_frame({"type": "batch", "cells": list(range(100))})
        a.sendall(payload[:-5])  # full header, payload cut short
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_nan_bearing_frame_rejected(self, value):
        # Strict JSON: bare NaN/Infinity tokens are not parseable from
        # other languages, so the frame layer refuses them outright.
        a, b = socket_mod.socketpair()
        try:
            with pytest.raises(ProtocolError, match="non-finite"):
                send_frame(a, {"type": "heartbeat", "metric": value})
        finally:
            a.close()
            b.close()

    def test_nan_payload_rides_through_encode_payload(self):
        # The sanctioned route for non-finite values: pickle-in-base64.
        a, b = socket_mod.socketpair()
        try:
            send_frame(
                a,
                {"type": "result", "outcome": encode_payload(float("nan"))},
            )
            message, _ = recv_frame(b)
            decoded = decode_payload(message["outcome"])
            assert decoded != decoded  # NaN survived the trip
        finally:
            a.close()
            b.close()

    def test_encode_frame_oversize_rejected(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.executors.wire.MAX_FRAME_BYTES", 64
        )
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame({"type": "batch", "cells": ["x" * 200]})

    def test_decode_frame_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(b"[1, 2, 3]")

    def test_payload_fuzz_roundtrip(self):
        # Adversarial-ish payloads: deep nesting, non-finite floats, byte
        # strings, unicode astray, big ints — all must survive untouched.
        import math
        import random

        rng = random.Random(20010416)

        def scramble(depth=0):
            kind = rng.randrange(8 if depth < 4 else 6)
            if kind == 0:
                return rng.choice(
                    [float("nan"), float("inf"), float("-inf"), -0.0, 1e308]
                )
            if kind == 1:
                return rng.getrandbits(200) - 2**199
            if kind == 2:
                return bytes(rng.randrange(256) for _ in range(rng.randrange(32)))
            if kind == 3:
                return "".join(
                    chr(rng.randrange(1, 0x10000)) for _ in range(rng.randrange(16))
                )
            if kind == 4:
                return rng.choice([None, True, False])
            if kind == 5:
                return rng.random()
            if kind == 6:
                return [scramble(depth + 1) for _ in range(rng.randrange(4))]
            return {
                f"k{i}": scramble(depth + 1) for i in range(rng.randrange(4))
            }

        def equal(x, y):
            if isinstance(x, float):
                return (
                    isinstance(y, float)
                    and (x == y or (math.isnan(x) and math.isnan(y)))
                )
            if isinstance(x, list):
                return (
                    isinstance(y, list)
                    and len(x) == len(y)
                    and all(equal(a, b) for a, b in zip(x, y))
                )
            if isinstance(x, dict):
                return (
                    isinstance(y, dict)
                    and x.keys() == y.keys()
                    and all(equal(v, y[k]) for k, v in x.items())
                )
            return type(x) is type(y) and x == y

        for _ in range(200):
            obj = scramble()
            assert equal(decode_payload(encode_payload(obj)), obj)

    def test_enable_nodelay_tcp_and_nontcp(self):
        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket_mod.create_connection(listener.getsockname())
        try:
            enable_nodelay(client)
            assert client.getsockopt(
                socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY
            )
        finally:
            client.close()
            listener.close()
        # Non-TCP sockets (the socketpair tests use) must not blow up.
        a, b = socket_mod.socketpair()
        try:
            enable_nodelay(a)
        finally:
            a.close()
            b.close()


# -- Executor factory and helpers --------------------------------------------


class TestFactory:
    def test_default_dispatch(self):
        with make_executor(workers=1) as executor:
            assert isinstance(executor, SerialExecutor)
        with make_executor("pool", workers=1) as executor:
            assert isinstance(executor, PoolExecutor)
        with make_executor("socket") as executor:
            assert isinstance(executor, SocketExecutor)
            assert executor.address[1] != 0  # a real port was bound

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("telepathy")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            make_executor(workers=0)

    def test_oversubscription_warns_but_allows(self):
        too_many = (os.cpu_count() or 1) + 1
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            assert validate_workers(too_many) == too_many

    def test_sane_count_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_workers(1) == 1

    def test_spawn_context_pinned(self):
        assert spawn_context().get_start_method() == "spawn"

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            PoolExecutor(workers=1, chunk=0)
        with pytest.raises(ValueError, match="chunk"):
            SocketExecutor(chunk=0)

    def test_auto_chunk_bounds(self):
        assert auto_chunk(6, 2) == 1  # tiny sweeps keep per-cell dispatch
        assert auto_chunk(40, 2) == 5
        assert auto_chunk(4096, 2) == 16  # capped

    def test_cell_fn_ref_roundtrip(self):
        ref = cell_fn_ref(_double)
        assert resolve_cell_fn(ref) is _double

    def test_cell_fn_ref_rejects_locals(self):
        with pytest.raises(ValueError, match="module-level"):
            cell_fn_ref(lambda x: x)

    def test_resolve_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_cell_fn("no-colon-here")

    def test_run_one_cell_catches_exception(self):
        def boom(args):
            raise RuntimeError("kapow")

        outcome = run_one_cell(boom, None)
        assert outcome["ok"] is False
        assert "kapow" in outcome["error"]
        assert outcome["seconds"] >= 0.0

    def test_run_one_cell_instrumented_snapshot(self):
        outcome = run_one_cell(_double, 4, instrument=True)
        assert outcome == {
            "ok": True,
            "value": 8,
            "seconds": outcome["seconds"],
            "metrics": outcome["metrics"],
            "worker": outcome["worker"],
            "span": outcome["span"],
        }
        hist = outcome["metrics"]["histograms"]["sweep.cell.seconds"]
        assert hist["count"] == 1
        assert outcome["worker"]["pid"] == os.getpid()
        span = outcome["span"]
        assert span["name"] == "sweep.cell"
        assert span["pid"] == os.getpid()
        assert span["span"]


# -- Local backends ----------------------------------------------------------


class TestPoolChunking:
    def test_chunked_matches_unchunked(self):
        jobs = [((i,), i) for i in range(7)]
        with PoolExecutor(workers=2, chunk=5) as chunked:
            coarse = run_cells(jobs, _double, executor=chunked)
        with PoolExecutor(workers=2, chunk=1) as per_cell:
            fine = run_cells(jobs, _double, executor=per_cell)
        assert coarse == fine == {(i,): i * 2 for i in range(7)}


# -- Socket backend ----------------------------------------------------------


class TestSocketExecutor:
    def test_loopback_matches_serial(self):
        jobs = [((i,), i) for i in range(11)]
        serial = run_cells(jobs, _double)
        with SocketExecutor(chunk=4) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            via_socket = run_cells(jobs, _double, executor=executor)
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert worker.error is None
        assert worker.result == len(jobs)
        assert via_socket == serial

    def test_executor_reused_across_sessions(self):
        """One executor (and its worker) serves several sweeps, like a
        multi-panel figure does."""
        with SocketExecutor(chunk=3) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            first = run_cells([((i,), i) for i in range(5)], _double, executor=executor)
            second = run_cells([((i,), i + 100) for i in range(4)], _double, executor=executor)
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert worker.error is None
        assert first == {(i,): i * 2 for i in range(5)}
        assert second == {(i,): (i + 100) * 2 for i in range(4)}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        journal = SweepJournal.open(tmp_path / "j.jsonl", "fp-right")
        jobs = [((i,), i) for i in range(3)]
        done = threading.Event()
        results = {}

        def serve():
            results.update(
                run_cells(jobs, _double, executor=executor, journal=journal)
            )
            done.set()

        with SocketExecutor(chunk=2) as executor:
            server = threading.Thread(target=serve, daemon=True)
            server.start()
            with pytest.raises(WorkerRejected, match="fingerprint"):
                run_worker(
                    executor.address, fingerprint="fp-wrong", connect_timeout=5.0
                )
            good = _WorkerThread(
                executor.address, fingerprint="fp-right", connect_timeout=5.0
            )
            good.start()
            server.join(timeout=30.0)
            assert done.is_set()
        good.join(timeout=15.0)
        journal.close()
        assert good.error is None
        assert good.result == 3
        assert results == {(i,): i * 2 for i in range(3)}

    def test_worker_crash_mid_batch_requeues_innocent(self):
        """A worker dying mid-batch charges only the running cell; its
        batch-mates requeue and finish on the next worker."""
        ctx = spawn_context()
        jobs = [(("die",), "die")] + [((i,), i) for i in range(4)]
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            with SocketExecutor(chunk=8) as executor:
                host, port = executor.address
                victim = ctx.Process(
                    target=_worker_process_main, args=(host, port), daemon=True
                )
                victim.start()
                relief = {}

                def send_relief():
                    victim.join()
                    proc = ctx.Process(
                        target=_worker_process_main, args=(host, port), daemon=True
                    )
                    proc.start()
                    relief["proc"] = proc

                relief_thread = threading.Thread(target=send_relief, daemon=True)
                relief_thread.start()
                results = run_cells(
                    jobs,
                    _exit_on_die,
                    executor=executor,
                    policy=RetryPolicy(max_attempts=1, backoff=0.0),
                )
            relief_thread.join(timeout=30.0)
            relief["proc"].join(timeout=30.0)
        finally:
            disable_metrics()
        assert results[("die",)] is None  # charged, degraded to NaN
        assert results == {("die",): None, **{(i,): i * 10 for i in range(4)}}
        assert registry.counter("sweep.cells.worker_death").value == 1
        assert registry.counter("sweep.cells.requeued_innocent").value == 4
        assert registry.counter("executor.socket.requeues").value == 4

    def test_silent_connection_reaped_and_batch_requeued(self):
        """A worker silent for 3× the heartbeat interval — alive at the TCP
        level but sending neither results nor heartbeats — is declared dead
        and its whole batch requeues onto the next worker."""
        jobs = [((i,), i) for i in range(5)]
        registry = MetricsRegistry()
        enable_metrics(registry)
        silent_state = {}
        release = threading.Event()

        def silent_client(host, port):
            # Handshake like a real worker, accept one batch, then vanish
            # into silence: no heartbeats, no results, socket held open.
            sock = socket_mod.create_connection((host, port), timeout=10.0)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                welcome, _ = recv_frame(sock)
                silent_state["welcome"] = welcome
                batch, _ = recv_frame(sock)
                silent_state["batch"] = batch
                release.wait(timeout=30.0)
            finally:
                sock.close()

        try:
            with SocketExecutor(chunk=8, heartbeat=0.2) as executor:
                host, port = executor.address
                mute = threading.Thread(
                    target=silent_client, args=(host, port), daemon=True
                )
                mute.start()
                relief = {}

                def send_relief():
                    # Give the silent client time to claim the batch first.
                    time.sleep(0.3)
                    worker = _WorkerThread(executor.address, connect_timeout=10.0)
                    worker.start()
                    relief["worker"] = worker

                relief_thread = threading.Thread(target=send_relief, daemon=True)
                relief_thread.start()
                results = run_cells(
                    jobs,
                    _double,
                    executor=executor,
                    policy=RetryPolicy(max_attempts=2, backoff=0.0),
                )
                release.set()
            relief_thread.join(timeout=30.0)
            relief["worker"].join(timeout=15.0)
        finally:
            release.set()
            disable_metrics()
        mute.join(timeout=15.0)
        assert silent_state["welcome"]["type"] == "welcome"
        assert silent_state["batch"]["type"] == "batch"
        assert len(silent_state["batch"]["cells"]) == 5
        assert results == {(i,): i * 2 for i in range(5)}
        # The running cell is charged to the dead connection; batch-mates
        # requeue as innocents.  Everyone finishes on the relief worker.
        assert registry.counter("sweep.cells.worker_death").value == 1
        assert registry.counter("sweep.cells.requeued_innocent").value == 4

    @pytest.mark.parametrize(
        "frame, dropped",
        [
            ({"type": "result", "index": 0}, True),
            ({"type": "result", "index": 0, "outcome": "not base64!"}, True),
            ({"type": "result", "index": 0, "outcome": encode_payload([1, 2])}, True),
            ({"type": "result", "index": 0, "batch": [1]}, False),
            ({"type": "heartbeat", "status": [1, 2]}, True),
            ({"type": "heartbeat", "metrics": [1, 2]}, False),
        ],
        ids=[
            "result-without-outcome",
            "outcome-not-base64",
            "outcome-not-an-outcome",
            "unhashable-batch-id",
            "status-not-an-object",
            "metrics-not-an-object",
        ],
    )
    def test_malformed_worker_frame_stays_with_that_worker(self, frame, dropped):
        """One worker's bad frame never escapes the sweep.  A malformed field
        drops that worker like a lost one: its running cell is charged and
        the batch finishes on the next worker.  A stale batch id is ignored
        and a bad metrics delta only counted, as before."""
        jobs = [((i,), i) for i in range(4)]
        registry = MetricsRegistry()
        enable_metrics(registry)
        claimed = threading.Event()
        seen = {}

        def bad_worker(host, port):
            sock = socket_mod.create_connection((host, port), timeout=10.0)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)  # welcome
                batch, _ = recv_frame(sock)
                claimed.set()
                send_frame(sock, {"batch": batch["id"], **frame})
                if dropped:
                    seen["after"] = recv_frame(sock)
            finally:
                sock.close()

        try:
            with SocketExecutor(chunk=8) as executor:
                bad = threading.Thread(
                    target=bad_worker, args=executor.address, daemon=True
                )
                bad.start()
                relief = {}

                def send_relief():
                    claimed.wait(timeout=30.0)
                    worker = _WorkerThread(executor.address, connect_timeout=10.0)
                    worker.start()
                    relief["worker"] = worker

                relief_thread = threading.Thread(target=send_relief, daemon=True)
                relief_thread.start()
                results = run_cells(
                    jobs,
                    _double,
                    executor=executor,
                    policy=RetryPolicy(max_attempts=2, backoff=0.0),
                )
            relief_thread.join(timeout=30.0)
            relief["worker"].join(timeout=15.0)
            bad.join(timeout=15.0)
        finally:
            disable_metrics()
        assert results == {(i,): i * 2 for i in range(4)}
        assert relief["worker"].error is None
        assert registry.counter("sweep.cells.worker_death").value == 1
        assert registry.counter("executor.socket.bad_frames").value == int(dropped)
        if dropped:
            assert seen["after"] == (None, 0)  # the executor hung up on it
        if "metrics" in frame:
            assert registry.counter("executor.socket.bad_deltas").value == 1


class TestBackendsBitIdentical:
    def test_mean_error_curve_identical_across_backends(self, tiny_config):
        config = tiny_config.with_counts([8, 20])
        serial = resilient_mean_error_curve(config, 0.3)
        with PoolExecutor(workers=2, chunk=2) as pool:
            pooled = resilient_mean_error_curve(config, 0.3, executor=pool)
        with SocketExecutor(chunk=2) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            socketed = resilient_mean_error_curve(config, 0.3, executor=executor)
        worker.join(timeout=15.0)
        assert worker.error is None
        for got in (pooled, socketed):
            assert got.values == serial.values
            assert got.ci_half_widths == serial.ci_half_widths
            assert got.meta["failed_cells"] == 0

    def test_improvement_curvesets_identical_across_backends(self, tiny_config):
        config = tiny_config.with_counts([8])
        algorithms = [RandomPlacement(), MaxPlacement()]
        serial_sets = resilient_placement_improvement_curves(config, 0.0, algorithms)
        with PoolExecutor(workers=2, chunk=2) as pool:
            pool_sets = resilient_placement_improvement_curves(
                config, 0.0, algorithms, executor=pool
            )
        with SocketExecutor(chunk=2) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            socket_sets = resilient_placement_improvement_curves(
                config, 0.0, algorithms, executor=executor
            )
        worker.join(timeout=15.0)
        assert worker.error is None
        for got_sets in (pool_sets, socket_sets):
            for got_set, want_set in zip(got_sets, serial_sets):
                for got, want in zip(got_set.curves, want_set.curves):
                    assert got.values == want.values
                    assert got.ci_half_widths == want.ci_half_widths

    def test_serial_executor_matches_per_world_loop(self, tiny_config):
        """The in-process backend plans its cells through the batched
        kernels; a plain loop over scalar ``TrialWorld`` evaluations is the
        reference it must match bit for bit."""
        config = tiny_config.with_counts([8, 20])
        curve = mean_error_curve(config, 0.3, executor=SerialExecutor())
        samples = [
            np.array([
                build_world(config, 0.3, count, index).error_surface().mean_error()
                for index in range(config.fields_per_density)
            ])
            for count in config.beacon_counts
        ]
        want = Curve.from_samples(
            "Noise=0.3", config.beacon_counts, config.densities(), samples,
            confidence=config.confidence,
        )
        assert curve.label == want.label
        assert curve.values == want.values
        assert curve.ci_half_widths == want.ci_half_widths

    def test_improvement_two_workers_match_serial(self, tiny_config):
        config = tiny_config.with_counts([8, 20])
        algorithms = [RandomPlacement(), MaxPlacement()]
        serial_sets = placement_improvement_curves(config, 0.0, algorithms)
        with PoolExecutor(workers=2) as pool:
            pool_sets = placement_improvement_curves(
                config, 0.0, algorithms, executor=pool
            )
        for got_set, want_set in zip(pool_sets, serial_sets):
            for got, want in zip(got_set.curves, want_set.curves):
                assert got.values == want.values

    def test_duplicate_names_rejected_before_dispatch(self, tiny_config):
        with PoolExecutor(workers=2) as pool:
            with pytest.raises(ValueError, match="unique"):
                placement_improvement_curves(
                    tiny_config, 0.0, [RandomPlacement(), RandomPlacement()],
                    executor=pool,
                )
            assert pool._pool is None  # no worker was ever started

    def test_aliases_are_the_drivers(self):
        assert resilient_mean_error_curve is mean_error_curve
        assert resilient_placement_improvement_curves is placement_improvement_curves

    def test_run_cells_span_names_executor(self, tiny_config, tmp_path):
        """The span records the backend the cells ran on, not a worker
        count."""
        enable_tracing(tmp_path / "trace.jsonl")
        try:
            with PoolExecutor(workers=2, chunk=2) as pool:
                mean_error_curve(tiny_config.with_counts([8]), 0.0, executor=pool)
            mean_error_curve(tiny_config.with_counts([8]), 0.0)
        finally:
            disable_tracing()
        _, records = read_trace(tmp_path / "trace.jsonl")
        spans = [r for r in records if r["name"] == "sweep.run_cells"]
        assert [s["attrs"]["executor"] for s in spans] == [
            "PoolExecutor", "SerialExecutor",
        ]
        assert all("workers" not in s["attrs"] for s in spans)


class TestParallelMeanError:
    def test_two_workers_match_serial(self, tiny_config):
        """Determinism survives a spawn pool: named streams, no shared
        state."""
        serial = mean_error_curve(tiny_config, 0.0)
        with PoolExecutor(workers=2) as pool:
            pooled = mean_error_curve(tiny_config, 0.0, executor=pool)
        assert pooled.label == serial.label
        assert pooled.values == serial.values
        assert pooled.ci_half_widths == serial.ci_half_widths

    def test_label_default(self, tiny_config):
        assert mean_error_curve(tiny_config, 0.0).label == "Ideal"


# -- World-component cache ---------------------------------------------------


class TestWorldCache:
    def test_identical_objects_and_counters(self):
        clear_world_cache()
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            first = cached_grid(60.0, 3.0)
            again = cached_grid(60.0, 3.0)
            assert first is again
            layout = cached_layout(60.0, 12.0, 100)
            assert cached_layout(60.0, 12.0, 100) is layout
            assert registry.counter("worldcache.misses").value == 2
            assert registry.counter("worldcache.hits").value == 2
        finally:
            disable_metrics()
            clear_world_cache()

    def test_build_world_shares_components_across_cells(self, tiny_config):
        from repro.sim.sweep import build_world

        one = build_world(tiny_config, 0.0, 8, 0)
        two = build_world(tiny_config, 0.0, 8, 1)
        assert one.grid is two.grid
        assert one.layout is two.layout
        assert one.localizer is two.localizer
        # Distinct per-cell state is still per-cell.
        assert one.field is not two.field


# -- Journal merging ---------------------------------------------------------


def _write_journal(path, fingerprint, cells):
    with SweepJournal.open(path, fingerprint) as journal:
        for key, value in cells:
            journal.record(key, ok=True, value=value, attempts=1)


class TestJournalMerge:
    def test_last_writer_wins(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0), ((1,), 2.0)])
        _write_journal(b, "fp", [((1,), 20.0), ((2,), 3.0)])
        out = tmp_path / "merged.jsonl"
        stats = merge_journals(out, [a, b])
        assert stats.inputs == 2
        assert stats.cells == 3
        assert stats.superseded == 1
        merged = SweepJournal.open(out, "fp")
        assert merged.entry((1,))["value"] == 20.0  # b came last
        assert merged.entry((0,))["value"] == 1.0

    def test_mismatched_fingerprints_refused(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp-one", [((0,), 1.0)])
        _write_journal(b, "fp-two", [((1,), 2.0)])
        with pytest.raises(ValueError, match="different sweeps"):
            merge_journals(tmp_path / "merged.jsonl", [a, b])

    def test_output_may_be_an_input(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0)])
        _write_journal(b, "fp", [((1,), 2.0)])
        stats = merge_journals(a, [a, b])
        assert stats.cells == 2
        merged = SweepJournal.open(a, "fp")
        assert len(merged) == 2

    def test_cli_merge_round_trip(self, capsys, tmp_path, monkeypatch, tiny_config):
        """Shards of a real sweep merge into a journal that resumes the
        full sweep without recomputing anything."""
        config = tiny_config.with_counts([8, 20])
        path = tmp_path / "full.jsonl"
        full = resilient_mean_error_curve(config, 0.0, journal_path=path)
        lines = path.read_text().splitlines()
        header, cells = lines[0], lines[1:]
        mid = len(cells) // 2
        shard_a = tmp_path / "shard_a.jsonl"
        shard_b = tmp_path / "shard_b.jsonl"
        shard_a.write_text("\n".join([header] + cells[:mid]) + "\n")
        shard_b.write_text("\n".join([header] + cells[mid:]) + "\n")
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["journal", "--merge", str(merged), str(shard_a), str(shard_b)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged 2 journal(s)" in out

        def poison(args):
            raise AssertionError("cell recomputed despite merged journal")

        monkeypatch.setattr("repro.sim.resilient._mean_error_cell", poison)
        resumed = resilient_mean_error_curve(config, 0.0, journal_path=merged)
        assert resumed.values == full.values

    def test_cli_merge_mismatch_fails(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp-one", [((0,), 1.0)])
        _write_journal(b, "fp-two", [((1,), 2.0)])
        code = main(["journal", "--merge", str(tmp_path / "out.jsonl"), str(a), str(b)])
        assert code == 1
        assert "different sweeps" in capsys.readouterr().err

    def test_cli_multiple_paths_need_merge(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0)])
        _write_journal(b, "fp", [((1,), 2.0)])
        assert main(["journal", str(a), str(b)]) == 1
        assert capsys.readouterr().err != ""


# -- CLI parsing -------------------------------------------------------------


class TestExecutorCLI:
    def test_executor_flag_parses(self):
        args = build_parser().parse_args(
            ["--executor", "socket", "--bind", "0.0.0.0:9000", "reproduce", "fig4"]
        )
        assert args.executor == "socket"
        assert args.bind == ("0.0.0.0", 9000)

    def test_executor_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--executor", "telepathy", "reproduce", "fig4"])

    def test_chunk_flag_parses(self):
        args = build_parser().parse_args(["--chunk", "5", "reproduce", "fig4"])
        assert args.chunk == 5

    def test_bad_hostport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--bind", "no-port", "reproduce", "fig4"])

    def test_worker_parses(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.7:9000", "--fingerprint", "abc"]
        )
        assert args.command == "worker"
        assert args.connect == ("10.0.0.7", 9000)
        assert args.fingerprint == "abc"
        assert args.connect_timeout == 10.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_serve_parses(self):
        args = build_parser().parse_args(["serve", "fig4"])
        assert args.command == "serve"
        assert args.figure == "fig4"

    def test_worker_against_dead_address_fails(self, capsys):
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "0.1"]
        ) == 1
        assert "no sweep server" in capsys.readouterr().err
