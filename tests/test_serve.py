"""Tests for repro.serve: the placement service, its clients and schema.

The load-bearing property is **byte-identity**: a placement received over
the wire must equal :func:`repro.serve.solve_request` run locally — same
picks, same base statistics, same expected-LE bytes — across algorithms,
noise levels and fault-masked fields.  Everything else (handshake
rejection, error frames, heartbeats, cache counters, NaN-safe encoding)
guards the service around that contract.
"""

from __future__ import annotations

import asyncio
import struct
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.serve import (
    AsyncPlacementClient,
    PlacementClient,
    PlacementRequest,
    PlacementServer,
    PlacementServiceError,
    SERVE_PROTOCOL_VERSION,
    decode_array,
    decode_float,
    encode_array,
    encode_float,
    read_stream_frame,
    solve_request,
)
from repro.sim import (
    RetryPolicy,
    SocketExecutor,
    WorkerRejected,
    build_world,
    run_cells,
    run_worker,
)
from repro.sim.executors.wire import ProtocolError, recv_frame, send_frame
from repro.sim.incremental import FieldCache

# Small but non-trivial geometry: 49 lattice points, 16 grids.
TINY = dict(side=30.0, step=5.0, radio_range=10.0, num_grids=16, count=6)


def tiny_request(**overrides) -> PlacementRequest:
    spec = dict(TINY)
    spec.update(overrides)
    return PlacementRequest(**spec)


def _double(args):
    return args * 2


class ServerHarness:
    """A PlacementServer on a background event-loop thread."""

    def __init__(self, **kwargs):
        self._holder: dict = {}
        self._started = threading.Event()
        self._kwargs = kwargs
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(20), "server failed to start"

    def _run(self):
        async def body():
            server = PlacementServer(**self._kwargs)
            await server.start()
            self._holder["server"] = server
            self._holder["loop"] = asyncio.get_running_loop()
            self._started.set()
            await server.serve_forever()
            await server.aclose()

        asyncio.run(body())

    @property
    def server(self) -> PlacementServer:
        return self._holder["server"]

    @property
    def address(self):
        return self.server.address

    def stop(self):
        loop = self._holder.get("loop")
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.server._done.set)
        self._thread.join(10)


@pytest.fixture
def harness():
    h = ServerHarness(cache_capacity=16, heartbeat=5.0)
    yield h
    h.stop()


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    enable_metrics(registry)
    yield registry
    disable_metrics()


# -- Schema ------------------------------------------------------------------


class TestSchema:
    def test_payload_roundtrip(self):
        request = tiny_request(
            algorithm="greedy", k=2, subsample=2, noise=0.3,
            beacons=[[0, 1.0, 2.0], [4, 3.0, 4.5]],
        )
        rebuilt = PlacementRequest.from_payload(request.payload())
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_unknown_spec_field_rejected(self):
        payload = tiny_request().payload()
        payload["algorithmm"] = "grid"
        with pytest.raises(ValueError, match="algorithmm"):
            PlacementRequest.from_payload(payload)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            tiny_request(algorithm="psychic")
        with pytest.raises(ValueError, match="policy"):
            tiny_request(policy="wish")
        with pytest.raises(ValueError, match="noise"):
            tiny_request(noise=1.5)
        with pytest.raises(ValueError, match="positive"):
            tiny_request(side=-1.0)
        with pytest.raises(ValueError, match="beacon id"):
            tiny_request(beacons=[[-1, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\[id, x, y\]"):
            tiny_request(beacons=[[0, 1.0]])
        for name in ("seed", "count", "field_index", "num_grids", "k", "subsample"):
            for value in (1.5, float("inf"), float("nan"), "3", None):
                with pytest.raises(ValueError, match=f"{name} must be a finite int"):
                    tiny_request(**{name: value})
        for name in ("side", "step", "radio_range"):
            for value in (float("inf"), float("nan"), 10**400):
                with pytest.raises(ValueError, match=f"{name} must be a finite float"):
                    tiny_request(**{name: value})
        with pytest.raises(ValueError, match="beacon x must be a finite float"):
            tiny_request(beacons=[[0, float("inf"), 1.0]])
        with pytest.raises(ValueError, match="beacon y must be a finite float"):
            tiny_request(beacons=[[0, 1.0, float("nan")]])
        # The noise hash keys beacons by uint64, placed ones included.
        for beacon_id, k in ((2**70, 1), (2**64, 1), (2**64 - 1, 1), (2**64 - 2, 2)):
            with pytest.raises(ValueError, match="beacon id"):
                tiny_request(beacons=[[beacon_id, 1.0, 1.0]], algorithm="greedy", k=k)
        with pytest.raises(ValueError, match="beacon id"):
            tiny_request(beacons=[[0.5, 1.0, 1.0]])

    def test_integral_floats_normalize(self):
        request = tiny_request(count=6.0, field_index=1.0, seed=7.0, beacons=[[3.0, 1, 2]])
        assert request == tiny_request(field_index=1, seed=7, beacons=[[3, 1.0, 2.0]])
        assert type(request.count) is int and request.beacons == ((3, 1.0, 2.0),)
        assert tiny_request(beacons=[[2**64 - 3, 1.0, 1.0]], algorithm="greedy", k=2)

    def test_fingerprint_distinguishes_requests(self):
        assert tiny_request().fingerprint() != tiny_request(noise=0.3).fingerprint()
        assert (
            tiny_request(algorithm="max").fingerprint()
            != tiny_request(algorithm="grid").fingerprint()
        )

    def test_encode_float_tokens(self):
        assert encode_float(1.5) == 1.5
        assert encode_float(float("nan")) == "NaN"
        assert encode_float(float("inf")) == "Infinity"
        assert encode_float(float("-inf")) == "-Infinity"
        for value in (0.1 + 0.2, float("nan"), float("inf"), float("-inf")):
            decoded = decode_float(encode_float(value))
            assert decoded == value or (decoded != decoded and value != value)

    def test_encode_array_nan_bit_identity(self):
        values = np.array([1.0, float("nan"), float("-inf"), -0.0, 1e308])
        decoded = decode_array(encode_array(values))
        assert decoded.tobytes() == values.astype("<f8").tobytes()
        assert not decoded.flags.writeable

    def test_solve_request_uses_cache(self, metrics):
        cache = FieldCache(capacity=4)
        first = solve_request(tiny_request(), cache=cache)
        second = solve_request(tiny_request(algorithm="max"), cache=cache)
        assert not first.cache_hit
        assert second.cache_hit  # same field, different algorithm
        assert second.errors.tobytes() == first.errors.tobytes()
        assert metrics.counter("serve.cache_hits").value == 1


# -- Wire byte-identity (the tentpole property) -------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize(
        "algorithm,extra",
        [
            ("random", {}),
            ("max", {}),
            ("grid", {}),
            ("greedy", {"k": 2, "subsample": 2}),
        ],
    )
    def test_wire_matches_direct_call(self, harness, algorithm, noise, extra):
        request = tiny_request(algorithm=algorithm, noise=noise, **extra)
        direct = solve_request(request)
        with PlacementClient(harness.address) as client:
            wire = client.place(request)
        assert wire.algorithm == direct.algorithm
        assert wire.picks == direct.picks
        assert wire.base_mean == direct.base_mean or (
            wire.base_mean != wire.base_mean and direct.base_mean != direct.base_mean
        )
        assert wire.errors.tobytes() == direct.errors.tobytes()
        assert wire.fingerprint == direct.fingerprint

    def test_fault_masked_field_matches(self, harness):
        # Survivors keep their designed ids, so the realization's
        # propagation links match the pristine world's — the repo's
        # fault-mask convention, shipped explicitly over the wire.
        config = tiny_request().experiment_config()
        world = build_world(config, 0.3, TINY["count"], 0)
        survivors = [
            [b.beacon_id, b.position.x, b.position.y]
            for b in world.field
            if b.beacon_id not in (1, 3)
        ]
        request = tiny_request(noise=0.3, algorithm="max", beacons=survivors)
        direct = solve_request(request)
        with PlacementClient(harness.address) as client:
            wire = client.place(request)
        assert wire.picks == direct.picks
        assert wire.errors.tobytes() == direct.errors.tobytes()

    def test_async_client_matches_too(self, harness):
        request = tiny_request(algorithm="grid")
        direct = solve_request(request)

        async def round_trip():
            client = await AsyncPlacementClient.connect(harness.address)
            try:
                return await client.place(request)
            finally:
                await client.close()

        wire = asyncio.run(round_trip())
        assert wire.picks == direct.picks
        assert wire.errors.tobytes() == direct.errors.tobytes()


# -- Service behavior ---------------------------------------------------------


class TestService:
    def test_repeat_queries_hit_cache(self, harness):
        with PlacementClient(harness.address) as client:
            cold = client.place(tiny_request())
            warm = client.place(tiny_request())
            other = client.place(tiny_request(algorithm="random"))
        assert not cold.cache_hit
        assert warm.cache_hit
        assert other.cache_hit  # same field identity, different algorithm
        assert warm.picks == cold.picks

    def test_status_counts_and_prom(self, harness):
        with PlacementClient(harness.address) as client:
            client.place(tiny_request())
            client.place(tiny_request())
            status = client.status()
            prom = client.status(prom=True)["prom"]
        assert status["requests"] == 2
        assert status["cache"]["hits"] == 1
        assert status["cache"]["size"] == 1
        assert "beaconplace_serve_requests_total" in prom
        assert "beaconplace_serve_request_seconds" in prom

    def test_heartbeat_pong(self, harness):
        with PlacementClient(harness.address) as client:
            assert client.heartbeat()

    def test_welcome_advertises_protocol(self, harness):
        with PlacementClient(harness.address) as client:
            assert client.welcome["protocol"] == SERVE_PROTOCOL_VERSION
            assert client.welcome["service"] == "placement"

    def test_wrong_protocol_rejected(self, harness):
        import socket as socket_mod

        sock = socket_mod.create_connection(harness.address)
        try:
            send_frame(
                sock,
                {"type": "hello", "protocol": 999, "service": "placement"},
            )
            message, _ = recv_frame(sock)
            assert message["type"] == "reject"
            assert "protocol" in message["reason"]
        finally:
            sock.close()

    def test_bad_spec_answers_error_and_survives(self, harness):
        with PlacementClient(harness.address) as client:
            send_frame(
                client._sock,
                {"type": "place", "id": 7, "spec": {"algorithm": "psychic"}},
            )
            message = client._recv()
            assert message["type"] == "error"
            assert message["id"] == 7
            assert "algorithm" in message["error"]
            # The connection survives a bad request: a good one still works.
            solution = client.place(tiny_request())
            assert solution.picks

    @pytest.mark.parametrize(
        "spec_json",
        [
            '{"side": 1e400}',
            '{"beacons": [[%d, 1.0, 1.0]]}' % 2**70,
            '{"beacons": [[0, 1e400, 1.0]]}',
            '{"field_index": 1.5}',
        ],
        ids=["side-inf", "id-overflows-uint64", "coordinate-inf", "fractional-index"],
    )
    def test_out_of_range_spec_answers_error_and_survives(self, harness, spec_json):
        """Specs whose solve would overflow (or silently truncate) answer an
        error frame carrying their id; the connection stays usable."""
        with PlacementClient(harness.address) as client:
            payload = ('{"type": "place", "id": 9, "spec": %s}' % spec_json).encode()
            client._sock.sendall(struct.pack(">I", len(payload)) + payload)
            message = client._recv()
            assert message["type"] == "error" and message["id"] == 9
            assert client.status()["errors"] == 1
            assert client.place(tiny_request()).picks

    def test_unknown_frame_type_answers_error(self, harness):
        with PlacementClient(harness.address) as client:
            send_frame(client._sock, {"type": "dance", "id": 3})
            message = client._recv()
            assert message["type"] == "error"
            assert message["id"] == 3
            assert "dance" in message["error"]
            assert client.heartbeat()  # connection still usable

    def test_handshake_against_dead_server_raises(self):
        import socket as socket_mod

        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def accept_and_slam():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=accept_and_slam, daemon=True)
        thread.start()
        try:
            with pytest.raises(PlacementServiceError, match="handshake|closed"):
                PlacementClient(listener.getsockname(), retry_for=1.0)
        finally:
            listener.close()
            thread.join(5)

    def test_rejected_handshake_closes_client_sockets(self, monkeypatch):
        """Neither client leaves its connection open when the handshake
        fails: the caller never receives a client it could close."""
        import socket as socket_mod

        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)

        def reject_twice():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    recv_frame(conn)
                    send_frame(conn, {"type": "reject", "reason": "full"})

        thread = threading.Thread(target=reject_twice, daemon=True)
        thread.start()
        sockets, writers = [], []
        real_connect = socket_mod.create_connection
        real_open = asyncio.open_connection

        def recording_connect(*args, **kwargs):
            sockets.append(real_connect(*args, **kwargs))
            return sockets[-1]

        async def recording_open(*args, **kwargs):
            reader, writer = await real_open(*args, **kwargs)
            writers.append(writer)
            return reader, writer

        monkeypatch.setattr(socket_mod, "create_connection", recording_connect)
        monkeypatch.setattr(asyncio, "open_connection", recording_open)

        async def async_attempt():
            with pytest.raises(PlacementServiceError, match="rejected"):
                await AsyncPlacementClient.connect(listener.getsockname())
            return writers[0].is_closing()

        try:
            with pytest.raises(PlacementServiceError, match="rejected"):
                PlacementClient(listener.getsockname(), retry_for=1.0)
            assert sockets[0].fileno() == -1
            assert asyncio.run(async_attempt())
        finally:
            listener.close()
            thread.join(5)

    def test_max_requests_stops_server(self):
        harness = ServerHarness(cache_capacity=4, heartbeat=5.0, max_requests=2)
        try:
            with PlacementClient(harness.address) as client:
                client.place(tiny_request())
                client.place(tiny_request())
            harness._thread.join(10)
            assert not harness._thread.is_alive()
            assert harness.server.requests == 2
        finally:
            harness.stop()


class TestCrossService:
    """Sweep workers and placement clients share one framing; each server
    refuses the other's client with a reason instead of serving garbage."""

    def test_sweep_worker_rejected_by_placement_server(self, harness):
        with pytest.raises(WorkerRejected, match="service 'sweep'"):
            run_worker(harness.address, connect_timeout=5.0)
        with PlacementClient(harness.address) as client:
            assert client.heartbeat()  # the server carries on

    def test_placement_client_rejected_by_sweep_executor(self):
        """Refused before any batch is handed out, so the client's exit
        charges no cell — even with a single attempt per cell."""
        jobs = [((i,), i) for i in range(4)]
        registry = enable_metrics(MetricsRegistry())
        results = {}
        try:
            with SocketExecutor(chunk=8) as executor:
                sweep = threading.Thread(
                    target=lambda: results.update(
                        run_cells(
                            jobs,
                            _double,
                            executor=executor,
                            policy=RetryPolicy(max_attempts=1, backoff=0.0),
                        )
                    ),
                    daemon=True,
                )
                sweep.start()
                with pytest.raises(PlacementServiceError, match="sweep server"):
                    PlacementClient(executor.address, retry_for=5.0)
                worker = threading.Thread(
                    target=run_worker, args=(executor.address,),
                    kwargs={"connect_timeout": 5.0}, daemon=True,
                )
                worker.start()
                sweep.join(timeout=30.0)
            worker.join(timeout=15.0)
        finally:
            disable_metrics()
        assert results == {(i,): i * 2 for i in range(4)}
        assert registry.counter("sweep.cells.worker_death").value == 0

    @pytest.mark.parametrize(
        "welcome, connect, error",
        [
            (
                {"type": "welcome", "protocol": 1, "service": "placement"},
                lambda address: run_worker(address, connect_timeout=5.0),
                WorkerRejected,
            ),
            (
                {"type": "welcome", "protocol": 1, "fn": "builtins:abs"},
                lambda address: PlacementClient(address, retry_for=5.0),
                PlacementServiceError,
            ),
        ],
        ids=["worker-welcomed-by-placement", "client-welcomed-by-sweep"],
    )
    def test_clients_check_the_welcome_service(self, welcome, connect, error):
        """A server that welcomes the wrong client anyway (one that predates
        the check) is still refused by the client itself."""
        import socket as socket_mod

        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def welcome_anyone():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, welcome)
                recv_frame(conn)  # until the client hangs up

        thread = threading.Thread(target=welcome_anyone, daemon=True)
        thread.start()
        try:
            with pytest.raises(error, match="sweep"):
                connect(listener.getsockname())
        finally:
            listener.close()
            thread.join(5)


# -- Stream framing hardening -------------------------------------------------


class TestStreamFraming:
    def _read(self, feed: bytes):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(feed)
            reader.feed_eof()
            return await read_stream_frame(reader)

        return asyncio.run(body())

    def test_clean_close_returns_none(self):
        assert self._read(b"") is None

    @pytest.mark.parametrize("partial", [1, 2, 3])
    def test_mid_header_close_raises(self, partial):
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(struct.pack(">I", 16)[:partial])

    def test_mid_payload_close_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(struct.pack(">I", 16) + b"abc")

    def test_oversize_length_rejected(self):
        from repro.sim.executors.wire import MAX_FRAME_BYTES

        with pytest.raises(ProtocolError, match="cap"):
            self._read(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_untyped_frame_rejected(self):
        payload = b"[1,2]"
        with pytest.raises(ProtocolError, match="typed"):
            self._read(struct.pack(">I", len(payload)) + payload)


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_place_client_against_live_server(self, harness, capsys):
        host, port = harness.address
        code = main(
            [
                "place-client",
                "--connect", f"{host}:{port}",
                "--algorithm", "grid",
                "--side", str(TINY["side"]),
                "--radio-range", str(TINY["radio_range"]),
                "--beacons", str(TINY["count"]),
                "--repeat", "2",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        assert "grid:" in out.out
        assert "cache hit" in out.out

    def test_place_client_prom(self, harness, capsys):
        host, port = harness.address
        code = main(
            [
                "place-client",
                "--connect", f"{host}:{port}",
                "--side", str(TINY["side"]),
                "--radio-range", str(TINY["radio_range"]),
                "--beacons", str(TINY["count"]),
                "--prom",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        assert "beaconplace_serve_requests_total" in out.out

    def test_place_client_connection_refused(self, capsys):
        code = main(
            [
                "place-client",
                "--connect", "127.0.0.1:1",
                "--connect-timeout", "0.2",
            ]
        )
        out = capsys.readouterr()
        assert code == 1
        assert "error" in out.err

    def test_place_client_invalid_spec(self, capsys):
        code = main(
            ["place-client", "--connect", "127.0.0.1:1", "--noise", "7"]
        )
        out = capsys.readouterr()
        assert code == 1
        assert "noise" in out.err
