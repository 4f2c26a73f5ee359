"""Async flow-daemon concurrency suite (in-process daemon).

Each test boots a real :class:`FlowService` on a background thread —
real unix socket, real asyncio loop, real executor — against a
throwaway artifact store, then hammers it with blocking
:class:`ServiceClient` threads exactly as external processes would.

Contracts locked here:

* N concurrent *identical* submissions run the flow exactly once —
  every arrival either joins the in-flight future (dedup) or replays
  the finished artifact, observable through the ``service.*`` metrics
  the ``status`` op reports (at any ``flow_workers`` count);
* distinct requests are independent — two seeds, two computes, two
  report digests;
* a worker that crashes mid-flow surfaces the error to its waiters,
  leaves **no** flow artifact in the store (completed prepare-stage
  artifacts are fine — they are whole), clears the in-flight table,
  and the daemon keeps serving;
* socket hygiene — a stale socket file is reclaimed, a live one
  refuses a second daemon;
* request decoding — every JSON value decodes to a
  :class:`FlowRequest` or a ``ServiceError``; the CLI flags and the
  daemon reject the same out-of-range value for every field; and the
  local ``repro flow`` and the daemon build the same flow.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import shutil
import socket
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.harness.request import FlowRequest, decode_flow_request
from repro.obs import metrics
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.daemon import (FlowService, ServiceConfig,
                                  ServiceError, start_in_thread)

BENCH = "maeri16_hetero"


class _Counters:
    """Delta view over the process-global metrics registry."""

    _NAMES = ("service.flow_computes", "service.dedup_hits",
              "service.flow_summary_hits", "service.flow_report_hits",
              "service.errors", "store.puts.flow.report",
              "store.puts.flow.summary", "store.hits.prepare.design")

    def __init__(self):
        self._base = {n: metrics.counter(n) for n in self._NAMES}

    def delta(self, name: str) -> float:
        return metrics.counter(name) - self._base[name]

    def replays(self) -> float:
        return (self.delta("service.dedup_hits")
                + self.delta("service.flow_summary_hits")
                + self.delta("service.flow_report_hits"))


class _Daemon:
    def __init__(self, handle, socket_path, store_root):
        self.handle = handle
        self.socket_path = socket_path
        self.store_root = store_root

    def client(self, timeout: float = 300.0) -> ServiceClient:
        return ServiceClient(self.socket_path, timeout=timeout)

    def flow_blobs(self) -> list:
        objects = os.path.join(self.store_root, "objects")
        found = []
        for sub, _dirs, files in os.walk(objects):
            found += [f for f in files if f.startswith("flow.")]
        return found


def _start(tmp_path, flow_workers: int = 1) -> _Daemon:
    # Unix socket paths are length-limited (~104 bytes); pytest tmp
    # dirs can blow that, so sockets live in their own short dir.
    sockdir = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
    store_root = str(tmp_path / "store")
    config = ServiceConfig(socket_path=os.path.join(sockdir, "s.sock"),
                           store_root=store_root,
                           flow_workers=flow_workers)
    handle = start_in_thread(config)
    return _Daemon(handle, config.socket_path, store_root)


@pytest.fixture()
def daemon(tmp_path):
    running = _start(tmp_path)
    yield running
    running.handle.stop()
    shutil.rmtree(os.path.dirname(running.socket_path),
                  ignore_errors=True)


def _submit_many(daemon: _Daemon, payloads: list[dict]) -> list[dict]:
    """Fire all payloads at the daemon simultaneously (one thread
    each, barrier-released) and collect the responses in order."""
    responses: list = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def worker(idx: int, payload: dict) -> None:
        client = daemon.client()
        barrier.wait()
        responses[idx] = client.submit_flow(**payload)

    threads = [threading.Thread(target=worker, args=(i, p))
               for i, p in enumerate(payloads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert all(r is not None for r in responses)
    return responses


def _flow_config(request: dict):
    from repro.service.daemon import decode_flow_request
    return decode_flow_request(request).flow_inputs()


class TestRequestParsing:
    def test_explicit_seed_zero_is_honored(self):
        """Regression: ``or``-defaulting silently replaced an explicit
        seed=0 with the default experiment seed."""
        from repro.harness.designs import DEFAULT_EXPERIMENT_SEED

        assert DEFAULT_EXPERIMENT_SEED != 0
        _, _, seeds = _flow_config({"benchmark": BENCH, "seed": 0})
        assert seeds.seed == 0
        _, _, defaulted = _flow_config({"benchmark": BENCH})
        assert defaulted.seed == DEFAULT_EXPERIMENT_SEED

    def test_defaults_are_filled_before_dedup(self):
        """``{}`` and the same request spelled out with every default
        decode to one dedup key; so do 1500 and 1500.0 MHz."""
        from repro.harness.designs import (DEFAULT_EXPERIMENT_SEED,
                                           get_benchmark)
        from repro.service.daemon import decode_flow_request

        freq = get_benchmark("maeri16_hetero").target_freq_mhz
        implicit = decode_flow_request({})
        explicit = decode_flow_request({
            "benchmark": "maeri16_hetero", "selector": "gnn",
            "seed": DEFAULT_EXPERIMENT_SEED, "with_scan": False,
            "dft_strategy": None, "freq_mhz": int(freq), "workers": 1,
            "save_report": True})
        assert implicit == explicit
        assert implicit.freq_mhz == freq
        assert implicit.save_report is False

    def test_decoded_request_builds_the_flow_config(self):
        spec, config, _ = _flow_config(
            {"benchmark": BENCH, "selector": "none", "freq_mhz": 900,
             "with_scan": True, "dft_strategy": "wire-based",
             "workers": 2})
        assert spec.key == BENCH
        assert config.selector == "none"
        assert config.target_freq_mhz == 900.0
        assert config.with_scan and config.dft_strategy == "wire-based"
        assert config.parallel.workers == 2


class TestProtocol:
    def test_ping_status_shutdown(self, daemon):
        client = daemon.client()
        pong = client.ping()
        assert pong["ok"] and pong["pid"] == os.getpid()
        status = client.status()
        assert status["ok"]
        assert status["queue_depth"] == 0
        assert status["inflight"] == 0
        assert status["flow_workers"] == 1
        assert status["store"]["entries"] == 0
        assert "service.requests" in status["metrics"]["counters"]

    def test_unknown_op_is_an_error_not_a_crash(self, daemon):
        client = daemon.client()
        counters = _Counters()
        response = client.request({"op": "frobnicate"})
        assert not response["ok"]
        assert "frobnicate" in response["error"]
        assert counters.delta("service.errors") == 1
        assert client.ping()["ok"]      # daemon survived

    def test_bad_flow_request_is_an_error(self, daemon):
        client = daemon.client()
        response = client.submit_flow(benchmark="no_such_benchmark")
        assert not response["ok"]
        assert "no_such_benchmark" in response["error"]
        assert client.ping()["ok"]

    @pytest.mark.parametrize("field, value", [
        ("with_scan", "false"),
        ("save_report", 1),
        ("freq_mhz", 0),
        ("freq_mhz", -5.0),
        ("freq_mhz", "1500"),
        ("freq_mhz", float("inf")),
        pytest.param("freq_mhz", 10**400, id="freq_mhz-10**400"),
        ("workers", 2.7),
        ("workers", 0),
        ("workers", "x"),
        ("workers", True),
        ("seed", True),
        ("seed", 1.5),
        ("selector", "magic"),
        ("dft_strategy", "laser"),
        ("benchmark", 7),
    ])
    def test_ill_typed_flow_field_is_a_typed_error(self, daemon, field,
                                                   value):
        """Every field is type- and range-checked before the request
        is queued; the error names the field."""
        client = daemon.client()
        counters = _Counters()
        request = {"op": "flow", "benchmark": BENCH, "selector": "none"}
        request[field] = value
        response = client.request(request)
        assert not response["ok"]
        assert response["error"].startswith("ServiceError(")
        assert repr(field) in response["error"]
        assert counters.delta("service.flow_computes") == 0
        assert client.status()["inflight"] == 0
        assert client.ping()["ok"]

    def test_dft_strategy_without_scan_is_a_typed_error(self, daemon):
        response = daemon.client().submit_flow(
            benchmark=BENCH, selector="none", dft_strategy="wire-based")
        assert not response["ok"]
        assert "'dft_strategy'" in response["error"]

    @pytest.mark.parametrize("field", ["place_region_parallel",
                                       "place_solver", "route_batch",
                                       "select_batch", "benchmrak"])
    def test_unknown_flow_field_is_a_typed_error(self, daemon, field):
        client = daemon.client()
        counters = _Counters()
        response = client.submit_flow(benchmark=BENCH, selector="none",
                                      **{field: 1})
        assert not response["ok"]
        assert response["error"].startswith("ServiceError(")
        assert field in response["error"]
        assert counters.delta("service.flow_computes") == 0
        assert client.ping()["ok"]

    @pytest.mark.parametrize("payload", [["flow"], "flow", 3, None])
    def test_non_object_request_is_a_typed_error(self, daemon, payload):
        client = daemon.client()
        response = client.request(payload)
        assert not response["ok"]
        assert response["error"].startswith("ServiceError(")
        assert "JSON object" in response["error"]
        assert client.ping()["ok"]


class TestDedup:
    @pytest.mark.parametrize("flow_workers", [1, 3])
    def test_identical_submissions_compute_once(self, tmp_path,
                                                flow_workers):
        daemon = _start(tmp_path, flow_workers=flow_workers)
        try:
            counters = _Counters()
            n = 8
            payload = dict(benchmark=BENCH, selector="none")
            responses = _submit_many(daemon, [payload] * n)
            assert all(r["ok"] for r in responses)
            digests = {r["report_digest"] for r in responses}
            assert len(digests) == 1
            rows = [r["row"] for r in responses]
            assert all(row == rows[0] for row in rows)
            # The flow ran exactly once; every other arrival either
            # joined the in-flight future or replayed the artifact.
            assert counters.delta("service.flow_computes") == 1
            assert counters.replays() == n - 1
            status = daemon.client().status()
            assert status["inflight"] == 0
            assert status["queue_depth"] == 0
        finally:
            daemon.handle.stop()

    def test_distinct_requests_independent(self, daemon):
        counters = _Counters()
        responses = _submit_many(daemon, [
            dict(benchmark=BENCH, selector="none", seed=1),
            dict(benchmark=BENCH, selector="none", seed=2),
        ])
        assert all(r["ok"] for r in responses)
        assert counters.delta("service.flow_computes") == 2
        assert counters.delta("service.dedup_hits") == 0
        assert responses[0]["report_digest"] != \
            responses[1]["report_digest"]

    def test_default_and_explicit_default_dedup_together(self, daemon):
        from repro.harness.designs import DEFAULT_EXPERIMENT_SEED
        counters = _Counters()
        responses = _submit_many(daemon, [
            dict(benchmark=BENCH, selector="none"),
            dict(benchmark=BENCH, selector="none",
                 seed=DEFAULT_EXPERIMENT_SEED),
        ])
        assert all(r["ok"] for r in responses)
        assert counters.delta("service.flow_computes") == 1
        assert counters.replays() == 1

    def test_warm_resubmission_replays_artifact(self, daemon):
        counters = _Counters()
        payload = dict(benchmark=BENCH, selector="none")
        cold = daemon.client().submit_flow(**payload)
        warm = daemon.client().submit_flow(**payload)
        assert not cold["cached"] and warm["cached"]
        assert warm["report_digest"] == cold["report_digest"]
        assert warm["row"] == cold["row"]
        assert counters.delta("service.flow_computes") == 1
        assert counters.delta("service.flow_summary_hits") == 1

    @pytest.mark.slow
    def test_mixed_storm_any_worker_count(self, tmp_path):
        """16 mixed submissions, 4 workers: three distinct cells, each
        computed exactly once, everything else deduped/replayed."""
        daemon = _start(tmp_path, flow_workers=4)
        try:
            counters = _Counters()
            cells = [dict(benchmark=BENCH, selector="none", seed=s)
                     for s in (1, 2, 3)]
            payloads = [cells[i % 3] for i in range(16)]
            responses = _submit_many(daemon, payloads)
            assert all(r["ok"] for r in responses)
            assert counters.delta("service.flow_computes") == 3
            assert counters.replays() == 16 - 3
            by_seed = {}
            for payload, response in zip(payloads, responses):
                by_seed.setdefault(payload["seed"],
                                   set()).add(response["report_digest"])
            assert all(len(d) == 1 for d in by_seed.values())
            assert len(set().union(*by_seed.values())) == 3
        finally:
            daemon.handle.stop()


class TestCrashRecovery:
    def test_crashed_flow_leaves_no_flow_artifact(self, daemon,
                                                  monkeypatch):
        import repro.service.stages as stages

        def exploding_run_flow(*args, **kwargs):
            raise RuntimeError("simulated mid-flow crash")

        monkeypatch.setattr(stages, "run_flow", exploding_run_flow)
        counters = _Counters()
        response = daemon.client().submit_flow(benchmark=BENCH,
                                               selector="none")
        assert not response["ok"]
        assert "simulated mid-flow crash" in response["error"]
        # No flow.report / flow.summary blob may exist — crashes must
        # never publish partial results.
        assert daemon.flow_blobs() == []
        assert counters.delta("store.puts.flow.report") == 0
        assert counters.delta("store.puts.flow.summary") == 0
        status = daemon.client().status()
        assert status["ok"] and status["inflight"] == 0
        # The daemon recovers: un-patch, resubmit, and the completed
        # prepare artifacts from before the crash are reused.
        monkeypatch.undo()
        retry = daemon.client().submit_flow(benchmark=BENCH,
                                            selector="none")
        assert retry["ok"] and not retry["cached"]
        assert counters.delta("service.flow_computes") == 2
        assert counters.delta("store.hits.prepare.design") == 1
        assert len(daemon.flow_blobs()) == 2

    def test_crash_surfaces_to_every_deduped_waiter(self, daemon,
                                                    monkeypatch):
        import repro.service.stages as stages

        release = threading.Event()

        def stalling_crash(*args, **kwargs):
            release.wait(timeout=30)
            raise RuntimeError("deferred crash")

        monkeypatch.setattr(stages, "run_flow_stored", stalling_crash)
        payload = dict(benchmark=BENCH, selector="none")
        responses: list = [None] * 3
        barrier = threading.Barrier(4)

        def submit(idx):
            client = daemon.client()
            barrier.wait()
            responses[idx] = client.submit_flow(**payload)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        barrier.wait()                  # all three are in flight
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert all(r is not None and not r["ok"] for r in responses)
        assert all("deferred crash" in r["error"] for r in responses)
        assert daemon.client().status()["inflight"] == 0


class TestSocketHygiene:
    def test_stale_socket_reclaimed(self, tmp_path):
        sockdir = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
        socket_path = os.path.join(sockdir, "s.sock")
        open(socket_path, "wb").close()     # dead leftover
        config = ServiceConfig(socket_path=socket_path,
                               store_root=str(tmp_path / "store"))
        handle = start_in_thread(config)
        try:
            assert ServiceClient(socket_path).ping()["ok"]
        finally:
            handle.stop()
            shutil.rmtree(sockdir, ignore_errors=True)

    def test_live_socket_refuses_second_daemon(self, daemon, tmp_path):
        config = ServiceConfig(socket_path=daemon.socket_path,
                               store_root=str(tmp_path / "store2"))
        with pytest.raises(ServiceError, match="already running"):
            asyncio.run(FlowService(config).serve())
        # ... and the original daemon is unharmed.
        assert daemon.client().ping()["ok"]

    def test_shutdown_removes_socket(self, tmp_path):
        running = _start(tmp_path)
        sockdir = os.path.dirname(running.socket_path)
        try:
            assert running.client().shutdown()["ok"]
            running.handle.thread.join(timeout=30)
            assert not running.handle.thread.is_alive()
            assert not os.path.exists(running.socket_path)
            with pytest.raises(ServiceUnavailable):
                ServiceClient(running.socket_path, timeout=1.0).ping()
        finally:
            running.handle.stop()
            shutil.rmtree(sockdir, ignore_errors=True)


class TestTelemetry:
    """Protocol-v2 observability: health/metrics ops, request ids,
    per-op latency histograms, and flight-recorder visibility."""

    def test_health_op(self, daemon):
        health = daemon.client().health()
        assert health["ok"]
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()      # in-process daemon
        assert health["protocol"] == 2
        assert health["uptime_s"] >= 0
        assert health["inflight"] == 0

    def test_metrics_op_is_valid_exposition(self, daemon, tmp_path):
        from repro.obs.schema import validate_prometheus_text
        client = daemon.client()
        client.ping()                            # move a latency hist
        text = client.metrics_prometheus()
        path = tmp_path / "scrape.prom"
        path.write_text(text)
        info = validate_prometheus_text(path)
        assert info["samples"] > 0
        assert "# TYPE repro_service_latency_s histogram" in text
        # Per-op breakdown: the pings we just made have their own
        # histogram family.
        assert "repro_service_latency_s_ping_bucket" in text

    def test_flow_response_carries_request_id(self, daemon):
        response = daemon.client().submit_flow(
            benchmark=BENCH, selector="none", seed=411)
        assert response["ok"]
        assert response["request_id"].startswith("req-")
        # A warm replay of the same request is a new request id.
        again = daemon.client().submit_flow(
            benchmark=BENCH, selector="none", seed=411)
        assert again["request_id"] != response["request_id"]

    def test_status_reports_inflight_and_flight_recorder(self, daemon):
        status = daemon.client().status()
        assert status["ok"]
        assert status["inflight_requests"] == []     # idle daemon
        assert status["flight"]["armed"]
        assert status["flight"]["dumps"] >= 0
        assert "flight" in status["flight"]["dir"]

    def test_flow_latency_lands_in_histograms(self, daemon):
        daemon.client().submit_flow(benchmark=BENCH, selector="none",
                                    seed=412)
        snap = metrics.snapshot()["histograms"]
        assert snap["service.latency_s"]["count"] > 0
        assert snap["service.flow_serve_s"]["count"] > 0


class TestUnknownOps:
    def test_client_op_names_do_not_become_metric_names(self, daemon,
                                                        tmp_path):
        """``x.y`` and ``x_y`` used to mint two series that sanitize to
        one Prometheus family; unknown ops now share one counter."""
        from repro.obs.schema import validate_prometheus_text
        client = daemon.client()
        before = metrics.counter("service.requests.unknown")
        for op in ("x.y", "x_y"):
            response = client.request({"op": op})
            assert not response["ok"] and op in response["error"]
        assert metrics.counter("service.requests.unknown") == before + 2
        text = client.metrics_prometheus()
        path = tmp_path / "scrape.prom"
        path.write_text(text)
        validate_prometheus_text(path)
        assert "x_y" not in text
        assert "repro_service_requests_unknown" in text


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.just(10**400) | st.just(-(10**400))
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(max_size=6)
                 | st.sampled_from(["maeri16_hetero", "a7_hetero", "none",
                                    "gnn", "net-based", "wire-based"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6)
_FIELD_NAMES = [f.name for f in dataclasses.fields(FlowRequest)]


class TestRequestDecoding:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(_FIELD_NAMES + ["op", "bogus"]),
                           _JSON_VALUES, max_size=5)
           | _JSON_VALUES)
    def test_any_json_value_decodes_or_is_a_service_error(self, value):
        try:
            request = decode_flow_request(value)
        except ServiceError as exc:
            assert str(exc)
            return
        assert isinstance(request, FlowRequest)
        assert math.isfinite(request.freq_mhz) and request.freq_mhz > 0
        assert request.workers >= 1
        _spec, config, seeds = request.flow_inputs()
        assert config.selector == request.selector
        assert seeds.seed == request.seed

    def test_malformed_raw_lines_each_get_one_answer(self, daemon):
        """Undecodable bytes, truncated JSON, an int past the float
        range and over-deep nesting: one JSON error line each, on a
        connection that stays usable."""
        lines = [b"\xff\xfe\x80 not utf-8\n",
                 b'{"op": "flow", "selector": \n',
                 b'{"op": "flow", "selector": "none", "freq_mhz": 1'
                 + b"0" * 400 + b"}\n",
                 b"[" * 20000 + b"\n"]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(daemon.socket_path)
            stream = sock.makefile("rb")
            for line in lines:
                sock.sendall(line)
                response = json.loads(stream.readline())
                assert response["ok"] is False and response["error"]
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(stream.readline())["ok"]
        status = daemon.client().status()
        assert status["inflight"] == 0
        assert daemon.client().ping()["ok"]

    def test_over_long_line_gets_one_answer(self, daemon):
        """A request line past the reader's 64 KiB limit — alone, sent
        in pieces, or followed by a good request in the same write — is
        skipped whole and answered with one error line; the connection
        stays usable."""
        from repro.service.daemon import MAX_REQUEST_BYTES
        long_line = (b'{"op": "ping", "pad": "'
                     + b"x" * (3 * MAX_REQUEST_BYTES) + b'"}\n')
        ping = b'{"op": "ping"}\n'
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(daemon.socket_path)
            stream = sock.makefile("rb")
            sends = [[long_line],
                     [long_line[:1000], long_line[1000:]],
                     [long_line + ping]]
            for chunks in sends:
                for chunk in chunks:
                    sock.sendall(chunk)
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert "longer than" in response["error"]
                if chunks[-1].endswith(ping):
                    assert json.loads(stream.readline())["ok"]
            sock.sendall(ping)
            assert json.loads(stream.readline())["ok"]
        assert daemon.client().ping()["ok"]

    @pytest.mark.parametrize("field", _FIELD_NAMES)
    def test_cli_and_daemon_reject_the_same_value(self, daemon, field,
                                                  capsys):
        """One validator per field: an out-of-range value exits 2 at
        argparse time and is a ServiceError naming the field at the
        daemon, which computes nothing."""
        bad = {"benchmark": "no_such_benchmark", "selector": "magic",
               "seed": 1.5, "with_scan": "yes", "dft_strategy": "laser",
               "freq_mhz": -5, "workers": 0, "save_report": "yes"}[field]
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["service", "submit", "--socket", daemon.socket_path,
                  f"{flag}={bad}"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        counters = _Counters()
        response = daemon.client().submit_flow(
            **{"benchmark": BENCH, "selector": "none", field: bad})
        assert not response["ok"]
        assert response["error"].startswith("ServiceError(")
        assert repr(field) in response["error"]
        assert counters.delta("service.flow_computes") == 0

    def test_local_flow_and_daemon_build_the_same_flow(self, tmp_path):
        """``repro flow --store S`` and a daemon on S agree on the flow
        key: the daemon replays the CLI's run."""
        from repro.harness.designs import get_benchmark
        from repro.harness.tables import (clear_flow_cache,
                                          run_benchmark_flow)
        from repro.service.stages import report_digest

        clear_flow_cache()              # make the CLI write to the store
        store_root = str(tmp_path / "store")
        assert main(["flow", "--benchmark", BENCH, "--selector", "none",
                     "--store", store_root]) == 0
        local = report_digest(run_benchmark_flow(get_benchmark(BENCH),
                                                 "none"))
        sockdir = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
        handle = start_in_thread(ServiceConfig(
            socket_path=os.path.join(sockdir, "s.sock"),
            store_root=store_root))
        try:
            response = ServiceClient(handle.service.config.socket_path,
                                     timeout=300).submit_flow(
                benchmark=BENCH, selector="none")
        finally:
            handle.stop()
            shutil.rmtree(sockdir, ignore_errors=True)
        assert response["ok"] and response["cached"]
        assert response["report_digest"] == local
