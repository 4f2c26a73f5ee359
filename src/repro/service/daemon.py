"""Flow-as-a-service: an asyncio job daemon over a unix socket.

One daemon process owns an :class:`ArtifactStore` and serves flow
requests from any number of clients.  The protocol is one JSON object
per line in both directions; ops:

``ping``      liveness probe;
``health``    minimal liveness + uptime (no metrics snapshot: safe to
              poll at high frequency);
``status``    queue depth, in-flight requests (with request ids), run
              metrics, store stats;
``metrics``   the full metrics registry rendered as Prometheus text
              exposition (format 0.0.4) — counters, gauges, stats
              summaries and the per-request latency histograms;
``flow``      run (or replay) one benchmark flow; responds with the
              table row, the report digest, timing breakdown and —
              on request — the on-disk paths of the pickled
              :class:`FlowReport` artifacts.  The fields are those
              of :class:`repro.harness.request.FlowRequest`, which
              the CLI flags derive from too; its decoder checks them
              all before the request is queued, so an unknown or
              ill-typed field is a ``ServiceError`` naming it, never
              coerced or silently ignored;
``shutdown``  drain nothing, stop now (the store is crash-safe:
              every artifact write is atomic).

Scheduling is FIFO over an :class:`asyncio.Queue` with *flow_workers*
consumer tasks, each running the (numpy-heavy, GIL-releasing) flow in
a thread executor so the event loop keeps accepting connections.
**Identical concurrent requests are deduplicated**: the second
arrival awaits the first one's future instead of enqueueing — N
clients submitting the same cell of a sweep matrix cost one compute.
Distinct requests proceed independently.  Completed results live in
the store, so dedup only needs to cover the in-flight window.

Every request runs under a ``service.request`` span and feeds the
process-wide :mod:`repro.obs` metrics (``service.requests``,
``service.dedup_hits``, ``service.flow_computes``,
``service.flow_summary_hits``, ``store.*``), which ``status`` reports
back to clients — the concurrency test suite asserts dedup through
exactly this surface.  Telemetry additions on top of that:

* every dispatch is timed into the ``service.latency_s`` (and, for
  the known :data:`OPS`, per-op ``service.latency_s.<op>``)
  fixed-bucket **histograms**, exported by the ``metrics`` op; any
  other op string counts under ``service.requests.unknown``;
* flow requests get a daemon-unique **request id** (``req-<seq>``)
  that is pinned onto the tracer for the job's executor thread, so
  every span the job emits — including pool-worker spans merged back
  from other processes — carries ``req=<id>`` and cross-process
  traces group by request rather than pid alone;
* the **flight recorder** is armed for the daemon's lifetime: a
  bounded ring of recent spans dumped to ``<store_root>/flight/`` on
  unhandled exceptions, failed flow jobs, or ``SIGUSR1``.

Tracing note: the span stack is process-global, so per-request traces
are only well-nested with ``flow_workers=1`` (the default).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from threading import Thread

from repro.errors import FlowError, ServiceError
from repro.harness.request import FlowRequest, decode_flow_request
from repro.obs import flight, get_logger, metrics, trace
from repro.obs.metrics import render_prometheus
from repro.service.store import (ArtifactStore, DEFAULT_BUDGET_BYTES,
                                 DEFAULT_COMPRESS_LEVEL)

log = get_logger("repro.service.daemon")

#: Protocol revision, echoed by ``ping``/``status``.  2 added the
#: ``health``/``metrics`` ops, request ids and latency histograms.
PROTOCOL_VERSION = 2

#: The ops the daemon serves.  Only these get their own request
#: counter and latency histogram: any other op string counts under
#: ``service.requests.unknown``, so clients cannot mint metric names.
OPS = ("ping", "health", "status", "metrics", "shutdown", "flow")


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon deployment knobs."""

    socket_path: str
    store_root: str
    budget_bytes: int = DEFAULT_BUDGET_BYTES
    compress_level: int = DEFAULT_COMPRESS_LEVEL
    #: Concurrent flow executions.  1 keeps traces well-nested and
    #: benchmark wall-clocks honest; raise it for throughput.
    flow_workers: int = 1


class FlowService:
    """The daemon; construct, then :meth:`serve` (or
    :func:`start_in_thread` for in-process embedding)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = ArtifactStore(config.store_root,
                                   budget_bytes=config.budget_bytes,
                                   compress_level=config.compress_level)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight: dict[FlowRequest, asyncio.Future] = {}
        #: Request-id bookkeeping mirroring ``_inflight``: request ->
        #: {"id", "benchmark", "selector", "since_s", "waiters"}.
        self._inflight_info: dict[FlowRequest, dict] = {}
        self._req_seq = 0
        self._executor = ThreadPoolExecutor(
            max_workers=config.flow_workers,
            thread_name_prefix="repro-flow")
        self._stop = asyncio.Event()
        self._started_at = time.time()
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Bind the socket and serve until a ``shutdown`` request."""
        self._loop = asyncio.get_running_loop()
        path = Path(self.config.socket_path)
        await self._claim_socket(path)
        server = await asyncio.start_unix_server(self._handle_conn,
                                                 path=str(path))
        workers = [asyncio.create_task(self._worker())
                   for _ in range(self.config.flow_workers)]
        # Crash forensics for the daemon's whole lifetime: recent spans
        # ring-buffered, dumped on SIGUSR1 / unhandled exceptions /
        # failed flow jobs.  Pool workers inherit via the environment.
        flight.arm(Path(self.store.root) / "flight",
                   install_signal=True, install_excepthook=True)
        log.info(f"repro service listening on {path} "
                 f"(store: {self.store.root}, "
                 f"workers: {self.config.flow_workers})")
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in workers:
                task.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.store.flush()
            flight.disarm()
            path.unlink(missing_ok=True)
            log.info("repro service stopped")

    async def _claim_socket(self, path: Path) -> None:
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            return
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(str(path)), timeout=2.0)
        except (OSError, asyncio.TimeoutError):
            log.warning(f"removing stale service socket {path}")
            path.unlink(missing_ok=True)
            return
        writer.close()
        raise ServiceError(f"service already running on {path}")

    def request_shutdown(self) -> None:
        self._stop.set()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = await self._dispatch(json.loads(line))
                except (FlowError, ValueError, KeyError, TypeError,
                        RecursionError) as exc:
                    metrics.inc("service.errors")
                    response = {"ok": False, "error": repr(exc)}
                writer.write(json.dumps(response, default=str).encode()
                             + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, request) -> dict:
        if not isinstance(request, dict):
            raise ServiceError(f"request must be a JSON object, got "
                               f"{type(request).__name__}")
        op = request.get("op")
        known = isinstance(op, str) and op in OPS
        metrics.inc("service.requests")
        metrics.inc(f"service.requests.{op if known else 'unknown'}")
        t0 = time.perf_counter()
        try:
            return await self._dispatch_op(op, request)
        finally:
            latency = time.perf_counter() - t0
            metrics.observe_hist("service.latency_s", latency)
            if known:
                metrics.observe_hist(f"service.latency_s.{op}", latency)

    async def _dispatch_op(self, op, request: dict) -> dict:
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION}
        if op == "health":
            return self._health()
        if op == "status":
            return self._status()
        if op == "metrics":
            return {"ok": True, "op": "metrics",
                    "format": "prometheus-0.0.4",
                    "text": render_prometheus(metrics.snapshot())}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "op": "shutdown"}
        if op == "flow":
            return await self._op_flow(request)
        raise ServiceError(f"unknown op {op!r}")

    def _health(self) -> dict:
        return {
            "ok": True,
            "op": "health",
            "status": "ok",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.time() - self._started_at,
            "inflight": len(self._inflight),
            "queue_depth": self._queue.qsize(),
        }

    def _status(self) -> dict:
        return {
            "ok": True,
            "op": "status",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "socket": self.config.socket_path,
            "uptime_s": time.time() - self._started_at,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "inflight_requests": [
                {"id": info["id"], "benchmark": info["benchmark"],
                 "selector": info["selector"],
                 "age_s": time.time() - info["since_s"],
                 "waiters": info["waiters"]}
                for info in self._inflight_info.values()],
            "flight": {"armed": flight.armed,
                       "dumps": flight.dumps_written,
                       "dir": str(flight.directory or "")},
            "flow_workers": self.config.flow_workers,
            "store": self.store.stats(),
            "metrics": metrics.snapshot(),
        }

    # -- the flow op ---------------------------------------------------------

    async def _op_flow(self, raw: dict) -> dict:
        request = decode_flow_request(
            {name: value for name, value in raw.items() if name != "op"})
        t0 = time.perf_counter()
        future = self._inflight.get(request)
        if future is not None:
            metrics.inc("service.dedup_hits")
            info = self._inflight_info.get(request)
            if info is not None:
                info["waiters"] += 1
            request_id = info["id"] if info else None
            deduped = True
        else:
            deduped = False
            self._req_seq += 1
            request_id = f"req-{self._req_seq}"
            future = self._loop.create_future()
            self._inflight[request] = future
            self._inflight_info[request] = {
                "id": request_id, "since_s": time.time(), "waiters": 1,
                "benchmark": request.benchmark,
                "selector": request.selector}
            metrics.set_gauge("service.inflight", len(self._inflight))
            await self._queue.put((request, future, request_id))
            metrics.set_gauge("service.queue_depth", self._queue.qsize())
        try:
            response = dict(await asyncio.shield(future))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            metrics.inc("service.errors")
            return {"ok": False, "error": repr(exc),
                    "request_id": request_id}
        response["deduped"] = deduped
        response["request_id"] = request_id
        response["wait_s"] = time.perf_counter() - t0
        metrics.add_time("service.request_wait_s",
                         time.perf_counter() - t0)
        return response

    def _finish_inflight(self, request: FlowRequest) -> None:
        self._inflight.pop(request, None)
        self._inflight_info.pop(request, None)
        metrics.set_gauge("service.inflight", len(self._inflight))

    async def _worker(self) -> None:
        while True:
            request, future, request_id = await self._queue.get()
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._run_flow_job, request,
                    request_id)
            except Exception as exc:           # surfaced per-awaiter
                self._finish_inflight(request)
                if not future.done():
                    future.set_exception(exc)
                continue
            finally:
                self._queue.task_done()
                metrics.set_gauge("service.queue_depth",
                                  self._queue.qsize())
            self._finish_inflight(request)
            if not future.done():
                future.set_result(result)

    def _run_flow_job(self, request: FlowRequest,
                      request_id: str | None = None) -> dict:
        """Executor-thread body: store lookup or full flow compute."""
        from repro.service.stages import (flow_artifact_paths,
                                          run_flow_stored)
        spec, config, seeds = request.flow_inputs()
        # Pin the request id on this executor thread: every span the
        # job emits (and every pool-worker span merged back into it)
        # carries req=<id>, so cross-process traces group by request.
        trace.set_request(request_id)
        try:
            with trace.span("service.request", op="flow",
                            benchmark=spec.key,
                            selector=config.selector):
                t0 = time.perf_counter()
                report, summary, cached = run_flow_stored(
                    spec.factory, spec.tech(), seeds, config, self.store,
                    need_report=request.save_report)
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            flight.record_note("flow job failed",
                               request_id=request_id or "",
                               benchmark=spec.key)
            flight.crash_dump("service.flow", exc)
            raise
        finally:
            trace.set_request(None)
        metrics.add_time("service.flow_serve_s", elapsed)
        metrics.observe_hist("service.flow_serve_s", elapsed)
        flight.record_sample("service.flow_serve_s", elapsed,
                             request_id=request_id or "",
                             benchmark=spec.key, cached=cached)
        response = {
            "ok": True,
            "op": "flow",
            "benchmark": spec.key,
            "selector": config.selector,
            "cached": cached,
            "serve_s": elapsed,
            "row": summary["row"],
            "report_digest": summary["report_digest"],
            "runtime_s": summary["runtime_s"],
            "stage_runtime_s": summary["stage_runtime_s"],
        }
        if request.save_report:
            response["artifacts"] = flow_artifact_paths(
                spec.factory, spec.tech(), seeds, config, self.store)
        return response


# -- embedding helpers --------------------------------------------------------


class ServiceHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, service: FlowService, thread: Thread):
        self.service = service
        self.thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_shutdown)
        self.thread.join(timeout=timeout)


def start_in_thread(config: ServiceConfig,
                    ready_timeout: float = 30.0) -> ServiceHandle:
    """Start a :class:`FlowService` on a daemon thread and wait until
    its socket answers ``ping``."""
    from repro.service.client import ServiceClient, wait_for_service

    service = FlowService(config)
    thread = Thread(target=lambda: asyncio.run(service.serve()),
                    name="repro-service", daemon=True)
    thread.start()
    wait_for_service(config.socket_path, timeout=ready_timeout)
    # One sanity ping so callers start from a known-good connection.
    ServiceClient(config.socket_path).ping()
    return ServiceHandle(service, thread)
