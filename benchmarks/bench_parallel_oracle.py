"""Parallel what-if oracle — serial vs 4-worker speedup record.

Times :func:`oracle_labels` on the routed MAERI-16PE fabric both ways,
checks the labels are identical (the engine's hard contract), and
writes ``BENCH_parallel.json`` at the repo root so the speedup is a
tracked artifact.

The speedup assertion is gated on the machine actually having >= 4
usable cores: on a 1-core container the pool cannot beat the serial
loop and the honest record shows that instead of a faked number.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.flow import prepare_design_cached
from repro.harness.designs import get_benchmark
from repro.mls.oracle import oracle_labels
from repro.parallel import ParallelConfig, usable_cores
from repro.core.flow import FlowConfig
from repro.route import GlobalRouter

BENCH_JSON = Path(__file__).parent.parent / "BENCH_parallel.json"
TREND_JSONL = Path(__file__).parent / "results" / "trend.jsonl"
WORKERS = 4


def test_parallel_oracle_speedup(benchmark, emit):
    spec = get_benchmark("maeri16_hetero")
    config = FlowConfig(selector="oracle",
                        target_freq_mhz=spec.target_freq_mhz, pdn=False)
    design = prepare_design_cached(spec.factory, spec.tech(),
                                   spec.seeds(), config)
    router = GlobalRouter(design)
    routing = router.route_all()

    def run():
        t0 = time.perf_counter()
        serial = oracle_labels(design, router, routing)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        fanout = oracle_labels(
            design, router, routing,
            parallel=ParallelConfig(workers=WORKERS))
        t_parallel = time.perf_counter() - t0
        return serial, fanout, t_serial, t_parallel

    serial, fanout, t_serial, t_parallel = benchmark.pedantic(
        run, rounds=1, iterations=1)

    identical = serial == fanout
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    cores = usable_cores()
    record = {
        "design": spec.paper_name,
        "key": spec.key,
        "nets": len(serial),
        "workers": WORKERS,
        "t_serial_s": round(t_serial, 4),
        "t_parallel_s": round(t_parallel, 4),
        "speedup": round(speedup, 3),
        "cpu_count": cores,
        "labels_identical": identical,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    from repro.obs.trend import append_trend
    append_trend(TREND_JSONL, "oracle", {
        f"oracle.{spec.key}.serial_s": record["t_serial_s"],
        f"oracle.{spec.key}.parallel_s": record["t_parallel_s"],
    }, meta={"cpu_count": cores, "workers": WORKERS})

    emit("parallel_oracle", "\n".join([
        "Parallel what-if oracle (maeri16_hetero)",
        "=" * 40,
        f"{'nets probed':<16}{record['nets']:>10}",
        f"{'serial (s)':<16}{t_serial:>10.3f}",
        f"{'4 workers (s)':<16}{t_parallel:>10.3f}",
        f"{'speedup':<16}{speedup:>10.2f}x",
        f"{'usable cores':<16}{cores:>10}",
        f"{'identical':<16}{str(identical):>10}",
    ]))

    # Hard contract: the fan-out never changes a single label.
    assert identical
    # Perf claim only where the hardware can deliver it.
    if cores >= WORKERS:
        assert speedup >= 2.0, \
            f"expected >=2x at {WORKERS} workers, got {speedup:.2f}x"
