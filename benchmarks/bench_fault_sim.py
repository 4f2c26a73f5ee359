"""Die-test fault simulation benchmark — event-driven vs the oracle.

Builds an A7 design with SOTA MLS nets and wire-based MLS DFT, then
fault-simulates its individual-die test twice under one seed: with
:func:`repro.dft.fault_sim.detect_faults` (timed, best-of) and with the
cone-walking reference in ``tests/fault_sim_oracle.py``.  The script
exits non-zero if any fault's detection flag differs, and appends the
event-driven leg to ``benchmarks/results/trend.jsonl``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fault_sim.py --smoke  # small A7, CI
    PYTHONPATH=src python benchmarks/bench_fault_sim.py          # a7_hetero
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.dft import (WIRE_BASED, apply_mls_dft,              # noqa: E402
                       build_fault_universe, detect_faults,
                       die_test_conditions)
from repro.mls import route_with_mls, sota_select              # noqa: E402
from repro.rng import stream                                    # noqa: E402
from tests.fault_sim_oracle import detect_faults_reference      # noqa: E402

TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: The flow's die-test pattern count.
PATTERNS = 256


def _small_a7():
    """The small golden A7 design (8-bit words, one cache bank)."""
    from tests.golden_util import build_golden_design
    design, _report, _sim = build_golden_design("a7")
    return design


def _a7_hetero():
    """The ``a7_hetero`` benchmark design, prepared as the flow does."""
    from repro.core.flow import FlowConfig, prepare_design
    from repro.harness.designs import get_benchmark
    spec = get_benchmark("a7_hetero")
    config = FlowConfig(selector="sota", with_scan=True,
                        target_freq_mhz=spec.target_freq_mhz)
    return prepare_design(spec.factory, spec.tech(), spec.seeds(), config)


def bench(design, repeats: int) -> dict:
    _router, routing = route_with_mls(design, set())
    router, routing = route_with_mls(design,
                                     sota_select(design, routing))
    crossings, _cells = apply_mls_dft(design, router, routing, WIRE_BASED)
    faults = list(build_fault_universe(design.netlist))
    conditions = die_test_conditions(design)

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        hits = detect_faults(design.netlist, faults, stream("bench-fsim", 1),
                             patterns=PATTERNS, **conditions)
        best = min(best, time.perf_counter() - t0)
    t0 = time.perf_counter()
    ref = detect_faults_reference(design.netlist, faults,
                                  stream("bench-fsim", 1),
                                  patterns=PATTERNS, **conditions)
    oracle_s = time.perf_counter() - t0
    return {
        "crossings": crossings,
        "faults": len(faults),
        "detected": sum(hits),
        "diverged": sum(a != b for a, b in zip(hits, ref)),
        "fault_sim_s": round(best, 4),
        "oracle_fault_sim_s": round(oracle_s, 4),
        "speedup_vs_oracle": round(oracle_s / best, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small A7 golden design (CI divergence gate)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats of the event-driven leg "
                             "(best-of)")
    args = parser.parse_args(argv)

    key = "a7_small" if args.smoke else "a7_hetero"
    print(f"benchmarking {key} ...", flush=True)
    row = bench(_small_a7() if args.smoke else _a7_hetero(), args.repeats)
    for field, value in row.items():
        print(f"  {field:<24}{value}")

    from repro.obs.trend import append_trend
    append_trend(TREND_JSONL, "fault_sim",
                 {f"dft.{key}.fault_sim_s": row["fault_sim_s"],
                  f"dft.{key}.oracle_fault_sim_s": row["oracle_fault_sim_s"]},
                 smoke=args.smoke,
                 meta={"repeats": args.repeats, "patterns": PATTERNS,
                       "faults": row["faults"]})
    if row["diverged"]:
        print(f"FAIL: {row['diverged']} faults diverge from the oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
