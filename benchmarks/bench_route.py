"""Global-route benchmark: serial ``route_all`` wall time per design.

Prepares each no-MLS benchmark design, routes it (best of
``--repeats``) and appends ``route.<key>.serial_s`` to the perf-trend
ledger, which ``repro trace gate`` checks against
``benchmarks/budgets.json``.  Two routes of the same design must give
identical stats; the script exits non-zero otherwise.

Run directly::

    PYTHONPATH=src python benchmarks/bench_route.py           # both sizes
    PYTHONPATH=src python benchmarks/bench_route.py --smoke   # 16PE, CI
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.flow import FlowConfig, prepare_design          # noqa: E402
from repro.harness.designs import get_benchmark                 # noqa: E402
from repro.parallel import usable_cores                         # noqa: E402
from repro.route import GlobalRouter                            # noqa: E402

TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"


def bench_design(key: str, repeats: int) -> dict:
    spec = get_benchmark(key)
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz, pdn=False)
    design = prepare_design(spec.factory, spec.tech(), spec.seeds(),
                            config)
    best = float("inf")
    stats = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = GlobalRouter(design).route_all()
        best = min(best, time.perf_counter() - t0)
        stats.append(result.stats())
    return {"key": key, "nets": len(result.trees),
            "serial_s": round(best, 4),
            "deterministic": all(s == stats[0] for s in stats)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="16PE only (CI trend leg)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="routes per design (best-of)")
    args = parser.parse_args(argv)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    rows = []
    for key in keys:
        row = bench_design(key, max(2, args.repeats))
        rows.append(row)
        print(f"{key:<18} nets {row['nets']:>6}  "
              f"serial {row['serial_s']:.4f} s  "
              f"deterministic {row['deterministic']}")

    from repro.obs.trend import append_trend
    append_trend(TREND_JSONL, "route",
                 {f"route.{row['key']}.serial_s": row["serial_s"]
                  for row in rows},
                 smoke=args.smoke, meta={"cpu_count": usable_cores()})

    if not all(row["deterministic"] for row in rows):
        print("FAIL: repeated routes of one design differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
