"""Global-route benchmark: route kernels timed and checked against the oracle.

Prepares each no-MLS benchmark design and times (best of
``--repeats``):

* ``serial_s`` — a full ``route_all`` without MLS;
* ``sota_s`` — a full ``route_all`` with the SOTA heuristic's MLS set
  (MAERI-16 only);
* ``eco_s`` — an ECO sequence on that SOTA routing: every 10th signal
  net probed, re-routed with MLS flipped, and restored (MAERI-16
  only).

The SOTA route and the ECO sequence are replayed with the per-net
router in ``tests/route_oracle.py`` (its times go to the ``oracle_*``
legs); the script exits non-zero if trees, parasitics, grid bytes or
probe results differ anywhere, or if two routes of one design differ.
Legs are appended to the perf-trend ledger, which ``repro trace gate``
checks against ``benchmarks/budgets.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_route.py           # both sizes
    PYTHONPATH=src python benchmarks/bench_route.py --smoke   # 16PE, CI
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.core.flow import FlowConfig, prepare_design          # noqa: E402
from repro.harness.designs import get_benchmark                 # noqa: E402
from repro.mls import sota_select                               # noqa: E402
from repro.parallel import usable_cores                         # noqa: E402
from repro.route import GlobalRouter                            # noqa: E402
from tests.golden_util import routing_digest                    # noqa: E402
from tests.route_oracle import OracleRouter                     # noqa: E402

TREND_JSONL = REPO_ROOT / "benchmarks" / "results" / "trend.jsonl"

#: Every ECO_STRIDE-th signal net takes part in the ECO leg.
ECO_STRIDE = 10


def _prepared(key: str):
    spec = get_benchmark(key)
    config = FlowConfig(selector="none",
                        target_freq_mhz=spec.target_freq_mhz, pdn=False)
    return prepare_design(spec.factory, spec.tech(), spec.seeds(), config)


def _eco(router_cls, design, mls):
    """Route *design* with *mls*, then run the ECO sequence; returns
    (ECO seconds, routed design copy, probe results)."""
    d = copy.deepcopy(design)
    router = router_cls(d)
    result = router.route_all(mls_nets=mls)
    nets = d.netlist.signal_nets()[::ECO_STRIDE]
    probes = []
    t0 = time.perf_counter()
    for net in nets:
        off, on, applied = router.probe_net(result, net)
        probes.append((off, on, applied))
        tree, rc = result.trees[net.name], result.rc[net.name]
        router.reroute_net(result, net, mls=net.name not in mls)
        router.restore_net(result, net, tree, rc)
    return time.perf_counter() - t0, d, probes


def bench_serial(key: str, design, repeats: int) -> dict:
    best = float("inf")
    stats = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = GlobalRouter(design).route_all()
        best = min(best, time.perf_counter() - t0)
        stats.append(result.stats())
    return {"serial_s": best, "nets": len(result.trees),
            "deterministic": all(s == stats[0] for s in stats)}


def bench_oracle_legs(design, repeats: int) -> tuple[dict, list[str]]:
    """SOTA-route and ECO legs for both routers, plus any divergence."""
    mls = frozenset(sota_select(copy.deepcopy(design),
                                GlobalRouter(copy.deepcopy(design))
                                .route_all()))
    legs, digests, probes = {}, {}, {}
    for tag, cls in (("", GlobalRouter), ("oracle_", OracleRouter)):
        def full_route():
            d = copy.deepcopy(design)
            t0 = time.perf_counter()
            cls(d).route_all(mls_nets=mls)
            return time.perf_counter() - t0, d
        runs = [full_route() for _ in range(repeats)]
        legs[f"{tag}sota_s"] = min(t for t, _ in runs)
        digests[f"{tag}sota"] = routing_digest(runs[-1][1])
        ecos = [_eco(cls, design, mls) for _ in range(repeats)]
        legs[f"{tag}eco_s"] = min(t for t, _, _ in ecos)
        digests[f"{tag}eco"] = routing_digest(ecos[-1][1])
        probes[tag] = [(repr(off), repr(on), applied)
                       for off, on, applied in ecos[-1][2]]
    diverged = [leg for leg in ("sota", "eco")
                if digests[leg] != digests[f"oracle_{leg}"]]
    if probes[""] != probes["oracle_"]:
        diverged.append("eco probes")
    legs["mls_nets"] = len(mls)
    return legs, diverged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="16PE only (CI trend leg)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per leg (best-of)")
    args = parser.parse_args(argv)
    repeats = max(2, args.repeats)

    keys = ["maeri16_hetero"] if args.smoke \
        else ["maeri16_hetero", "maeri128_hetero"]
    trend: dict[str, float] = {}
    failures: list[str] = []
    for key in keys:
        design = _prepared(key)
        row = bench_serial(key, design, repeats)
        trend[f"route.{key}.serial_s"] = round(row["serial_s"], 4)
        print(f"{key:<18} nets {row['nets']:>6}  "
              f"serial {row['serial_s']:.4f} s  "
              f"deterministic {row['deterministic']}")
        if not row["deterministic"]:
            failures.append(f"{key}: repeated routes differ")
        if key != "maeri16_hetero":
            continue
        legs, diverged = bench_oracle_legs(design, repeats)
        for leg in ("sota_s", "eco_s", "oracle_sota_s", "oracle_eco_s"):
            trend[f"route.{key}.{leg}"] = round(legs[leg], 4)
        print(f"{key:<18} sota ({legs['mls_nets']} MLS nets) "
              f"{legs['sota_s']:.4f} s (oracle {legs['oracle_sota_s']:.4f} s)"
              f"  eco {legs['eco_s']:.4f} s "
              f"(oracle {legs['oracle_eco_s']:.4f} s)")
        failures += [f"{key}: {leg} differs from tests/route_oracle.py"
                     for leg in diverged]

    from repro.obs.trend import append_trend
    append_trend(TREND_JSONL, "route", trend, smoke=args.smoke,
                 meta={"cpu_count": usable_cores(), "repeats": repeats})

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
