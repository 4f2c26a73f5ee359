"""Flow benchmark: complete GNN-MLS flows, end to end and per layer.

    python3 perfbench/run.py --workload maeri128_none --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  Each operation is one complete
``run_flow`` in a fresh interpreter (``perfbench/flowop.py``), one at a
time, ``workers=1`` and no store: what a ``repro flow`` user gets.

``--trace 0`` runs operations on ``--seed`` until their flow time
reaches ``--seconds`` (at least one), adds set-up-only processes until
there are ``SETUP_SAMPLES`` set-up samples, and reports the median of
each end-to-end metric.  ``--trace 1`` runs one untraced and one traced
operation on ``--seed``, reports per-layer self times and work counts,
and also runs the workload once on ``--seed + 1`` and prints its quality
row.  Every operation's outputs are checked (see ``flowop.py``); the
operations of one seed must produce identical quality rows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-up samples per ``--trace 0`` run (operations count as samples).
SETUP_SAMPLES = 5

#: Wall-clock cap on one child process, seconds.
OP_TIMEOUT_S = 120

#: Quality fields reported as end-to-end metrics: never zero on any
#: workload and steady across seeds.  ``eff_freq_mhz`` stands in for
#: ``wns_ps`` (the same quantity at a fixed clock target, but positive).
QUALITY_METRICS = {
    "wirelength_m": "m",
    "hpwl_m": "m",
    "power_mw": "mW",
    "eff_freq_mhz": "MHz",
}

#: Quality fields that can be zero on some workload: printed in the
#: quality row of every run, not gated.
QUALITY_ROW = ("wns_ps", "tns_ns", "vio_paths", "mls_nets",
               "requested_mls", "overflow_nets", "coverage_pct")

#: Per-layer self-time metrics, named ``<layer>_s``.
LAYER_TIMES = (
    "netlist.generate", "partition.assign", "place.place", "opt.buffer",
    "power.level_shifters", "power.estimate", "pdn.size",
    "mls.sota_select", "timing.build", "timing.update", "timing.full_sta",
    "core.dataset", "core.dgi", "core.decide", "core.paths", "core.infer",
    "dft.scan", "dft.apply", "dft.fault_sim",
)


def child(args: list[str]) -> dict:
    """Run ``flowop.py`` with *args*; its last stdout line as a dict."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "flowop.py"), *args], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def problems(op: dict) -> list[str]:
    return op.get("failures", []) + ([op["error"]] if "error" in op else [])


class Run:
    """Operations of one invocation; each carries its own failures."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.ops: list[dict] = []

    def op(self, seed: int, traced: bool = False) -> dict | None:
        """One checked operation; None when it failed."""
        args = ["--workload", self.workload, "--seed", str(seed)]
        if traced:
            args.append("--trace")
        out = child(args)
        self.ops.append(out)
        if problems(out):
            return None
        tag = "traced" if traced else "untraced"
        print(f"op {len(self.ops)} seed={out['seed']} {tag}: "
              f"setup {out['setup_s']:.3f} s, flow {out['flow_s']:.3f} s, "
              f"peak {out['peak_rss_mb']:.1f} MB", flush=True)
        return out

    @staticmethod
    def fail(op: dict, problem: str) -> None:
        op.setdefault("failures", []).append(problem)

    def same_quality(self, ops: list[dict], what: str) -> None:
        """Operations on one seed must produce identical rows."""
        for op in ops[1:]:
            if op["quality"] != ops[0]["quality"]:
                self.fail(op, f"{what}: quality row differs")

    @property
    def failures(self) -> list[str]:
        return [f"op {i}: {p}" for i, op in enumerate(self.ops, 1)
                for p in problems(op)]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if problems(op))


def print_quality(label: str, op: dict) -> None:
    q = op["quality"]
    row = {k: q[k] for k in QUALITY_ROW if k in q}
    row.update({k: q[k] for k in QUALITY_METRICS})
    print(f"quality {label} seed={op['seed']}: "
          + json.dumps(row, sort_keys=True), flush=True)


def measure(run: Run, seed: int, seconds: float) -> dict:
    """``--trace 0``: end-to-end metrics, medians over operations."""
    good: list[dict] = []
    flow_total = 0.0
    while not run.ops or flow_total < seconds:
        out = run.op(seed)
        if out is None:
            break
        good.append(out)
        flow_total += out["flow_s"]
    if run.failures:
        return {}
    setup = [o["setup_s"] for o in good]
    while len(setup) < SETUP_SAMPLES:
        out = child(["--workload", run.workload, "--setup-only"])
        if "error" in out:
            run.ops.append(out)
            return {}
        setup.append(out["setup_s"])
    run.same_quality(good, "repeated operations")
    print_quality(run.workload, good[0])
    print(f"host: {json.dumps(good[0]['host'], sort_keys=True)}; "
          f"{len(good)} flow samples, {len(setup)} set-up samples",
          flush=True)
    metrics = {
        "flow_s": (statistics.median(o["flow_s"] for o in good), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in good),
                        "MB"),
    }
    for name, unit in QUALITY_METRICS.items():
        metrics[name] = (good[0]["quality"][name], unit)
    return metrics


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """``--trace 1``: per-layer metrics of one traced operation."""
    layers = traced["layers"]
    self_s = layers["self_s"]
    counts = traced["counters"]
    wall = traced["flow_s"]
    q = traced["quality"]
    m: dict = {f"{name}_s": (self_s.get(name, 0.0), "s")
               for name in LAYER_TIMES}
    route_s = self_s.get("route", 0.0)
    nets = counts["route.nets_routed"]
    fault_s = self_s.get("dft.fault_sim", 0.0)
    faults = layers["faults_simulated"]
    m.update({
        "netlist.instances": (layers["netlist_instances"], "count"),
        "netlist.nets": (layers["netlist_nets"], "count"),
        "place.factorizations": (counts["place.factorizations"], "count"),
        "place.level_solves": (counts["place.level_solves"], "count"),
        "route.calls": (layers["calls"].get("route", 0), "count"),
        "route.self_s": (route_s, "s"),
        "route.nets_routed": (nets, "count"),
        "route.probes": (counts["route.probes"], "count"),
        "route.us_per_net": (1e6 * route_s / nets if nets else 0.0, "us"),
        "route.overflow_nets": (q["overflow_nets"], "count"),
        "mls.nets_applied": (q["mls_nets"], "count"),
        "timing.updates": (counts["sta.inc.updates"], "count"),
        "timing.arc_propagations": (counts["sta.arc_propagations"],
                                    "count"),
        "timing.arcs_patched": (counts["sta.inc.arcs_patched"], "count"),
        "timing.vio_paths": (q["vio_paths"], "count"),
        "core.train_self_s": (self_s.get("core.train", 0.0), "s"),
        "core.dgi_batches": (counts["select.dgi.batches"], "count"),
        "core.finetune_batches": (counts["select.finetune.batches"],
                                  "count"),
        "dft.faults_simulated": (faults, "count"),
        "dft.faults_per_s": (faults / fault_s if fault_s else 0.0, "1/s"),
        "dft.coverage_pct": (q.get("coverage_pct", 0.0), "%"),
        "flow.unattributed_s": (wall - sum(self_s.values()), "s"),
        "trace.overhead_s": (wall - untraced["flow_s"], "s"),
    })
    return m


def check_attribution(traced: dict) -> None:
    """Layer self times and the unattributed rest (``flow.unattributed_s``,
    which makes them sum to the traced wall time) are all non-negative."""
    self_s = traced["layers"]["self_s"]
    rest = traced["flow_s"] - sum(self_s.values())
    negative = {k: v for k, v in self_s.items() if v < 0}
    if negative or rest < 0:
        Run.fail(traced, f"attribution: negative self time {negative} "
                         f"or unattributed {rest}")


def trace_pass(run: Run, seed: int) -> dict:
    """``--trace 1``: untraced and traced operation, then a second seed."""
    untraced = run.op(seed)
    traced = run.op(seed, traced=True) if untraced else None
    second = run.op(seed + 1) if traced else None
    if second is None:
        return {}
    print_quality(f"{run.workload} (second seed)", second)
    run.same_quality([untraced, traced], "traced vs untraced")
    check_attribution(traced)
    print_quality(run.workload, traced)
    self_s = traced["layers"]["self_s"]
    print("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in
        sorted(self_s.items(), key=lambda kv: -kv[1])), flush=True)
    print(f"host: {json.dumps(traced['host'], sort_keys=True)}",
          flush=True)
    return layer_metrics(traced, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the experiment "
                             "seed of repro.harness.designs)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="flow time to accumulate with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "core" / "flow.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.harness.designs import DEFAULT_EXPERIMENT_SEED
        seed = DEFAULT_EXPERIMENT_SEED

    run = Run(args.workload)
    t0 = time.perf_counter()
    if args.trace:
        metrics = trace_pass(run, seed)
    else:
        metrics = measure(run, seed, args.seconds)
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr, flush=True)
    print(f"{args.workload}: {len(run.ops)} operations, "
          f"{run.failed} failed, {time.perf_counter() - t0:.1f} s",
          flush=True)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
