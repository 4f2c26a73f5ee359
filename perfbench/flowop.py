"""One benchmark operation: a complete flow in a fresh interpreter.

Run by ``perfbench/run.py``; each invocation is one process, like one
``repro flow`` call from the command line:

    python3 perfbench/flowop.py --workload maeri128_none --seed 1 [--trace]
    python3 perfbench/flowop.py --workload maeri128_none --setup-only

It times the set-up (importing the flow stack plus
``TechSetup.build``), then one ``run_flow`` with ``workers=1`` and no
store, reads peak RSS and the program's work counters, and only then,
outside the timed window, checks the outputs.  ``--trace`` wraps each
layer's entry points (see ``layers.py``) for per-layer attribution.
The result is one JSON object on the last line of standard output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

#: Work counters read from ``repro.obs.metrics`` after the flow.
COUNTERS = (
    "route.nets_routed", "route.probes",
    "sta.arc_propagations", "sta.inc.updates", "sta.inc.arcs_patched",
    "place.factorizations", "place.level_solves",
    "select.dgi.batches", "select.finetune.batches",
)

#: ``TimingReport`` fields the incremental report must share with a
#: fresh full STA of the final routing.
STA_FIELDS = ("wns_ps", "tns_ns", "num_violating")


def host_fingerprint() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def check_outputs(report) -> list[str]:
    """Correctness failures of one finished flow (empty when sound)."""
    from repro.timing import run_sta

    design = report.design
    failures = []
    fresh = run_sta(design)
    for name in STA_FIELDS:
        got, want = getattr(report.final_sta, name), getattr(fresh, name)
        if got != want:
            failures.append(f"final report {name}={got!r} but a fresh "
                            f"run_sta gives {want!r}")
    extra = report.applied_mls - report.requested_mls
    if extra:
        failures.append(f"{len(extra)} MLS nets applied but not "
                        f"requested, e.g. {sorted(extra)[:3]}")
    trees = design.require_routing().trees
    missing = [net.name for net in design.netlist.signal_nets()
               if net.name not in trees]
    if missing:
        failures.append(f"{len(missing)} signal nets have no route tree, "
                        f"e.g. {missing[:3]}")
    for key, value in report.row().items():
        if not math.isfinite(value):
            failures.append(f"row field {key} is {value!r}")
    return failures


def quality(report) -> dict:
    """The flow's deterministic outputs: the table row without its
    wall-clock ``runtime_min``, plus placement HPWL and overflow."""
    row = report.row()
    del row["runtime_min"]
    row["hpwl_m"] = report.design.require_placement().hpwl() * 1e-6
    row["overflow_nets"] = report.design.require_routing().overflow_nets()
    row["requested_mls"] = len(report.requested_mls)
    return row


def setup(workload):
    """Import the flow stack and build the technology: what every
    command-line call pays before its first stage."""
    from repro.core.flow import run_flow  # noqa: F401
    from repro.harness.designs import get_benchmark

    spec = get_benchmark(workload.benchmark)
    tech = spec.tech()
    return spec, tech, time.perf_counter() - _T0


def run_op(workload, seed: int, traced: bool) -> dict:
    spec, tech, setup_s = setup(workload)
    from repro.core.flow import FlowConfig, run_flow
    from repro.obs import metrics

    config = FlowConfig(selector=workload.selector,
                        target_freq_mhz=spec.target_freq_mhz,
                        num_paths=spec.num_paths,
                        num_labeled=spec.num_labeled,
                        with_scan=workload.with_scan,
                        dft_strategy=workload.dft_strategy,
                        activity=spec.activity)
    out = {"seed": seed, "setup_s": setup_s, "host": host_fingerprint()}

    factory, clock, patches = spec.factory, None, nullcontext()
    if traced:
        from layers import LayerClock
        clock = LayerClock(keep=("netlist.generate", "dft.fault_sim"))
        factory = clock.wrap("netlist.generate", factory)
        patches = clock.installed()

    metrics.reset()
    try:
        with patches:
            t0 = time.perf_counter()
            report = run_flow(factory, tech, spec.seeds(seed), config)
            flow_s = time.perf_counter() - t0
    except Exception:
        out["error"] = traceback.format_exc(limit=8)
        return out
    out["flow_s"] = flow_s
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["counters"] = {name: metrics.counter(name) for name in COUNTERS}
    if clock is not None:
        netlist = clock.last_result["netlist.generate"]
        sim = clock.last_result.get("dft.fault_sim")
        out["layers"] = {
            "self_s": dict(clock.self_s),
            "calls": dict(clock.calls),
            "netlist_instances": len(netlist.instances),
            "netlist_nets": len(netlist.nets),
            "faults_simulated": sim.simulated_faults if sim else 0,
        }
    try:
        out["quality"] = quality(report)
        out["failures"] = check_outputs(report)
    except Exception:
        out["error"] = traceback.format_exc(limit=8)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="workload seed (not used with --setup-only)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None and not args.setup_only:
        parser.error("--seed is required")
    if args.setup_only:
        out = {"setup_s": setup(workload)[2]}
    else:
        out = run_op(workload, args.seed, args.trace)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
