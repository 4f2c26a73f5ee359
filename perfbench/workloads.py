"""The benchmark's workloads: one fixed flow configuration each.

Kept free of ``repro`` imports so ``run.py`` can validate its
arguments without loading the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: Key into ``repro.harness.designs.BENCHMARKS``.
    benchmark: str
    selector: str
    with_scan: bool = False
    dft_strategy: Optional[str] = None


WORKLOADS = {w.name: w for w in (
    # Routing-dominated: two full routes, baseline STA, prepare; the
    # selector does no work, so nn/core changes must not move it.
    Workload("maeri128_none", "maeri128_hetero", "none"),
    # Same netlist, GNN selector: dataset + DGI + fine-tune + refine
    # are about half the flow, with four MLS-heavy routes and
    # incremental STA updates.
    Workload("maeri128_gnn", "maeri128_hetero", "gnn"),
    # Different design family (8 BEOL layers, scan flops): heuristic
    # MLS, wire-based MLS DFT and die-test fault simulation dominate.
    Workload("a7_sota_dft", "a7_hetero", "sota", with_scan=True,
             dft_strategy="wire-based"),
)}
