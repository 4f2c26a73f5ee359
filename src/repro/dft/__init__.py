"""Design-for-Test: scan, testability analysis, fault simulation,
and the paper's two MLS DFT strategies.

The chain of capabilities mirrors a production test flow at simulator
scale: full-scan insertion (DFF -> SDFF swap + placement-ordered chain
stitching), SCOAP controllability/observability, a collapsed stuck-at
fault universe, event-driven random-pattern fault simulation on the
scan view (three-valued, all patterns of a net in one int), and the
Figure 6 strategies — net-based (MUX) and wire-based (scan-FF) repair
of the open connections MLS creates in hybrid-bonded dies (Table III /
Table VI).
"""

from repro.dft.scan import ScanChain, insert_scan
from repro.dft.scoap import ScoapResult, compute_scoap
from repro.dft.faults import Fault, FaultUniverse, build_fault_universe
from repro.dft.fault_sim import (FaultSimResult, detect_faults,
                                 simulate_faults)
from repro.dft.logic3 import eval_gate, truth_table
from repro.dft.mls_dft import (
    MLSDftResult,
    NET_BASED,
    WIRE_BASED,
    apply_mls_dft,
    apply_net_based_dft,
    apply_wire_based_dft,
    die_test_conditions,
    die_test_fault_sim,
    untestable_fault_fraction,
)

__all__ = [
    "ScanChain",
    "insert_scan",
    "ScoapResult",
    "compute_scoap",
    "Fault",
    "FaultUniverse",
    "build_fault_universe",
    "FaultSimResult",
    "detect_faults",
    "simulate_faults",
    "eval_gate",
    "truth_table",
    "MLSDftResult",
    "NET_BASED",
    "WIRE_BASED",
    "apply_mls_dft",
    "apply_net_based_dft",
    "apply_wire_based_dft",
    "die_test_conditions",
    "die_test_fault_sim",
    "untestable_fault_fraction",
]
