"""SCOAP testability analysis (combinational, scan view).

Controllabilities (CC0/CC1) propagate forward from controllable
sources; observability (CO) propagates backward from observation
points.  Per-cell transfer functions are derived *generically* from
the cell's logic function by truth-table enumeration — any cell the
library grows later is covered automatically.

Used for testability reporting and as the coverage estimator for
designs too large to fault-simulate exactly (the estimator is
calibrated against exact simulation on small designs in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DFTError
from repro.netlist.netlist import Netlist
from repro.dft.logic3 import truth_table

_INF = float("inf")


@dataclass
class ScoapResult:
    """Per-net SCOAP numbers."""

    cc0: dict[str, float]
    cc1: dict[str, float]
    co: dict[str, float]

    def testability(self, net_name: str) -> float:
        """Combined difficulty score of a net (lower = easier)."""
        return (min(self.cc0.get(net_name, _INF),
                    self.cc1.get(net_name, _INF))
                + self.co.get(net_name, _INF))

    def hard_nets(self, threshold: float = 50.0) -> list[str]:
        """Nets whose testability score exceeds *threshold*."""
        return sorted(n for n in self.co
                      if self.testability(n) > threshold)


def compute_scoap(netlist: Netlist,
                  cut_nets: set[str] | None = None) -> ScoapResult:
    """SCOAP over the scan view of *netlist*.

    ``cut_nets`` (MLS opens) become uncontrollable past the cut and
    unobservable through it, mirroring the fault simulator's model.
    """
    cut = set(cut_nets or ())
    cc0: dict[str, float] = {}
    cc1: dict[str, float] = {}
    co: dict[str, float] = {}

    # Sources: ports, sequential outputs.
    for port in netlist.ports.values():
        net = port.pin.net
        if net is not None and port.direction == "in" and not net.is_clock:
            cc0[net.name] = cc1[net.name] = 1.0
    for inst in netlist.sequential_instances():
        net = inst.output_pin.net
        if net is not None:
            cc0[net.name] = cc1[net.name] = 1.0

    order = netlist.topological_order()
    for inst in order:
        out_net = inst.output_pin.net
        if out_net is None:
            continue
        in_nets = [p.net for p in inst.input_pins()]
        in_cc = []
        for n in in_nets:
            if n is None or n.name in cut:
                in_cc.append((_INF, _INF))
            else:
                in_cc.append((cc0.get(n.name, _INF), cc1.get(n.name, _INF)))
        table = truth_table(inst.cell)
        best = {0: _INF, 1: _INF}
        for bits, out in table:
            cost = 1.0
            for bit, (c0, c1) in zip(bits, in_cc):
                cost += c1 if bit else c0
            if cost < best[out]:
                best[out] = cost
        cc0[out_net.name] = min(cc0.get(out_net.name, _INF), best[0])
        cc1[out_net.name] = min(cc1.get(out_net.name, _INF), best[1])

    # Observation points.
    for port in netlist.ports.values():
        net = port.pin.net
        if net is not None and port.direction == "out":
            co[net.name] = 0.0
    for inst in netlist.sequential_instances():
        for pin in inst.input_pins():
            if pin.name == "SE":
                continue
            if pin.net is not None and pin.net.name not in cut:
                co[pin.net.name] = 0.0

    for inst in reversed(order):
        out_net = inst.output_pin.net
        if out_net is None or out_net.name in cut:
            continue
        out_co = co.get(out_net.name, _INF)
        table = truth_table(inst.cell)
        in_nets = [p.net for p in inst.input_pins()]
        in_cc = []
        for n in in_nets:
            if n is None or n.name in cut:
                in_cc.append((_INF, _INF))
            else:
                in_cc.append((cc0.get(n.name, _INF), cc1.get(n.name, _INF)))
        for i, net in enumerate(in_nets):
            if net is None or net.name in cut:
                continue
            # Sensitization: cheapest side-input assignment where
            # toggling input i toggles the output.
            best = _INF
            by_rest: dict[tuple[int, ...], dict[int, int]] = {}
            for bits, out in table:
                rest = bits[:i] + bits[i + 1:]
                by_rest.setdefault(rest, {})[bits[i]] = out
            for rest, outcomes in by_rest.items():
                if len(outcomes) < 2 or outcomes[0] == outcomes[1]:
                    continue
                cost = 1.0
                rest_cc = in_cc[:i] + in_cc[i + 1:]
                for bit, (c0, c1) in zip(rest, rest_cc):
                    cost += c1 if bit else c0
                best = min(best, cost)
            cand = out_co + best
            if cand < co.get(net.name, _INF):
                co[net.name] = cand

    return ScoapResult(cc0=cc0, cc1=cc1, co=co)


def estimate_coverage_pct(netlist: Netlist, scoap: ScoapResult,
                          patterns: int = 192,
                          difficulty_scale: float = 9.0) -> float:
    """Random-pattern coverage estimate from SCOAP scores.

    Each net's detection probability per pattern is modeled as
    ``2**-(score/difficulty_scale)``; coverage is the mean detection
    probability over nets after *patterns* vectors.  The scale factor
    is calibrated against exact fault simulation in the test suite.
    """
    if patterns <= 0:
        raise DFTError("patterns must be positive")
    nets = [n for n in netlist.signal_nets()]
    if not nets:
        return 100.0
    detected = 0.0
    for net in nets:
        score = scoap.testability(net.name)
        if math.isinf(score):
            continue
        p = 2.0 ** (-score / difficulty_scale)
        detected += 1.0 - (1.0 - min(p, 1.0)) ** patterns
    return 100.0 * detected / len(nets)
