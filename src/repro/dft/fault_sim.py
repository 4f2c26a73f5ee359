"""Event-driven random-pattern stuck-at fault simulation.

Simulates the full-scan combinational view: controllable sources are
input ports, scan-flop Q pins and macro Q pins (memory BIST bypass);
observation points are output ports, flop D/SI pins and macro data
pins, plus any caller-supplied extra observe nets (the MLS DFT
strategies observe the driver side of each shared net).

Signals are three-valued and pattern-wide: each net carries a
``(value, known)`` pair of Python ints with one bit per pattern, and
gates evaluate exactly in dual rail (:mod:`repro.dft.logic3`), so a
known MUX select masks an X data input.  ``cut_nets`` model the open
connections MLS creates during individual-die test: their sinks read
X in die-level test mode (Figure 3).

The view is compiled once per call: integer net ids, the
combinational gates by topological position with their input and
output ids, and per-net fanout positions.  Each fault is then
simulated event by event: inject it at its site, evaluate (in
topological order, off a heap) only gates with a changed input, stop
at cut nets, and stop at the first observation net where the faulty
and good machines differ on a pattern both know.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DFTError
from repro.netlist.netlist import Netlist
from repro.dft.faults import Fault, FaultUniverse, SA1
from repro.dft.logic3 import eval_gate
from repro.obs import metrics


@dataclass
class FaultSimResult:
    """Coverage outcome."""

    total_faults: int          # uncollapsed universe size
    simulated_faults: int      # collapsed set actually simulated
    detected_collapsed: int
    patterns: int

    @property
    def coverage_pct(self) -> float:
        """Detected fraction of the simulated (collapsed) set, as %."""
        if self.simulated_faults == 0:
            return 100.0
        return 100.0 * self.detected_collapsed / self.simulated_faults

    @property
    def detected_total(self) -> int:
        """Detected count scaled back to the uncollapsed universe —
        what a tool's fault report prints next to 'total faults'."""
        return round(self.total_faults * self.coverage_pct / 100.0)

    def summary(self) -> dict[str, float]:
        return {
            "total_faults": self.total_faults,
            "detected": self.detected_total,
            "coverage_pct": self.coverage_pct,
            "patterns": self.patterns,
        }


class _ScanView:
    """The combinational scan view compiled to integer ids.

    Net ``i`` has good-machine ints ``value[i]``/``known[i]``; nets the
    view never drives stay X (0, 0).  Gate ``pos`` (topological
    position) reads ``ins[pos]`` and drives ``outs[pos]``.  A sink on a
    cut net or on no net reads the extra, always-X id ``len(nets)``, so
    cut nets have no fanout and stop propagation by construction.
    """

    def __init__(self, netlist: Netlist, patterns: int,
                 cut_nets: set[str], extra_observe: set[str]):
        self.netlist = netlist
        self.cut_nets = cut_nets
        self.words = patterns // 64
        self.mask = (1 << patterns) - 1
        self.net_id = {name: i for i, name in enumerate(netlist.nets)}
        x_id = len(self.net_id)
        self.value = [0] * (x_id + 1)
        self.known = [0] * (x_id + 1)

        def read_id(net) -> int:
            if net is None or net.name in cut_nets:
                return x_id
            return self.net_id[net.name]

        self.gate_pos: dict[str, int] = {}
        self.cells = []
        self.ins: list[tuple[int, ...]] = []
        self.outs: list[int] = []
        fanout: list[list[int]] = [[] for _ in range(x_id + 1)]
        for inst in netlist.topological_order():
            out_net = inst.output_pin.net
            if out_net is None:
                continue
            pos = len(self.outs)
            self.gate_pos[inst.name] = pos
            self.cells.append(inst.cell)
            ins = tuple(read_id(pin.net) for pin in inst.input_pins())
            self.ins.append(ins)
            self.outs.append(self.net_id[out_net.name])
            for net_id in set(ins):
                fanout[net_id].append(pos)
        # Positions were appended in ascending order: each list is
        # already a valid heap.
        self.fanout = [tuple(f) for f in fanout]

        observe = set(extra_observe)
        for port in netlist.ports.values():
            if port.direction == "out" and port.pin.net is not None:
                observe.add(port.pin.net.name)
        for inst in netlist.sequential_instances():
            for pin in inst.input_pins():
                if pin.name == "SE":
                    continue
                if pin.net is not None and pin.net.name not in cut_nets:
                    observe.add(pin.net.name)
        self.observed = frozenset(self.net_id[name] for name in observe
                                  if name in self.net_id)

    # -- good machine --------------------------------------------------------

    def simulate_good(self, rng: np.random.Generator,
                      pinned_ports: dict[str, int]) -> None:
        """Random source values, then every gate in topological order.

        Draws one random word per 64 patterns for each unpinned input
        port, then each sequential output, in netlist order.
        """
        mask, words = self.mask, self.words
        value, known = self.value, self.known
        netlist = self.netlist
        for port in netlist.ports.values():
            net = port.pin.net
            if net is None or net.is_clock or port.direction != "in":
                continue
            i = self.net_id[net.name]
            if port.name in pinned_ports:
                value[i] = mask if pinned_ports[port.name] else 0
            else:
                value[i] = _rand_int(rng, words)
            known[i] = mask
        for inst in netlist.sequential_instances():
            net = inst.output_pin.net
            if net is None:
                continue
            i = self.net_id[net.name]
            value[i] = _rand_int(rng, words)
            known[i] = mask
        for cell, ins, out in zip(self.cells, self.ins, self.outs):
            value[out], known[out] = eval_gate(
                cell, [value[i] for i in ins], [known[i] for i in ins],
                mask)

    # -- faulty machine ------------------------------------------------------

    def detects(self, fault: Fault) -> tuple[bool, int]:
        """(detected, gates evaluated) for one fault."""
        net, inst, pin_name = _fault_site(self.netlist, fault.site)
        if net is None:
            return False, 0
        mask = self.mask
        stuck = mask if fault.stuck == SA1 else 0
        value, known = self.value, self.known

        if fault.kind == "boundary":
            # Macro-input / output-port fault: detected iff the net is
            # observable there (it is an obs point by construction) and
            # a known good value differs from the stuck value.
            if net.name in self.cut_nets:
                return False, 0
            i = self.net_id[net.name]
            return bool((value[i] ^ stuck) & known[i]), 0
        if fault.kind == "out":
            return self._propagate(self.net_id[net.name], stuck, mask)

        # Input fault: evaluate the owning gate with the pin forced.
        pos = self.gate_pos.get(inst.name)
        if pos is None:
            return False, 0
        slot = inst.cell.inputs.index(pin_name)
        ins = self.ins[pos]
        ins_v = [value[i] for i in ins]
        ins_k = [known[i] for i in ins]
        ins_v[slot], ins_k[slot] = stuck, mask
        site_v, site_k = eval_gate(self.cells[pos], ins_v, ins_k, mask)
        detected, evals = self._propagate(self.outs[pos], site_v, site_k)
        return detected, evals + 1

    def _propagate(self, site: int, site_v: int, site_k: int
                   ) -> tuple[bool, int]:
        """(detected, gates evaluated) with net *site* forced to
        (site_v, site_k); faulty values live in fault-local dicts."""
        value, known = self.value, self.known
        if site_v == value[site] and site_k == known[site]:
            return False, 0
        if site in self.observed \
                and (value[site] ^ site_v) & known[site] & site_k:
            return True, 0
        mask, observed = self.mask, self.observed
        cells, ins_of, outs, fanout = \
            self.cells, self.ins, self.outs, self.fanout
        faulty_v = {site: site_v}
        faulty_k = {site: site_k}
        heap = list(fanout[site])
        queued = set(heap)
        evals = 0
        while heap:
            pos = heapq.heappop(heap)
            ins = ins_of[pos]
            new_v, new_k = eval_gate(
                cells[pos],
                [faulty_v[i] if i in faulty_v else value[i] for i in ins],
                [faulty_k[i] if i in faulty_k else known[i] for i in ins],
                mask)
            evals += 1
            out = outs[pos]
            good_v, good_k = value[out], known[out]
            if new_v == good_v and new_k == good_k:
                continue
            if out in observed and (good_v ^ new_v) & good_k & new_k:
                return True, evals
            faulty_v[out] = new_v
            faulty_k[out] = new_k
            for nxt in fanout[out]:
                if nxt not in queued:
                    queued.add(nxt)
                    heapq.heappush(heap, nxt)
        return False, evals


def _rand_int(rng: np.random.Generator, words: int) -> int:
    """*words* random 64-bit words packed little-endian into one int
    (word ``w`` holds patterns ``64w .. 64w+63``)."""
    arr = rng.integers(0, 2 ** 63, size=words, dtype=np.uint64) \
        ^ (rng.integers(0, 2, size=words, dtype=np.uint64) << np.uint64(63))
    return int.from_bytes(arr.astype("<u8").tobytes(), "little")


def _fault_site(netlist: Netlist, site: str):
    """Resolve a pin full-name to (net, owner_instance, pin_name)."""
    if site.startswith("port:"):
        port = netlist.port(site[5:])
        return port.pin.net, None, port.name
    inst_name, pin_name = site.rsplit("/", 1)
    inst = netlist.instance(inst_name)
    return inst.pins[pin_name].net, inst, pin_name


def detect_faults(netlist: Netlist, faults: list[Fault],
                  rng: np.random.Generator,
                  patterns: int = 192,
                  cut_nets: set[str] | None = None,
                  pinned_ports: dict[str, int] | None = None,
                  extra_observe: set[str] | None = None) -> list[bool]:
    """Per-fault detection flags of *faults* under *patterns* random
    vectors drawn from *rng*."""
    if patterns < 64 or patterns % 64:
        raise DFTError("patterns must be a positive multiple of 64")
    t0 = time.perf_counter()
    view = _ScanView(netlist, patterns, set(cut_nets or ()),
                     set(extra_observe or ()))
    t1 = time.perf_counter()
    view.simulate_good(rng, dict(pinned_ports or {}))
    t2 = time.perf_counter()
    hits = []
    evals = 0
    for fault in faults:
        hit, n = view.detects(fault)
        hits.append(hit)
        evals += n
    t3 = time.perf_counter()
    metrics.add_time("dft.fsim.compile_s", t1 - t0)
    metrics.add_time("dft.fsim.view_s", t2 - t1)
    metrics.add_time("dft.fsim.detect_s", t3 - t2)
    metrics.inc("dft.fsim.faults", len(faults))
    metrics.inc("dft.fsim.gate_evals", evals)
    return hits


def simulate_faults(netlist: Netlist, universe: FaultUniverse,
                    rng: np.random.Generator,
                    patterns: int = 192,
                    cut_nets: set[str] | None = None,
                    pinned_ports: dict[str, int] | None = None,
                    extra_observe: set[str] | None = None,
                    max_faults: int | None = None
                    ) -> FaultSimResult:
    """Simulate the collapsed universe under *patterns* random vectors.

    ``max_faults`` caps the simulated set by deterministic stride
    sampling (fault-sampled coverage, the standard practice for large
    designs); reported coverage then extrapolates from the sample.
    """
    faults = list(universe)
    if max_faults is not None and len(faults) > max_faults:
        stride = -(-len(faults) // max_faults)     # ceil division
        faults = faults[::stride]
    hits = detect_faults(netlist, faults, rng, patterns=patterns,
                         cut_nets=cut_nets, pinned_ports=pinned_ports,
                         extra_observe=extra_observe)
    return FaultSimResult(
        total_faults=universe.total,
        simulated_faults=len(faults),
        detected_collapsed=sum(hits),
        patterns=patterns,
    )
