"""Reference fault simulator: the cone-walking detector, kept as the oracle.

:func:`repro.dft.fault_sim.detect_faults` simulates each fault
event-driven over a compiled view with pattern-wide Python ints.  This
module keeps the earlier implementation it must match fault for fault:
NumPy ``uint64`` word arrays per net, a per-fault downstream cone
found by walking sinks, and every cone gate with a dirty input
re-evaluated in topological order through the NumPy dual-rail
evaluator below.  Random words are drawn from the caller's generator
in the same calls and order, so both simulators see the same patterns.
The fault-simulation tests and ``benchmarks/bench_fault_sim.py``
compare against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.dft.faults import Fault, SA1
from repro.errors import DFTError
from repro.netlist.cell import Instance
from repro.netlist.netlist import Netlist
from repro.tech.cells import CellType

_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_ONE = np.uint64(1)

_TABLE_CACHE: dict[str, list[tuple[tuple[int, ...], int]]] = {}


def truth_rows(cell: CellType) -> list[tuple[tuple[int, ...], int]]:
    """Truth rows of *cell*, enumerated over all-0/all-1 ``uint64`` words."""
    rows = _TABLE_CACHE.get(cell.name)
    if rows is None:
        rows = []
        for bits in itertools.product((0, 1), repeat=cell.num_inputs):
            words = [np.uint64(0) if b == 0 else _ALL for b in bits]
            out = int(cell.evaluate(*words) & _ONE)
            rows.append((bits, out))
        _TABLE_CACHE[cell.name] = rows
    return rows


def eval_gate_words(cell: CellType, ins_v: list[np.ndarray],
                    ins_k: list[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one gate over (value, known) ``uint64`` word arrays."""
    known_all = None
    for k in ins_k:
        known_all = k if known_all is None else (known_all & k)
    if known_all is None:
        size = 1
        return (np.zeros(size, dtype=np.uint64),
                np.zeros(size, dtype=np.uint64))
    if bool((known_all == _ALL).all()):
        value = cell.evaluate(*ins_v)
        return value, known_all

    # Dual-rail exact path.
    can1 = [v | ~k for v, k in zip(ins_v, ins_k)]
    can0 = [(~v) | (~k) for v, k in zip(ins_v, ins_k)]
    out1 = np.zeros_like(ins_v[0])
    out0 = np.zeros_like(ins_v[0])
    for bits, out in truth_rows(cell):
        term = None
        for bit, c1, c0 in zip(bits, can1, can0):
            rail = c1 if bit else c0
            term = rail if term is None else (term & rail)
        if out:
            out1 |= term
        else:
            out0 |= term
    known = ~(out1 & out0)
    value = out1 & known
    return value, known


def rand_words(rng: np.random.Generator, words: int) -> np.ndarray:
    return rng.integers(0, 2 ** 63, size=words, dtype=np.uint64) \
        ^ (rng.integers(0, 2, size=words, dtype=np.uint64) << np.uint64(63))


class ScanViewReference:
    """Levelized combinational view with (value, known) word arrays."""

    def __init__(self, netlist: Netlist, words: int,
                 rng: np.random.Generator,
                 cut_nets: set[str],
                 pinned_ports: dict[str, int],
                 extra_observe: set[str]):
        self.netlist = netlist
        self.words = words
        self.cut_nets = cut_nets
        self.order = netlist.topological_order()
        self.value: dict[str, np.ndarray] = {}
        self.known: dict[str, np.ndarray] = {}

        # Controllable sources get independent random words.
        for port in netlist.ports.values():
            net = port.pin.net
            if net is None or net.is_clock or port.direction != "in":
                continue
            if port.name in pinned_ports:
                word = _ALL if pinned_ports[port.name] else np.uint64(0)
                self.value[net.name] = np.full(words, word, dtype=np.uint64)
            else:
                self.value[net.name] = rand_words(rng, words)
            self.known[net.name] = np.full(words, _ALL, dtype=np.uint64)
        for inst in netlist.sequential_instances():
            net = inst.output_pin.net
            if net is None:
                continue
            self.value[net.name] = rand_words(rng, words)
            self.known[net.name] = np.full(words, _ALL, dtype=np.uint64)

        self.observe_nets = self._observation_nets(extra_observe)
        self._evaluate_all()

    def _evaluate_all(self) -> None:
        zero = np.zeros(self.words, dtype=np.uint64)
        for inst in self.order:
            out_net = inst.output_pin.net
            if out_net is None:
                continue
            ins_v, ins_k = [], []
            for pin in inst.input_pins():
                v, k = self._pin_words(pin, zero)
                ins_v.append(v)
                ins_k.append(k)
            value, known = eval_gate_words(inst.cell, ins_v, ins_k)
            self.value[out_net.name] = value
            self.known[out_net.name] = known

    def _pin_words(self, pin, zero):
        """(value, known) seen AT a sink pin, honouring cut nets."""
        net = pin.net
        if net is None:
            return zero, zero
        if net.name in self.cut_nets:
            return zero, zero          # open connection: X
        v = self.value.get(net.name)
        k = self.known.get(net.name)
        if v is None:
            return zero, zero          # undriven in scan view
        return v, k

    def _observation_nets(self, extra: set[str]) -> list[str]:
        obs: set[str] = set(extra)
        for port in self.netlist.ports.values():
            if port.direction == "out" and port.pin.net is not None:
                obs.add(port.pin.net.name)
        for inst in self.netlist.instances.values():
            if not inst.is_sequential:
                continue
            for pin in inst.input_pins():
                if pin.name == "SE":
                    continue
                if pin.net is not None and pin.net.name not in self.cut_nets:
                    obs.add(pin.net.name)
        return sorted(obs)

    def downstream_cone(self, net_name: str) -> list[Instance]:
        """Combinational instances reachable from *net_name*, in
        topological order (cut nets block propagation)."""
        net = self.netlist.nets.get(net_name)
        if net is None:
            raise DFTError(f"unknown net {net_name}")
        hit: set[str] = set()
        frontier = [net]
        while frontier:
            cur = frontier.pop()
            if cur.name in self.cut_nets:
                continue
            for sink in cur.sinks:
                owner = sink.owner
                if owner is None or owner.is_sequential:
                    continue
                if sink.name == "SE" or sink is owner.clock_pin:
                    continue
                if owner.name in hit:
                    continue
                hit.add(owner.name)
                out = owner.output_pin.net
                if out is not None:
                    frontier.append(out)
        return [inst for inst in self.order if inst.name in hit]


def _fault_site(netlist: Netlist, site: str):
    if site.startswith("port:"):
        port = netlist.port(site[5:])
        return port.pin.net, None, port.name
    inst_name, pin_name = site.rsplit("/", 1)
    inst = netlist.instance(inst_name)
    return inst.pins[pin_name].net, inst, pin_name


def detect_one(netlist: Netlist, view: ScanViewReference, fault: Fault,
               obs_set: set[str], zero: np.ndarray) -> bool:
    net, inst, pin_name = _fault_site(netlist, fault.site)
    if net is None:
        return False
    stuck_word = _ALL if fault.stuck == SA1 else np.uint64(0)

    if fault.kind == "boundary":
        if net.name in view.cut_nets:
            return False
        good_v = view.value.get(net.name)
        good_k = view.known.get(net.name)
        if good_v is None:
            return False
        diff = (good_v ^ np.full_like(good_v, stuck_word)) & good_k
        return bool(diff.any())

    # Faulty value injected on the net (output fault) or privately at
    # one gate input (input fault), then cone-resimulated.
    faulty_v = dict()
    faulty_k = dict()

    def read(pin, values, knowns):
        n = pin.net
        if n is None or n.name in view.cut_nets:
            return zero, zero
        v = values.get(n.name, view.value.get(n.name))
        k = knowns.get(n.name, view.known.get(n.name))
        if v is None:
            return zero, zero
        return v, k

    if fault.kind == "out":
        faulty_v[net.name] = np.full(view.words, stuck_word, dtype=np.uint64)
        faulty_k[net.name] = np.full(view.words, _ALL, dtype=np.uint64)
        cone = view.downstream_cone(net.name)
        dirty = {net.name}
    else:
        # Input fault: re-evaluate the owning gate with the pin forced.
        assert inst is not None
        out_net = inst.output_pin.net
        if out_net is None or inst.is_sequential:
            return False
        ins_v, ins_k = [], []
        for pin in inst.input_pins():
            v, k = read(pin, faulty_v, faulty_k)
            if pin.name == pin_name:
                v = np.full(view.words, stuck_word, dtype=np.uint64)
                k = np.full(view.words, _ALL, dtype=np.uint64)
            ins_v.append(v)
            ins_k.append(k)
        value, known = eval_gate_words(inst.cell, ins_v, ins_k)
        faulty_v[out_net.name] = value
        faulty_k[out_net.name] = known
        cone = view.downstream_cone(out_net.name)
        dirty = {out_net.name}

    for gate in cone:
        if not any(p.net is not None and p.net.name in dirty
                   for p in gate.input_pins()):
            continue
        out_net2 = gate.output_pin.net
        if out_net2 is None:
            continue
        ins_v, ins_k = [], []
        for pin in gate.input_pins():
            v, k = read(pin, faulty_v, faulty_k)
            ins_v.append(v)
            ins_k.append(k)
        new_v, known = eval_gate_words(gate.cell, ins_v, ins_k)
        old_v = view.value.get(out_net2.name)
        old_k = view.known.get(out_net2.name)
        if old_v is not None and np.array_equal(new_v, old_v) \
                and np.array_equal(known, old_k):
            continue
        faulty_v[out_net2.name] = new_v
        faulty_k[out_net2.name] = known
        dirty.add(out_net2.name)

    for net_name in dirty:
        if net_name not in obs_set:
            continue
        good_v = view.value.get(net_name)
        good_k = view.known.get(net_name)
        if good_v is None:
            continue
        both_known = good_k & faulty_k[net_name]
        diff = (good_v ^ faulty_v[net_name]) & both_known
        if diff.any():
            return True
    return False


def detect_faults_reference(netlist: Netlist, faults: list[Fault],
                            rng: np.random.Generator,
                            patterns: int = 192,
                            cut_nets: set[str] | None = None,
                            pinned_ports: dict[str, int] | None = None,
                            extra_observe: set[str] | None = None
                            ) -> list[bool]:
    """Per-fault detection flags, computed the reference way."""
    if patterns < 64 or patterns % 64:
        raise DFTError("patterns must be a positive multiple of 64")
    words = patterns // 64
    view = ScanViewReference(netlist, words, rng,
                             cut_nets=set(cut_nets or ()),
                             pinned_ports=dict(pinned_ports or {}),
                             extra_observe=set(extra_observe or ()))
    zero = np.zeros(words, dtype=np.uint64)
    obs_set = set(view.observe_nets)
    return [detect_one(netlist, view, fault, obs_set, zero)
            for fault in faults]
