"""Reference STA: the list-of-lists graph and the pure-Python loop.

:func:`repro.timing.build_timing_graph` builds the levelized edge
arrays directly and :func:`repro.timing.run_sta` propagates over them.
This module holds the executable spec both must match bit for bit:

* :func:`build_reference_graph` — per-pin ``fanout``/``fanin`` lists
  filled arc by arc in netlist order, and a FIFO Kahn ``topo`` order;
* :func:`flatten` — the serial edge order (``topo`` rank of the source,
  then fanout-list position), longest-path levels and the source and
  endpoint arrays, field for field what the array builder must equal
  (:func:`diverging_fields` names the fields that do not);
* :func:`propagate_serial` — the plain propagation loop, whose
  first-strict-improvement rule defines the ``worst_pred`` tie-break.

The STA tests and ``benchmarks/bench_sta.py --smoke`` compare against
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.design import Design
from repro.errors import TimingError
from repro.netlist.net import Pin
from repro.timing.delay import (cell_output_delay, port_drive_delay,
                                setup_time)
from repro.timing.sta import TimingReport

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class ReferenceGraph:
    """Arrays-of-lists timing graph over pin indices."""

    pins: list[Pin]
    pin_index: dict[str, int]             # pin full_name -> idx
    fanout: list[list[tuple[int, float]]]   # idx -> [(to, delay)]
    fanin: list[list[tuple[int, float]]]    # idx -> [(from, delay)]
    sources: list[tuple[int, float]]        # (idx, launch delay)
    endpoints: list[tuple[int, float]]      # (idx, setup requirement)
    topo: list[int]                        # topological pin order


def _is_false_path_pin(pin: Pin) -> bool:
    """Scan-enable pins are static in functional mode."""
    return pin.owner is not None and pin.name == "SE"


def build_reference_graph(design: Design) -> ReferenceGraph:
    """Build the list-of-lists graph from the netlist + parasitics."""
    netlist = design.netlist
    routing = design.require_routing()

    pins: list[Pin] = []
    pin_index: dict[str, int] = {}

    def register(pin: Pin) -> int:
        idx = pin_index.get(pin.full_name)
        if idx is None:
            idx = len(pins)
            pins.append(pin)
            pin_index[pin.full_name] = idx
        return idx

    for inst in netlist.instances.values():
        for pin in inst.pins.values():
            register(pin)
    for port in netlist.ports.values():
        register(port.pin)

    fanout: list[list[tuple[int, float]]] = [[] for _ in pins]
    fanin: list[list[tuple[int, float]]] = [[] for _ in pins]

    def add_arc(src: int, dst: int, delay: float) -> None:
        fanout[src].append((dst, delay))
        fanin[dst].append((src, delay))

    # Net arcs.
    for net in netlist.signal_nets():
        if net.driver is None:
            continue
        rc = routing.rc.get(net.name)
        src = pin_index[net.driver.full_name]
        for sink in net.sinks:
            if _is_false_path_pin(sink):
                continue
            wire = 0.0
            if rc is not None:
                wire = rc.sink_delay_ps.get(sink.full_name, 0.0)
            add_arc(src, pin_index[sink.full_name], wire)

    # Cell arcs for combinational cells.
    sources: list[tuple[int, float]] = []
    endpoints: list[tuple[int, float]] = []
    for inst in netlist.instances.values():
        out_pin = inst.output_pin
        out_net = out_pin.net
        load = 0.0
        if out_net is not None:
            rc = routing.rc.get(out_net.name)
            load = rc.load_ff if rc is not None else out_net.sink_cap_ff()
        delay = cell_output_delay(inst.cell, load)
        out_idx = pin_index[out_pin.full_name]
        if inst.is_sequential:
            sources.append((out_idx, delay))    # clk->q launch
            req = setup_time(inst.cell)
            for pin in inst.input_pins():
                if _is_false_path_pin(pin) or pin.name == "SI":
                    continue    # scan shift is checked at scan speed
                endpoints.append((pin_index[pin.full_name], req))
        else:
            for pin in inst.input_pins():
                if _is_false_path_pin(pin):
                    continue
                add_arc(pin_index[pin.full_name], out_idx, delay)

    # Ports.
    for port in netlist.ports.values():
        idx = pin_index[port.pin.full_name]
        if port.false_path:
            continue
        if port.direction == "in":
            if port.pin.net is not None and port.pin.net.is_clock:
                continue    # ideal clock source: not a data source
            net = port.pin.net
            load = 0.0
            if net is not None:
                rc = routing.rc.get(net.name)
                load = rc.load_ff if rc is not None else 0.0
            sources.append((idx, port_drive_delay(load)))
        else:
            endpoints.append((idx, 0.0))

    topo = topological_pins(fanin, fanout)
    return ReferenceGraph(pins=pins, pin_index=pin_index, fanout=fanout,
                          fanin=fanin, sources=sources,
                          endpoints=endpoints, topo=topo)


def topological_pins(fanin, fanout) -> list[int]:
    """FIFO Kahn's algorithm over pin arcs; raises on cycles."""
    n = len(fanin)
    indeg = [len(fanin[i]) for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        order.append(u)
        for v, _ in fanout[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != n:
        raise TimingError(
            f"timing graph has a cycle: ordered {len(order)}/{n} pins")
    return order


def flatten(graph: ReferenceGraph) -> dict[str, np.ndarray]:
    """The serial-order edge arrays, levels, sources and endpoints."""
    n = len(graph.pins)
    level = np.zeros(n, dtype=np.int32)
    for u in graph.topo:
        lu = level[u] + 1
        for v, _ in graph.fanout[u]:
            if level[v] < lu:
                level[v] = lu
    edges = [(u, v, delay) for u in graph.topo
             for v, delay in graph.fanout[u]]
    return {
        "edge_src": np.array([e[0] for e in edges], dtype=np.int32),
        "edge_dst": np.array([e[1] for e in edges], dtype=np.int32),
        "edge_delay": np.array([e[2] for e in edges], dtype=np.float64),
        "level": level,
        "src_idx": np.array([i for i, _ in graph.sources], dtype=np.int32),
        "src_launch": np.array([d for _, d in graph.sources],
                               dtype=np.float64),
        "ep_idx": np.array([i for i, _ in graph.endpoints], dtype=np.int32),
        "ep_setup": np.array([s for _, s in graph.endpoints],
                             dtype=np.float64),
    }


def diverging_fields(graph, ref: ReferenceGraph) -> list[str]:
    """Fields of the array *graph* that differ from :func:`flatten`."""
    bad = [] if [p.full_name for p in graph.pins] \
        == [p.full_name for p in ref.pins] else ["pins"]
    for name, want in flatten(ref).items():
        got = getattr(graph, name)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            bad.append(name)
    return bad


def propagate_serial(graph: ReferenceGraph, period: float
                     ) -> tuple[list[float], list[float],
                                dict[str, float], list[int]]:
    """Reference Python-loop propagation (the executable spec)."""
    n = len(graph.pins)
    arrival = [_NEG_INF] * n
    worst_pred = [-1] * n
    for idx, launch in graph.sources:
        if launch > arrival[idx]:
            arrival[idx] = launch

    for u in graph.topo:
        au = arrival[u]
        if au == _NEG_INF:
            continue
        for v, delay in graph.fanout[u]:
            cand = au + delay
            if cand > arrival[v]:
                arrival[v] = cand
                worst_pred[v] = u

    required = [_POS_INF] * n
    endpoint_slack: dict[str, float] = {}
    for idx, setup in graph.endpoints:
        req = period - setup
        required[idx] = min(required[idx], req)
        at = arrival[idx]
        if at == _NEG_INF:
            continue    # unreachable endpoint (e.g. tied-off logic)
        endpoint_slack[graph.pins[idx].full_name] = req - at

    for u in reversed(graph.topo):
        ru = required[u]
        for v, delay in graph.fanout[u]:
            cand = required[v] - delay
            if cand < ru:
                ru = cand
        required[u] = ru

    return arrival, required, endpoint_slack, worst_pred


def run_sta_serial(design: Design, graph: ReferenceGraph | None = None
                   ) -> TimingReport:
    """Full STA with the reference loop; same report shape as
    :func:`repro.timing.run_sta`."""
    if graph is None:
        graph = build_reference_graph(design)
    period = design.clock_period_ps
    arrival, required, endpoint_slack, worst_pred = \
        propagate_serial(graph, period)
    return TimingReport(clock_period_ps=period, graph=graph,
                        arrival=arrival, required=required,
                        endpoint_slack=endpoint_slack,
                        worst_pred=worst_pred)
