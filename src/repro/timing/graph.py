"""Pin-level timing graph: levelized edge arrays.

Nodes are pins (instance pins + port pins).  Arcs:

* **net arcs** — driver pin -> each sink pin, delay = Elmore wire delay
  from extracted parasitics;
* **cell arcs** — each data input -> output pin of combinational
  cells, delay = NLDM-lite cell delay under the output net's load;
* **launch** — sequential outputs and input ports are sources (clk->q
  delay, pad-driver delay respectively);
* **capture** — sequential data pins, macro data pins and output
  ports are endpoints.

Clock pins / nets are ideal (zero skew) and never propagate.  Scan-
enable pins are false paths.

The graph is flat arrays, built in two steps.  One pass over the
netlist collects the arcs in construction order: net arcs net by net,
then cell arcs instance by instance.  Array operations then peel the
pins level by level — a pin joins level ``L`` once all its
predecessors are placed, so ``L`` is its longest-path depth, and a
combinational cycle leaves pins unplaced and raises
:class:`TimingError`.  Level-0 pins rank by index; the pins of a later
level rank by the serial position of their last in-arc.  That is the
pop order of a FIFO Kahn walk over per-pin fanout lists, and edges are
stored in its **serial order**: by the rank of the source, then
construction position.  STA breaks ``worst_pred`` ties by that order,
so it is part of the golden contract; ``tests/sta_oracle.py`` keeps
the list-of-lists builder and the Kahn loop it must equal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.design import Design
from repro.errors import TimingError
from repro.netlist.net import Pin
from repro.obs import metrics, trace
from repro.timing.delay import (cell_output_delay, port_drive_delay,
                                setup_time)


@dataclass(eq=False)
class TimingGraph:
    """Levelized timing graph over pin indices.

    Edges are in serial order, so the edge index doubles as the
    ``worst_pred`` tie-break key.  The out-edges of pin ``u`` are edge
    ids ``out_start[u]:out_end[u]``; its in-edges are
    ``in_edges[in_start[u]:in_start[u + 1]]``, ascending.

    ``fwd_perm``/``fwd_starts`` group edges by the *destination* pin's
    level for the forward (arrival) sweep; ``bwd_perm``/``bwd_starts``
    group them by the *source* pin's level, highest first, for the
    backward (required) sweep.
    """

    pins: list[Pin]
    pin_index: dict[str, int]       # pin full_name -> idx
    edge_src: np.ndarray            # int32 [E], serial edge order
    edge_dst: np.ndarray            # int32 [E]
    edge_delay: np.ndarray          # float64 [E], patched on reroute
    num_net_arcs: int               # driver -> sink; the rest: cell arcs
    out_start: np.ndarray           # int64 [n]
    out_end: np.ndarray             # int64 [n]
    in_edges: np.ndarray            # int32 [E] grouped by dst pin
    in_start: np.ndarray            # int64 [n + 1]
    level: np.ndarray               # int32 [n], longest-path depth
    num_levels: int
    fwd_perm: np.ndarray            # int32 [E] grouped by level[dst]
    fwd_starts: np.ndarray          # int64 [num_levels + 1]
    bwd_perm: np.ndarray            # int32 [E] grouped by -level[src]
    bwd_starts: np.ndarray          # int64 [num_levels + 1]
    src_idx: np.ndarray             # int32 [S] launch pins
    src_launch: np.ndarray          # float64 [S]
    ep_idx: np.ndarray              # int32 [P] endpoint pins
    ep_setup: np.ndarray            # float64 [P]

    @property
    def num_pins(self) -> int:
        return len(self.pins)

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])


#: Scan enable: static in functional mode, so a false path.
_FALSE_PATH_PIN = "SE"


def _is_false_path_pin(pin: Pin) -> bool:
    return pin.owner is not None and pin.name == _FALSE_PATH_PIN


def build_timing_graph(design: Design) -> TimingGraph:
    """Build the graph from the design's netlist + routing parasitics."""
    with trace.span("sta.build_graph"):
        t0 = time.perf_counter()
        pins, pin_index, arcs, sources, endpoints = _collect_arcs(design)
        t1 = time.perf_counter()
        graph = _levelize(pins, pin_index, arcs, sources, endpoints)
        metrics.add_time("sta.arcs_s", t1 - t0)
        metrics.add_time("sta.order_s", time.perf_counter() - t1)
    return graph


def _collect_arcs(design: Design):
    """Pins, arcs in construction order, sources and endpoints."""
    netlist = design.netlist
    rc_of = design.require_routing().rc

    pins = [pin for inst in netlist.instances.values()
            for pin in inst.pins.values()]
    pins.extend(port.pin for port in netlist.ports.values())
    names = [pin.full_name for pin in pins]
    pin_index = {name: idx for idx, name in enumerate(names)}
    # Identity lookup for this pass: no name is formatted twice.
    index_of = {id(pin): idx for idx, pin in enumerate(pins)}

    src: list[int] = []
    dst: list[int] = []
    delay: list[float] = []

    # Net arcs.
    for net in netlist.signal_nets():
        if net.driver is None:
            continue
        rc = rc_of.get(net.name)
        wire = rc.sink_delay_ps if rc is not None else {}
        drv = index_of[id(net.driver)]
        for sink in net.sinks:
            if _is_false_path_pin(sink):
                continue
            idx = index_of[id(sink)]
            src.append(drv)
            dst.append(idx)
            delay.append(wire.get(names[idx], 0.0))

    num_net_arcs = len(src)

    # Cell arcs for combinational cells.
    src_idx: list[int] = []
    src_launch: list[float] = []
    ep_idx: list[int] = []
    ep_setup: list[float] = []
    for inst in netlist.instances.values():
        out_pin = inst.output_pin
        out_net = out_pin.net
        load = 0.0
        if out_net is not None:
            rc = rc_of.get(out_net.name)
            load = rc.load_ff if rc is not None else out_net.sink_cap_ff()
        cell_delay = cell_output_delay(inst.cell, load)
        out_idx = index_of[id(out_pin)]
        if inst.is_sequential:
            src_idx.append(out_idx)             # clk->q launch
            src_launch.append(cell_delay)
            req = setup_time(inst.cell)
            for pin in inst.input_pins():
                if _is_false_path_pin(pin) or pin.name == "SI":
                    continue    # scan shift is checked at scan speed
                ep_idx.append(index_of[id(pin)])
                ep_setup.append(req)
        else:
            for pin in inst.input_pins():
                if _is_false_path_pin(pin):
                    continue
                src.append(index_of[id(pin)])
                dst.append(out_idx)
                delay.append(cell_delay)

    # Ports.
    for port in netlist.ports.values():
        if port.false_path:
            continue
        idx = index_of[id(port.pin)]
        if port.direction == "in":
            net = port.pin.net
            if net is not None and net.is_clock:
                continue    # ideal clock source: not a data source
            rc = rc_of.get(net.name) if net is not None else None
            src_idx.append(idx)
            src_launch.append(port_drive_delay(
                rc.load_ff if rc is not None else 0.0))
        else:
            ep_idx.append(idx)
            ep_setup.append(0.0)

    arcs = (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(delay, dtype=np.float64), num_net_arcs)
    sources = (np.array(src_idx, dtype=np.int32),
               np.array(src_launch, dtype=np.float64))
    endpoints = (np.array(ep_idx, dtype=np.int32),
                 np.array(ep_setup, dtype=np.float64))
    return pins, pin_index, arcs, sources, endpoints


def _offsets(keys: np.ndarray, size: int) -> np.ndarray:
    """Start offsets of the groups of *keys* (values in ``range(size)``)."""
    out = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=out[1:])
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over the (start, count) pairs."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) \
        + np.arange(int(ends[-1]) if ends.size else 0)


def _serial_order(n: int, src: np.ndarray, dst: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(level, serial permutation) of the arcs ``src[i] -> dst[i]``.

    Peels the pins level by level.  Each frontier is kept in rank
    order, so its out-arcs — each pin's in construction order — come
    out in serial order; a pin of the next level becomes ready at its
    last in-arc, whose position ranks it.
    """
    by_src = np.argsort(src, kind="stable")
    out_ptr = _offsets(src, n)
    indeg = np.bincount(dst, minlength=n)
    level = np.zeros(n, dtype=np.int32)
    frontier = np.flatnonzero(indeg == 0)
    placed = frontier.size
    chunks = []
    depth = 0
    while frontier.size:
        starts = out_ptr[frontier]
        eids = by_src[_ranges(starts, out_ptr[frontier + 1] - starts)]
        if not eids.size:
            break
        chunks.append(eids)
        targets = dst[eids]
        pins, first_rev, hits = np.unique(
            targets[::-1], return_index=True, return_counts=True)
        indeg[pins] -= hits
        ready = indeg[pins] == 0
        last = (targets.size - 1) - first_rev[ready]
        frontier = pins[ready][np.argsort(last)]
        depth += 1
        level[frontier] = depth
        placed += frontier.size
    if placed != n:
        raise TimingError(
            f"timing graph has a cycle: ordered {placed}/{n} pins")
    serial = np.concatenate(chunks) if chunks \
        else np.empty(0, dtype=np.int64)
    return level, serial


def _levelize(pins, pin_index, arcs, sources, endpoints) -> TimingGraph:
    """Order the collected arcs and lay out every index array."""
    n = len(pins)
    src, dst, delay, num_net_arcs = arcs
    level, serial = _serial_order(n, src, dst)
    edge_src = src[serial].astype(np.int32)
    edge_dst = dst[serial].astype(np.int32)

    # Serial order sorts by source, so each pin's out-edges are one run.
    out_start = np.zeros(n, dtype=np.int64)
    heads = np.flatnonzero(np.diff(edge_src, prepend=-1))
    out_start[edge_src[heads]] = heads
    out_end = out_start + np.bincount(edge_src, minlength=n)

    num_levels = int(level.max()) + 1 if n else 1
    lev_dst = level[edge_dst]
    lev_src = level[edge_src]
    return TimingGraph(
        pins=pins, pin_index=pin_index, edge_src=edge_src,
        edge_dst=edge_dst, edge_delay=delay[serial],
        num_net_arcs=num_net_arcs, out_start=out_start, out_end=out_end,
        in_edges=np.argsort(edge_dst, kind="stable").astype(np.int32),
        in_start=_offsets(edge_dst, n), level=level, num_levels=num_levels,
        fwd_perm=np.argsort(lev_dst, kind="stable").astype(np.int32),
        fwd_starts=_offsets(lev_dst, num_levels),
        bwd_perm=np.argsort(-lev_src, kind="stable").astype(np.int32),
        bwd_starts=_offsets((num_levels - 1) - lev_src, num_levels),
        src_idx=sources[0], src_launch=sources[1],
        ep_idx=endpoints[0], ep_setup=endpoints[1])
