"""Incremental timing: per-net what-if deltas and exact delta STA.

Two engines live here:

* :func:`net_whatif_delta` — equation (1) of the paper: the slack
  delta of toggling MLS on one net, computed by probing both routings
  and differencing the driver cell delay (load change) and each
  sink's Elmore delay.  The oracle and the GNN's labels are built on
  this primitive.

* :class:`IncrementalSta` — an **exact** incremental STA over the
  levelized timing graph.  ``update(changed_nets)`` patches only
  the arc delays the reroutes actually touched (net arcs + the driver
  cell's load-dependent arcs + load-dependent launch delays), seeds a
  frontier from those pins, and re-propagates forward/backward only
  while values change.  The resulting :class:`TimingReport` is equal
  — arrivals, requireds, endpoint slacks and ``worst_pred``
  tie-breaks — to a from-scratch :func:`repro.timing.sta.run_sta`.

  The incremental contract covers *routing* changes only: the pin
  graph's structure is routing-invariant, so reroutes are pure delay
  patches.  **Structural netlist edits** (buffer insertion, scan
  stitching, DFT net splitting, level shifters) add or remove pins
  and arcs and require a fresh :class:`IncrementalSta`.  ``update``
  checks every named net's arcs against the graph — a net's wire arcs
  are its driver's out-edges, its load-dependent cell arcs the
  driver's in-edges — and raises :class:`TimingError` on any added,
  removed or moved arc rather than returning a stale report.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.design import Design
from repro.errors import TimingError
from repro.netlist.net import Net
from repro.obs import metrics, trace
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.delay import (PORT_DRIVE_RES, cell_output_delay,
                                port_drive_delay)
from repro.timing.graph import (_FALSE_PATH_PIN, _is_false_path_pin,
                                _ranges, build_timing_graph)
from repro.timing.sta import TimingReport, propagate

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class WhatIfDelta:
    """MLS-on minus MLS-off delays for one net (ps; negative = MLS
    helps)."""

    net_name: str
    applied: bool                       # a shared trunk edge materialized
    delta_driver_ps: float
    delta_sink_ps: dict[str, float] = field(default_factory=dict)

    def path_delta_ps(self, sink_full_name: str) -> float:
        """Delay delta seen by a path entering the net at *sink*."""
        return self.delta_driver_ps + self.delta_sink_ps.get(
            sink_full_name, 0.0)

    def worst_delta_ps(self) -> float:
        """The largest (most harmful) per-sink delta."""
        if not self.delta_sink_ps:
            return self.delta_driver_ps
        return self.delta_driver_ps + max(self.delta_sink_ps.values())

    def best_delta_ps(self) -> float:
        """The most favourable per-sink delta."""
        if not self.delta_sink_ps:
            return self.delta_driver_ps
        return self.delta_driver_ps + min(self.delta_sink_ps.values())


def _driver_resistance(net: Net) -> float:
    driver = net.driver
    if driver is None:
        raise TimingError(f"net {net.name} has no driver for what-if")
    if driver.owner is not None:
        return driver.owner.cell.drive_res
    return PORT_DRIVE_RES


def net_whatif_delta(design: Design, router: GlobalRouter,
                     result: RoutingResult, net: Net) -> WhatIfDelta:
    """Compute the MLS-on vs MLS-off delta for *net*.

    Non-destructive: probes both configurations against the current
    congestion state without committing either, so neither the routing
    result nor the grid changes.
    """
    return nets_whatif_delta(design, router, result, [net])[0]


def nets_whatif_delta(design: Design, router: GlobalRouter,
                      result: RoutingResult, nets: list[Net]
                      ) -> list[WhatIfDelta]:
    """:func:`net_whatif_delta` of every net of *nets*, probed in one
    :meth:`~repro.route.GlobalRouter.probe_nets` batch."""
    return [_whatif(net, *probe) for net, probe
            in zip(nets, router.probe_nets(result, nets))]


def _whatif(net: Net, rc_off, rc_on, applied: bool) -> WhatIfDelta:
    drive = _driver_resistance(net)
    delta_driver = drive * (rc_on.load_ff - rc_off.load_ff) / 1000.0
    delta_sinks = {
        name: rc_on.sink_delay_ps.get(name, 0.0) - off_delay
        for name, off_delay in rc_off.sink_delay_ps.items()
    }
    return WhatIfDelta(net_name=net.name, applied=applied,
                       delta_driver_ps=delta_driver,
                       delta_sink_ps=delta_sinks)


class IncrementalSta:
    """Exact incremental STA over a routing-invariant pin graph.

    Build once per (netlist structure, clock period); call
    :meth:`update` after targeted reroutes with the affected net
    names, or :meth:`update_routing` after a full re-route (it
    recomputes every arc delay and patches only real changes).  Both
    return a report equal to a from-scratch :func:`run_sta`.

    Patches land in the graph's own ``edge_delay``/``src_launch``
    arrays, so ``self.graph`` always holds the current delays.
    """

    def __init__(self, design: Design):
        self.design = design
        self.graph = graph = build_timing_graph(design)
        self.period = design.clock_period_ps

        # Pins by identity: a pin object the graph was not built from
        # is a structural change, whatever its name.
        self._index_of = {id(pin): idx for idx, pin in enumerate(graph.pins)}
        self._names = list(graph.pin_index)     # in index order
        # Plain-list shadows of the graph for the scalar frontier loops.
        self._delay: list[float] = graph.edge_delay.tolist()
        self._edge_src: list[int] = graph.edge_src.tolist()
        self._edge_dst: list[int] = graph.edge_dst.tolist()
        self._in_edges: list[int] = graph.in_edges.tolist()
        self._in_start: list[int] = graph.in_start.tolist()
        self._out_start: list[int] = graph.out_start.tolist()
        self._out_end: list[int] = graph.out_end.tolist()
        self._level: list[int] = graph.level.tolist()

        # Launch and endpoint constraints, replicating run_sta's init.
        # A pin launches (sequential output, input port) or captures
        # (data pin, output port) at most once.
        src_idx = graph.src_idx.tolist()
        self._launch = dict(zip(src_idx, graph.src_launch.tolist()))
        self._src_pos = {idx: pos for pos, idx in enumerate(src_idx)}
        self._bind_endpoints()

    def _bind_endpoints(self) -> None:
        """Required times at the current period, then a full pass."""
        graph = self.graph
        self._req_init = {idx: self.period - setup for idx, setup in
                          zip(graph.ep_idx.tolist(), graph.ep_setup.tolist())}
        self._arrival, self._required, self._endpoint_slack, \
            self._worst_pred = propagate(graph, self.period)

    # -- arc-delay patching --------------------------------------------------

    def _structural(self, what: str) -> TimingError:
        return TimingError(
            f"{what} — the netlist changed structurally; rebuild the "
            f"IncrementalSta")

    def _arc_delays(self, nets: Iterable[Net], every_net: bool):
        """(edge ids, delays, source positions, launches) of *nets* now.

        Mirrors ``build_timing_graph``: a net's wire arcs are its
        driver's out-edges, in sink order; the driver cell's
        load-dependent arcs are the driver's in-edges (combinational)
        or its launch delay (sequential / input port).  Raises
        :class:`TimingError` unless each net still has exactly the
        graph's arcs: the same count, and for wire arcs the same sinks.
        Pins match by identity.  A cell's input pins are its own, so
        the count pins its arcs.  With *every_net* (all signal nets),
        the wire arcs must also cover the graph's: a net that lost its
        driver leaves arcs no driver's range accounts for.
        """
        rc_of = self.design.require_routing().rc
        index_of, names = self._index_of, self._names
        out_start, out_end = self._out_start, self._out_end
        in_start = self._in_start
        starts, counts, sinks, delays = [], [], [], []
        cell_starts, cell_counts, cell_delays = [], [], []
        src_pos, launches = [], []
        for net in nets:
            driver = net.driver
            if driver is None or net.is_clock:
                continue
            drv = index_of.get(id(driver))
            if drv is None:
                raise self._structural(
                    f"pin {driver.full_name} not in timing graph")
            rc = rc_of.get(net.name)
            wire = rc.sink_delay_ps if rc is not None else {}
            count = 0
            for sink in net.sinks:
                if _is_false_path_pin(sink):
                    continue
                idx = index_of.get(id(sink), -1)
                sinks.append(idx)
                delays.append(wire.get(names[idx], 0.0))
                count += 1
            if count != out_end[drv] - out_start[drv]:
                raise self._structural(
                    f"net {net.name} has {count} timing arcs, the graph "
                    f"{out_end[drv] - out_start[drv]}")
            starts.append(out_start[drv])
            counts.append(count)

            inst = driver.owner
            if inst is None:                     # input-port pad driver
                port = driver.port
                if port is not None and not port.false_path:
                    src_pos.append(self._src_pos[drv])
                    launches.append(port_drive_delay(
                        rc.load_ff if rc is not None else 0.0))
                continue
            load = rc.load_ff if rc is not None else net.sink_cap_ff()
            delay = cell_output_delay(inst.cell, load)
            if inst.is_sequential:
                src_pos.append(self._src_pos[drv])
                launches.append(delay)
                continue
            inputs = inst.cell.inputs
            count = len(inputs) - (_FALSE_PATH_PIN in inputs)
            if count != in_start[drv + 1] - in_start[drv]:
                raise self._structural(
                    f"cell {inst.name} has {count} timing arcs, the "
                    f"graph {in_start[drv + 1] - in_start[drv]}")
            cell_starts.append(in_start[drv])
            cell_counts.append(count)
            cell_delays.append(delay)

        graph = self.graph
        if every_net and sum(counts) != graph.num_net_arcs:
            raise self._structural(f"the nets have {sum(counts)} wire "
                                   f"arcs, the graph {graph.num_net_arcs}")
        ints = np.int64
        eids = _ranges(np.array(starts, ints), np.array(counts, ints))
        moved = np.flatnonzero(graph.edge_dst[eids] != np.array(sinks, ints))
        if moved.size:
            eid = int(eids[moved[0]])
            raise self._structural(
                f"arc {self._names[self._edge_src[eid]]} -> "
                f"{self._names[self._edge_dst[eid]]} left the netlist")
        cell_counts = np.array(cell_counts, ints)
        cell_eids = graph.in_edges[_ranges(np.array(cell_starts, ints),
                                           cell_counts)]
        return (np.concatenate((eids, cell_eids)),
                np.concatenate((np.array(delays, np.float64),
                                np.repeat(cell_delays, cell_counts))),
                np.array(src_pos, ints), np.array(launches, np.float64))

    # -- frontier re-propagation ---------------------------------------------

    def _recompute_arrival(self, v: int) -> tuple[float, int]:
        """Arrival + worst predecessor of *v*, serial tie-break."""
        best = self._launch.get(v, _NEG_INF)
        pred = -1
        arrival = self._arrival
        delay = self._delay
        edge_src = self._edge_src
        for eid in self._in_edges[self._in_start[v]:self._in_start[v + 1]]:
            u = edge_src[eid]
            au = arrival[u]
            if au == _NEG_INF:
                continue
            cand = au + delay[eid]
            if cand > best:
                best = cand
                pred = u
        return best, pred

    def _recompute_required(self, u: int) -> float:
        best = self._req_init.get(u, _POS_INF)
        required = self._required
        delay = self._delay
        edge_dst = self._edge_dst
        for eid in range(self._out_start[u], self._out_end[u]):
            cand = required[edge_dst[eid]] - delay[eid]
            if cand < best:
                best = cand
        return best

    def _update_endpoint(self, idx: int) -> None:
        req = self._req_init.get(idx)
        if req is None:
            return
        at = self._arrival[idx]
        if at == _NEG_INF:
            self._endpoint_slack.pop(self._names[idx], None)
        else:
            self._endpoint_slack[self._names[idx]] = req - at

    def _repropagate(self, fwd: set[int], bwd: set[int]) -> None:
        """Re-time the fan-out cone of *fwd* and fan-in cone of *bwd*.

        Pins pop in level order (reversed for required times), so every
        pin is recomputed after all of its predecessors (successors).
        """
        level = self._level
        edge_src, edge_dst = self._edge_src, self._edge_dst
        heap = [(level[v], v) for v in fwd]
        heapq.heapify(heap)
        queued = set(fwd)
        while heap:
            _, v = heapq.heappop(heap)
            queued.discard(v)
            new_a, new_p = self._recompute_arrival(v)
            self._worst_pred[v] = new_p
            if new_a != self._arrival[v]:
                self._arrival[v] = new_a
                self._update_endpoint(v)
                for eid in range(self._out_start[v], self._out_end[v]):
                    d = edge_dst[eid]
                    if d not in queued:
                        queued.add(d)
                        heapq.heappush(heap, (level[d], d))

        heap = [(-level[u], u) for u in bwd]
        heapq.heapify(heap)
        queued = set(bwd)
        while heap:
            _, u = heapq.heappop(heap)
            queued.discard(u)
            new_r = self._recompute_required(u)
            if new_r != self._required[u]:
                self._required[u] = new_r
                for eid in self._in_edges[self._in_start[u]:
                                          self._in_start[u + 1]]:
                    s = edge_src[eid]
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(heap, (-level[s], s))

    # -- public API ----------------------------------------------------------

    def update(self, changed_nets: Iterable[str]) -> TimingReport:
        """Patch the delays of *changed_nets* and re-propagate.

        Pass the names of every net whose routing changed since the
        last update (the rerouted nets themselves — their driver-cell
        load arcs are patched automatically).  Returns a report equal
        to a from-scratch :func:`run_sta`.
        """
        netlist = self.design.netlist
        return self._sync([netlist.net(name)
                           for name in dict.fromkeys(changed_nets)],
                          every_net=False)

    def update_routing(self) -> TimingReport:
        """Re-sync against the design's current routing result.

        Recomputes **every** signal net's arc delays in one pass and
        patches only real changes — the cheap way to follow a full
        re-route, where most nets route identically and only the
        neighborhood of the toggled MLS nets actually moves.
        """
        with trace.span("sta.update_routing"):
            return self._sync(self.design.netlist.signal_nets(),
                              every_net=True)

    def _sync(self, nets: list[Net], every_net: bool) -> TimingReport:
        """Patch every arc and launch of *nets* whose delay moved, then
        re-propagate from the patched pins."""
        t0 = time.perf_counter()
        eids, delays, src_pos, launches = self._arc_delays(nets, every_net)
        graph = self.graph
        moved = np.flatnonzero(graph.edge_delay[eids] != delays)
        eids, delays = eids[moved], delays[moved]
        graph.edge_delay[eids] = delays
        if eids.size:
            metrics.inc("sta.inc.arcs_patched", int(eids.size))
        for eid, delay in zip(eids.tolist(), delays.tolist()):
            self._delay[eid] = delay
        fwd = set(graph.edge_dst[eids].tolist())     # arrival seeds
        bwd = set(graph.edge_src[eids].tolist())     # required seeds
        moved = np.flatnonzero(graph.src_launch[src_pos] != launches)
        src_pos, launches = src_pos[moved], launches[moved]
        graph.src_launch[src_pos] = launches
        for idx, value in zip(graph.src_idx[src_pos].tolist(),
                              launches.tolist()):
            self._launch[idx] = value
            fwd.add(idx)
        t1 = time.perf_counter()
        metrics.add_time("sta.inc.patch_s", t1 - t0)
        if self.design.clock_period_ps != self.period:
            # Clock constraint changed: refresh constraints, full pass.
            self.period = self.design.clock_period_ps
            self._bind_endpoints()
            return self.report()
        metrics.inc("sta.inc.updates")
        metrics.observe("sta.inc.frontier", len(fwd) + len(bwd))
        if fwd or bwd:
            self._repropagate(fwd, bwd)
        metrics.add_time("sta.inc.repropagate_s", time.perf_counter() - t1)
        return self.report()

    def report(self) -> TimingReport:
        """A fresh :class:`TimingReport` of the current state."""
        return TimingReport(clock_period_ps=self.period, graph=self.graph,
                            arrival=list(self._arrival),
                            required=list(self._required),
                            endpoint_slack=dict(self._endpoint_slack),
                            worst_pred=list(self._worst_pred))
