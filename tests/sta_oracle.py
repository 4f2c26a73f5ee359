"""Reference STA: the pure-Python propagation loop, kept as the oracle.

:func:`repro.timing.run_sta` propagates over levelized CSR arrays.  This
module holds the plain loop over the list-of-lists graph that the CSR
kernel must match bit for bit — arrivals, requireds, endpoint slacks
and ``worst_pred`` tie-breaks.  The STA tests and
``benchmarks/bench_sta.py --smoke`` compare against it.
"""

from __future__ import annotations

import math

from repro.design import Design
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.sta import TimingReport

_NEG_INF = -math.inf
_POS_INF = math.inf


def propagate_serial(graph: TimingGraph, period: float
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


def run_sta_serial(design: Design, graph: TimingGraph | None = None
                   ) -> TimingReport:
    """Full STA with the reference loop; same report shape as
    :func:`repro.timing.run_sta`."""
    if graph is None:
        graph = build_timing_graph(design)
    period = design.clock_period_ps
    arrival, required, endpoint_slack, worst_pred = \
        propagate_serial(graph, period)
    return TimingReport(clock_period_ps=period, graph=graph,
                        arrival=arrival, required=required,
                        endpoint_slack=endpoint_slack,
                        worst_pred=worst_pred)
