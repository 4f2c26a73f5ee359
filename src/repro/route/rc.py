"""Elmore RC extraction on route trees.

Per net, computes the driver-visible load, total wire R/C (Table II
features), and per-sink Elmore delays.  Edge electricals come from the
assigned layer pair (mean of the two layers), intra-tier via stacks,
and F2F hybrid-bond vias — so the timing cost/benefit of MLS falls out
of the same model as ordinary routing.

:func:`extract_rc_batch` extracts every tree of a :class:`TreeArrays`
batch at once: per-edge R/C as array lookups, subtree capacitance and
delays one tree depth at a time (siblings share a depth, so each node
still sums its children in tree order), per-net totals as the same
left-to-right sums a per-tree loop takes — every float matches.
:func:`extract_rc` is the one-tree view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RoutingError
from repro.route.tree import RouteTree
from repro.tech.layers import F2FVia, MetalStack
from repro.units import rc_to_ps


@dataclass
class NetRC:
    """Extracted parasitics of one routed net.

    ``sink_delay_ps`` maps sink pin full-name -> Elmore wire delay from
    the driver.  ``load_ff`` is what the driving cell sees: all wire,
    via and F2F capacitance plus sink pin caps.
    """

    net_name: str
    wire_cap_ff: float
    wire_res_ohm: float
    load_ff: float
    wirelength_um: float
    sink_delay_ps: dict[str, float] = field(default_factory=dict)

    def worst_sink_delay(self) -> float:
        return max(self.sink_delay_ps.values(), default=0.0)


@dataclass
class TreeArrays:
    """Route trees of several nets as flat node and edge arrays.

    Net ``i`` owns nodes ``node_start[i]:node_start[i + 1]`` (its root
    first) and edges ``edge_start[i]:edge_start[i + 1]``.  Edge arrays
    hold global node indices; ``depth`` is the child's depth below its
    root (0 marks a node the root does not reach).  ``sink`` marks the
    non-root pin nodes, whose pin capacitance is ``pin_cap`` (0.0
    elsewhere).  The offsets and ``sink`` are plain lists.
    """

    names: list[str]
    node_start: list[int]
    pins: list
    sink: list[bool]
    pin_cap: np.ndarray
    edge_start: list[int]
    parent: np.ndarray
    child: np.ndarray
    depth: np.ndarray
    tier: np.ndarray
    pair: np.ndarray
    length: np.ndarray
    via_hops: np.ndarray
    n_f2f: np.ndarray
    escape_um: np.ndarray

    @classmethod
    def of_tree(cls, tree: RouteTree) -> "TreeArrays":
        edges = tree.edges
        depth = [0] * len(tree.nodes)
        children = tree.children()
        frontier = [0] if tree.nodes else []
        while frontier:
            nxt = []
            for u in frontier:
                for e in children.get(u, ()):
                    depth[e.child] = depth[u] + 1
                    nxt.append(e.child)
            frontier = nxt
        sink = [i > 0 and node.pin is not None
                for i, node in enumerate(tree.nodes)]
        return cls(
            names=[tree.net_name], node_start=[0, len(tree.nodes)],
            pins=[node.pin for node in tree.nodes], sink=sink,
            pin_cap=np.array([node.pin.cap_ff if is_sink else 0.0
                              for node, is_sink in zip(tree.nodes, sink)],
                             dtype=np.float64),
            edge_start=[0, len(edges)],
            parent=np.array([e.parent for e in edges], dtype=np.int64),
            child=np.array([e.child for e in edges], dtype=np.int64),
            depth=np.array([depth[e.child] for e in edges], dtype=np.int64),
            tier=np.array([e.tier for e in edges], dtype=np.int64),
            pair=np.array([e.pair for e in edges], dtype=np.int64),
            length=np.array([e.length for e in edges], dtype=np.float64),
            via_hops=np.array([e.via_hops for e in edges], dtype=np.int64),
            n_f2f=np.array([e.n_f2f for e in edges], dtype=np.int64),
            escape_um=np.array([e.escape_um for e in edges],
                               dtype=np.float64))


class RcTables:
    """Electricals of a stack pair, stacked as (R, C) rows: per-(tier,
    pair) wire R/C per um (mean of the pair's two layers), per-tier
    via-stack R/C, the F2F via, and each tier's MLS escape-stub R/C
    per um (the *other* tier's lowest pair)."""

    def __init__(self, stacks: tuple[MetalStack, MetalStack], f2f: F2FVia):
        self.n_pairs = [len(stack.pairs()) for stack in stacks]
        self.per_um = np.zeros((2, len(stacks), max(self.n_pairs)))
        for tier, stack in enumerate(stacks):
            for idx, (la, lb) in enumerate(stack.pairs()):
                self.per_um[:, tier, idx] = ((la.r_per_um + lb.r_per_um) / 2.0,
                                             (la.c_per_um + lb.c_per_um) / 2.0)
        self.via = np.array([[stack.via_r for stack in stacks],
                             [stack.via_c for stack in stacks]])
        self.f2f = np.array([[f2f.resistance], [f2f.capacitance]])
        self.escape = self.per_um[:, ::-1, 0]

    def check(self, arrs: TreeArrays) -> None:
        """Reject an edge whose pair its tier's stack does not have."""
        tier, pair = arrs.tier, arrs.pair
        bad = np.flatnonzero((pair < 0) | (pair >= np.array(
            self.n_pairs)[tier]))
        if len(bad):
            e = bad[0]
            raise RoutingError(
                f"net {arrs.parent[e]}->{arrs.child[e]}: pair {pair[e]} "
                f"out of range for tier {tier[e]}")

    def edge_rc(self, arrs: TreeArrays) -> np.ndarray:
        """``(2, E)`` rows of R_ohm and C_ff for every edge of *arrs*:
        wire, then via stack, then F2F vias, then the escape stubs of
        an MLS trunk (a stub-less edge adds an exact +0.0)."""
        tier = arrs.tier
        return self.per_um[:, tier, arrs.pair] * arrs.length \
            + self.via[:, tier] * arrs.via_hops \
            + self.f2f * arrs.n_f2f \
            + self.escape[:, tier] * np.maximum(arrs.escape_um, 0.0)


def extract_rc_batch(arrs: TreeArrays, tables: RcTables) -> list[NetRC]:
    """Parasitics and per-sink Elmore delays of every tree in *arrs*."""
    r, c = tables.edge_rc(arrs)
    parent, child = arrs.parent, arrs.child

    # Subtree capacitance bottom-up, then Elmore delays top-down, one
    # depth level at a time; within a level the edges keep their tree
    # order, so each node sums its children left to right.
    max_depth = int(arrs.depth.max()) if len(arrs.depth) else 0
    if max_depth == 0:
        levels = []
    elif max_depth == 1 and arrs.depth.min() == 1:
        levels = [slice(None)]              # every edge hangs off a root
    else:
        by_depth = arrs.depth.argsort(kind="stable")
        bounds = arrs.depth[by_depth].searchsorted(
            np.arange(1, max_depth + 2)).tolist()
        levels = [by_depth[bounds[d]:bounds[d + 1]]
                  for d in range(max_depth)]
    sub = arrs.pin_cap.copy()
    for sel in reversed(levels):
        np.add.at(sub, parent[sel], c[sel] + sub[child[sel]])
    delay = np.zeros(len(sub))
    for sel in levels:
        kid = child[sel]
        delay[kid] = delay[parent[sel]] \
            + rc_to_ps(r[sel], c[sel] / 2.0 + sub[kid])

    # Per-net totals are left-to-right sums (empty ones the integer 0).
    pins = arrs.pins
    r_l, c_l, length_l = r.tolist(), c.tolist(), arrs.length.tolist()
    delay_l, sink_l = delay.tolist(), arrs.sink
    starts, edge_starts = arrs.node_start, arrs.edge_start
    out = []
    for i, name in enumerate(arrs.names):
        sinks = [j for j in range(starts[i], starts[i + 1]) if sink_l[j]]
        a, b = edge_starts[i], edge_starts[i + 1]
        total_c = sum(c_l[a:b])
        out.append(NetRC(
            net_name=name, wire_cap_ff=total_c, wire_res_ohm=sum(r_l[a:b]),
            load_ff=total_c + sum(pins[j].cap_ff for j in sinks),
            wirelength_um=sum(length_l[a:b]),
            sink_delay_ps={pins[j].full_name: delay_l[j] for j in sinks}))
    return out


def extract_rc(tree: RouteTree, stacks: tuple[MetalStack, MetalStack],
               f2f: F2FVia) -> NetRC:
    """Extract parasitics and per-sink Elmore delays for *tree*.

    Sink pin capacitances are read from the tree's pin-bearing nodes.
    """
    arrs, tables = TreeArrays.of_tree(tree), RcTables(stacks, f2f)
    tables.check(arrs)
    return extract_rc_batch(arrs, tables)[0]
