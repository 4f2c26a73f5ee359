"""Reference per-net global router: the oracle for ``repro.route``.

The production router in :mod:`repro.route` computes geometry, layer
assignment and Elmore RC as array kernels over every net of a call.
This module keeps the per-net interpreter router those kernels
replaced, verbatim, so the kernels can be checked against it
bit-for-bit (``tests/test_route_oracle.py``,
``benchmarks/bench_route.py``):

* :func:`mst_parents` and :func:`l_path_gcells` — Prim MST and L-path
  gcells of one net / one edge;
* :func:`path_load` and :func:`add_path` — the congestion grid's
  per-cell load query and update;
* :func:`extract_rc` — dict-based Elmore extraction of one tree;
* :class:`OracleRouter` — ``_route_net`` / ``_normal_edge`` /
  ``_try_shared_edge`` plus the public entry points over them.

It shares only the result containers with production
(:class:`~repro.route.tree.RouteTree`, :class:`~repro.route.rc.NetRC`,
:class:`~repro.route.router.RoutingResult`) and the grid's storage
and capacities (:class:`~repro.route.grid.CongestionGrid`); every
decision and every float is computed here.
"""

from __future__ import annotations

import numpy as np

from repro.design import Design
from repro.errors import RoutingError
from repro.netlist.net import Net
from repro.place.placement import Placement
from repro.route.grid import CongestionGrid
from repro.route.rc import NetRC
from repro.route.router import RouteConfig, RoutingResult
from repro.route.tree import RouteEdge, RouteTree
from repro.tech.layers import F2FVia, MetalStack
from repro.units import rc_to_ps


# -- steiner ---------------------------------------------------------------------

def build_route_points(net: Net, placement: Placement
                       ) -> list[tuple[float, float, int, object]]:
    """Pin points of a net as (x, y, tier, pin), driver first."""
    if net.driver is None:
        raise RoutingError(f"net {net.name} has no driver to route from")
    points = []
    for pin in net.pins():
        loc = placement.of_pin(pin)
        points.append((loc.x, loc.y, loc.tier, pin))
    return points


def mst_parents(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Prim MST parents under manhattan distance, rooted at index 0.

    Returns ``parent[i]`` for every node (parent[0] == -1).  O(n^2),
    fine for net fanouts (< 100 in our designs).
    """
    n = len(xs)
    if n == 0:
        raise RoutingError("mst_parents needs at least one point")
    parent = [-1] * n
    if n == 1:
        return parent
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    # best[i] = manhattan distance from i to its closest in-tree node
    best = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
    best_src = np.zeros(n, dtype=int)
    best[0] = np.inf
    for _ in range(n - 1):
        nxt = int(np.argmin(best))
        if not np.isfinite(best[nxt]):
            raise RoutingError("point set is not connectable")  # pragma: no cover
        parent[nxt] = int(best_src[nxt])
        in_tree[nxt] = True
        dist = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
        closer = (~in_tree) & (dist < best)
        best = np.where(closer, dist, best)
        best_src = np.where(closer, nxt, best_src)
        best[nxt] = np.inf
    return parent


def l_path_gcells(x0: float, y0: float, x1: float, y1: float,
                  gcell: float, nx: int, ny: int) -> list[tuple[int, int]]:
    """Gcells crossed by an L-route (horizontal-then-vertical).

    Deterministic lower-L realization; returns unique (ix, iy) pairs
    clamped to the grid.
    """
    def clamp(v: int, hi: int) -> int:
        return min(max(v, 0), hi - 1)

    ix0, iy0 = clamp(int(x0 / gcell), nx), clamp(int(y0 / gcell), ny)
    ix1, iy1 = clamp(int(x1 / gcell), nx), clamp(int(y1 / gcell), ny)
    cells: list[tuple[int, int]] = []
    step = 1 if ix1 >= ix0 else -1
    for ix in range(ix0, ix1 + step, step):
        cells.append((ix, iy0))
    step = 1 if iy1 >= iy0 else -1
    for iy in range(iy0, iy1 + step, step):
        if (ix1, iy) != cells[-1]:
            cells.append((ix1, iy))
    return cells


# -- congestion grid -------------------------------------------------------------

def path_load(grid_obj: CongestionGrid, tier: int, pair: int,
              cells: list[tuple[int, int]]) -> float:
    """Mean usage/capacity ratio along *cells* for (tier, pair).

    Mean (not max): a detailed router weaves around single hot
    gcells, so a path is only "full" at global-routing abstraction
    when congestion is sustained along it.
    """
    if not cells:
        return 0.0
    grid = grid_obj.usage[tier][pair]
    cap = grid_obj.capacity[tier][pair]
    total = sum(grid[ix, iy] for ix, iy in cells)
    return total / (cap * len(cells))


def f2f_load(grid_obj: CongestionGrid, ix: int, iy: int) -> float:
    return float(grid_obj.f2f_usage[ix, iy]) / grid_obj.f2f_cap


def add_path(grid_obj: CongestionGrid, tier: int, pair: int,
             cells: list[tuple[int, int]], delta: float = 1.0) -> None:
    grid = grid_obj.usage[tier][pair]
    for ix, iy in cells:
        grid[ix, iy] += delta
    if delta < 0:
        np.clip(grid, 0.0, None, out=grid)


def add_f2f(grid_obj: CongestionGrid, ix: int, iy: int,
            delta: float = 1.0) -> None:
    grid_obj.f2f_usage[ix, iy] += delta
    if grid_obj.f2f_usage[ix, iy] < 0:
        grid_obj.f2f_usage[ix, iy] = 0.0


# -- RC ------------------------------------------------------------------------------

def _edge_rc(edge, stacks: tuple[MetalStack, MetalStack],
             f2f: F2FVia) -> tuple[float, float]:
    """(R_ohm, C_ff) of one route edge."""
    stack = stacks[edge.tier]
    pairs = stack.pairs()
    if not 0 <= edge.pair < len(pairs):
        raise RoutingError(
            f"net {edge.parent}->{edge.child}: pair {edge.pair} out of "
            f"range for tier {edge.tier}")
    la, lb = pairs[edge.pair]
    r_um = (la.r_per_um + lb.r_per_um) / 2.0
    c_um = (la.c_per_um + lb.c_per_um) / 2.0
    r = r_um * edge.length + edge.via_hops * stack.via_r \
        + edge.n_f2f * f2f.resistance
    c = c_um * edge.length + edge.via_hops * stack.via_c \
        + edge.n_f2f * f2f.capacitance
    if edge.escape_um > 0.0:
        # MLS escape stubs run on the *home* tier's lowest pair.
        home = stacks[1 - edge.tier]
        ea, eb = home.pairs()[0]
        r += (ea.r_per_um + eb.r_per_um) / 2.0 * edge.escape_um
        c += (ea.c_per_um + eb.c_per_um) / 2.0 * edge.escape_um
    return r, c


def extract_rc(tree: RouteTree, stacks: tuple[MetalStack, MetalStack],
               f2f: F2FVia) -> NetRC:
    """Extract parasitics and per-sink Elmore delays for *tree*.

    Sink pin capacitances are read from the tree's pin-bearing nodes.
    """
    children = tree.children()
    n = len(tree.nodes)
    edge_rc = {(e.parent, e.child): _edge_rc(e, stacks, f2f)
               for e in tree.edges}

    # Post-order subtree capacitance (iterative to handle deep trees).
    subtree_cap = [0.0] * n
    order: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for e in children.get(u, ()):
            stack.append(e.child)
    for u in reversed(order):
        cap = 0.0
        node = tree.nodes[u]
        if u != 0 and node.pin is not None:
            cap += node.pin.cap_ff
        for e in children.get(u, ()):
            cap += edge_rc[(u, e.child)][1] + subtree_cap[e.child]
        subtree_cap[u] = cap

    # Pre-order Elmore accumulation.
    delay = [0.0] * n
    stack = [0]
    while stack:
        u = stack.pop()
        for e in children.get(u, ()):
            r, c = edge_rc[(u, e.child)]
            delay[e.child] = delay[u] + rc_to_ps(
                r, c / 2.0 + subtree_cap[e.child])
            stack.append(e.child)

    total_r = sum(rc[0] for rc in edge_rc.values())
    total_c = sum(rc[1] for rc in edge_rc.values())
    sink_caps = sum(node.pin.cap_ff for node in tree.sink_nodes())
    sink_delays = {node.pin.full_name: delay[node.idx]
                   for node in tree.sink_nodes()}
    return NetRC(
        net_name=tree.net_name,
        wire_cap_ff=total_c,
        wire_res_ohm=total_r,
        load_ff=total_c + sink_caps,
        wirelength_um=tree.wirelength(),
        sink_delay_ps=sink_delays,
    )


# -- router --------------------------------------------------------------------------

def desired_pair(length_um: float, n_pairs: int,
                 thresholds: tuple[float, ...]) -> int:
    """Length-based preferred layer pair (0 = lowest metals)."""
    for idx, limit in enumerate(thresholds):
        if length_um < limit:
            return min(idx, n_pairs - 1)
    return n_pairs - 1


class OracleRouter:
    """The per-net router with :class:`~repro.route.GlobalRouter`'s API.

    Records nothing in ``repro.obs``; otherwise every entry point has
    the production router's effect on the design and the result.
    """

    def __init__(self, design: Design, config: RouteConfig | None = None):
        self.design = design
        self.cfg = config or RouteConfig()
        placement = design.require_placement()
        fp = design.require_floorplan()
        self.placement = placement
        self.grid = CongestionGrid(
            fp, design.tech.stacks, design.tech.f2f,
            gcell_um=self.cfg.gcell_um, track_util=self.cfg.track_util,
            pdn_reserved=self.cfg.pdn_reserved)

    # -- public API -----------------------------------------------------------

    def route_all(self, mls_nets: set[str] | frozenset = frozenset()
                  ) -> RoutingResult:
        result = RoutingResult(self.grid, self.cfg)
        nets = self.design.netlist.signal_nets()
        ordered = sorted(nets, key=lambda n: (-self._est_len(n), n.name))
        stacks, f2f = self.design.tech.stacks, self.design.tech.f2f
        for net in ordered:
            tree = self._route_net(net, mls=net.name in mls_nets,
                                   commit=True)
            result.trees[net.name] = tree
            result.rc[net.name] = extract_rc(tree, stacks, f2f)
        self.design.routing = result
        self.design.mls_nets = set(mls_nets)
        return result

    def _est_len(self, net: Net) -> float:
        x0, y0, x1, y1 = self.placement.net_bbox(net)
        return (x1 - x0) + (y1 - y0)

    def reroute_net(self, result: RoutingResult, net: Net,
                    mls: bool) -> NetRC:
        self.unroute_net(result, net)
        tree = self._route_net(net, mls=mls, commit=True)
        result.trees[net.name] = tree
        rc = extract_rc(tree, self.design.tech.stacks, self.design.tech.f2f)
        result.rc[net.name] = rc
        if mls and tree.num_shared_edges() > 0:
            self.design.mls_nets.add(net.name)
        else:
            self.design.mls_nets.discard(net.name)
        return rc

    def unroute_net(self, result: RoutingResult, net: Net) -> None:
        tree = result.trees.pop(net.name, None)
        result.rc.pop(net.name, None)
        if tree is None:
            return
        self._apply_tree_usage(tree, -1.0)

    def restore_net(self, result: RoutingResult, net: Net,
                    tree: RouteTree, rc: NetRC) -> None:
        self.unroute_net(result, net)
        result.trees[net.name] = tree
        result.rc[net.name] = rc
        self._apply_tree_usage(tree, +1.0)
        if tree.num_shared_edges() > 0:
            self.design.mls_nets.add(net.name)
        else:
            self.design.mls_nets.discard(net.name)

    def probe_net(self, result: RoutingResult, net: Net
                  ) -> tuple[NetRC, NetRC, bool]:
        committed = result.tree(net.name)
        self._apply_tree_usage(committed, -1.0)
        try:
            tree_off = self._route_net(net, mls=False, commit=False)
            tree_on = self._route_net(net, mls=True, commit=False)
        finally:
            self._apply_tree_usage(committed, +1.0)
        stacks, f2f = self.design.tech.stacks, self.design.tech.f2f
        return (extract_rc(tree_off, stacks, f2f),
                extract_rc(tree_on, stacks, f2f),
                tree_on.num_shared_edges() > 0)

    def _apply_tree_usage(self, tree: RouteTree, sign: float) -> None:
        """Add (+1) or release (-1) a tree's grid resources."""
        for edge in tree.edges:
            pnode = tree.nodes[edge.parent]
            cnode = tree.nodes[edge.child]
            cells = l_path_gcells(pnode.x, pnode.y, cnode.x, cnode.y,
                                  self.grid.gcell, self.grid.nx, self.grid.ny)
            add_path(self.grid, edge.tier, edge.pair, cells, sign)
            if edge.shared:
                add_f2f(self.grid, *cells[0], sign)
                add_f2f(self.grid, *cells[-1], sign)
            elif edge.n_f2f:
                add_f2f(self.grid, *cells[0], sign * float(edge.n_f2f))

    # -- internals ----------------------------------------------------------------

    def _route_net(self, net: Net, mls: bool, commit: bool) -> RouteTree:
        points = build_route_points(net, self.placement)
        tree = RouteTree(net.name)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        for x, y, tier, pin in points:
            tree.add_node(x, y, tier, pin)
        parents = mst_parents(xs, ys)

        tiers_touched = {p[2] for p in points}
        home_tier = points[0][2]
        is_2d = len(tiers_touched) == 1

        for child in range(1, len(points)):
            parent = parents[child]
            pnode, cnode = tree.nodes[parent], tree.nodes[child]
            length = max(self.cfg.min_edge_um,
                         abs(pnode.x - cnode.x) + abs(pnode.y - cnode.y))
            cells = l_path_gcells(pnode.x, pnode.y, cnode.x, cnode.y,
                                  self.grid.gcell, self.grid.nx, self.grid.ny)
            edge = None
            if mls and is_2d and length >= self.cfg.mls_min_edge_um:
                edge = self._try_shared_edge(parent, child, length,
                                             cells, home_tier, commit)
            if edge is None:
                edge = self._normal_edge(parent, child, length, cells,
                                         pnode.tier, cnode.tier, commit)
            tree.add_edge(edge)
        return tree

    def _try_shared_edge(self, parent: int, child: int, length: float,
                         cells, home_tier: int,
                         commit: bool) -> RouteEdge | None:
        """Attempt an MLS trunk edge on the other tier's top pair."""
        other = 1 - home_tier
        top_other = self.grid.top_pair(other)
        if path_load(self.grid, other, top_other, cells) >= 1.0:
            return None
        start, end = cells[0], cells[-1]
        if (f2f_load(self.grid, *start) >= 1.0
                or f2f_load(self.grid, *end) >= 1.0):
            return None
        top_own = self.grid.top_pair(home_tier)
        # Climb our own stack to the bond interface at both ends; the
        # other tier's top metals sit directly across the F2F bond.
        via_hops = 4 * top_own
        edge = RouteEdge(parent=parent, child=child, length=length,
                         tier=other, pair=top_other, via_hops=via_hops,
                         n_f2f=2, shared=True,
                         escape_um=2.0 * self.cfg.mls_escape_um)
        if commit:
            add_path(self.grid, other, top_other, cells, 1.0)
            add_f2f(self.grid, *start, 1.0)
            add_f2f(self.grid, *end, 1.0)
        return edge

    def _normal_edge(self, parent: int, child: int, length: float,
                     cells, ptier: int, ctier: int,
                     commit: bool) -> RouteEdge:
        tier = ptier
        n_pairs = self.grid.num_pairs(tier)
        want = desired_pair(length, n_pairs, self.cfg.pair_thresholds)
        # Preference order: desired, then progressively lower (cheaper
        # vias), then higher.
        order = [want] + list(range(want - 1, -1, -1)) \
            + list(range(want + 1, n_pairs))
        chosen, overflowed = want, True
        for pair in order:
            if path_load(self.grid, tier, pair, cells) < 1.0:
                chosen, overflowed = pair, False
                break
        if overflowed:
            length *= self.cfg.detour_factor
        via_hops = 4 * chosen
        n_f2f = 0
        if ptier != ctier:
            n_f2f = 1
            # Climb from the wire pair to our top, cross, descend to the
            # sink's lowest metals on the other tier.
            top_own = self.grid.top_pair(ptier)
            via_hops = 2 * chosen + 2 * (top_own - chosen) \
                + 2 * self.grid.top_pair(ctier)
        edge = RouteEdge(parent=parent, child=child, length=length,
                         tier=tier, pair=chosen, via_hops=via_hops,
                         n_f2f=n_f2f, overflowed=overflowed)
        if commit:
            add_path(self.grid, tier, chosen, cells, 1.0)
            if n_f2f:
                add_f2f(self.grid, *cells[0], float(n_f2f))
        return edge
