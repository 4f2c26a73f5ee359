"""Congestion-aware global router with Metal Layer Sharing.

Routing policy per net (long nets first, as commercial routers prioritize):

1. Build a rectilinear MST over pin locations, rooted at the driver.
2. For each tree edge, pick a layer pair by length, falling back to a
   less-congested pair (or taking a detour penalty) when the bbox path
   is full — the top pair shares capacity with the PDN.
3. Cross-tier edges take one F2F via plus the via stacks to reach the
   bond interface.
4. If the net is MLS-enabled and 2-D, trunk edges above a length
   threshold are instead routed on the *other tier's top pair* through
   two F2F vias ("2d-shared"), provided that pair and the F2F pads
   have headroom; otherwise the edge silently falls back to normal
   routing (matching how indiscriminate SOTA requests saturate the
   shared resource).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design import Design
from repro.errors import RoutingError
from repro.netlist.net import Net
from repro.obs import metrics, trace
from repro.route.grid import CongestionGrid
from repro.route.rc import NetRC, extract_rc
from repro.route.steiner import (build_route_points, l_path_gcells,
                                 mst_parents)
from repro.route.tree import RouteEdge, RouteTree

import numpy as np


@dataclass(frozen=True)
class RouteConfig:
    """Router knobs.  Defaults tuned for the benchmark floorplans."""

    gcell_um: float = 5.0
    track_util: float = 0.8
    #: Fraction of each tier's top pair reserved for PDN stripes.
    pdn_reserved: tuple[float, float] = (0.15, 0.15)
    #: MLS only pays off past this edge length; shorter edges stay home.
    mls_min_edge_um: float = 8.0
    #: Length multiplier when every pair along the path is full.
    detour_factor: float = 1.3
    #: Pair selection thresholds in um: below t[0] -> pair 0, etc.
    pair_thresholds: tuple[float, ...] = (20.0, 70.0, 170.0)
    #: Minimum modeled length for coincident pins (pin escape stub).
    min_edge_um: float = 0.5
    #: Home-tier lower-metal stub (um, per end) a shared edge spends
    #: reaching its F2F pad — the fixed cost that makes MLS a net
    #: *loss* for short nets (Table I's degraded net).
    mls_escape_um: float = 2.5


class RoutingResult:
    """Routed trees + parasitics + the live congestion grid."""

    def __init__(self, grid: CongestionGrid, config: RouteConfig):
        self.grid = grid
        self.config = config
        self.trees: dict[str, RouteTree] = {}
        self.rc: dict[str, NetRC] = {}

    def tree(self, net_name: str) -> RouteTree:
        try:
            return self.trees[net_name]
        except KeyError:
            raise RoutingError(f"net {net_name!r} is not routed") from None

    def net_rc(self, net_name: str) -> NetRC:
        try:
            return self.rc[net_name]
        except KeyError:
            raise RoutingError(f"net {net_name!r} has no parasitics") from None

    def wirelength_um(self) -> float:
        return sum(t.wirelength() for t in self.trees.values())

    def mls_applied_nets(self) -> set[str]:
        """Nets where at least one trunk edge actually went shared."""
        return {name for name, t in self.trees.items()
                if t.num_shared_edges() > 0}

    def f2f_via_count(self) -> int:
        return sum(t.f2f_count() for t in self.trees.values())

    def overflow_nets(self) -> int:
        return sum(1 for t in self.trees.values() if t.has_overflow())

    def stats(self) -> dict[str, float]:
        out = {
            "nets": len(self.trees),
            "wirelength_m": self.wirelength_um() * 1e-6,
            "mls_nets": len(self.mls_applied_nets()),
            "f2f_vias": self.f2f_via_count(),
            "overflow_nets": self.overflow_nets(),
        }
        out.update(self.grid.summary())
        return out


def desired_pair(length_um: float, n_pairs: int,
                 thresholds: tuple[float, ...]) -> int:
    """Length-based preferred layer pair (0 = lowest metals)."""
    for idx, limit in enumerate(thresholds):
        if length_um < limit:
            return min(idx, n_pairs - 1)
    return n_pairs - 1


class GlobalRouter:
    """Routes one design; supports per-net re-route for what-if STA."""

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
        """Route every signal net, long nets first; attach the result to
        the design."""
        result = RoutingResult(self.grid, self.cfg)
        nets = self.design.netlist.signal_nets()
        # Long nets first: they claim upper layers before congestion.
        ordered = sorted(nets, key=lambda n: (-self._est_len(n), n.name))
        stacks, f2f = self.design.tech.stacks, self.design.tech.f2f
        with trace.span("route.all", nets=len(ordered),
                        mls_nets=len(mls_nets)):
            for net in ordered:
                tree = self._route_net(net, mls=net.name in mls_nets,
                                       commit=True)
                result.trees[net.name] = tree
                result.rc[net.name] = extract_rc(tree, stacks, f2f)
        metrics.inc("route.full_routes")
        metrics.inc("route.nets_routed", len(ordered))
        metrics.inc("route.overflow_nets", result.overflow_nets())
        self.design.routing = result
        self.design.mls_nets = set(mls_nets)
        return result

    def _est_len(self, net: Net) -> float:
        x0, y0, x1, y1 = self.placement.net_bbox(net)
        return (x1 - x0) + (y1 - y0)

    def reroute_net(self, result: RoutingResult, net: Net,
                    mls: bool) -> NetRC:
        """Re-route one net with/without MLS; updates *result* in place
        and returns the new parasitics.  Used by the what-if oracle and
        by targeted MLS application."""
        metrics.inc("route.reroutes")
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
        """Remove a net's tree and release its grid resources."""
        tree = result.trees.pop(net.name, None)
        result.rc.pop(net.name, None)
        if tree is None:
            return
        self._apply_tree_usage(tree, -1.0)

    def restore_net(self, result: RoutingResult, net: Net,
                    tree: "RouteTree", rc: NetRC) -> None:
        """Re-commit a previously extracted (tree, rc) snapshot.

        The exact inverse of a what-if :meth:`reroute_net`: re-routing
        the net a second time would route against *today's* congestion
        and may not reproduce the tree committed during the full
        route, whereas re-applying the saved tree restores grid usage
        bit-exactly (usage values are integer-valued).
        """
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
        """What-if both MLS states of *net* WITHOUT changing any state.

        Returns (rc_off, rc_on, applied) where ``applied`` says whether
        the MLS attempt actually produced shared trunk edges.  The
        net's committed route, the congestion grid and the result maps
        are bit-identical afterwards.
        """
        metrics.inc("route.probes")
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
            self.grid.add_path(edge.tier, edge.pair, cells, sign)
            if edge.shared:
                self.grid.add_f2f(*cells[0], sign)
                self.grid.add_f2f(*cells[-1], sign)
            elif edge.n_f2f:
                self.grid.add_f2f(*cells[0], sign * float(edge.n_f2f))

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
        if self.grid.path_load(other, top_other, cells) >= 1.0:
            return None
        start, end = cells[0], cells[-1]
        if (self.grid.f2f_load(*start) >= 1.0
                or self.grid.f2f_load(*end) >= 1.0):
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
            self.grid.add_path(other, top_other, cells, 1.0)
            self.grid.add_f2f(*start, 1.0)
            self.grid.add_f2f(*end, 1.0)
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
            if self.grid.path_load(tier, pair, cells) < 1.0:
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
            self.grid.add_path(tier, chosen, cells, 1.0)
            if n_f2f:
                self.grid.add_f2f(*cells[0], float(n_f2f))
        return edge
