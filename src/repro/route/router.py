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

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.design import Design
from repro.errors import PlacementError, RoutingError
from repro.netlist.net import Net
from repro.obs import metrics, trace
from repro.route.grid import CongestionGrid
from repro.route.rc import NetRC, RcTables, TreeArrays, extract_rc_batch
from repro.route.steiner import l_path_cells, mst_batch
from repro.route.tree import RouteEdge, RouteNode, RouteTree


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
    """Routes one design; supports per-net re-route for what-if STA.

    Every entry point runs one kernel, :meth:`_kernel`, over the nets
    it routes — a single-net call is a batch of one, and unrouting or
    restoring a tree is a batch of none with a grid update.  Geometry
    (MST, edge lengths, L-path gcells) is computed for the whole batch
    first, since it depends on neither congestion nor MLS.  Layer
    assignment then walks the edges in net order, because every
    committed edge changes the congestion the next one sees.  RC
    extraction runs over the whole batch again.
    """

    def __init__(self, design: Design, config: RouteConfig | None = None):
        self.design = design
        self.cfg = config or RouteConfig()
        placement = design.require_placement()
        fp = design.require_floorplan()
        self.placement = placement
        self.grid = grid = CongestionGrid(
            fp, design.tech.stacks, design.tech.f2f,
            gcell_um=self.cfg.gcell_um, track_util=self.cfg.track_util,
            pdn_reserved=self.cfg.pdn_reserved)
        self._rc = RcTables(design.tech.stacks, design.tech.f2f)
        base = grid.plane_base()
        n_pairs = [grid.num_pairs(0), grid.num_pairs(1)]
        self._base, self._tops = base, [n - 1 for n in n_pairs]
        # Planes to try per (tier, desired pair): desired, then
        # progressively lower (cheaper vias), then higher.
        self._prefs = [[[base[t] + p for p in [w] + list(range(w - 1, -1, -1))
                         + list(range(w + 1, n_pairs[t]))]
                        for w in range(n_pairs[t])] for t in (0, 1)]
        # An MLS trunk of a net living on tier t runs on the other
        # tier's top pair.
        self._shared_plane = [base[1] + self._tops[1], self._tops[0]]
        self._limits = grid.demand_limits(grid.nx + grid.ny)

    # -- public API -----------------------------------------------------------

    def route_all(self, mls_nets: set[str] | frozenset = frozenset()
                  ) -> RoutingResult:
        """Route every signal net, long nets first; attach the result to
        the design."""
        result = RoutingResult(self.grid, self.cfg)
        nets = self.design.netlist.signal_nets()
        with trace.span("route.all", nets=len(nets),
                        mls_nets=len(mls_nets)), _gc_paused():
            t0 = time.perf_counter()
            points = self._net_points(nets)
            for net in nets:
                if not net.degree:
                    raise PlacementError(
                        f"net {net.name} has no pins to bound")
            # Long nets first: they claim upper layers before congestion.
            est = _bbox_len(points)
            order = sorted(range(len(nets)),
                           key=lambda i: (-est[i], nets[i].name))
            ordered = [nets[i] for i in order]
            points = _take_nets(points, order)
            routed = self._kernel(
                ordered, [net.name in mls_nets for net in ordered],
                commit=True, points=points, t0=t0)
            del points
            for net, (tree, rc) in zip(ordered, routed):
                result.trees[net.name] = tree
                result.rc[net.name] = rc
        metrics.inc("route.full_routes")
        metrics.inc("route.nets_routed", len(ordered))
        metrics.inc("route.overflow_nets", result.overflow_nets())
        self.design.routing = result
        self.design.mls_nets = set(mls_nets)
        return result

    def route_nets(self, result: RoutingResult, nets: list[Net],
                   mls: list[bool]) -> list[NetRC]:
        """:meth:`reroute_net` on each of *nets* in turn, as one kernel
        batch: a routed net releases its route just before it is
        routed, and every net sees the ones before it committed."""
        if len({net.name for net in nets}) != len(nets):
            raise RoutingError("route_nets: a net is listed twice")
        metrics.inc("route.reroutes", len(nets))
        events = []
        for k, net in enumerate(nets):
            events += [(tree, -1.0, k) for tree in self._pop(result, [net])]
        routed = self._kernel(nets, mls, commit=True, events=events)
        for net, want, (tree, rc) in zip(nets, mls, routed):
            result.trees[net.name] = tree
            result.rc[net.name] = rc
            self._note_mls(net.name, want and tree.num_shared_edges() > 0)
        return [rc for _, rc in routed]

    def reroute_net(self, result: RoutingResult, net: Net,
                    mls: bool) -> NetRC:
        """Re-route one net with/without MLS; updates *result* in place
        and returns the new parasitics.  Used by the what-if oracle and
        by targeted MLS application."""
        return self.route_nets(result, [net], [mls])[0]

    def unroute_net(self, result: RoutingResult, net: Net) -> None:
        """Remove a net's tree and release its grid resources."""
        self.unroute_nets(result, [net])

    def unroute_nets(self, result: RoutingResult, nets: list[Net]) -> None:
        """:meth:`unroute_net` for every net of *nets* at once."""
        self._kernel([], [], commit=True, events=[
            (tree, -1.0, 0) for tree in self._pop(result, nets)])

    def restore_net(self, result: RoutingResult, net: Net,
                    tree: "RouteTree", rc: NetRC) -> None:
        """Re-commit a previously extracted (tree, rc) snapshot.

        The exact inverse of a what-if :meth:`reroute_net`: re-routing
        the net a second time would route against *today's* congestion
        and may not reproduce the tree committed during the full
        route, whereas re-applying the saved tree restores grid usage
        bit-exactly (usage values are integer-valued).
        """
        events = [(old, -1.0, 0) for old in self._pop(result, [net])]
        self._kernel([], [], commit=True, events=events + [(tree, 1.0, 0)])
        result.trees[net.name] = tree
        result.rc[net.name] = rc
        self._note_mls(net.name, tree.num_shared_edges() > 0)

    def probe_net(self, result: RoutingResult, net: Net
                  ) -> tuple[NetRC, NetRC, bool]:
        """What-if both MLS states of *net* WITHOUT changing any state.

        Returns (rc_off, rc_on, applied) where ``applied`` says whether
        the MLS attempt actually produced shared trunk edges.  The
        net's committed route, the congestion grid and the result maps
        are bit-identical afterwards.
        """
        return self.probe_nets(result, [net])[0]

    def probe_nets(self, result: RoutingResult, nets: list[Net]
                   ) -> list[tuple[NetRC, NetRC, bool]]:
        """:meth:`probe_net` for every net of *nets*, as one kernel batch.

        Each net is probed against the grid with only its own committed
        route released, exactly as in a sequence of :meth:`probe_net`
        calls.
        """
        metrics.inc("route.probes", len(nets))
        events = []
        for i, net in enumerate(nets):
            tree = result.tree(net.name)
            events += [(tree, -1.0, 2 * i), (tree, 1.0, 2 * i + 2)]
        routed = self._kernel([net for net in nets for _ in (0, 1)],
                              [False, True] * len(nets), commit=False,
                              events=events)
        return [(rc_off, rc_on, tree_on.num_shared_edges() > 0)
                for (_, rc_off), (tree_on, rc_on)
                in zip(routed[::2], routed[1::2])]

    def _pop(self, result: RoutingResult, nets: list[Net]
             ) -> list[RouteTree]:
        """Take *nets* out of *result*; returns the trees they had."""
        trees = []
        for net in nets:
            tree = result.trees.pop(net.name, None)
            result.rc.pop(net.name, None)
            if tree is not None:
                trees.append(tree)
        return trees

    def _note_mls(self, name: str, applied: bool) -> None:
        if applied:
            self.design.mls_nets.add(name)
        else:
            self.design.mls_nets.discard(name)

    # -- the kernel ----------------------------------------------------------------

    def _net_points(self, nets: list[Net]):
        """Pin points of *nets*, driver first: ``(pins, x, y, tier,
        starts)`` with net ``i`` at ``starts[i]:starts[i + 1]``; ``x``,
        ``y``, ``tier`` are lists of the placement's own values and
        ``starts`` a Python list."""
        pins = [pin for net in nets for pin in net.pins()]
        locs = self.placement.of_pins(pins)
        starts = [0]
        for net in nets:
            starts.append(starts[-1] + net.degree)
        return (pins, [loc.x for loc in locs], [loc.y for loc in locs],
                [loc.tier for loc in locs], starts)

    def _kernel(self, nets: list[Net], mls: list[bool], commit: bool,
                events=(), points=None, t0: float | None = None
                ) -> list[tuple[RouteTree, NetRC]]:
        """Route *nets* in order; returns each one's (tree, parasitics).

        ``mls[i]`` requests MLS for net i.  With *commit* each edge
        claims its grid resources before the next edge is assigned.
        *events* are ``(tree, sign, k)``: just before net ``k`` is
        assigned (``k == len(nets)``: after the last), the tree's
        resources are added (``sign`` +1) or released (-1).
        """
        with _gc_paused():
            if t0 is None:
                t0 = time.perf_counter()
            for net in nets:
                if net.driver is None:
                    raise RoutingError(
                        f"net {net.name} has no driver to route from")
            if points is None:
                points = self._net_points(nets)
            trees = list({id(tree): tree for tree, _, _ in events}.values())
            geo = self._geometry(points, trees)
            t1 = time.perf_counter()
            edges = self._assign(points, geo, mls, commit, trees, events)
            t2 = time.perf_counter()
            routed = []
            if nets:
                rcs = extract_rc_batch(
                    _tree_arrays(nets, points, geo, edges), self._rc)
                del geo
                t3 = time.perf_counter()
                routed = list(zip(_build_trees(nets, points, edges), rcs))
            else:
                t3 = t2
            t4 = time.perf_counter()
        metrics.add_time("route.geometry_s", t1 - t0)
        metrics.add_time("route.assign_s", t2 - t1)
        metrics.add_time("route.rc_s", t3 - t2)
        metrics.add_time("route.commit_s", t4 - t3)
        return routed

    def _geometry(self, points, trees: list[RouteTree]) -> dict:
        """Everything congestion and MLS cannot change: the batch's MST
        edges, their lengths and L-path gcells — and, from the same
        gcell pass, the gcells of the edges of *trees*."""
        cfg, grid = self.cfg, self.grid
        _, x, y, _, starts = points
        # A 2-pin net's sink hangs off its driver; larger nets take
        # their MST per degree bucket.
        buckets: dict[int, list[int]] = {}
        for i in range(len(starts) - 1):
            k = starts[i + 1] - starts[i]
            if k > 2:
                buckets.setdefault(k, []).append(i)
        msts = {}
        if buckets:
            xs = np.array(x, dtype=np.float64)
            ys = np.array(y, dtype=np.float64)
            for k, rows in buckets.items():
                idx = np.array([starts[i] for i in rows])[:, None] \
                    + np.arange(k)
                parent, depth = mst_batch(xs[idx], ys[idx])
                msts.update(zip(rows, zip(parent.tolist(), depth.tolist())))
        parent, child, depth = [], [], []
        for i in range(len(starts) - 1):
            a, b = starts[i], starts[i + 1]
            if b - a == 2:
                parent.append(a)
                depth.append(1)
            elif b - a > 2:
                par, dep = msts[i]
                parent += [a + p for p in par[1:]]
                depth += dep[1:]
            child += range(a + 1, b)
        px, py = [x[p] for p in parent], [y[p] for p in parent]
        cx, cy = [x[c] for c in child], [y[c] for c in child]
        ends = (px, py, cx, cy)
        if trees:
            ends = [new + old for new, old in zip(ends, _edge_ends(trees))]
        cells, cell_start = l_path_cells(np.array(ends, dtype=np.float64),
                                         grid.gcell, grid.nx, grid.ny)
        min_edge = cfg.min_edge_um
        return {
            "parent": parent, "child": child, "depth": depth,
            "length": [max(min_edge, abs(p - c) + abs(q - d))
                       for p, q, c, d in zip(px, py, cx, cy)],
            "cells": cells.tolist(), "bounds": cell_start.tolist(),
        }

    def _assign(self, points, geo: dict, mls: list[bool], commit: bool,
                trees: list[RouteTree], events) -> list[list]:
        """Assign every edge in order; returns the :class:`RouteEdge`
        fields as columns (parent, child, length, tier, pair, via_hops,
        n_f2f, shared, overflowed, escape_um), node indices net-local.

        Reads and writes go through a float copy of just the gcells the
        batch touches, written back at the end.  Usage stays integral
        (whole tracks and pads), so these sums are exact and the
        float32 load test reduces to
        :meth:`CongestionGrid.demand_limits`.
        """
        cfg, grid = self.cfg, self.grid
        # The batch's gcells as indices into its own copy of the grid.
        local: dict[int, int] = {}
        ids_all = [local.setdefault(c, len(local)) for c in geo.pop("cells")]
        uniq = np.fromiter(local, dtype=np.int64, count=len(local))
        mirror: dict[int, list[float]] = {}
        f2f_flat = grid.f2f_usage.reshape(-1)
        f2f = f2f_flat[uniq].tolist()

        def usage(p: int) -> list[float]:
            vals = mirror.get(p)
            if vals is None:
                vals = mirror[p] = grid.plane(p)[uniq].tolist()
            return vals

        bounds = geo["bounds"]
        held = self._held(trees, ids_all, bounds, len(geo["child"]))
        at: dict[int, list] = {}
        for tree, sign, k in events:
            at.setdefault(k, []).append((held[id(tree)], sign))

        def apply(k: int) -> None:
            """Add or release the trees of the events at entry k."""
            for (planes, pads), sign in at.pop(k, ()):
                for p, ids in planes:
                    _bump(usage(p), ids, sign)
                _bump(f2f, pads, sign)

        limits, prefs, base, tops = (self._limits, self._prefs,
                                     self._base, self._tops)
        f2f_cap, detour = grid.f2f_cap, cfg.detour_factor
        thresholds, mls_min = cfg.pair_thresholds, cfg.mls_min_edge_um
        escape = 2.0 * cfg.mls_escape_um
        tier_of, starts = points[3], points[4]
        parent_l, child_l, lengths = geo["parent"], geo["child"], \
            geo["length"]
        cols: list[list] = [[] for _ in range(10)]
        (parent_c, child_c, length_c, tier_c, pair_c, via_c, f2f_c,
         shared_c, over_c, esc_c) = cols
        for i in range(len(starts) - 1):
            apply(i)
            a, b = starts[i], starts[i + 1]
            net_tiers = tier_of[a:b]
            # MLS applies to 2-D nets only.
            want_mls = mls[i] and net_tiers.count(net_tiers[0]) == b - a
            for e in range(a - i, b - i - 1):
                parent, child, length = parent_l[e], child_l[e], lengths[e]
                tier, ctier = tier_of[parent], tier_of[child]
                ids = ids_all[bounds[e]:bounds[e + 1]]
                n = len(ids)
                parent_c.append(parent - a)
                child_c.append(child - a)
                if want_mls and length >= mls_min:
                    p = self._shared_plane[tier]
                    use = usage(p)
                    if (sum(map(use.__getitem__, ids)) < limits[p][n]
                            and f2f[ids[0]] / f2f_cap < 1.0
                            and f2f[ids[-1]] / f2f_cap < 1.0):
                        if commit:
                            _bump(use, ids, 1.0)
                            _bump(f2f, (ids[0], ids[-1]), 1.0)
                        # Climb our own stack to the bond interface at
                        # both ends; the other tier's top metals sit
                        # directly across the F2F bond.
                        length_c.append(length)
                        tier_c.append(1 - tier)
                        pair_c.append(tops[1 - tier])
                        via_c.append(4 * tops[tier])
                        f2f_c.append(2)
                        shared_c.append(True)
                        over_c.append(False)
                        esc_c.append(escape)
                        continue
                order = prefs[tier][desired_pair(length, tops[tier] + 1,
                                                 thresholds)]
                for p in order:
                    if sum(map(usage(p).__getitem__, ids)) < limits[p][n]:
                        over = False
                        break
                else:
                    p, over = order[0], True
                    length *= detour
                pair = p - base[tier]
                if commit:
                    _bump(usage(p), ids, 1.0)
                if tier != ctier:
                    # Climb from the wire pair to our top, cross,
                    # descend to the sink's lowest metals.
                    via_c.append(2 * pair + 2 * (tops[tier] - pair)
                                 + 2 * tops[ctier])
                    f2f_c.append(1)
                    if commit:
                        f2f[ids[0]] += 1.0
                else:
                    via_c.append(4 * pair)
                    f2f_c.append(0)
                length_c.append(length)
                tier_c.append(tier)
                pair_c.append(pair)
                shared_c.append(False)
                over_c.append(over)
                esc_c.append(0.0)
        apply(len(starts) - 1)
        # Every gathered plane goes back; values only ever moved by
        # whole units, so the float32 copies are exact.
        for p, vals in mirror.items():
            grid.plane(p)[uniq] = np.array(vals, dtype=np.float32)
        f2f_flat[uniq] = np.array(f2f, dtype=np.float32)
        return cols

    def _held(self, trees: list[RouteTree], ids_all: list[int],
              bounds: list[int], first_edge: int) -> dict:
        """``id(tree) -> ([(plane, cell ids)], pad cell ids)`` for the
        *trees*, whose edges follow the batch's own edges in
        *ids_all*/*bounds*; a pad cell is listed once per F2F via."""
        held = {}
        e = first_edge
        for tree in trees:
            planes, pads = [], []
            for edge in tree.edges:
                ids = ids_all[bounds[e]:bounds[e + 1]]
                e += 1
                planes.append((self._base[edge.tier] + edge.pair, ids))
                if edge.shared:
                    pads += [ids[0], ids[-1]]
                else:
                    pads += [ids[0]] * edge.n_f2f
            held[id(tree)] = (planes, pads)
        return held


def _bump(values: list[float], ids, sign: float) -> None:
    """Add *sign* at each of *ids* in turn; a release stops at zero."""
    if sign > 0:
        for c in ids:
            values[c] += sign
    else:
        for c in ids:
            v = values[c] + sign
            values[c] = v if v > 0.0 else 0.0


def _tree_arrays(nets: list[Net], points, geo: dict,
                 edges: list[list]) -> TreeArrays:
    """The batch as RC-kernel input."""
    pins, starts = points[0], points[4]
    sink = [True] * len(pins)
    pin_cap = [pin.cap_ff for pin in pins]
    for a in starts[:-1]:
        sink[a], pin_cap[a] = False, 0.0
    ints = np.array((edges[3], edges[4], geo["parent"], geo["child"],
                     geo["depth"]), dtype=np.int64).reshape(5, -1)
    floats = np.array((edges[2], edges[5], edges[6], edges[9]),
                      dtype=np.float64).reshape(4, -1)
    return TreeArrays(
        names=[net.name for net in nets], node_start=starts, pins=pins,
        sink=sink, pin_cap=np.array(pin_cap, dtype=np.float64),
        edge_start=[a - i for i, a in enumerate(starts)],
        parent=ints[2], child=ints[3], depth=ints[4],
        tier=ints[0], pair=ints[1], length=floats[0],
        via_hops=floats[1], n_f2f=floats[2], escape_um=floats[3])


def _build_trees(nets: list[Net], points, edges: list[list]
                 ) -> list[RouteTree]:
    """The public :class:`RouteTree` view of every net of a batch."""
    pins, x, y, tier, starts = points
    local = [j - a for a, b in zip(starts, starts[1:]) for j in range(a, b)]
    nodes = list(map(RouteNode, local, x, y, tier, pins))
    edge_objs = list(map(RouteEdge, *edges))
    trees = []
    for i, net in enumerate(nets):
        a, b = starts[i], starts[i + 1]
        tree = RouteTree(net.name)
        tree.nodes = nodes[a:b]
        tree.edges = edge_objs[a - i:b - i - 1]
        trees.append(tree)
    return trees


def _edge_ends(trees: list[RouteTree]) -> list[list[float]]:
    """``x0, y0, x1, y1`` rows over every edge of *trees*."""
    ends = [(tree.nodes[e.parent], tree.nodes[e.child])
            for tree in trees for e in tree.edges]
    return [[p.x for p, _ in ends], [p.y for p, _ in ends],
            [c.x for _, c in ends], [c.y for _, c in ends]]


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for one kernel call.

    A full route allocates a few hundred thousand small objects (trees,
    edges, parasitics) and no garbage cycles; left on, the collector
    would rescan the whole live design many times over.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _bbox_len(points) -> list[float]:
    """Half-perimeter of each net's pin bounding box."""
    _, x, y, _, starts = points
    xs, ys = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    first = starts[:-1]
    return ((np.maximum.reduceat(xs, first) - np.minimum.reduceat(xs, first))
            + (np.maximum.reduceat(ys, first)
               - np.minimum.reduceat(ys, first))).tolist()


def _take_nets(points, order: list[int]):
    """*points* restricted to the nets *order*, in that order."""
    pins, x, y, tier, starts = points
    idx: list[int] = []
    new_starts = [0]
    for i in order:
        idx.extend(range(starts[i], starts[i + 1]))
        new_starts.append(len(idx))
    return ([pins[i] for i in idx], [x[i] for i in idx],
            [y[i] for i in idx], [tier[i] for i in idx], new_starts)
