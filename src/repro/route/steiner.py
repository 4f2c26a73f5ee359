"""Rectilinear spanning topology construction.

Global routing at gcell resolution only needs edge lengths and rough
paths, so a rectilinear MST (Prim) with L-shaped edge realization is
the right fidelity/speed point: within ~10 % of RSMT length for the
fanouts in our designs, exact for 2-pin nets (the vast majority).
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.netlist.net import Net
from repro.place.placement import Placement


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
