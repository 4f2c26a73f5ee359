"""Rectilinear spanning topology construction.

Global routing at gcell resolution only needs edge lengths and rough
paths, so a rectilinear MST (Prim) with L-shaped edge realization is
the right fidelity/speed point: within ~10 % of RSMT length for the
fanouts in our designs, exact for 2-pin nets (the vast majority).

Both primitives are array kernels over many nets/edges at once:
:func:`mst_batch` runs Prim in lockstep over every net of one degree,
:func:`l_path_cells` realizes every edge's L-path as flat gcell
indices.  :func:`mst_parents` and :func:`l_path_gcells` are their
one-net / one-edge views.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError


def mst_batch(xs: np.ndarray, ys: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Prim MST of every row of ``(m, k)`` point arrays, rooted at column 0.

    Returns ``(parent, depth)``, both ``(m, k)`` int arrays
    (``parent[:, 0] == -1``, ``depth[:, 0] == 0``).  Each row takes the
    exact steps of a one-net Prim under manhattan distance: the next
    node is the first ``argmin`` of the best distances, and a node
    switches its tree neighbour only on a strictly shorter distance.
    2- and 3-pin rows are closed-form; larger rows run Prim in
    lockstep, one node per row per step.
    """
    m, k = xs.shape
    if k == 0:
        raise RoutingError("mst_parents needs at least one point")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise RoutingError("point set is not connectable")
    parent = np.full((m, k), -1, dtype=np.int64)
    depth = np.zeros((m, k), dtype=np.int64)
    if k == 1:
        return parent, depth
    if k == 2:
        parent[:, 1] = 0
        depth[:, 1] = 1
        return parent, depth
    pts = np.stack((xs, ys), axis=1)                       # (m, 2, k)
    if k == 3:
        d01, d02 = np.abs(pts[:, :, 1:] - pts[:, :, :1]).sum(axis=1).T
        d12 = np.abs(pts[:, :, 2] - pts[:, :, 1]).sum(axis=1)
        # argmin takes node 1 on a tie; the other node then switches
        # to it only when strictly closer than to the driver.
        take1 = d01 <= d02
        parent[:, 1] = np.where(take1, 0, np.where(d12 < d01, 2, 0))
        parent[:, 2] = np.where(take1, np.where(d12 < d02, 1, 0), 0)
        depth[:, 1:] = 1 + (parent[:, 1:] > 0)
        return parent, depth
    rows = np.arange(m)
    free = np.ones((m, k), dtype=bool)
    free[:, 0] = False
    # best[r, i] = manhattan distance from i to its closest in-tree node
    best = np.abs(pts - pts[:, :, :1]).sum(axis=1)
    best[:, 0] = np.inf
    best_src = np.zeros((m, k), dtype=np.int64)
    for _ in range(k - 1):
        nxt = best.argmin(axis=1)
        src = best_src[rows, nxt]
        parent[rows, nxt] = src
        depth[rows, nxt] = depth[rows, src] + 1
        free[rows, nxt] = False
        dist = np.abs(pts - pts[rows, :, nxt][:, :, None]).sum(axis=1)
        closer = dist < best
        closer &= free
        np.copyto(best, dist, where=closer)
        np.copyto(best_src, nxt[:, None], where=closer)
        best[rows, nxt] = np.inf
    return parent, depth


def mst_parents(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Prim MST parents of one net under manhattan distance, rooted
    at index 0 (``parent[0] == -1``)."""
    parent, _ = mst_batch(np.asarray(xs, dtype=np.float64)[None, :],
                          np.asarray(ys, dtype=np.float64)[None, :])
    return parent[0].tolist()


def l_path_cells(ends: np.ndarray, gcell: float, nx: int, ny: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gcells of every edge's L-route (horizontal-then-vertical).

    *ends* is a ``(4, E)`` array of ``x0, y0, x1, y1`` rows.  Returns
    ``(cells, starts)``: edge ``e`` crosses the flat gcell indices
    ``cells[starts[e]:starts[e + 1]]`` (``ix * ny + iy``), unique and
    in path order — the horizontal run from ``(ix0, iy0)`` to the
    corner ``(ix1, iy0)``, then the vertical run to ``(ix1, iy1)``.  A
    coordinate maps to ``int(v / gcell)`` (truncated toward zero)
    clamped to the grid.
    """
    hi = np.array([[nx - 1], [ny - 1], [nx - 1], [ny - 1]])
    ix0, iy0, ix1, iy1 = np.minimum(np.maximum(
        np.trunc(ends / gcell), 0), hi).astype(np.int64)
    dx, dy = ix1 - ix0, iy1 - iy0
    hx = np.abs(dx)
    count = hx + np.abs(dy) + 1
    starts = np.zeros(len(count) + 1, dtype=np.int64)
    count.cumsum(out=starts[1:])
    # Per edge: start cell, horizontal step, horizontal run length,
    # vertical step and first flat position, spread over its cells.
    start, step_x, run_x, step_y, first = np.array(
        (ix0 * ny + iy0, np.sign(dx) * ny, hx, np.sign(dy), starts[:-1])
    ).repeat(count, axis=1)
    pos = np.arange(starts[-1]) - first
    cells = start + step_x * np.minimum(pos, run_x) \
        + step_y * np.maximum(pos - run_x, 0)
    return cells, starts


def l_path_gcells(x0: float, y0: float, x1: float, y1: float,
                  gcell: float, nx: int, ny: int) -> list[tuple[int, int]]:
    """Gcells crossed by one L-route as (ix, iy) pairs; see
    :func:`l_path_cells`."""
    cells, _ = l_path_cells(np.array([[x0], [y0], [x1], [y1]],
                                     dtype=np.float64), gcell, nx, ny)
    return [divmod(c, ny) for c in cells.tolist()]
