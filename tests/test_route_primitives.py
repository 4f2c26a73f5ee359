"""Table tests for the route kernels' primitives.

Each table pins one coordinate or rounding rule of the array kernels
in :mod:`repro.route` — gcell mapping and clamping of L-paths, MST
tie-breaks, the float32 congestion test, the release clamp — and
checks every row against the per-net reference in
``tests/route_oracle.py`` as well as against the written-out answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.place.floorplan import Floorplan
from repro.route import CongestionGrid, mst_parents
from repro.route.steiner import l_path_cells, l_path_gcells, mst_batch
from repro.tech import F2FVia, NODE_16NM, NODE_28NM, default_stack

from tests import route_oracle as oracle

STACKS = (default_stack(NODE_16NM, 6), default_stack(NODE_28NM, 6))


def make_grid(width: float = 20.0, height: float = 15.0) -> CongestionGrid:
    """A 4 x 3 gcell grid (5 um gcells)."""
    return CongestionGrid(Floorplan(width=width, height=height), STACKS,
                          F2FVia(), gcell_um=5.0)


class TestLPathGcells:
    """``(x0, y0, x1, y1)`` on 5 um gcells of a 4 x 3 grid."""

    TABLE = [
        # horizontal run at iy0, then vertical run at ix1
        ((1, 1, 12, 7), [(0, 0), (1, 0), (2, 0), (2, 1)]),
        # reversed: runs walk down from the start cell
        ((12, 7, 1, 1), [(2, 1), (1, 1), (0, 1), (0, 0)]),
        # degenerate: both ends in one gcell
        ((3, 3, 4.9, 0.1), [(0, 0)]),
        # vertical only
        ((6, 1, 7, 14), [(1, 0), (1, 1), (1, 2)]),
        # a gcell boundary belongs to the upper gcell
        ((5.0, 0, 10.0, 0), [(1, 0), (2, 0)]),
        # negative coordinates truncate toward zero, then clamp to 0
        ((-0.5, -7, 6, 2), [(0, 0), (1, 0)]),
        ((-12, 3, -4.9, 3), [(0, 0)]),
        # off-die ends clamp to the last gcell
        ((25, 40, -3, 100), [(3, 2), (2, 2), (1, 2), (0, 2)]),
        ((19.99, 14.99, 20.0, 15.0), [(3, 2)]),
    ]

    @pytest.mark.parametrize("coords,expected", TABLE)
    def test_table(self, coords, expected):
        assert l_path_gcells(*coords, 5.0, 4, 3) == expected
        assert oracle.l_path_gcells(*coords, 5.0, 4, 3) == expected

    def test_batch_is_the_rows_concatenated(self):
        ends = np.array([c for c, _ in self.TABLE], dtype=float).T
        cells, starts = l_path_cells(ends, 5.0, 4, 3)
        for e, (_, expected) in enumerate(self.TABLE):
            flat = cells[starts[e]:starts[e + 1]].tolist()
            assert flat == [ix * 3 + iy for ix, iy in expected]


class TestMstTies:
    """2/3-pin nets: Prim's first-argmin and strict-< tie-breaks."""

    TABLE = [
        # 2 pins: the sink hangs off the driver, coincident or not
        ([(0, 0), (3, 4)], [-1, 0]),
        ([(2, 2), (2, 2)], [-1, 0]),
        # driver equidistant from both sinks: node 1 joins first, and
        # node 2 is no closer to node 1 than to the driver
        ([(0, 0), (2, 0), (0, 2)], [-1, 0, 0]),
        # chain along a line
        ([(0, 0), (2, 0), (4, 0)], [-1, 0, 1]),
        # node 2 joins first; node 1 is strictly closer to it
        ([(0, 0), (4, 0), (1, 0)], [-1, 2, 0]),
        # tie on the second step (d12 == d02): keep the driver
        ([(0, 0), (1, 1), (2, 0)], [-1, 0, 0]),
        # tie on the second step after node 2 joined (d12 == d01)
        ([(0, 0), (2, 0.5), (0, 1)], [-1, 0, 0]),
        # all three coincident
        ([(1, 1), (1, 1), (1, 1)], [-1, 0, 0]),
    ]

    @pytest.mark.parametrize("points,expected", TABLE)
    def test_table(self, points, expected):
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        assert mst_parents(xs, ys) == expected
        assert oracle.mst_parents(xs, ys) == expected

    def test_batch_rows_match_the_table(self):
        for k in (2, 3):
            rows = [(p, want) for p, want in self.TABLE if len(p) == k]
            xs = np.array([[q[0] for q in p] for p, _ in rows], dtype=float)
            ys = np.array([[q[1] for q in p] for p, _ in rows], dtype=float)
            parent, depth = mst_batch(xs, ys)
            assert parent.tolist() == [want for _, want in rows]
            assert depth.tolist() == [[0] + [1 if p == 0 else 2
                                             for p in want[1:]]
                                      for _, want in rows]


class TestPathLoadFloat32:
    """``path_load`` sums and divides in float32; ``< 1.0`` is on
    that float32 quotient, and ``demand_limits`` reproduces it."""

    def grid_with(self, cap: float, usage: list[float]) -> tuple:
        grid = make_grid()
        grid.capacity[0][0] = cap
        cells = [(i, 0) for i in range(len(usage))]
        for (ix, iy), value in zip(cells, usage):
            grid.usage[0][0][ix, iy] = value
        return grid, cells

    TABLE = [
        # (capacity, usage along the path, load < 1.0)
        (3.0, [3.0], False),                  # exactly full
        (3.0, [2.0], True),
        (4.0, [1.0, 2.0, 4.0], True),         # mean 7/12
        (2.5, [2.0, 3.0], False),             # mean 5 / 5: full
        # float64 would say 1 / (1 + 2**-30) < 1; in float32 the
        # denominator rounds to 1.0 and the path is full
        (1.0 + 2.0 ** -30, [1.0], False),
        # and back: 3 / fl32(3 - 2**-22) rounds to just above 1
        (3.0 - 2.0 ** -22, [3.0], False),
    ]

    @pytest.mark.parametrize("cap,usage,fits", TABLE)
    def test_table(self, cap, usage, fits):
        grid, cells = self.grid_with(cap, usage)
        load = grid.path_load(0, 0, cells)
        assert load.dtype == np.float32
        assert (load < 1.0) == fits
        assert load == oracle.path_load(grid, 0, 0, cells)

    def test_float64_division_disagrees(self):
        grid, cells = self.grid_with(1.0 + 2.0 ** -30, [1.0])
        assert 1.0 / (1.0 + 2.0 ** -30) < 1.0
        assert not grid.path_load(0, 0, cells) < 1.0

    def test_demand_limits_match_path_load(self):
        grid = make_grid()
        caps = [1.0, 1.0 + 2.0 ** -30, 3.0 - 2.0 ** -22, 2.5, 7.3, 12.5,
                grid.capacity[0][0]]
        for cap in caps:
            grid.capacity[0][0] = cap
            limits = grid.demand_limits(4)
            for n in range(1, 4):
                cells = [(i, 0) for i in range(n)]
                for total in range(int(cap * n) - 3, int(cap * n) + 4):
                    if total < 0:
                        continue
                    grid.usage[0][0][:] = 0.0
                    grid.usage[0][0][0, 0] = float(total)
                    fits = grid.path_load(0, 0, cells) < 1.0
                    assert (total < limits[0][n]) == fits, (cap, n, total)


class TestAddPathClamp:
    def test_release_clamps_only_touched_cells(self):
        grid = make_grid()
        plane = grid.usage[0][1]
        plane[0, 0], plane[2, 0] = 1.0, 3.0
        grid.add_path(0, 1, [(0, 0), (1, 0)], -1.0)
        assert plane[0, 0] == 0.0
        assert plane[1, 0] == 0.0             # -1 clamped at zero
        assert plane[2, 0] == 3.0             # untouched

    def test_repeated_cells_accumulate(self):
        grid = make_grid()
        grid.add_path(0, 0, [(1, 1), (1, 1), (2, 1)], 1.0)
        assert grid.usage[0][0][1, 1] == 2.0
        assert grid.usage[0][0][2, 1] == 1.0

    def test_matches_oracle_sequence(self):
        ours, ref = make_grid(), make_grid()
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            cells = [(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
                     for _ in range(n)]
            delta = float(rng.choice([1.0, -1.0, 2.0, -2.0, 0.5]))
            pair = int(rng.integers(0, 3))
            ours.add_path(0, pair, cells, delta)
            oracle.add_path(ref, 0, pair, cells, delta)
        for pair in range(3):
            assert ours.usage[0][pair].tobytes() == \
                ref.usage[0][pair].tobytes()
