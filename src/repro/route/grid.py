"""Gcell congestion grid.

Tracks routing-track demand per (tier, layer-pair, gcell) and F2F-pad
demand per gcell.  Capacities derive from layer pitch and gcell size;
a configurable fraction of the *top* pair is reserved for the PDN —
that reservation is exactly the "remaining routing resources are
utilized for the 2D or MLS nets" coupling of Section III-E.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RoutingError
from repro.place.floorplan import Floorplan
from repro.tech.layers import F2FVia, MetalStack


class CongestionGrid:
    """Per-tier, per-pair track usage plus F2F pad usage."""

    def __init__(self, fp: Floorplan, stacks: tuple[MetalStack, MetalStack],
                 f2f: F2FVia, gcell_um: float = 5.0,
                 track_util: float = 0.5,
                 pdn_reserved: tuple[float, float] = (0.0, 0.0)):
        if gcell_um <= 0:
            raise RoutingError("gcell size must be positive")
        self.gcell = gcell_um
        self.nx = max(1, math.ceil(fp.width / gcell_um))
        self.ny = max(1, math.ceil(fp.height / gcell_um))
        self.stacks = stacks
        self.f2f = f2f
        self.pdn_reserved = pdn_reserved

        # capacity[tier][pair] = usable tracks crossing one gcell
        self.capacity: list[list[float]] = []
        self.usage: list[list[np.ndarray]] = []
        for tier, stack in enumerate(stacks):
            caps, usages = [], []
            pairs = stack.pairs()
            for pair_idx, (la, lb) in enumerate(pairs):
                pitch = (la.pitch_um + lb.pitch_um) / 2.0
                tracks = (gcell_um / pitch) * 2.0 * track_util
                if pair_idx == len(pairs) - 1:
                    tracks *= max(0.0, 1.0 - pdn_reserved[tier])
                caps.append(max(1.0, tracks))
                usages.append(np.zeros((self.nx, self.ny), dtype=np.float32))
            self.capacity.append(caps)
            self.usage.append(usages)

        # F2F pads: one per pitch^2 of gcell area, halved for power/gnd.
        self.f2f_cap = max(1.0, (gcell_um / f2f.pitch_um) ** 2 * 0.5)
        self.f2f_usage = np.zeros((self.nx, self.ny), dtype=np.float32)

    def num_pairs(self, tier: int) -> int:
        return len(self.capacity[tier])

    def top_pair(self, tier: int) -> int:
        return len(self.capacity[tier]) - 1

    def clamp_cell(self, x: float, y: float) -> tuple[int, int]:
        ix = min(max(int(x / self.gcell), 0), self.nx - 1)
        iy = min(max(int(y / self.gcell), 0), self.ny - 1)
        return ix, iy

    # -- demand queries ------------------------------------------------------

    def path_load(self, tier: int, pair: int,
                  cells: list[tuple[int, int]]) -> float:
        """Mean usage/capacity ratio along *cells* for (tier, pair).

        Mean (not max): a detailed router weaves around single hot
        gcells, so a path is only "full" at global-routing abstraction
        when congestion is sustained along it.  The sum runs left to
        right in float32 and the division is float32 too (a float32
        total over a Python float denominator).
        """
        if not cells:
            return 0.0
        ixs, iys = zip(*cells)
        total = np.cumsum(self.usage[tier][pair][ixs, iys],
                          dtype=np.float32)[-1]
        return total / (self.capacity[tier][pair] * len(cells))

    def demand_limits(self, max_cells: int) -> list[list[float]]:
        """``limits[plane][n]``: the float32 denominator ``D`` of
        :meth:`path_load` for an n-cell path on plane ``p`` (see
        :meth:`plane`), as a float.

        For a usage total ``T`` that is an integer below 2**24,
        ``path_load < 1.0`` exactly when ``T < D``: with ``D`` in
        ``[2**k, 2**(k+1))``, an integer below ``D`` is at least one
        float32 step ``2**(k-23)`` below it, so ``T / D <= 1 - 2**-24``
        and the float32 quotient rounds below 1.  The router only ever
        adds and releases whole tracks and pads, so its usage stays
        integral.
        """
        caps = np.array([cap for caps in self.capacity for cap in caps])
        return (caps[:, None] * np.arange(max_cells + 1)) \
            .astype(np.float32).astype(np.float64).tolist()

    def f2f_load(self, ix: int, iy: int) -> float:
        return float(self.f2f_usage[ix, iy]) / self.f2f_cap

    # -- flat views ----------------------------------------------------------------

    def plane(self, index: int) -> np.ndarray:
        """Flat view of usage plane *index*: planes run tier-major
        (plane ``plane_base()[tier] + pair``) and index gcell ``ix * ny
        + iy``."""
        tier = 0 if index < self.num_pairs(0) else 1
        return self.usage[tier][index - tier * self.num_pairs(0)] \
            .reshape(-1)

    def plane_base(self) -> list[int]:
        """First plane index of each tier (see :meth:`plane`)."""
        return [0, self.num_pairs(0)]

    # -- mutation ---------------------------------------------------------------

    def add_path(self, tier: int, pair: int,
                 cells: list[tuple[int, int]], delta: float = 1.0) -> None:
        """Add *delta* on (tier, pair) at every cell of *cells*; repeated
        cells accumulate.  A negative delta clamps the touched cells at
        zero — all that can go negative, since usage never does."""
        if not cells:
            return
        ixs, iys = zip(*cells)
        grid = self.usage[tier][pair]
        np.add.at(grid, (ixs, iys), delta)
        if delta < 0:
            grid[ixs, iys] = np.maximum(grid[ixs, iys], 0.0)

    def add_f2f(self, ix: int, iy: int, delta: float = 1.0) -> None:
        self.f2f_usage[ix, iy] += delta
        if self.f2f_usage[ix, iy] < 0:
            self.f2f_usage[ix, iy] = 0.0

    # -- reporting ---------------------------------------------------------------

    def overflow_cells(self, tier: int, pair: int) -> int:
        """Number of gcells where demand exceeds capacity."""
        return int((self.usage[tier][pair] > self.capacity[tier][pair]).sum())

    def utilization(self, tier: int, pair: int) -> float:
        """Mean demand / capacity over the grid for (tier, pair)."""
        return float(self.usage[tier][pair].mean()
                     / self.capacity[tier][pair])

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "f2f_peak": float(self.f2f_usage.max()) / self.f2f_cap,
        }
        for tier in range(len(self.usage)):
            for pair in range(self.num_pairs(tier)):
                key = f"t{tier}p{pair}"
                out[f"util_{key}"] = self.utilization(tier, pair)
                out[f"overflow_{key}"] = self.overflow_cells(tier, pair)
        return out
