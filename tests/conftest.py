"""Shared fixtures.

Expensive artifacts (generated designs, placed/routed small fabrics)
are session-scoped; tests that mutate a design must build their own
(use the factory fixtures).
"""

from __future__ import annotations

import pytest

from repro.design import Design, TechSetup
from repro.mls import route_with_mls
from repro.netlist.builder import NetlistBuilder
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.opt import insert_buffers
from repro.partition import partition_memory_on_logic
from repro.place import place_design
from repro.rng import SeedBundle

TEST_SEED = 1234


@pytest.fixture(autouse=True)
def _pretend_multicore(monkeypatch):
    """Bypass the single-core pool degrade for the whole suite.

    Tests that construct ``workers>1`` configs mean to exercise the
    process pool (equivalence vs serial) even on a 1-core CI box,
    where ``should_parallelize`` would otherwise silently go serial.
    The degrade itself has a dedicated test that re-patches
    ``usable_cores`` back down to 1.
    """
    import repro.parallel.config as parallel_config
    real = parallel_config.usable_cores
    monkeypatch.setattr(parallel_config, "usable_cores",
                        lambda: max(4, real()))


@pytest.fixture()
def pool_min_items(monkeypatch):
    """Setter for the pool's serial-fallback threshold.

    ``repro.parallel.config.MIN_ITEMS`` keeps small production loops
    serial; tests lower it for one test so the small fabrics' workloads
    actually reach the process pool.
    """
    import repro.parallel.config as parallel_config

    def set_min_items(value: int) -> None:
        monkeypatch.setattr(parallel_config, "MIN_ITEMS", value)
    return set_min_items


@pytest.fixture(scope="session")
def hetero_tech() -> TechSetup:
    return TechSetup.build("16nm", "28nm", 6)


@pytest.fixture(scope="session")
def homo_tech() -> TechSetup:
    return TechSetup.build("28nm", "28nm", 6)


@pytest.fixture()
def seeds() -> SeedBundle:
    return SeedBundle(TEST_SEED)


def build_small_design(tech: TechSetup, seed: int = TEST_SEED,
                       pe: int = 16, freq: float = 1500.0,
                       routed: bool = True, buffered: bool = True) -> Design:
    """A small MAERI fabric pushed through place (+buffer, +route)."""
    seeds = SeedBundle(seed)
    netlist = generate_maeri(MaeriConfig(pe_count=pe, bandwidth=8),
                             tech.libraries, seeds)
    design = Design(netlist, tech, freq)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers, seeds)
    if buffered:
        insert_buffers(design)
    if routed:
        route_with_mls(design, set())
    return design


@pytest.fixture(scope="session")
def routed_small_design(hetero_tech) -> Design:
    """Read-only routed 16PE design (do NOT mutate in tests)."""
    return build_small_design(hetero_tech)


@pytest.fixture()
def fresh_small_design(hetero_tech) -> Design:
    """A mutable routed 16PE design, rebuilt per test."""
    return build_small_design(hetero_tech)


@pytest.fixture()
def tiny_builder(hetero_tech) -> NetlistBuilder:
    """Builder over logic/memory libraries for hand-made netlists."""
    return NetlistBuilder("tiny", hetero_tech.libraries)


def make_chain_netlist(tech: TechSetup, stages: int = 3):
    """reg -> INV chain -> reg netlist with ports, for STA hand-checks."""
    builder = NetlistBuilder("chain", tech.libraries)
    clock = builder.clock_net("clk")
    clk_port = builder.netlist.add_port("clk_pad", "in")
    clock.attach(clk_port.pin)
    d_in = builder.input("din")
    q = builder.flop(d_in, clock, hint="launch")
    for _ in range(stages):
        q = builder.gate("INV", q)
    q2 = builder.flop(q, clock, hint="capture")
    builder.output("dout", q2)
    return builder.done()
