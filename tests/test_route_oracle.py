"""The production router against the per-net oracle, bit for bit.

``tests/route_oracle.py`` keeps the per-net interpreter router that
:mod:`repro.route`'s array kernels replaced.  Every test here routes
two deep copies of one placed design — one with
:class:`~repro.route.GlobalRouter`, one with
:class:`~tests.route_oracle.OracleRouter` — and requires identical
trees, parasitics (every float of every ``NetRC``), congestion-grid
bytes of every plane and ``stats()``:

* full routes with an empty, the SOTA and a seeded-random MLS set,
  under the default and a congested track budget;
* an interleaved ``probe_net`` / ``reroute_net`` / ``unroute_net`` /
  ``restore_net`` sequence on the SOTA routing, probes compared too;
* ``probe_nets``, ``route_nets`` and ``unroute_nets`` batches against
  the oracle's per-net calls.

Designs: MAERI-16 hetero and a small A7 dual core (8-input word, scan
inserted), the two families of the golden fixtures.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.errors import RoutingError
from repro.mls import sota_select
from repro.mls.oracle import candidate_nets
from repro.route import GlobalRouter, RouteConfig

from tests.conftest import build_small_design
from tests.golden_util import routing_digest
from tests.route_oracle import OracleRouter


def _a7_small():
    from repro.design import Design, TechSetup
    from repro.dft.scan import insert_scan
    from repro.netlist.generators import A7Config, generate_a7_dual_core
    from repro.opt import insert_buffers
    from repro.partition import partition_memory_on_logic
    from repro.place import place_design
    from repro.rng import SeedBundle

    tech = TechSetup.build("16nm", "28nm", 6)
    seeds = SeedBundle(20250706)
    netlist = generate_a7_dual_core(
        A7Config(word_width=8, stage_depth=2, cache_banks=1, bus_width=4),
        tech.libraries, seeds)
    design = Design(netlist, tech, 1000.0)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers, seeds)
    insert_scan(design)
    insert_buffers(design)
    return design


def _maeri16():
    from repro.design import TechSetup
    return build_small_design(TechSetup.build("16nm", "28nm", 6),
                              routed=False)


DESIGNS = {"maeri16": _maeri16, "a7_small": _a7_small}

#: Router settings: the defaults, and a track budget so tight that most
#: edges fall back to another pair or overflow (detour), exercising the
#: preference order and the congestion test on every path.
CONFIGS = {"default": None, "congested": RouteConfig(track_util=0.08)}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def placed(request):
    """(name, placed unrouted design, SOTA set, random set)."""
    design = DESIGNS[request.param]()
    probe = copy.deepcopy(design)
    baseline = GlobalRouter(probe).route_all()
    sota = frozenset(sota_select(probe, baseline))
    names = sorted(net.name for net in candidate_nets(design))
    rnd = frozenset(random.Random(11).sample(names, len(names) // 3))
    assert sota and rnd
    return request.param, design, sota, rnd


def _route_both(design, mls, config=None):
    """Route deep copies with both routers; returns both states."""
    out = []
    for cls in (GlobalRouter, OracleRouter):
        d = copy.deepcopy(design)
        router = cls(d, config)
        result = router.route_all(mls_nets=mls)
        out.append((d, router, result))
    return out


def _assert_same(prod_design, oracle_design, label):
    got, want = routing_digest(prod_design), routing_digest(oracle_design)
    for key in want:
        assert got[key] == want[key], f"{label}: {key} diverged from oracle"
    assert prod_design.mls_nets == oracle_design.mls_nets, label
    # Every grid plane byte for byte (the digest hashes them).
    pg, og = prod_design.routing.grid, oracle_design.routing.grid
    assert pg.f2f_usage.tobytes() == og.f2f_usage.tobytes()
    for tier, planes in enumerate(og.usage):
        for pair, plane in enumerate(planes):
            assert pg.usage[tier][pair].tobytes() == plane.tobytes(), \
                f"{label}: grid plane t{tier}p{pair}"


def _rc_key(rc):
    return (rc.net_name, repr(rc.wire_cap_ff), repr(rc.wire_res_ohm),
            repr(rc.load_ff), repr(rc.wirelength_um),
            [(k, repr(v)) for k, v in rc.sink_delay_ps.items()])


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("which", ["empty", "sota", "random"])
def test_full_route_matches_oracle(placed, which, config):
    name, design, sota, rnd = placed
    mls = {"empty": frozenset(), "sota": sota, "random": rnd}[which]
    (pd, _, pres), (od, _, ores) = _route_both(design, mls,
                                               CONFIGS[config])
    _assert_same(pd, od, f"{name}/{which}/{config}")
    assert list(pres.trees) == list(ores.trees)
    for net_name, rc in ores.rc.items():
        assert _rc_key(pres.rc[net_name]) == _rc_key(rc), net_name
    assert pres.stats() == ores.stats()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_interleaved_eco_sequence_matches_oracle(placed, config):
    name, design, sota, _ = placed
    states = _route_both(design, sota, CONFIGS[config])
    nets = design.netlist.signal_nets()
    picks = [n.name for n in random.Random(5).sample(nets, min(120,
                                                               len(nets)))]
    logs = []
    for d, router, result in states:
        log = []
        for i, net_name in enumerate(picks):
            net = d.netlist.net(net_name)
            op = i % 5
            if op == 0:
                off, on, applied = router.probe_net(result, net)
                log.append((_rc_key(off), _rc_key(on), applied))
            elif op == 1:
                rc = router.reroute_net(result, net, mls=bool(i % 3))
                log.append(_rc_key(rc))
            elif op == 2:
                tree, rc = result.trees[net_name], result.rc[net_name]
                router.reroute_net(result, net, mls=True)
                router.restore_net(result, net, tree, rc)
            elif op == 3:
                router.unroute_net(result, net)
                log.append(net_name in result.trees)
                router.reroute_net(result, net, mls=False)
            else:
                router.unroute_net(result, net)
                router.unroute_net(result, net)    # second call: no-op
                router.restore_net(result, net, *_reroute_fresh(
                    router, result, net))
        logs.append(log)
    assert logs[0] == logs[1], f"{name}: probe/reroute results diverged"
    _assert_same(states[0][0], states[1][0], f"{name}/eco")
    assert list(states[0][2].trees) == list(states[1][2].trees)


def _reroute_fresh(router, result, net):
    """Route *net* into *result* and hand back its (tree, rc)."""
    rc = router.reroute_net(result, net, mls=True)
    return result.trees[net.name], rc


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_batched_eco_matches_sequential_oracle(placed, config):
    """One ``probe_nets`` batch, one ``route_nets`` batch of routed nets
    and an ``unroute_nets`` + ``route_nets`` pair equal the oracle's
    per-net calls."""
    name, design, sota, _ = placed
    (pd, prouter, pres), (od, orouter, ores) = _route_both(
        design, sota, CONFIGS[config])
    names = [n.name for n in design.netlist.signal_nets()]
    probed = random.Random(8).sample(names, 100)
    got = prouter.probe_nets(pres, [pd.netlist.net(n) for n in probed])
    want = [orouter.probe_net(ores, od.netlist.net(n)) for n in probed]
    assert [(_rc_key(off), _rc_key(on), applied)
            for off, on, applied in got] == \
        [(_rc_key(off), _rc_key(on), applied) for off, on, applied in want]
    picks = random.Random(9).sample(names, 60)
    flags = [i % 2 == 0 for i in range(len(picks))]
    rcs = prouter.route_nets(pres, [pd.netlist.net(n) for n in picks], flags)
    want = [orouter.reroute_net(ores, od.netlist.net(n), mls=f)
            for n, f in zip(picks, flags)]
    assert [_rc_key(rc) for rc in rcs] == [_rc_key(rc) for rc in want]
    _assert_same(pd, od, f"{name}/batched-eco")
    released = picks[::2]
    prouter.unroute_nets(pres, [pd.netlist.net(n) for n in released])
    prouter.route_nets(pres, [pd.netlist.net(n) for n in released],
                       [True] * len(released))
    for net_name in released:
        orouter.unroute_net(ores, od.netlist.net(net_name))
    for net_name in released:
        orouter.reroute_net(ores, od.netlist.net(net_name), mls=True)
    _assert_same(pd, od, f"{name}/unroute-then-route")
    assert list(pres.trees) == list(ores.trees)


def test_route_nets_rejects_a_repeated_net(placed):
    _, design, _, _ = placed
    d = copy.deepcopy(design)
    router = GlobalRouter(d)
    result = router.route_all()
    net = d.netlist.signal_nets()[0]
    with pytest.raises(RoutingError, match="twice"):
        router.route_nets(result, [net, net], [False, False])
