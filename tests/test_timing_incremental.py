"""Array timing graph, kernel bit-identity and exact incremental STA.

The contract under test: the array graph builder equals the oracle's
list-of-lists graph flattened in serial order, and the vectorized
kernel and the frontier incremental engine are not approximations —
every float they produce (arrivals, requireds, endpoint slacks,
worst-predecessor tie-breaks) is **exactly** equal to the reference
serial loop (``tests/sta_oracle.py``), on real routed designs, through
arbitrary MLS add/remove churn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.design import Design
from repro.dft import WIRE_BASED, apply_mls_dft, insert_scan
from repro.errors import TimingError
from repro.mls import apply_mls_incremental, route_with_mls
from repro.mls.oracle import candidate_nets, oracle_slack_labels
from repro.mls.sota import sota_select
from repro.netlist.builder import NetlistBuilder
from repro.netlist.generators.a7 import A7Config, generate_a7_dual_core
from repro.opt import insert_buffers
from repro.parallel import ParallelConfig
from repro.partition import partition_memory_on_logic
from repro.place import place_design
from repro.rng import SeedBundle, stream
from repro.route import GlobalRouter
from repro.route.router import RoutingResult
from repro.timing import IncrementalSta, build_timing_graph, run_sta
from repro.timing.sta import TimingReport

from tests.conftest import TEST_SEED, build_small_design, make_chain_netlist
from tests.sta_oracle import (build_reference_graph, diverging_fields,
                              flatten, run_sta_serial)


def build_small_a7(tech, seed: int = TEST_SEED,
                   with_scan: bool = False) -> Design:
    """A deliberately tiny A7 pushed through place/(scan/)buffer/route."""
    seeds = SeedBundle(seed)
    netlist = generate_a7_dual_core(
        A7Config(word_width=8, stage_depth=2, cache_banks=1, bus_width=4),
        tech.libraries, seeds)
    design = Design(netlist, tech, 1500.0)
    design.tiers = partition_memory_on_logic(netlist)
    design.placement, design.floorplan = place_design(
        netlist, design.tiers, seeds)
    if with_scan:
        insert_scan(design)
    insert_buffers(design)
    route_with_mls(design, set())
    return design


def assert_reports_identical(got: TimingReport, want: TimingReport) -> None:
    """Bit-exact equality, including dict iteration order (TNS is an
    order-dependent float sum over endpoint_slack.values())."""
    assert got.arrival == want.arrival
    assert got.required == want.required
    assert got.worst_pred == want.worst_pred
    assert got.endpoint_slack == want.endpoint_slack
    assert list(got.endpoint_slack) == list(want.endpoint_slack)
    assert got.wns_ps == want.wns_ps
    assert got.tns_ns == want.tns_ns


class TestCsrKernel:
    def test_bit_identical_on_routed_design(self, routed_small_design):
        d = routed_small_design
        assert_reports_identical(run_sta(d), run_sta_serial(d))

    def test_bit_identical_on_chain(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        d = Design(nl, hetero_tech, 20000.0)
        d.tiers = partition_memory_on_logic(nl)
        d.placement, d.floorplan = place_design(
            nl, d.tiers, SeedBundle(TEST_SEED))
        route_with_mls(d, set())
        assert_reports_identical(run_sta(d), run_sta_serial(d))



def assert_graph_matches_oracle(design: Design) -> None:
    """The array graph equals the oracle's flattening, field by field."""
    graph = build_timing_graph(design)
    ref = build_reference_graph(design)
    assert diverging_fields(graph, ref) == []
    assert graph.pin_index == ref.pin_index
    assert graph.num_net_arcs \
        == sum(len(ref.fanout[u]) for u, p in enumerate(ref.pins) if p.drives)
    # The offsets index the same serial edges the oracle lists per pin.
    for u in range(len(ref.pins)):
        lo, hi = graph.out_start[u], graph.out_end[u]
        assert graph.edge_dst[lo:hi].tolist() == [v for v, _ in ref.fanout[u]]
        ins = graph.in_edges[graph.in_start[u]:graph.in_start[u + 1]]
        assert sorted(graph.edge_src[ins].tolist()) \
            == sorted(v for v, _ in ref.fanin[u])
        assert ins.tolist() == sorted(ins.tolist())


def unrouted(design: Design) -> Design:
    """*design* with no parasitics: every wire delay is zero, so the
    reconvergent paths of identical cells tie exactly."""
    design.routing = RoutingResult(grid=None, config=None)
    return design


def delay_ties(report: TimingReport) -> int:
    """Pins whose worst arrival is reached by two or more in-arcs."""
    graph = report.graph
    arrival = np.array(report.arrival)
    cand = arrival[graph.edge_src] + graph.edge_delay
    hit = (arrival[graph.edge_src] != -np.inf) \
        & (cand == arrival[graph.edge_dst])
    return int((np.bincount(graph.edge_dst[hit],
                            minlength=graph.num_pins) >= 2).sum())


class TestGraphOracle:
    def test_maeri16(self, routed_small_design):
        assert_graph_matches_oracle(routed_small_design)

    def test_small_a7_after_mls_dft(self, hetero_tech):
        d = build_small_a7(hetero_tech, with_scan=True)
        router, routing = route_with_mls(d, sota_select(d))
        apply_mls_dft(d, router, routing, WIRE_BASED)
        assert_graph_matches_oracle(d)
        assert_reports_identical(run_sta(d), run_sta_serial(d))

    def test_chain(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        d = Design(nl, hetero_tech, 20000.0)
        d.tiers = partition_memory_on_logic(nl)
        d.placement, d.floorplan = place_design(
            nl, d.tiers, SeedBundle(TEST_SEED))
        route_with_mls(d, set())
        assert_graph_matches_oracle(d)

    def test_exact_ties_pick_the_oracle_pred(self, hetero_tech):
        d = unrouted(build_small_design(hetero_tech, routed=False))
        assert_graph_matches_oracle(d)
        got, want = run_sta(d), run_sta_serial(d)
        assert delay_ties(got) > 100
        assert_reports_identical(got, want)

    def test_combinational_loop_raises(self, hetero_tech):
        builder = NetlistBuilder("loop", hetero_tech.libraries)
        loop = builder.wire("loop")
        builder.gate("INV", builder.gate("INV", loop), out=loop)
        d = unrouted(Design(builder.netlist, hetero_tech, 1000.0))
        with pytest.raises(TimingError, match="cycle"):
            build_timing_graph(d)
        with pytest.raises(TimingError, match="cycle"):
            build_reference_graph(d)


class TestIncrementalSta:
    def _random_toggle_rounds(self, design: Design, rounds: int,
                              tag: str) -> None:
        """Property: through random MLS add/remove churn, the patched
        engine stays exactly equal to a from-scratch run_sta."""
        router = GlobalRouter(design)
        router.route_all()
        inc = IncrementalSta(design)
        assert_reports_identical(inc.report(), run_sta(design))

        pool = [n.name for n in candidate_nets(design)]
        rng = stream(f"inc-sta-{tag}", TEST_SEED)
        routing = design.require_routing()
        for _ in range(rounds):
            applied = set(design.mls_nets)
            off = [n for n in pool if n not in applied]
            take_on = int(rng.integers(1, 6))
            add = set(rng.choice(off, size=min(take_on, len(off)),
                                 replace=False).tolist()) if off else set()
            remove = set()
            if applied:
                take_off = int(rng.integers(0, 3))
                if take_off:
                    remove = set(rng.choice(sorted(applied),
                                            size=min(take_off, len(applied)),
                                            replace=False).tolist())
            apply_mls_incremental(design, router, routing,
                                  add=add, remove=remove, sta=inc)
            assert_reports_identical(inc.report(), run_sta(design))

    def test_random_toggles_match_full_sta_maeri(self, fresh_small_design):
        self._random_toggle_rounds(fresh_small_design, rounds=4,
                                   tag="maeri")

    def test_random_toggles_match_full_sta_a7(self, hetero_tech):
        self._random_toggle_rounds(build_small_a7(hetero_tech), rounds=3,
                                   tag="a7")

    def test_update_routing_follows_full_reroute(self, fresh_small_design):
        d = fresh_small_design
        inc = IncrementalSta(d)
        nets = {n.name for n in candidate_nets(d)[::9][:8]}
        route_with_mls(d, nets)
        rep = inc.update_routing()
        assert_reports_identical(rep, run_sta(d))
        # And back off again.
        route_with_mls(d, set())
        assert_reports_identical(inc.update_routing(), run_sta(d))

    def test_serial_kernel_agrees_on_patched_shared_graph(
            self, fresh_small_design):
        # The patched engine must agree with the reference loop over an
        # oracle graph rebuilt from the rerouted design, and its graph
        # must hold the oracle's delays.
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        inc = IncrementalSta(d)
        net = candidate_nets(d)[3]
        router.reroute_net(routing, net, mls=True)
        rep = inc.update([net.name])
        ref = build_reference_graph(d)
        assert_reports_identical(rep, run_sta_serial(d, graph=ref))
        assert np.array_equal(inc.graph.edge_delay,
                              flatten(ref)["edge_delay"])

    def test_clock_period_change_rebinds(self, fresh_small_design):
        d = fresh_small_design
        inc = IncrementalSta(d)
        d.clock_period_ps = d.clock_period_ps / 2.0
        assert_reports_identical(inc.update([]), run_sta(d))

    def test_structural_change_raises(self, hetero_tech):
        d = build_small_design(hetero_tech, routed=False, buffered=False)
        route_with_mls(d, set())
        inc = IncrementalSta(d)
        insert_buffers(d)            # splits nets: structural edit
        route_with_mls(d, set())
        with pytest.raises(TimingError, match="structurally"):
            inc.update_routing()

    @pytest.mark.parametrize("full", [False, True],
                             ids=["update", "update_routing"])
    def test_removed_arc_raises(self, fresh_small_design, full):
        # Splitting a sink off a net removes one of its arcs and adds
        # no pin: every remaining arc still exists, so only a check of
        # the whole arc set notices.
        d = fresh_small_design
        inc = IncrementalSta(d)
        net = next(n for n in d.netlist.signal_nets()
                   if n.driver is not None and len(n.sinks) >= 2
                   and n.sinks[-1].name != "SE")
        d.netlist.split_net_at_sinks(net, [net.sinks[-1]])
        with pytest.raises(TimingError, match="structurally"):
            if full:
                inc.update_routing()
            else:
                inc.update([net.name])

    def test_removed_driver_raises(self, fresh_small_design):
        # An undriven net names no driver whose arcs could be checked;
        # the full re-sync notices the wire arcs nobody accounts for.
        d = fresh_small_design
        inc = IncrementalSta(d)
        net = next(n for n in d.netlist.signal_nets()
                   if n.driver is not None and n.sinks)
        net.detach(net.driver)
        with pytest.raises(TimingError, match="structurally"):
            inc.update_routing()


class TestExactSlackOracle:
    def test_probes_restore_baseline_exactly(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        inc = IncrementalSta(d)
        base = run_sta(d)
        nets = candidate_nets(d)[:6]
        wl_before = {n.name: routing.tree(n.name).wirelength()
                     for n in nets}
        labels = oracle_slack_labels(d, router, routing, nets=nets,
                                     sta=inc)
        assert set(labels) <= {n.name for n in nets}
        # Grid, routing and timing state all rolled back bit-exactly.
        for n in nets:
            assert routing.tree(n.name).wirelength() == wl_before[n.name]
        assert_reports_identical(inc.report(), base)
        assert_reports_identical(run_sta(d), base)

    def test_gains_are_global_slack_movements(self, fresh_small_design):
        d = fresh_small_design
        router = GlobalRouter(d)
        routing = router.route_all()
        labels = oracle_slack_labels(d, router, routing,
                                     nets=candidate_nets(d)[:4])
        for lab in labels.values():
            if lab.label == 1:
                assert lab.applied
                assert max(lab.gain_wns_ps, lab.gain_tns_ps) >= 0.25


class TestReportCaching:
    def test_summary_metrics_cached_on_first_access(self):
        rep = TimingReport(clock_period_ps=1000.0, graph=None,
                           arrival=[], required=[],
                           endpoint_slack={"a": -5.0, "b": 3.0},
                           worst_pred=[])
        assert rep.wns_ps == -5.0
        assert rep.tns_ns == pytest.approx(-0.005)
        assert rep.num_violating == 1
        # Documented immutability: cached values survive (and expose)
        # in-place mutation of endpoint_slack.
        rep.endpoint_slack["c"] = -100.0
        assert rep.wns_ps == -5.0
        assert rep.num_violating == 1


class TestSingleCoreDegrade:
    def test_degrades_to_serial_and_logs_once(self, monkeypatch, capsys):
        # The notice goes through the structured repro logger
        # (WARNING -> stderr), once per process; every degrade decision
        # still counts in the metrics registry.
        from repro.obs import metrics
        import repro.parallel.config as pcfg
        monkeypatch.setattr(pcfg, "usable_cores", lambda: 1)
        monkeypatch.setattr(pcfg, "_DEGRADE_LOGGED", False)
        before = metrics.counter("pool.single_core_degrades")
        cfg = ParallelConfig(workers=4)
        assert cfg.enabled
        assert not cfg.should_parallelize(1000)
        assert not cfg.should_parallelize(1000)
        captured = capsys.readouterr()
        assert captured.err.count("single-core") == 1
        assert captured.out == ""
        assert metrics.counter("pool.single_core_degrades") == before + 2

    def test_multicore_unaffected(self, monkeypatch):
        import repro.parallel.config as pcfg
        monkeypatch.setattr(pcfg, "usable_cores", lambda: 8)
        cfg = ParallelConfig(workers=4)
        assert cfg.should_parallelize(1000)


class TestPrepareCacheBound:
    def test_lru_eviction(self, monkeypatch, hetero_tech):
        import repro.service.store as store_mod
        from repro.core.flow import FlowConfig
        from repro.service.keys import prepare_stage_keys
        monkeypatch.setattr(store_mod, "MEMORY_STORE_MAX_ENTRIES", 2)
        store = store_mod.MemoryStore()
        config = FlowConfig(selector="none")

        def key_of(seed):
            # The store keys by the shared content-hash derivation.
            key = prepare_stage_keys(generate_a7_dual_core, hetero_tech,
                                     SeedBundle(seed), config).prepared
            assert key.stable
            return key

        def prep(seed):
            got = store.get(key_of(seed))
            if got is None:
                got = ("stub", seed)
                assert store.put(key_of(seed), got)
            return got

        assert prep(1) == ("stub", 1)
        assert prep(2) == ("stub", 2)
        assert prep(3) == ("stub", 3)
        assert len(store._blobs) == 2
        # Seed 1 was least recently used -> evicted; 2 and 3 remain.
        assert list(store._blobs) == [key_of(2).hexdigest,
                                      key_of(3).hexdigest]
        # Re-touching seed 2 makes 3 the eviction candidate.
        assert prep(2) == ("stub", 2)
        prep(4)
        assert list(store._blobs) == [key_of(2).hexdigest,
                                      key_of(4).hexdigest]
        assert store.get(key_of(3)) is None
