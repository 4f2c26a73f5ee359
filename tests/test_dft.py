"""DFT tests: scan insertion, fault universe, fault simulation, the two
MLS DFT strategies, SCOAP."""

import numpy as np
import pytest

from repro.dft import (NET_BASED, WIRE_BASED, apply_mls_dft,
                       build_fault_universe, compute_scoap,
                       die_test_fault_sim, insert_scan, simulate_faults,
                       untestable_fault_fraction)
from repro.dft.scoap import estimate_coverage_pct
from repro.errors import DFTError
from repro.mls import oracle_select, route_with_mls
from repro.rng import stream
from repro.route import GlobalRouter
from repro.timing import run_sta

from tests.conftest import build_small_design, make_chain_netlist


@pytest.fixture()
def scanned_design(hetero_tech):
    design = build_small_design(hetero_tech, routed=False, buffered=False)
    chain = insert_scan(design)
    from repro.opt import insert_buffers
    insert_buffers(design)
    route_with_mls(design, set())
    return design, chain


class TestScan:
    def test_all_flops_scannable(self, scanned_design):
        design, chain = scanned_design
        flops = [i for i in design.netlist.sequential_instances()
                 if not i.is_macro]
        assert len(chain.elements) == len(flops)
        for inst in flops:
            assert inst.cell.is_scannable

    def test_chain_connectivity(self, scanned_design):
        design, chain = scanned_design
        nl = design.netlist
        # Walk from scan_in following SI pins.
        current = nl.port("scan_in").pin.net
        visited = []
        while True:
            si_sinks = [p for p in current.sinks
                        if p.owner is not None and p.name == "SI"]
            if not si_sinks:
                break
            inst = si_sinks[0].owner
            visited.append(inst.name)
            current = inst.output_pin.net
        assert visited == chain.elements
        # scan_out is reachable from the last Q net (possibly through
        # repeaters the buffering pass inserted).
        frontier = [current]
        found = False
        while frontier and not found:
            net = frontier.pop()
            for p in net.sinks:
                if p.port is not None and p.port.name == "scan_out":
                    found = True
                    break
                if p.owner is not None and p.owner.cell.name.startswith("BUF"):
                    out = p.owner.output_pin.net
                    if out is not None:
                        frontier.append(out)
        assert found

    def test_scan_enable_fans_to_all(self, scanned_design):
        design, chain = scanned_design
        se_net = design.netlist.net("scan_enable_net")
        se_owners = {p.owner.name for p in se_net.sinks
                     if p.owner is not None}
        assert set(chain.elements) <= se_owners

    def test_double_insertion_rejected(self, scanned_design):
        design, _ = scanned_design
        with pytest.raises(DFTError, match="already"):
            insert_scan(design)

    def test_netlist_still_valid(self, scanned_design):
        scanned_design[0].netlist.validate()


class TestFaultUniverse:
    def test_counts(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        universe = build_fault_universe(nl)
        assert universe.total > 0
        assert len(universe) <= universe.total     # collapsing shrinks
        assert universe.collapse_ratio <= 1.0

    def test_single_input_cells_collapsed(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        universe = build_fault_universe(nl)
        inv_input_faults = [f for f in universe
                            if "/A" in f.site and f.kind == "in"]
        assert not inv_input_faults

    def test_clock_pins_excluded(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=1)
        universe = build_fault_universe(nl)
        assert not any("/CK" in f.site for f in universe)


class TestFaultSim:
    def test_chain_fully_testable(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        result = simulate_faults(nl, universe, stream("fs", 1),
                                 patterns=128)
        # An inverter chain between scannable points detects everything.
        assert result.coverage_pct == pytest.approx(100.0)
        assert result.detected_total == result.total_faults

    def test_patterns_must_be_word_multiple(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech)
        universe = build_fault_universe(nl)
        with pytest.raises(DFTError):
            simulate_faults(nl, universe, stream("fs", 1), patterns=100)

    def test_cut_net_kills_coverage(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        rng = stream("fs", 1)
        # Cut the net right after the launch flop.
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        cut = {launch.output_pin.net.name}
        result = simulate_faults(nl, universe, rng, patterns=128,
                                 cut_nets=cut)
        assert result.coverage_pct < 60.0

    def test_deterministic(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        a = simulate_faults(nl, universe, stream("fs", 7), patterns=128)
        b = simulate_faults(nl, universe, stream("fs", 7), patterns=128)
        assert a.detected_collapsed == b.detected_collapsed


#: Two 64-pattern words' worth of patterns, as one int.
_MASK = (1 << 128) - 1


class TestLogic3:
    def test_exact_x_through_mux(self, hetero_tech):
        """A MUX with a known select must resolve despite an X input."""
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        mux = lib.get("MUX2")
        # A unknown, B known-1, S known-1 (select B).
        value, known = eval_gate(mux, [0, _MASK, _MASK], [0, _MASK, _MASK],
                                 _MASK)
        assert known == _MASK
        assert value == _MASK

    def test_and_with_controlling_zero(self, hetero_tech):
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        and2 = lib.get("AND2")
        # A = known 0 (controlling), B = X -> out known 0.
        value, known = eval_gate(and2, [0, 0], [_MASK, 0], _MASK)
        assert known == _MASK
        assert value == 0

    def test_xor_with_x_stays_x(self, hetero_tech):
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        xor2 = lib.get("XOR2")
        _, known = eval_gate(xor2, [_MASK, 0], [_MASK, 0], _MASK)
        assert known == 0

    def test_outputs_stay_within_mask(self, hetero_tech):
        """Complements in the cell logic must not leak bits above the
        pattern width, on the all-known and the dual-rail path."""
        from repro.dft.logic3 import eval_gate
        lib = hetero_tech.libraries["logic"]
        for name in ("INV", "NAND2", "NOR2", "XNOR2", "AOI21", "OAI21"):
            cell = lib.get(name)
            n = cell.num_inputs
            for known_in in (_MASK, _MASK >> 1):
                value, known = eval_gate(cell, [0] * n, [known_in] * n,
                                         _MASK)
                assert 0 <= value <= _MASK and 0 <= known <= _MASK
                assert value & ~known == 0

    @pytest.mark.parametrize("patterns", [64, 256])
    @pytest.mark.parametrize("level", [0, 1])
    def test_zero_input_cell_is_known_constant(self, level, patterns):
        """A cell without inputs drives its constant on every pattern,
        at any pattern width."""
        from repro.dft.logic3 import eval_gate
        from repro.tech.cells import CellType
        tie = CellType(f"TIE{level}", (), "Y", 1.0, 1000.0, 0.0, 0.0, 0.0,
                       0.1, (lambda: ~0) if level else (lambda: 0))
        mask = (1 << patterns) - 1
        assert eval_gate(tie, [], [], mask) == (mask if level else 0, mask)


@pytest.fixture()
def mls_design(hetero_tech):
    """A scanned, routed 16PE with oracle MLS applied."""
    design = build_small_design(hetero_tech, routed=False, buffered=False)
    insert_scan(design)
    from repro.opt import insert_buffers
    insert_buffers(design)
    router, routing = route_with_mls(design, set())
    selected = oracle_select(design, router, routing)
    router, routing = route_with_mls(design, selected)
    return design, router, routing


class TestMlsDft:
    def test_opens_destroy_coverage(self, mls_design):
        design, _, _ = mls_design
        loss = untestable_fault_fraction(design, stream("dt", 3),
                                         patterns=128)
        assert loss > 5.0           # Figure 3: designs become untestable

    def test_net_based_restores(self, mls_design):
        design, router, routing = mls_design
        broken = die_test_fault_sim(design, stream("dt", 3),
                                    patterns=128, with_dft=False)
        before_applied = len(routing.mls_applied_nets())
        crossings, cells = apply_mls_dft(design, router, routing,
                                         NET_BASED)
        assert crossings == before_applied
        assert cells == crossings           # one MUX per net
        fixed = die_test_fault_sim(design, stream("dt", 3),
                                   patterns=128, with_dft=True)
        assert fixed.coverage_pct > broken.coverage_pct + 10.0
        design.netlist.validate()

    def test_wire_based_beats_net_based(self, hetero_tech):
        def run(strategy):
            design = build_small_design(hetero_tech, routed=False,
                                        buffered=False)
            insert_scan(design)
            from repro.opt import insert_buffers
            insert_buffers(design)
            router, routing = route_with_mls(design, set())
            selected = oracle_select(design, router, routing)
            router, routing = route_with_mls(design, selected)
            apply_mls_dft(design, router, routing, strategy)
            sim = die_test_fault_sim(design, stream("dt", 3),
                                     patterns=128, with_dft=True)
            sta = run_sta(design)
            return sim, sta
        net_sim, net_sta = run(NET_BASED)
        wire_sim, wire_sta = run(WIRE_BASED)
        # Table III shape: wire-based has more total faults and detects
        # more; its WNS is no better than net-based's.
        assert wire_sim.total_faults > net_sim.total_faults
        assert wire_sim.detected_total > net_sim.detected_total
        assert wire_sta.wns_ps <= net_sta.wns_ps + 1.0

    def test_unknown_strategy(self, mls_design):
        design, router, routing = mls_design
        with pytest.raises(DFTError):
            apply_mls_dft(design, router, routing, "quantum")


class TestScoap:
    def test_chain_values(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=2)
        scoap = compute_scoap(nl)
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        q_net = launch.output_pin.net.name
        assert scoap.cc0[q_net] == 1.0
        assert scoap.cc1[q_net] == 1.0
        # Deeper nets are harder to control.
        deeper = launch.output_pin.net
        while deeper.sinks and deeper.sinks[0].owner is not None \
                and not deeper.sinks[0].owner.is_sequential:
            deeper = deeper.sinks[0].owner.output_pin.net
        assert scoap.cc1[deeper.name] > 1.0

    def test_cut_makes_uncontrollable(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        cut = {launch.output_pin.net.name}
        scoap = compute_scoap(nl, cut_nets=cut)
        # Everything downstream of the cut is unreachable.
        downstream = launch.output_pin.net.sinks[0].owner
        out = downstream.output_pin.net.name
        assert scoap.cc1[out] == float("inf")

    def test_estimate_tracks_exact_direction(self, hetero_tech):
        """SCOAP estimate must degrade when nets are cut, like the
        exact simulation does."""
        nl = make_chain_netlist(hetero_tech, stages=3)
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        whole = estimate_coverage_pct(nl, compute_scoap(nl))
        cut = estimate_coverage_pct(
            nl, compute_scoap(nl, {launch.output_pin.net.name}))
        assert cut < whole
