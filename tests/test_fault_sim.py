"""Event-driven fault simulation against the cone-walking oracle.

Every case compares the per-fault detection vector of
:func:`repro.dft.fault_sim.detect_faults` with
:func:`tests.fault_sim_oracle.detect_faults_reference` under the same
seed — not just the detected count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dft import (NET_BASED, WIRE_BASED, apply_mls_dft,
                       build_fault_universe, detect_faults,
                       die_test_conditions, simulate_faults)
from repro.dft.faults import Fault, SA0, SA1
from repro.mls import route_with_mls, sota_select
from repro.netlist import Netlist
from repro.obs import metrics
from repro.rng import stream
from repro.tech import NODE_28NM, build_library

from tests.conftest import make_chain_netlist
from tests.fault_sim_oracle import detect_faults_reference
from tests.golden_util import build_golden_design

LIB = build_library(NODE_28NM)
_GATES = ["INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2",
          "AOI21", "OAI21", "MUX2", "AND3", "OR3", "MAJ3", "XOR3"]


def assert_same_detections(netlist, faults, seed, patterns=128, **kw):
    """Both simulators, same seed: identical per-fault flags."""
    new = detect_faults(netlist, faults, stream("fsim-eq", seed),
                        patterns=patterns, **kw)
    ref = detect_faults_reference(netlist, faults, stream("fsim-eq", seed),
                                  patterns=patterns, **kw)
    diverged = [f for f, a, b in zip(faults, new, ref) if a != b]
    assert not diverged, \
        f"{len(diverged)} faults diverge, e.g. {diverged[:3]}"
    return new


class TestChain:
    def test_chain_matches_oracle(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        faults = list(build_fault_universe(nl))
        hits = assert_same_detections(nl, faults, 1)
        assert all(hits)

    def test_chain_with_cut_matches_oracle(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        faults = list(build_fault_universe(nl))
        launch = next(i for i in nl.sequential_instances()
                      if "launch" in i.name)
        cut = {launch.output_pin.net.name}
        hits = assert_same_detections(nl, faults, 1, cut_nets=cut)
        assert 0 < sum(hits) < len(hits)
        # Observing the driver side of the cut recovers its out-faults.
        observed = assert_same_detections(nl, faults, 1, cut_nets=cut,
                                          extra_observe=cut)
        assert sum(observed) > sum(hits)

    def test_out_fault_on_net_without_good_value(self, hetero_tech):
        """The clock net has no good value (sinks read X); its
        out-faults still inject the stuck value at every data sink."""
        nl = make_chain_netlist(hetero_tech, stages=2)
        lib = hetero_tech.libraries["logic"]
        probe = nl.add_instance("probe", lib.get("AND2"))
        nl.net("clk").attach(probe.pins["A"])
        nl.port("din").pin.net.attach(probe.pins["B"])
        out = nl.add_net("probe_y")
        out.attach(probe.output_pin)
        out.attach(nl.add_port("probe_out", "out").pin)
        faults = [Fault("port:clk_pad", stuck, "out")
                  for stuck in (SA0, SA1)]
        assert_same_detections(nl, faults, 3)

    def test_max_faults_simulates_a_stride_sample(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=4)
        universe = build_fault_universe(nl)
        faults = list(universe)[::3]
        cut = {nl.port("din").pin.net.name}
        result = simulate_faults(nl, universe, stream("fsim-eq", 2),
                                 patterns=128, cut_nets=cut,
                                 max_faults=len(faults))
        hits = assert_same_detections(nl, faults, 2, cut_nets=cut)
        assert result.simulated_faults == len(faults)
        assert result.detected_collapsed == sum(hits)

    def test_metrics_count_faults_and_evaluations(self, hetero_tech):
        nl = make_chain_netlist(hetero_tech, stages=3)
        universe = build_fault_universe(nl)
        metrics.reset()
        simulate_faults(nl, universe, stream("fsim-m", 1), patterns=64)
        assert metrics.counter("dft.fsim.faults") == len(universe)
        assert metrics.counter("dft.fsim.gate_evals") > 0
        stats = metrics.snapshot()["stats"]
        for name in ("dft.fsim.compile_s", "dft.fsim.view_s",
                     "dft.fsim.detect_s"):
            assert stats[name]["count"] == 1


@pytest.mark.parametrize("family", ["maeri", "a7"])
@pytest.mark.parametrize("strategy", [NET_BASED, WIRE_BASED])
def test_golden_design_after_mls_dft_matches_oracle(family, strategy):
    """Small golden designs, MLS applied and repaired: cut nets, the
    pinned test_mode port and the extra observe nets all in play."""
    design, _report, _sim = build_golden_design(family)
    _router, routing = route_with_mls(design, set())
    selected = sota_select(design, routing, min_hpwl_um=40.0)
    router, routing = route_with_mls(design, selected)
    assert routing.mls_applied_nets()
    apply_mls_dft(design, router, routing, strategy)
    faults = list(build_fault_universe(design.netlist))
    for with_dft in (True, False):
        conditions = die_test_conditions(design, with_dft)
        assert conditions["cut_nets"]
        hits = assert_same_detections(design.netlist, faults, 5,
                                      **conditions)
        assert 0 < sum(hits) < len(hits)


# -- random netlists ----------------------------------------------------------

@st.composite
def scan_views(draw):
    """A small random combinational netlist between ports and flops,
    with floating nets, unconnected pins, a clock net read as data,
    cut nets, pinned ports and extra observe nets."""
    nl = Netlist("rand")
    clk = nl.add_net("clk", is_clock=True)
    clk.attach(nl.add_port("clk", "in").pin)
    nets = [clk]
    for i in range(draw(st.integers(1, 4))):
        net = nl.add_net(f"in{i}")
        net.attach(nl.add_port(f"in{i}", "in").pin)
        nets.append(net)
    for i in range(draw(st.integers(0, 2))):
        nets.append(nl.add_net(f"float{i}"))        # never driven
    flops = []
    for i in range(draw(st.integers(0, 2))):
        ff = nl.add_instance(f"ff{i}", LIB.get("DFF"))
        clk.attach(ff.clock_pin)
        q = nl.add_net(f"q{i}")
        q.attach(ff.output_pin)
        nets.append(q)
        flops.append(ff)
    for g in range(draw(st.integers(1, 14))):
        cell = LIB.get(draw(st.sampled_from(_GATES)))
        inst = nl.add_instance(f"g{g}", cell)
        for pin in inst.input_pins():
            choice = draw(st.integers(-1, len(nets) - 1))
            if choice >= 0:                    # -1: leave unconnected
                nets[choice].attach(pin)
        out = nl.add_net(f"n{g}")
        out.attach(inst.output_pin)
        nets.append(out)
    for ff in flops:
        draw(st.sampled_from(nets)).attach(ff.pins["D"])
    for i, net in enumerate(draw(st.lists(st.sampled_from(nets),
                                          min_size=1, max_size=3))):
        net.attach(nl.add_port(f"out{i}", "out").pin)
    names = [n.name for n in nets]
    in_ports = [p for p in nl.ports if p.startswith("in")]
    return nl, {
        "cut_nets": set(draw(st.lists(st.sampled_from(names),
                                      max_size=3))),
        "extra_observe": set(draw(st.lists(st.sampled_from(names),
                                           max_size=3))),
        "pinned_ports": draw(st.dictionaries(st.sampled_from(in_ports),
                                             st.integers(0, 1),
                                             max_size=2)),
        "patterns": draw(st.sampled_from([64, 128, 192])),
    }


class TestRandomNetlists:
    @given(view=scan_views(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, view, seed):
        netlist, kw = view
        faults = list(build_fault_universe(netlist))
        # The clock port is outside the universe; its net has no good
        # value, so its out-faults cover injection on such a net.
        faults += [Fault("port:clk", stuck, "out") for stuck in (SA0, SA1)]
        assert_same_detections(netlist, faults, seed, **kw)


@pytest.mark.slow
def test_a7_mls_dft_flow_matches_oracle(monkeypatch):
    """The full A7 flow with SOTA MLS and wire-based DFT: the die-test
    fault simulation's per-fault flags equal the oracle's."""
    import copy

    import repro.dft.mls_dft as mls_dft
    from repro.core.flow import FlowConfig, run_flow
    from repro.dft.fault_sim import simulate_faults as production
    from repro.harness.designs import DEFAULT_EXPERIMENT_SEED, get_benchmark

    captured = {}

    def capture(netlist, universe, rng, **kw):
        captured.update(netlist=netlist, universe=universe,
                        rng=copy.deepcopy(rng), kw=dict(kw))
        return production(netlist, universe, rng, **kw)

    monkeypatch.setattr(mls_dft, "simulate_faults", capture)
    spec = get_benchmark("a7_hetero")
    config = FlowConfig(selector="sota",
                        target_freq_mhz=spec.target_freq_mhz,
                        num_paths=spec.num_paths,
                        num_labeled=spec.num_labeled, with_scan=True,
                        dft_strategy=WIRE_BASED, activity=spec.activity)
    report = run_flow(spec.factory, spec.tech(),
                      spec.seeds(DEFAULT_EXPERIMENT_SEED), config)
    kw = captured["kw"]
    faults = list(captured["universe"])
    stride = -(-len(faults) // kw.pop("max_faults"))
    faults = faults[::stride]
    new = detect_faults(captured["netlist"], faults,
                        copy.deepcopy(captured["rng"]), **kw)
    ref = detect_faults_reference(captured["netlist"], faults,
                                  captured["rng"], **kw)
    assert new == ref
    assert report.row()["coverage_pct"] == pytest.approx(
        100.0 * sum(new) / len(new))
