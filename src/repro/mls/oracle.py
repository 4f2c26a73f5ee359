"""Exact what-if oracle for MLS decisions and training labels.

For every candidate 2-D net, probes both routings and labels the net
by its delay delta.  This is the "iterative STA" policy the paper
declares computationally prohibitive at commercial scale — at our
simulator scale it is tractable, which lets us (a) generate the
supervised fine-tuning labels of Algorithm 1, and (b) report an
upper-bound policy the GNN can be compared against in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design import Design
from repro.netlist.net import Net
from repro.parallel import ParallelConfig, snapshot_map
from repro.route.router import GlobalRouter, RoutingResult
from repro.timing.incremental import IncrementalSta, nets_whatif_delta

#: A net must improve its worst sink by at least this much (ps) to be
#: selected — hysteresis against churn on near-zero deltas.
DEFAULT_GAIN_EPS_PS = 0.25


@dataclass(frozen=True)
class NetLabel:
    """Oracle verdict for one net.

    ``delta_ps`` is the MLS-on minus MLS-off delay at the worst sink
    (negative = MLS helps).  ``label`` is the binary training target
    delta(n) of the paper.
    """

    net_name: str
    delta_ps: float
    applied: bool
    label: int

    @property
    def helps(self) -> bool:
        return self.label == 1


def candidate_nets(design: Design) -> list[Net]:
    """2-D signal nets — the MLS decision space."""
    tiers = design.require_tiers()
    return [net for net in design.netlist.signal_nets()
            if len(tiers.net_tiers(net)) == 1]


def _whatif_chunk(state, names: list[str]) -> list[tuple[str, float, bool]]:
    """Worker: probe one chunk of nets against the snapshot state.

    ``probe_net`` restores the grid after each probe, so probes are
    independent and the fan-out is bit-equivalent to the serial loop.
    """
    design, router, result = state
    deltas = nets_whatif_delta(design, router, result,
                               [design.netlist.net(name) for name in names])
    return [(name, delta.worst_delta_ps(), delta.applied)
            for name, delta in zip(names, deltas)]


def oracle_labels(design: Design, router: GlobalRouter,
                  result: RoutingResult,
                  nets: list[Net] | None = None,
                  gain_eps_ps: float = DEFAULT_GAIN_EPS_PS,
                  parallel: ParallelConfig | None = None
                  ) -> dict[str, NetLabel]:
    """Probe *nets* (default: all 2-D nets) and label each one.

    With a multi-worker *parallel* config the per-net probes fan out
    over a process pool against one pickled (design, router, result)
    snapshot; labels are identical to the serial run.
    """
    if nets is None:
        nets = candidate_nets(design)
    labels: dict[str, NetLabel] = {}
    if parallel is not None and parallel.should_parallelize(len(nets)):
        rows = snapshot_map(_whatif_chunk, [net.name for net in nets],
                            snapshot=(design, router, result),
                            config=parallel)
        for name, worst, applied in rows:
            good = applied and worst <= -gain_eps_ps
            labels[name] = NetLabel(net_name=name, delta_ps=worst,
                                    applied=applied,
                                    label=1 if good else 0)
        return labels
    for net, delta in zip(nets, nets_whatif_delta(design, router, result,
                                                  nets)):
        worst = delta.worst_delta_ps()
        good = delta.applied and worst <= -gain_eps_ps
        labels[net.name] = NetLabel(net_name=net.name, delta_ps=worst,
                                    applied=delta.applied,
                                    label=1 if good else 0)
    return labels


@dataclass(frozen=True)
class SlackLabel:
    """Path-slack oracle verdict for one net.

    Unlike :class:`NetLabel`'s local delay delta, these deltas are
    *global* signoff movements: MLS-on minus baseline WNS/TNS over the
    whole design (positive = MLS helps).  A net whose own delay
    shrinks can still label 0 here if no negative-slack path crosses
    it.
    """

    net_name: str
    gain_wns_ps: float
    gain_tns_ps: float
    applied: bool
    label: int

    @property
    def helps(self) -> bool:
        return self.label == 1


def oracle_slack_labels(design: Design, router: GlobalRouter,
                        result: RoutingResult,
                        nets: list[Net] | None = None,
                        gain_eps_ps: float = DEFAULT_GAIN_EPS_PS,
                        sta: IncrementalSta | None = None
                        ) -> dict[str, SlackLabel]:
    """Label each net by the *exact* WNS/TNS it buys at signoff.

    The expensive variant of :func:`oracle_labels`: instead of the
    worst-sink delay delta, each probe commits the MLS routing,
    patches the incremental STA with just that net, reads the design
    WNS/TNS, then restores the committed tree bit-exactly (grid usage
    and timing state both return to baseline).  The incremental engine
    is what makes this tractable — each probe re-propagates only the
    fan-out cone of the toggled net rather than re-running full STA.

    Serial by construction: probes share one mutable routing + STA
    state.  For fan-out across workers use the delay-delta oracle.
    """
    if nets is None:
        nets = candidate_nets(design)
    if sta is None:
        sta = IncrementalSta(design)
    base = sta.report()
    base_wns, base_tns = base.wns_ps, base.tns_ns
    labels: dict[str, SlackLabel] = {}
    for net in nets:
        tree = result.trees.get(net.name)
        rc = result.rc.get(net.name)
        if tree is None:
            continue
        router.reroute_net(result, net, mls=True)
        applied = result.tree(net.name).num_shared_edges() > 0
        rep = sta.update([net.name])
        gain_wns = rep.wns_ps - base_wns
        gain_tns = (rep.tns_ns - base_tns) * 1e3
        router.restore_net(result, net, tree, rc)
        sta.update([net.name])
        good = applied and (gain_wns >= gain_eps_ps
                            or gain_tns >= gain_eps_ps)
        labels[net.name] = SlackLabel(net_name=net.name,
                                      gain_wns_ps=gain_wns,
                                      gain_tns_ps=gain_tns,
                                      applied=applied,
                                      label=1 if good else 0)
    return labels


def oracle_select(design: Design, router: GlobalRouter,
                  result: RoutingResult,
                  nets: list[Net] | None = None,
                  gain_eps_ps: float = DEFAULT_GAIN_EPS_PS,
                  parallel: ParallelConfig | None = None,
                  exact_slack: bool = False,
                  sta: IncrementalSta | None = None) -> set[str]:
    """The exact policy: MLS exactly where the what-if says it helps.

    ``exact_slack=True`` upgrades the per-net criterion from the local
    delay delta to the design-level WNS/TNS movement measured by
    :func:`oracle_slack_labels` (always serial; *parallel* ignored).
    """
    if exact_slack:
        slabels = oracle_slack_labels(design, router, result, nets=nets,
                                      gain_eps_ps=gain_eps_ps, sta=sta)
        return {name for name, lab in slabels.items() if lab.helps}
    labels = oracle_labels(design, router, result, nets=nets,
                           gain_eps_ps=gain_eps_ps, parallel=parallel)
    return {name for name, lab in labels.items() if lab.helps}
