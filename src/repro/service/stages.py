"""Store-backed flow execution: pure stages + content-addressed reuse.

The cold path is exactly :func:`repro.core.flow.prepare_design` /
:func:`repro.core.flow.run_flow` — same stage functions, same spans.
This module adds artifact lookups between stages:

* ``prepare.place``     — (placement, floorplan), whose flat pickle
  carries the netlist and tier assignment, so one payload keeps
  identity consistent;
* ``prepare.design``    — the fully buffered design;
* ``flow.report``       — the complete pickled :class:`FlowReport`;
* ``flow.summary``      — a small JSON-able row + digest dict, what
  the daemon answers warm requests from without unpickling megabytes.

Because stage keys are prefix-shaped (:mod:`repro.service.keys`), a
request that differs only in frequency or scan config still reuses the
placement artifact; a request that differs in nothing replays the
stored report, provably bit-identical to the cold run (pickle
round-trips are pinned by the golden-equivalence suite, and
:func:`report_digest` rides along in the summary for end-to-end
verification).

Every *store* parameter takes an :class:`ArtifactStore` or a
:class:`MemoryStore`: both have the same ``get``/``put`` contract.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.core.flow import (FlowConfig, FlowReport, NetlistFactory,
                             _note_prepare_runtime, run_flow,
                             stage_finish, stage_generate,
                             stage_partition, stage_place)
from repro.design import Design, TechSetup
from repro.obs import metrics, trace
from repro.rng import SeedBundle
from repro.service.keys import (PrepareKeys, canonical, flow_key,
                                flow_summary_key, prepare_stage_keys)
from repro.service.store import ArtifactStore, MemoryStore


def report_digest(report: FlowReport) -> str:
    """Stable digest of the observable flow outcome.

    Covers the table row, both STA summaries, the exact endpoint
    slacks and the requested/applied MLS sets — everything a client
    could act on.  Cold and warm runs of one key must agree on this
    (the daemon returns it with every flow response), so wall-clock
    columns (``runtime_min``) are excluded: two cold runs of one key
    are bit-identical in results, never in elapsed time.
    """
    row = {k: v for k, v in report.row().items()
           if k != "runtime_min"}
    h = hashlib.sha256()
    h.update(json.dumps(canonical(row), sort_keys=True,
                        default=str).encode())
    for sta in (report.baseline_sta, report.final_sta):
        h.update(f"|{sta.wns_ps!r}|{sta.tns_ns!r}|"
                 f"{sta.num_violating}".encode())
        for name, slack in sta.endpoint_slack.items():
            h.update(f"{name}={float(slack)!r};".encode())
    h.update(("|req:" + ",".join(sorted(report.requested_mls))).encode())
    h.update(("|app:" + ",".join(sorted(report.applied_mls))).encode())
    return h.hexdigest()


def report_summary(report: FlowReport, digest: str | None = None) -> dict:
    """The ``flow.summary`` artifact payload (JSON-able, tiny)."""
    return {
        "row": report.row(),
        "report_digest": digest or report_digest(report),
        "select_runtime_s": report.select_runtime_s,
        "runtime_s": report.runtime_s,
        "stage_runtime_s": dict(report.stage_runtime_s),
        "requested_mls": sorted(report.requested_mls),
        "applied_mls": sorted(report.applied_mls),
    }


def prepare_design_stored(factory: NetlistFactory, tech: TechSetup,
                          seeds: SeedBundle, config: FlowConfig,
                          store: ArtifactStore | MemoryStore) -> Design:
    """Store-backed :func:`prepare_design`: resume from the deepest
    artifact hit, persist every stage boundary crossed."""
    keys = prepare_stage_keys(factory, tech, seeds, config)
    t0 = time.perf_counter()
    with trace.span("flow.prepare", stored=True):
        design = store.get(keys.prepared)
        if design is None:
            design = _build_prepared(factory, tech, seeds, config,
                                     keys, store)
            store.put(keys.prepared, design)
    _note_prepare_runtime(design, time.perf_counter() - t0)
    return design


def _build_prepared(factory: NetlistFactory, tech: TechSetup,
                    seeds: SeedBundle, config: FlowConfig,
                    keys: PrepareKeys,
                    store: ArtifactStore | MemoryStore) -> Design:
    placed = store.get(keys.place)
    if placed is not None:
        placement, floorplan = placed
        netlist, tiers = placement.netlist, placement.tiers
    else:
        netlist = stage_generate(factory, tech, seeds)
        tiers = stage_partition(netlist)
        placement, floorplan = stage_place(netlist, tiers, seeds)
        store.put(keys.place, (placement, floorplan))
    design = Design(netlist, tech, config.target_freq_mhz)
    design.tiers = tiers
    design.placement = placement
    design.floorplan = floorplan
    return stage_finish(design, config)


def run_flow_stored(factory: NetlistFactory, tech: TechSetup,
                    seeds: SeedBundle, config: FlowConfig,
                    store: ArtifactStore | MemoryStore,
                    need_report: bool = True
                    ) -> tuple[FlowReport | None, dict, bool]:
    """Run (or replay) one flow through the store.

    Returns ``(report, summary, cached)``.  With ``need_report=False``
    a warm hit answers from the summary artifact alone — *report* is
    ``None`` and nothing megabyte-sized is unpickled; that is the
    daemon's fast path.  A cold run executes the full flow (with
    store-backed prepare, so even a cold *flow* may be a warm
    *prepare*) and persists both artifacts.
    """
    fkey = flow_key(factory, tech, seeds, config)
    skey = flow_summary_key(factory, tech, seeds, config)
    if not need_report:
        summary = store.get(skey)
        if summary is not None:
            metrics.inc("service.flow_summary_hits")
            return None, summary, True
    report = store.get(fkey)
    if report is not None:
        metrics.inc("service.flow_report_hits")
        summary = store.get(skey)
        if summary is None:     # e.g. the small artifact was evicted
            summary = report_summary(report)
            store.put(skey, summary)
        return report, summary, True
    metrics.inc("service.flow_computes")
    with trace.span("service.flow_compute", key=fkey.short):
        design = prepare_design_stored(factory, tech, seeds, config,
                                       store)
        report = run_flow(factory, tech, seeds, config, design=design)
    summary = report_summary(report)
    store.put(fkey, report)
    store.put(skey, summary)
    return report, summary, False


def flow_artifact_paths(factory: NetlistFactory, tech: TechSetup,
                        seeds: SeedBundle, config: FlowConfig,
                        store: ArtifactStore) -> dict[str, str]:
    """Filesystem locations of this flow's report + summary blobs
    (readable with :func:`repro.service.store.read_artifact`)."""
    return {
        "report": str(store.object_path(
            flow_key(factory, tech, seeds, config))),
        "summary": str(store.object_path(
            flow_summary_key(factory, tech, seeds, config))),
    }
