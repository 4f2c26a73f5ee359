"""Per-layer attribution for the traced pass.

Wraps the public entry points that ``repro.core.flow.run_flow`` calls
into each layer and records wall time per layer.  A wrapper's *self*
time is its own wall time minus the wall time of the wrappers nested
inside it, so the self times of all layers plus the unattributed
remainder add up to the traced flow's wall time.

Everything is patched from here, in the benchmark's process; the
program's sources are untouched.  The patches are undone on exit from
:meth:`LayerClock.installed`.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (module, attribute path, layer) for every wrapped entry point.
#: Names bound in ``repro.core.flow`` are patched there, at the flow's
#: call site; lazily imported functions are patched on their module;
#: methods are patched on their class.
ENTRY_POINTS = (
    ("repro.core.flow", "partition_memory_on_logic", "partition.assign"),
    ("repro.core.flow", "place_design", "place.place"),
    ("repro.core.flow", "insert_level_shifters", "power.level_shifters"),
    ("repro.dft.scan", "insert_scan", "dft.scan"),
    ("repro.core.flow", "insert_buffers", "opt.buffer"),
    ("repro.core.flow", "route_with_mls", "route"),
    ("repro.timing.incremental", "IncrementalSta.__init__", "timing.build"),
    ("repro.timing.incremental", "IncrementalSta.update_routing",
     "timing.update"),
    ("repro.core.flow", "run_sta", "timing.full_sta"),
    ("repro.core.flow", "sota_select", "mls.sota_select"),
    ("repro.core.flow", "build_dataset", "core.dataset"),
    ("repro.core.flow", "train_gnn_mls", "core.train"),
    ("repro.core.dgi", "DGIPretrainer.pretrain", "core.dgi"),
    ("repro.core.flow", "decide_mls_nets", "core.decide"),
    ("repro.core.trainer", "GnnMlsModel.net_probabilities", "core.infer"),
    ("repro.timing.paths", "extract_worst_paths", "core.paths"),
    ("repro.core.hypergraph", "build_path_graph", "core.paths"),
    ("repro.dft.mls_dft", "apply_mls_dft", "dft.apply"),
    ("repro.dft.mls_dft", "die_test_fault_sim", "dft.fault_sim"),
    ("repro.core.flow", "estimate_power", "power.estimate"),
    ("repro.core.flow", "size_pdn", "pdn.size"),
)

#: Entry points attributed only when the flow calls them directly.
#: ``IncrementalSta.report`` also ends every incremental update; only
#: the flow's own call, the first report, belongs to ``timing.build``.
TOP_LEVEL_ONLY = (
    ("repro.timing.incremental", "IncrementalSta.report", "timing.build"),
)


class LayerClock:
    """Self time and call count per layer, plus selected results."""

    def __init__(self, keep: tuple[str, ...] = ()) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Layers in *keep* -> return value of their last call, for work
        #: counts that no counter holds (such as the faults simulated).
        self.keep = keep
        self.last_result: dict[str, object] = {}
        #: Child wall time accumulated by each active wrapper.
        self._stack: list[float] = []

    def wrap(self, layer: str, fn, top_level_only: bool = False):
        """Return *fn* timed as one call into *layer*."""
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if top_level_only and stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if layer in self.keep:
                self.last_result[layer] = result
            return result

        return timed

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        undo = []
        points = [(m, a, layer, False) for m, a, layer in ENTRY_POINTS] \
            + [(m, a, layer, True) for m, a, layer in TOP_LEVEL_ONLY]
        try:
            for module_name, path, layer, top_only in points:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(layer, original, top_only))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
