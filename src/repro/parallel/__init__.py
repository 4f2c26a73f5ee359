"""Process-pool execution engine for the flow's hot loops.

The paper calls exhaustive per-net what-if STA "computationally
prohibitive"; our reproduction makes one probe cheap, but the flow
still runs thousands of them.  This package fans the loop that pays
for it — the oracle selector's what-if probes — out over worker
processes against a *shared pickled snapshot* of the design state:

* :class:`~repro.parallel.config.ParallelConfig` — the one knob,
  ``workers``;
* :func:`~repro.parallel.pool.snapshot_map` — chunked, order-
  preserving map of a module-level worker function over items, with
  the snapshot pickled once and shipped to each worker at startup;
* :func:`~repro.parallel.pool.dumps_snapshot` /
  :func:`~repro.parallel.pool.loads_snapshot` — deep-object pickling
  that survives the netlist's recursive pin<->net<->instance graph.

Equivalence contract: worker functions must be deterministic and must
not leak state mutations (probe-style restore is fine) so that any
``workers`` setting — including the serial fallback — produces results
bit-identical to the plain loop.  ``tests/test_parallel.py`` locks
this for every wired call site.
"""

from repro.parallel.config import ParallelConfig, usable_cores
from repro.parallel.pool import (chunked, dumps_snapshot, loads_snapshot,
                                 snapshot_map)

__all__ = [
    "ParallelConfig",
    "chunked",
    "dumps_snapshot",
    "loads_snapshot",
    "snapshot_map",
    "usable_cores",
]
