"""Flow-as-a-service: content-addressed artifacts + an async daemon.

This package makes preparation (and whole flow runs) durable and
shareable:

* :mod:`repro.service.keys`   — canonical content-hash keys, the single
  definition of "same run" used by every store;
* :mod:`repro.service.store`  — the on-disk artifact store (atomic
  writes, checksummed blobs, LRU size budget) and its in-process twin
  :class:`MemoryStore`, which the table builders prepare through;
* :mod:`repro.service.stages` — store-backed prepare/flow execution,
  provably bit-identical to the cold path;
* :mod:`repro.service.daemon` — the asyncio unix-socket job server
  (FIFO queue, request dedup, per-request obs traces);
* :mod:`repro.service.client` — the blocking client the CLI verbs use.

``daemon``/``client``/``stages`` import flow machinery and are not
imported here; importing this package pulls only the light key and
store layers.
"""

from repro.service.keys import (ContentKey, PrepareKeys, canonical,
                                factory_token, flow_key,
                                flow_summary_key, prepare_stage_keys,
                                tech_digest)
from repro.service.store import (ArtifactCorruptError, ArtifactStore,
                                 MemoryStore, read_artifact)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactStore",
    "ContentKey",
    "MemoryStore",
    "PrepareKeys",
    "canonical",
    "factory_token",
    "flow_key",
    "flow_summary_key",
    "prepare_stage_keys",
    "read_artifact",
    "tech_digest",
]
