"""Equivalence suite for the process-pool engine.

The contract under test: the parallelized hot loop — the what-if
oracle — returns results *identical* to its serial twin under the
same seeds, for any worker count.  Plus unit coverage
of the pool plumbing itself and of preparing through a MemoryStore.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import FlowConfig, run_flow
from repro.core.flow import prepare_design
from repro.mls import route_with_mls
from repro.mls.oracle import candidate_nets, oracle_labels, oracle_select
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.obs import metrics
from repro.parallel import (ParallelConfig, chunked, dumps_snapshot,
                            loads_snapshot, snapshot_map)
from repro.parallel.config import MIN_ITEMS, WAVES
from repro.route import GlobalRouter
from repro.rng import SeedBundle
from repro.service import MemoryStore
from repro.service.stages import prepare_design_stored
from repro.timing import run_sta

from tests.conftest import TEST_SEED, build_small_design

#: Fan out over 4 workers.
POOL4 = ParallelConfig(workers=4)


@pytest.fixture(autouse=True)
def _small_workloads_fan_out(pool_min_items):
    """Lower the serial-fallback threshold so the small test fabric's
    workloads actually hit the pool."""
    pool_min_items(8)


@pytest.fixture(scope="module")
def probe_setup(hetero_tech):
    """Routed 16PE design with its live router (read-only per test)."""
    design = build_small_design(hetero_tech, routed=False)
    router = GlobalRouter(design)
    routing = router.route_all()
    return design, router, routing


# -- pool plumbing -----------------------------------------------------------

class TestChunked:
    def test_exact_split(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_chunk(self):
        assert chunked(list(range(5)), 2) == [[0, 1], [2, 3], [4]]

    def test_single_chunk_when_size_exceeds(self):
        assert chunked([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_bad_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            chunked([1], 0)


class TestParallelConfig:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"workers": -2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_default_is_serial(self):
        cfg = ParallelConfig()
        assert not cfg.enabled
        assert not cfg.should_parallelize(10_000)

    def test_small_workloads_stay_serial(self, pool_min_items):
        pool_min_items(MIN_ITEMS)
        cfg = ParallelConfig(workers=4)
        assert not cfg.should_parallelize(MIN_ITEMS - 1)
        assert cfg.should_parallelize(MIN_ITEMS)

    def test_auto_chunk_size_gives_waves_per_worker(self):
        cfg = ParallelConfig(workers=4)
        n = 1600
        size = cfg.resolve_chunk_size(n)
        assert math.ceil(n / size) == 4 * WAVES   # workers * waves chunks

    def test_auto_chunk_size_never_zero(self):
        cfg = ParallelConfig(workers=8)
        assert cfg.resolve_chunk_size(1) == 1


def _scale_chunk(state, chunk):
    return [state * item for item in chunk]


def _explode_chunk(state, chunk):
    for item in chunk:
        if item == 13:
            raise ValueError("unlucky item")
    return list(chunk)


def _mutate_chunk(state, chunk):
    state.append(len(chunk))
    return list(chunk)


class TestSnapshotMap:
    def test_matches_serial_and_preserves_order(self):
        items = list(range(100))
        want = [3 * x for x in items]
        serial = snapshot_map(_scale_chunk, items, snapshot=3,
                              config=ParallelConfig())
        fanout = snapshot_map(_scale_chunk, items, snapshot=3,
                              config=POOL4)
        assert serial == want
        assert fanout == want

    def test_empty_items(self):
        assert snapshot_map(_scale_chunk, [], snapshot=3,
                            config=POOL4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="unlucky"):
            snapshot_map(_explode_chunk, range(20), snapshot=None,
                         config=ParallelConfig(workers=2))

    def test_serial_path_uses_caller_snapshot(self, pool_min_items):
        # Documented semantics: below MIN_ITEMS the fn runs in-process
        # against the original object (no pickling round-trip).
        pool_min_items(100)
        sink: list[int] = []
        snapshot_map(_mutate_chunk, range(5), snapshot=sink, config=POOL4)
        assert sink   # mutated in place -> serial path taken

    def test_broken_pool_degrades_to_serial(self, monkeypatch,
                                            pool_min_items):
        import repro.parallel.config as config_mod
        import repro.parallel.pool as pool_mod

        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool for you")

        monkeypatch.setattr(config_mod, "usable_cores", lambda: 4)
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Boom)
        pool_min_items(2)
        sink: list[int] = []
        with pytest.warns(RuntimeWarning, match="pool unavailable"):
            out = snapshot_map(_mutate_chunk, [1, 2, 3], snapshot=sink,
                               config=POOL4)
        assert out == [1, 2, 3]
        assert sink     # ran in-process against the caller's object

    def test_fork_slot_released_after_map(self, monkeypatch,
                                          pool_min_items):
        import repro.parallel.config as config_mod
        import repro.parallel.pool as pool_mod
        monkeypatch.setattr(config_mod, "usable_cores", lambda: 4)
        pool_min_items(2)
        assert snapshot_map(_scale_chunk, [1, 2], snapshot=5,
                            config=ParallelConfig(workers=2)) == [5, 10]
        assert pool_mod._FORK_SNAPSHOT is None

    def test_design_snapshot_roundtrip(self, probe_setup):
        # The deep pin<->net<->instance graph needs the raised
        # recursion limits; the round-trip must preserve the design.
        design, _router, routing = probe_setup
        copy_design, copy_routing = loads_snapshot(
            dumps_snapshot((design, routing)))
        assert copy_design is not design
        assert copy_design.netlist.stats() == design.netlist.stats()
        name = next(iter(routing.trees))
        assert copy_routing.tree(name).wirelength() == \
            routing.tree(name).wirelength()


# -- hot-loop equivalence ----------------------------------------------------

class TestOracleEquivalence:
    def test_labels_identical_1_vs_4_workers(self, probe_setup):
        design, router, routing = probe_setup
        serial = oracle_labels(design, router, routing)
        fanout = oracle_labels(design, router, routing, parallel=POOL4)
        assert serial == fanout

    def test_workers_1_config_matches_no_config(self, probe_setup):
        design, router, routing = probe_setup
        assert oracle_labels(design, router, routing,
                             parallel=ParallelConfig(workers=1)) == \
            oracle_labels(design, router, routing)

    def test_select_identical(self, probe_setup):
        design, router, routing = probe_setup
        assert oracle_select(design, router, routing) == \
            oracle_select(design, router, routing, parallel=POOL4)

    def test_spawn_start_method_identical(self, probe_setup, monkeypatch):
        # Spawn ships the pickled snapshot instead of inheriting it
        # copy-on-write; results must not depend on the start method.
        import repro.parallel.pool as pool_mod
        design, router, routing = probe_setup
        nets = candidate_nets(design)[:40]
        serial = oracle_labels(design, router, routing, nets=nets)
        monkeypatch.setattr(pool_mod, "START_METHOD", "spawn")
        spawned = oracle_labels(design, router, routing, nets=nets,
                                parallel=ParallelConfig(workers=2))
        assert serial == spawned


# -- prepare cache + golden determinism --------------------------------------

def _tiny_factory(libraries, seeds):
    return generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                          libraries, seeds)


def _fast_config(**kwargs) -> FlowConfig:
    defaults = dict(selector="oracle", target_freq_mhz=1500.0,
                    num_paths=80, num_labeled=40, pdn=False)
    defaults.update(kwargs)
    return FlowConfig(**defaults)


def _prepare(store: MemoryStore, tech, cfg: FlowConfig,
             seed: int = TEST_SEED):
    return prepare_design_stored(_tiny_factory, tech, SeedBundle(seed),
                                 cfg, store)


def _design_hits() -> int:
    return metrics.counter("store.hits.prepare.design")


class TestPrepareCache:
    """Preparing through a MemoryStore: every hit is an isolated copy."""

    def test_hit_returns_equal_but_distinct_designs(self, hetero_tech):
        store, cfg = MemoryStore(), _fast_config()
        _prepare(store, hetero_tech, cfg)
        hits = _design_hits()
        first = _prepare(store, hetero_tech, cfg)
        second = _prepare(store, hetero_tech, cfg)
        assert _design_hits() == hits + 2
        assert first is not second
        assert first.netlist is not second.netlist
        assert first.netlist.stats() == second.netlist.stats()
        assert dumps_snapshot(first) == dumps_snapshot(second)

    def test_matches_uncached_prepare(self, hetero_tech):
        # Routing + STA on the stored copy must land exactly where a
        # from-scratch prepare does.
        store, cfg = MemoryStore(), _fast_config()
        _prepare(store, hetero_tech, cfg)
        hits = _design_hits()
        cached = _prepare(store, hetero_tech, cfg)
        assert _design_hits() == hits + 1
        direct = prepare_design(_tiny_factory, hetero_tech,
                                SeedBundle(TEST_SEED), cfg)
        assert cached.netlist.stats() == direct.netlist.stats()
        route_with_mls(cached, set())
        route_with_mls(direct, set())
        assert run_sta(cached).summary() == run_sta(direct).summary()

    def test_seed_misses_cache(self, hetero_tech):
        store, cfg = MemoryStore(), _fast_config()
        a = _prepare(store, hetero_tech, cfg)
        hits = _design_hits()
        b = _prepare(store, hetero_tech, cfg, seed=TEST_SEED + 1)
        assert _design_hits() == hits
        assert dumps_snapshot(a) != dumps_snapshot(b)


class TestGoldenDeterminism:
    def test_flow_row_byte_identical(self, hetero_tech):
        """FlowReport.row() is reproducible bit-for-bit across two runs
        with the same SeedBundle — the first preparing cold, the second
        from the MemoryStore — through the worker fan-out
        (runtime_min excluded: it is wall-clock)."""
        store = MemoryStore()
        cfg = _fast_config(parallel=ParallelConfig(workers=2))
        rows = []
        for _ in range(2):
            design = _prepare(store, hetero_tech, cfg)
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg, design=design)
            row = {k: v for k, v in report.row().items()
                   if k != "runtime_min"}
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]

    def test_flow_row_identical_across_worker_counts(self, hetero_tech):
        """The same flow at workers=1 and workers=2 prints the same row:
        only the oracle loop fans out, and it is bit-identical to its
        serial loop."""
        rows = []
        for workers in (1, 2):
            cfg = _fast_config(parallel=ParallelConfig(workers=workers))
            report = run_flow(_tiny_factory, hetero_tech,
                              SeedBundle(TEST_SEED), cfg)
            row = {k: v for k, v in report.row().items()
                   if k != "runtime_min"}
            rows.append(json.dumps(row, sort_keys=True))
        assert rows[0] == rows[1]
