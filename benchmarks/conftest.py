"""Benchmark-suite fixtures.

:func:`repro.harness.tables.run_benchmark_flow` keeps each flow report
it ran for the rest of the process, so the figure benches that replot
table data reuse the table runs.  Every
bench renders its table/series to stdout *and* to
``benchmarks/results/<name>.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def emit(results_dir):
    """emit(name, text): print and persist one bench's rendering."""
    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")
    return _emit
