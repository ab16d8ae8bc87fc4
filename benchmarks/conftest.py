"""Shared helpers for the benchmark harness.

Each figure bench runs its experiment once (timed by pytest-benchmark),
prints the resulting series as a markdown table -- the tabular equivalent of
the paper's plot -- and saves it under ``benchmarks/results/``, an untracked
output directory that each run rewrites.  Shape assertions (who wins, what grows)
encode the paper's qualitative claims; exact values are Monte-Carlo and
environment dependent.

Benchmarks run at a reduced-but-meaningful scale so the whole suite
finishes in minutes; the EXPERIMENTS.md generator
(``python -m repro.experiments.generate``) runs the same code at full paper
scale.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Print a rendered table and persist it under benchmarks/results/."""
    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.md").write_text(text)
        print()
        print(text)

    return _emit


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
