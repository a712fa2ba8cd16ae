"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one of the paper's tables or figures:
it runs the corresponding :mod:`repro.experiments` module under
pytest-benchmark (single round — the simulations are deterministic, so
repetition adds nothing but wall time) and prints the paper-shaped table
to the terminal.

Scale selection: ``REPRO_SCALE`` (smoke | default | full); benchmarks
default to ``smoke`` so ``pytest benchmarks/ --benchmark-only`` completes
in minutes.  Use ``REPRO_SCALE=default`` to regenerate the tables recorded
in EXPERIMENTS.md.
"""

import functools
import os

import pytest

from repro.experiments import current_scale


@pytest.fixture(scope="session")
def scale():
    name = os.environ.get("REPRO_SCALE", "smoke")
    return current_scale(name)


@pytest.fixture
def regenerate(benchmark, scale, capsys, monkeypatch):
    """Run ``module.main(scale)`` once under the benchmark and print it.

    ``module.run`` is memoised for the test, so the bench's own
    ``module.run(scale)`` reads the result ``main`` computed instead of
    running the experiment a second time."""

    def _run(module):
        if hasattr(module, "run"):
            monkeypatch.setattr(module, "run", functools.cache(module.run))
        text = benchmark.pedantic(module.main, args=(scale,), rounds=1, iterations=1)
        with capsys.disabled():
            print()
            print(text)
        return text

    return _run
