"""Shared fixtures for the benchmarks.

``test_experiments.py`` checks every paper table in EXPERIMENTS.md;
``test_obs_overhead.py`` measures the tracing stack's own cost (run
pytest with ``-s`` to see its report).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="downscaled quick pass for CI: tiny inputs, relaxed speedup "
        "floors, no BENCH_*.json files rewritten",
    )


@pytest.fixture(scope="session")
def smoke(request):
    return request.config.getoption("--smoke")


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered reports so the session summary can re-print them."""
    chunks: list[str] = []
    yield chunks
    if chunks:
        print("\n\n" + "\n\n".join(chunks))
