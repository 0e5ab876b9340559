from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import settings

POOL_MODULES = ("jesma.search", "jesma.corpus")


def pytest_addoption(parser):
    parser.addoption(
        "--full-factorizations",
        action="store_true",
        help="test_criterion_6_factorizations checks every n <= 10^6, not 10^5",
    )


@pytest.fixture
def no_pool(monkeypatch):
    """Any process pool search or corpus starts raises; the machine reports 4 CPUs."""

    def refuse(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    for module in POOL_MODULES:
        monkeypatch.setattr(f"{module}.ProcessPoolExecutor", refuse)


@pytest.fixture
def force_pool(monkeypatch):
    """Every search and corpus run pools: the crossover is one cell and the
    machine reports 3 CPUs.  Returns the worker counts of the pools started."""
    started = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("jesma.search.POOL_MIN_CELLS", 1)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    for module in POOL_MODULES:
        monkeypatch.setattr(f"{module}.ProcessPoolExecutor", Recorded)
    return started


# The fold property tests and the soundness oracle of test_sieve.py set no
# max_examples, so tier-1 runs hypothesis's default 100 examples each; CI
# runs them at ten times that with `pytest --hypothesis-profile=fold-ci
# -k "fold_matches_join or soundness_oracle"`.
settings.register_profile("fold-ci", max_examples=1_000)
