import math
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import jesma
from jesma.search import (
    POOL_MIN_CELLS,
    DegenerateBaseError,
    SelfCheckError,
    find_solutions,
    find_solutions_scaled,
    pool_workers,
)
from jesma.triples import Triple, lu_family


def brute_force(a, b, c, x_max, y_max):
    """Independent 3-loop oracle with an exact z bound."""
    top = a**x_max + b**y_max
    z_max = 1
    cz = c
    while cz <= top:
        z_max += 1
        cz *= c
    found = set()
    for x in range(1, x_max + 1):
        for y in range(1, y_max + 1):
            for z in range(1, z_max + 1):
                if a**x + b**y == c**z:
                    found.add((x, y, z))
    return found


def test_known_solution_sets():
    assert find_solutions((3, 4, 5), 30, 30).solution_set() == {(2, 2, 2)}
    assert find_solutions((3, 2, 5), 30, 30).solution_set() == {(1, 1, 1), (2, 4, 2)}
    assert find_solutions((7, 2, 3), 30, 30).solution_set() == {(1, 1, 2), (2, 5, 4)}
    assert find_solutions((89, 2, 91), 30, 30).solution_set() == {(1, 1, 1), (1, 13, 2)}


def test_scaled_solution_sets():
    assert find_solutions_scaled(lu_family(5), 2, 20, 20).solution_set() == {(2, 2, 2)}
    assert find_solutions_scaled(Triple(3, 4, 5), 7, 20, 20).solution_set() == {(2, 2, 2)}
    assert find_solutions_scaled(lu_family(2), 3, 20, 20).solution_set() == {(2, 2, 2)}


def test_terai_solutions():
    assert find_solutions((3, 5), 10, 10, form="terai").solution_set() == {(4, 2, 2)}
    assert find_solutions((2, 3), 1, 1, form="terai").solution_set() == {(1, 1, 1)}
    assert find_solutions((5, 6), 8, 8, form="terai").solution_set() == {(1, 1, 1)}


def test_eisenstein_solutions():
    assert find_solutions((3, 5, 7), 10, 10, form="eisenstein").solution_set() == {(1, 1, 2)}
    assert find_solutions((5, 3, 7), 10, 10, form="eisenstein").solution_set() == {(1, 1, 2)}
    assert find_solutions((7, 8, 13), 10, 10, form="eisenstein").solution_set() == {(1, 1, 2)}


def test_eisenstein_rejects_bad_instance():
    with pytest.raises(ValueError):
        find_solutions((3, 4, 7), 5, 5, form="eisenstein")


def test_degenerate_bases_rejected():
    with pytest.raises(DegenerateBaseError):
        find_solutions((1, 2, 3))
    with pytest.raises(DegenerateBaseError):
        find_solutions((1, 3), form="terai")
    with pytest.raises(DegenerateBaseError):
        find_solutions((1, 1, 1), form="eisenstein")  # 1 + 1 + 1 != 1 anyway, base check first


def test_matches_brute_force_oracle():
    rng = random.Random(17)
    done = 0
    while done < 50:
        a = rng.randint(2, 50)
        b = rng.randint(2, 50)
        c = rng.randint(2, 50)
        got = find_solutions((a, b, c), 8, 8).solution_set()
        assert got == brute_force(a, b, c, 8, 8), (a, b, c)
        done += 1


def test_monotone_in_bounds():
    small = find_solutions((7, 2, 3), 4, 4).solution_set()
    large = find_solutions((7, 2, 3), 30, 30).solution_set()
    assert small <= large


def test_always_finds_222_for_pythag():
    for t in (Triple(3, 4, 5), Triple(20, 99, 101), lu_family(7)):
        for k in (1, 2, 9):
            assert (2, 2, 2) in find_solutions_scaled(t, k, 3, 3).solution_set()


def test_report_self_checks_and_counts():
    r = find_solutions((3, 2, 5), 12, 9)
    assert r.candidates == 12 * 9
    assert r.solutions == tuple(sorted(r.solutions))
    for x, y, z in r.solutions:
        assert 3**x + 2**y == 5**z


# one instance of each form, each with at least one solution in a 25 x 25 grid
INSTANCES = [("general", (3, 2, 5)), ("terai", (3, 5)), ("eisenstein", (3, 5, 7))]


def test_parallel_matches_serial(request):
    serial = [find_solutions(bases, 25, 25, form=form).solutions for form, bases in INSTANCES]
    started = request.getfixturevalue("force_pool")
    parallel = [find_solutions(bases, 25, 25, form=form).solutions for form, bases in INSTANCES]
    assert started == [3, 3, 3]
    assert parallel == serial and all(serial)


def test_small_grids_start_no_pool(no_pool):
    side = math.isqrt(POOL_MIN_CELLS - 1)  # the largest square grid below the crossover
    for form, bases in INSTANCES:
        assert find_solutions(bases, side, side, form=form).solutions
    assert find_solutions((340, 1683, 1717)).solutions == ((2, 2, 2),)  # the default 30 x 30
    with pytest.raises(AssertionError, match="process pool"):
        find_solutions((3, 2, 5), side + 1, side + 1)


def test_search_in_pool_worker_runs_serial(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert pool_workers(POOL_MIN_CELLS - 1) == 1
    assert pool_workers(POOL_MIN_CELLS) == 4
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(pool_workers, POOL_MIN_CELLS).result() == 1


def test_self_check_rejects_wrong_solution(monkeypatch):
    # a scan that reports a wrong z must be caught by the exact re-check
    monkeypatch.setattr("jesma.search.is_perfect_power_of", lambda s, base: 3)
    with pytest.raises(SelfCheckError):
        find_solutions((3, 4, 5), 2, 2)
    with pytest.raises(SelfCheckError):
        find_solutions((3, 5, 7), 2, 2, form="eisenstein")


def test_self_check_survives_optimize_flag():
    code = (
        "import jesma.search as s\n"
        "s.is_perfect_power_of = lambda n, base: 3\n"
        "try:\n"
        "    s.find_solutions((3, 4, 5), 2, 2)\n"
        "except s.SelfCheckError:\n"
        "    print('caught')\n"
    )
    src = Path(jesma.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"


POOL_FOOTPRINT = """
import os, sys
import jesma.cli
from jesma import corpus, search
POOL = ("concurrent.futures.process", "multiprocessing")
print(*(m in sys.modules for m in POOL))
serial = search.find_solutions((340, 1683, 1717), 249, 249)  # below the crossover
print(*(m in sys.modules for m in POOL))
os.cpu_count = lambda: 2  # pool on any machine
pooled = search.find_solutions((340, 1683, 1717), 250, 250)
print(*(m in sys.modules for m in POOL))
# the pooled branch looked the class up on the module, which cached it there
print("ProcessPoolExecutor" in vars(search), "ProcessPoolExecutor" in vars(corpus))
print(pooled.solutions == serial.solutions == ((2, 2, 2),))
"""


def test_pool_modules_load_on_the_first_pooled_search():
    src = Path(jesma.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", POOL_FOOTPRINT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "False False",
        "False False",
        "True True",
        "True False",
        "True",
    ]


def test_pool_class_is_a_lazy_module_attribute():
    from jesma import corpus, search

    for module in (search, corpus):
        assert module.ProcessPoolExecutor is ProcessPoolExecutor
        with pytest.raises(AttributeError, match="no attribute 'Pool'"):
            module.Pool
