import math
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import jesma
from jesma import search
from jesma.arith import is_perfect_power_of, radical
from jesma.search import (
    BOUND_MAX,
    POOL_MIN_CELLS,
    DegenerateBaseError,
    SelfCheckError,
    check_instance,
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


def reference_scan(bases, xs, y_max):
    """The general form's per-cell scan: every cell builds a^x + b^y and checks it."""
    a, b, c = bases
    out = []
    ax = a**xs.start
    for x in xs:
        by = b
        for y in range(1, y_max + 1):
            z = is_perfect_power_of(ax + by, c)
            if z is not None:
                out.append((x, y, z))
            by *= b
        ax *= a
    return out


def _scan_bases(rnd):
    """Bases from 2 to 300: random, c | a, c | b, degenerate (every prime of c
    divides a and b), c = 2, or powers of 2, whose solutions have
    a^x = b^y = c^(z-1).  Or small multiples of the word prime, so that every
    cell that passes the residue test passes the word test too."""
    kind = rnd.choice(("random", "c|a", "c|b", "degenerate", "c=2", "2^i", "P|abc"))
    a, b, c = (rnd.randint(2, 300) for _ in range(3))
    if kind == "c|a":
        c = rnd.randint(2, 150)
        a = c * rnd.randint(1, 300 // c)
    elif kind == "c|b":
        c = rnd.randint(2, 150)
        b = c * rnd.randint(1, 300 // c)
    elif kind == "degenerate":
        c = rnd.randint(2, 300)
        rad = radical(c)
        a, b = (rad * rnd.randint(1, 300 // rad) for _ in range(2))
        a, b = max(a, 2), max(b, 2)
    elif kind == "c=2":
        c = 2
    elif kind == "2^i":
        a, b, c = 2 ** rnd.randint(1, 6), 2 ** rnd.randint(1, 6), 2 ** rnd.randint(1, 2)
    elif kind == "P|abc":
        # (3, 4, 5) scaled by P has the solution (2, 2, 2)
        ratios = rnd.choice(((3, 4, 5), tuple(rnd.randint(1, 5) for _ in range(3))))
        a, b, c = (search.WORD_PRIME * r for r in ratios)
    return a, b, c


def word_survivors(a, b, c, xs, y_max):
    """The sums a^x + b^y that c divides and that equal c^z modulo the word
    prime, z the least with c^z > max(a^x, b^y): the cells checked exactly."""
    out = []
    for x in xs:
        for y in range(1, y_max + 1):
            z = 1
            while c**z <= max(a**x, b**y):
                z += 1
            s = a**x + b**y
            if s % c == 0 and s % search.WORD_PRIME == pow(c, z, search.WORD_PRIME):
                out.append(s)
    return out


@seed(2020)
@settings(deadline=None)
@given(st.integers(0, 2**64))
def test_residue_scan_matches_per_cell_scan(draw_seed):
    """The general scan checks exactly the cells where c divides a^x + b^y
    and the sum is c^z modulo the word prime, each once, and finds what the
    per-cell scan finds, also on rows from above 1."""
    rnd = random.Random(draw_seed)
    checked = []

    def counted(s, base):
        checked.append(s)
        return is_perfect_power_of(s, base)

    for _ in range(20):
        (a, b, c) = bases = _scan_bases(rnd)
        lo = rnd.randint(1, 8)
        xs = range(lo, lo + rnd.randint(0, 10))
        y_max = rnd.randint(1, 12)
        checked.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "is_perfect_power_of", counted)
            found = search._scan_general(bases, xs, y_max)
        assert sorted(checked) == sorted(word_survivors(a, b, c, xs, y_max)), (bases, xs, y_max)
        assert found == reference_scan(bases, xs, y_max), (bases, xs, y_max)


def test_general_search_checks_exactly_only_solutions(monkeypatch):
    calls = []

    def counted(s, base):
        calls.append(s)
        return is_perfect_power_of(s, base)

    monkeypatch.setattr("jesma.search.is_perfect_power_of", counted)
    # (40, 198, 202) at 600 x 600: c divides a^x + b^y in 3,600 cells, and
    # only (2, 2) is also c^z modulo the word prime; the per-cell scan
    # checks all 360,000
    assert find_solutions((40, 198, 202), 600, 600).solutions == ((2, 2, 2),)
    assert len(calls) == 1
    # every prime of c = 10201 = 101^2 divides a = 2020 and b = 9999, and c
    # divides the sum in 89,401 of the 90,000 cells at 300 x 300
    calls.clear()
    assert find_solutions((2020, 9999, 10201), 300, 300).solutions == ((2, 2, 2),)
    assert len(calls) == 1
    # 2^x + 2^y = 2^z holds at every (x, x, x + 1): one exact check each
    calls.clear()
    assert len(find_solutions((2, 2, 2), 300, 300).solutions) == len(calls) == 300


def test_search_refuses_a_power_over_the_bit_limit():
    # a = 10^3000 + 7 has 9,966 bits: its 80 x 80 grid took seconds before the limit
    with pytest.raises(ValueError, match=r"^the grid forms a 797280-bit power, above the limit of 16384 bits$"):
        find_solutions((10**3000 + 7, 2, 3), 80, 80)
    # each grid exponent raises its own base, twice over for eisenstein
    for form, bases, bounds, bits in [
        ("general", (2**20, 3, 5), (1000, 1), 21_000),
        ("general", (3, 2**20, 5), (1, 1000), 21_000),
        ("terai", (2**20, 3), (1000, 1), 21_000),  # m against b
        ("terai", (3, 2**20), (1, 1000), 21_000),  # n against c
        ("eisenstein", (391, 129, 469), (1000, 1000), 18_000),
    ]:
        with pytest.raises(ValueError, match=f"a {bits}-bit power"):
            check_instance(bases, *bounds, form)
    check_instance((391, 129, 469), 900, 900, "eisenstein")  # 16,200 bits
    # the limit sits above the largest benchmark grid's powers, k = 64, also at BOUND_MAX
    check_instance((20 * 64, 99 * 64, 101 * 64), BOUND_MAX, BOUND_MAX, "general")


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
    assert started == [3, 3]  # terai and eisenstein pool; the general form starts no pool
    assert parallel == serial and all(serial)


def test_small_grids_start_no_pool(no_pool):
    side = math.isqrt(POOL_MIN_CELLS - 1)  # the largest square grid below the crossover
    for form, bases in INSTANCES:
        assert find_solutions(bases, side, side, form=form).solutions
    assert find_solutions((340, 1683, 1717)).solutions == ((2, 2, 2),)  # the default 30 x 30
    # the general form runs in this process at every size
    assert find_solutions((340, 1683, 1717), BOUND_MAX, BOUND_MAX).solutions == ((2, 2, 2),)
    with pytest.raises(AssertionError, match="process pool"):
        find_solutions((3, 5, 7), side + 1, side + 1, form="eisenstein")


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
os.cpu_count = lambda: 2  # pool on any machine
general = search.find_solutions((340, 1683, 1717), 1000, 1000)  # the general form never pools
serial = search.find_solutions((3, 5), 249, 249, form="terai")  # below the crossover
print(*(m in sys.modules for m in POOL))
pooled = search.find_solutions((3, 5), 250, 250, form="terai")
print(*(m in sys.modules for m in POOL))
# the pooled branch looked the class up on the module, which cached it there
print("ProcessPoolExecutor" in vars(search), "ProcessPoolExecutor" in vars(corpus))
print(general.solutions == ((2, 2, 2),), pooled.solutions == serial.solutions == ((4, 2, 2),))
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
        "True True",
    ]


def test_pool_class_is_a_lazy_module_attribute():
    from jesma import corpus, search

    for module in (search, corpus):
        assert module.ProcessPoolExecutor is ProcessPoolExecutor
        with pytest.raises(AttributeError, match="no attribute 'Pool'"):
            module.Pool
