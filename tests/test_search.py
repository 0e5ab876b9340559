import math
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings, strategies as st

import jesma
from jesma import search
from jesma.arith import is_perfect_power_of, radical
from jesma.search import (
    BOUND_MAX,
    FORMS,
    DegenerateBaseError,
    SelfCheckError,
    check_instance,
    find_solutions,
    find_solutions_scaled,
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


def reference_scan(bases, x_max, y_max):
    """The general form's per-cell scan: every cell builds a^x + b^y and checks it."""
    a, b, c = bases
    out = []
    ax = a
    for x in range(1, x_max + 1):
        by = b
        for y in range(1, y_max + 1):
            z = is_perfect_power_of(ax + by, c)
            if z is not None:
                out.append((x, y, z))
            by *= b
        ax *= a
    return out


def reference_scan_terai(bases, m_max, n_max):
    """The terai form's per-cell scan: every cell with c^n > b^m takes the
    exact root of c^n - b^m."""
    b, c = bases
    out = []
    bm = b
    for m in range(1, m_max + 1):
        cn = c
        for n in range(1, n_max + 1):
            d = cn - bm
            if d >= 1:
                x = math.isqrt(d)
                if x * x == d:
                    out.append((x, m, n))
            cn *= c
        bm *= b
    return out


def reference_scan_eisenstein(bases, x_max, y_max):
    """The eisenstein form's per-cell scan: every cell builds its sum and checks it exactly."""
    a, b, c = bases
    out = []
    ax = a
    for x in range(1, x_max + 1):
        by = b
        for y in range(1, y_max + 1):
            z = is_perfect_power_of(ax * ax + ax * by + by * by, c)
            if z is not None:
                out.append((x, y, z))
            by *= b
        ax *= a
    return out


# primitive Pythagorean triples, scaled by k in the general scan's draws
PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 99, 101))


def _scan_bases(rnd, x_max, y_max):
    """Bases from 2 to 300: random, c | a, c | b, degenerate (every prime of c
    divides a and b), c = 2, or powers of 2, whose solutions have
    a^x = b^y = c^(z-1).  Or small multiples of the word prime, so that every
    cell that passes the residue test passes the word test too.  Or a
    Pythagorean triple scaled by k, where a, b and c share k's primes (and,
    for k a multiple of w, all of c's), as in the paper's (20k, 99k, 101k).
    Or c = a^x0 + b^y0 for a cell (x0, y0) of the grid, a solution with z = 1."""
    kind = rnd.choice(("random", "c|a", "c|b", "degenerate", "c=2", "2^i", "P|abc", "scaled", "z=1"))
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
    elif kind == "scaled":
        u, v, w = rnd.choice(PYTHAGOREAN_TRIPLES)
        k = rnd.randint(1, 60) * rnd.choice((1, w))
        a, b, c = k * u, k * v, k * w
    elif kind == "z=1":
        a, b = rnd.randint(2, 30), rnd.randint(2, 30)
        c = a ** rnd.randint(1, x_max) + b ** rnd.randint(1, y_max)
    return a, b, c


# the sum each residue form checks, over A = a^x and B = b^y
SUMS = {"general": lambda A, B: A + B, "eisenstein": lambda A, B: A * A + A * B + B * B}


def word_survivors(form, bases, x_max, y_max):
    """The sums that c^2 divides (general) or c divides (eisenstein) and
    that equal c^z modulo the word prime, z the least with
    c^z > max(a^x, b^y)^p for the form's power p: the cells checked exactly.
    No cell of the general form's z = 1 corner, where a^x and b^y are below
    c, is among them: its sum is below 2c <= c^2."""
    (a, b, c), p = bases, FORMS[form].power
    m = c * c if form == "general" else c
    out = []
    for x in range(1, x_max + 1):
        for y in range(1, y_max + 1):
            z = 1
            while c**z <= max(a**x, b**y) ** p:
                z += 1
            s = SUMS[form](a**x, b**y)
            if s % m == 0 and s % search.WORD_PRIME == pow(c, z, search.WORD_PRIME):
                out.append(s)
    return out


def check_residue_scan(form, bases, x_max, y_max, reference):
    """The form's scan checks exactly its word survivors, each once, and
    finds what its per-cell scan finds."""
    checked = []

    def counted(s, base):
        checked.append(s)
        return is_perfect_power_of(s, base)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "is_perfect_power_of", counted)
        found = FORMS[form].scan(bases, x_max, y_max)
    where = (bases, x_max, y_max)
    assert sorted(checked) == sorted(word_survivors(form, bases, x_max, y_max)), where
    assert sorted(found) == sorted(reference(bases, x_max, y_max)), where
    return found


@seed(2020)
@settings(deadline=None)
@given(st.integers(0, 2**64))
def test_residue_scan_matches_per_cell_scan(draw_seed):
    """The general scan checks exactly the cells where c^2 divides a^x + b^y
    and the sum is c^z modulo the word prime, looks the z = 1 solutions up
    with no check, and finds what the per-cell scan finds."""
    rnd = random.Random(draw_seed)
    for _ in range(20):
        x_max, y_max = rnd.randint(1, 16), rnd.randint(1, 12)
        check_residue_scan("general", _scan_bases(rnd, x_max, y_max), x_max, y_max, reference_scan)


# primitive solutions of a^2 + a*b + b^2 = c^2, each with the solution (1, 1, 2)
EISENSTEIN_TRIPLES = ((3, 5, 7), (5, 3, 7), (7, 8, 13), (5, 16, 19), (11, 24, 31))


@seed(2023)
@settings(deadline=None)
@given(st.integers(0, 2**64))
def test_eisenstein_scan_matches_per_cell_scan(draw_seed):
    """The eisenstein scan checks exactly the cells where c divides the sum
    and the sum is c^z modulo the word prime, and finds what the per-cell
    scan finds.  The bases are the triples scaled by k, which keeps the
    precondition, and often by the word prime too, so that every cell that
    passes mod c passes the word test.  A k that the unscaled c, a prime,
    divides makes a and b share every prime of c, so that c divides the sum
    from x, y >= 2."""
    rnd = random.Random(draw_seed)
    for _ in range(10):
        k = rnd.randint(1, 60) * (search.WORD_PRIME if rnd.random() < 0.3 else 1)
        bases = tuple(k * v for v in rnd.choice(EISENSTEIN_TRIPLES))
        x_max, y_max = rnd.randint(1, 12), rnd.randint(1, 12)
        check_instance(bases, x_max, y_max, "eisenstein")
        check_residue_scan("eisenstein", bases, x_max, y_max, reference_scan_eisenstein)


def test_eisenstein_scan_takes_the_larger_ceiling():
    # The triples' only solutions, (1, 1, 2), have sides of one ceiling.  The
    # scan's z needs only c >= 4, so these bases, which break the precondition,
    # reach solutions whose z is one side's ceiling and not the other's:
    # 2^8 + 2^4 * 39 + 39^2 = 7^4, where 7^3 > 2^8.
    for bases, sol in [((2, 39, 7), (4, 1, 4)), ((39, 2, 7), (1, 4, 4)), ((2, 12, 28), (3, 2, 3)),
                       ((12, 2, 28), (2, 3, 3))]:
        assert sol in check_residue_scan("eisenstein", bases, 12, 12, reference_scan_eisenstein)


def test_power_index_records_each_ceiling():
    # each y's residue modulo c (eisenstein) or c^2 (general), its power
    # modulo the word prime, and the least z with c^z above b^y, or above its square
    P = search.WORD_PRIME
    for b, c, square in ((5, 7, False), (5, 7, True), (2, 2, False), (12, 3, True), (P + 3, 2 * P, True)):
        for m in (c, c * c):
            ys_of = search._index_powers(b, c, m, 30, square)
            assert sorted(y for entries in ys_of.values() for y, *_ in entries) == list(range(1, 31))
            for r, entries in ys_of.items():
                for y, by_mod, z, cz_mod in entries:
                    top = b ** (2 * y if square else y)
                    assert (b**y % m, by_mod, cz_mod) == (r, b**y % P, c**z % P)
                    assert c ** (z - 1) <= top < c**z


def _terai_bases(rnd):
    """b and c from 2 to 300: random, b or c a square, c | b, or both powers
    of one base, where x^2 + b^m = c^n can hold along whole families."""
    kind = rnd.choice(("random", "b square", "c square", "c|b", "t^i"))
    b, c = rnd.randint(2, 300), rnd.randint(2, 300)
    if kind == "b square":
        b = rnd.randint(2, 17) ** 2
    elif kind == "c square":
        c = rnd.randint(2, 17) ** 2
    elif kind == "c|b":
        c = rnd.randint(2, 150)
        b = c * rnd.randint(1, 300 // c)
    elif kind == "t^i":
        t = rnd.randint(2, 6)
        b, c = (t ** rnd.randint(1, int(math.log(300, t))) for _ in range(2))
    return b, c


@seed(2024)
@settings(deadline=None)
@given(st.integers(0, 2**64))
def test_terai_scan_matches_per_cell_scan(draw_seed):
    """The terai scan, which takes a root only where c^n - b^m is a square
    modulo 64, 63, 65 and 11, finds what the per-cell scan finds."""
    rnd = random.Random(draw_seed)
    for _ in range(20):
        bases = _terai_bases(rnd)
        m_max, n_max = rnd.randint(1, 16), rnd.randint(1, 16)
        found = search._scan_terai(bases, m_max, n_max)
        assert sorted(found) == sorted(reference_scan_terai(bases, m_max, n_max)), (bases, m_max, n_max)


def test_general_search_checks_exactly_only_solutions(monkeypatch):
    calls = []

    def counted(s, base):
        calls.append(s)
        return is_perfect_power_of(s, base)

    monkeypatch.setattr("jesma.search.is_perfect_power_of", counted)
    # (40, 198, 202) at 600 x 600: c^2 divides a^x + b^y in 150 cells, and
    # only (2, 2) is also c^z modulo the word prime; the per-cell scan
    # checks all 360,000
    assert find_solutions((40, 198, 202), 600, 600).solutions == ((2, 2, 2),)
    assert len(calls) == 1
    # every prime of c = 10201 = 101^2 divides a = 2020 and b = 9999, and c^2
    # divides the sum in 88,210 of the 90,000 cells at 300 x 300
    calls.clear()
    assert find_solutions((2020, 9999, 10201), 300, 300).solutions == ((2, 2, 2),)
    assert len(calls) == 1
    # 2^x + 2^y = 2^z holds at every (x, x, x + 1): one exact check each
    calls.clear()
    assert len(find_solutions((2, 2, 2), 300, 300).solutions) == len(calls) == 300


def test_general_search_looks_the_z1_corner_up(monkeypatch):
    # a^x + b^y = c holds only where both powers are below c; the scan finds
    # such a solution by one lookup per row, with no exact check
    calls = []

    def counted(s, base):
        calls.append(s)
        return is_perfect_power_of(s, base)

    monkeypatch.setattr("jesma.search.is_perfect_power_of", counted)
    # 630,000 cells of the grid have both powers below c = 2^1000 + 3^600
    assert find_solutions((2, 3, 2**1000 + 3**600), 1000, 1000).solutions == ((1000, 600, 1),)
    assert calls == []
    for bases in ((3, 2, 5), (7, 2, 9), (15, 2, 17), (89, 2, 91)):
        calls.clear()
        solutions = find_solutions(bases, 30, 30).solutions
        assert solutions[0] == (1, 1, 1)
        assert len(calls) == len(solutions) - 1, bases


def test_eisenstein_search_checks_exactly_only_solutions(monkeypatch):
    calls = []

    def counted(s, base):
        calls.append(s)
        return is_perfect_power_of(s, base)

    monkeypatch.setattr("jesma.search.is_perfect_power_of", counted)
    # a third of the 360,000 cells of (3, 5, 7) pass mod 7; only (1, 1) is
    # also c^z modulo the word prime
    for bases in ((3, 5, 7), (5, 16, 19), (7, 8, 13)):
        calls.clear()
        assert find_solutions(bases, 600, 600, form="eisenstein").solutions == ((1, 1, 2),)
        assert len(calls) == 1, bases


def test_terai_search_takes_few_roots(monkeypatch):
    roots = []

    def counted(d):
        roots.append(d)
        return math.isqrt(d)

    monkeypatch.setattr(search, "math", SimpleNamespace(isqrt=counted))
    # 684,720 cells of (2, 3) at 1000 x 1000 have 3^n > 2^m
    solutions = ((1, 1, 1), (1, 3, 2), (5, 1, 3), (7, 5, 4))
    assert find_solutions((2, 3), 1000, 1000, form="terai").solutions == solutions
    assert len(roots) == 11_550
    # 3^n - 7^m is never a square modulo all four moduli
    roots.clear()
    assert find_solutions((7, 3), 1000, 1000, form="terai").solutions == ()
    assert roots == []


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


ONE_PROCESS = """
import sys
import jesma.cli
from jesma import corpus, search
assert search.find_solutions((3, 5, 7), 600, 600, form="eisenstein").solutions == ((1, 1, 2),)
assert search.find_solutions((2, 3), 1000, 1000, form="terai").solutions
assert search.find_solutions((340, 1683, 1717), 1000, 1000).solutions == ((2, 2, 2),)
entries, _ = corpus.load_default_corpus()
assert all(r.passed for r in corpus.run_corpus(entries))
print([m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules])
"""


def test_searches_and_corpus_run_in_one_process():
    # the largest searches of each form and the shipped corpus load no process pool
    src = Path(jesma.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", ONE_PROCESS], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_pool_class_is_a_lazy_module_attribute():
    # pins the hook the benchmark tracer reads: perfbench/tracing.py looks
    # ProcessPoolExecutor up on both modules with no default
    from jesma import corpus, search

    for module in (search, corpus):
        assert module.ProcessPoolExecutor is ProcessPoolExecutor
        with pytest.raises(AttributeError, match="no attribute 'Pool'"):
            module.Pool
