"""Acceptance suite: every release-gating claim, checked at full strength.

Each test prints one PASS line with its measured scope so the suite can be
read as a checklist (run with -s to see the lines as they happen)."""

import copy
import random
import time

from jesma.arith import factorize, is_perfect_power_of, mult_order
from jesma.certificate import (
    Certificate,
    MalformedCertificateError,
    builtin_certificates,
    verify_certificate,
)
from jesma.corpus import load_default_corpus
from jesma.reduction import deng_cohen_filter, miyazaki_parity_check
from jesma.search import find_solutions, find_solutions_scaled
from jesma.sieve import ConstraintSet, congruence_solutions, find_killing_modulus, two_term_solutions
from jesma.symbolic import ExpExpr, Lin, Term
from jesma.triples import Triple, jesmanowicz_family


def _ok(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_deng_cohen_reproduction():
    start = time.perf_counter()
    for n in range(1, 6):
        t = jesmanowicz_family(n)
        for k in range(1, 21):
            found = find_solutions_scaled(t, k, 25, 25).solution_set()
            assert found == {(2, 2, 2)}, (n, k, found)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(
        "criterion 1: five classical triples x k in 1..20, bounds 25 -> "
        f"exactly (2,2,2) each [{elapsed:.1f}s]"
    )


def test_criterion_2_theorem_desk_scale():
    start = time.perf_counter()
    t = Triple(20, 99, 101)
    for k in range(1, 51):
        found = find_solutions_scaled(t, k, 20, 20).solution_set()
        assert found == {(2, 2, 2)}, (k, found)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(f"criterion 2: (20,99,101) x k in 1..50, bounds 20 -> exactly (2,2,2) [{elapsed:.1f}s]")


def test_criterion_3_multi_solution_corpus():
    assert find_solutions((3, 2, 5), 30, 30).solution_set() == {(1, 1, 1), (2, 4, 2)}
    assert find_solutions((7, 2, 3), 30, 30).solution_set() == {(1, 1, 2), (2, 5, 4)}
    for n in range(3, 7):
        b = 2**n
        assert find_solutions((b - 1, 2, b + 1), 30, 30).solution_set() == {(1, 1, 1), (2, n + 2, 2)}
    assert find_solutions((89, 2, 91), 30, 30).solution_set() == {(1, 1, 1), (1, 13, 2)}
    for n in range(2, 11):
        expected = {(2, 2, 2)} if n == 3 else set()
        assert find_solutions((n, n + 1, n + 2), 25, 25).solution_set() == expected, n
    _ok("criterion 3: multi-solution equations reproduce their exact catalogued sets")


def test_criterion_4_sieve_reproduces_congruence_facts():
    v = lambda name: ExpExpr(Lin.var(name))
    # (a) the z-even branch dies at a modulus of at most 17
    terms = [
        Term.of(1, (101, v("z"))),
        Term.of(-1),
        Term.of(-1, (99, v("y")), (2, v("a")), (5, v("b"))),
    ]
    witness = find_killing_modulus(terms, ConstraintSet.none().with_parity("z", 0), m_max=100)
    assert witness is not None and witness.modulus <= 17
    # (b) mod 11: the class of 2^z == 4^x is exactly z == 2x (mod 10)
    rcs = congruence_solutions([Term.of(1, (2, v("z"))), Term.of(-1, (4, v("x")))], 11)
    ix, iz = rcs.variables.index("x"), rcs.variables.index("z")
    expected = {t for t in ((x, 2 * x % 10) if ix < iz else (2 * x % 10, x) for x in range(5))}
    got = {(t[ix], t[iz]) for t in rcs.tuples}
    assert got == {(x, 2 * x % 10) for x in range(5)}
    # (c) mod 4: (-1)^y == 1 forces y even
    terms_c = [
        Term.of(1, (11, v("y"))),
        Term.of(-1, (101, v("z"))),
        Term.of(1, (20, v("x")), (3, ExpExpr(Lin.var("g")))),
    ]
    rcs_c = congruence_solutions(terms_c, 4)
    assert rcs_c.project("y") == {0} and rcs_c.period_of("y") == 2
    # (d) mod 33 with x fixed to 2: z == 8 (mod 10)
    fixed = two_term_solutions(2, 5, 33, ConstraintSet.none().with_fixed("x", 2))
    assert fixed.project("z") == {8} and fixed.period_of("z") == 10
    _ok(
        f"criterion 4: killing modulus {witness.modulus} <= 17; mod 11 class z=2x (mod 10); "
        "mod 4 forces y even; mod 33 with x=2 gives z=8 (mod 10)"
    )


def test_criterion_5_certificate_suite():
    start = time.perf_counter()
    certs = builtin_certificates()
    for cert in certs:
        assert verify_certificate(cert).valid, cert.title
    # mutation resistance is exercised in depth in test_certificate; here,
    # re-run a representative band per certificate and count them
    from test_certificate import _mutations_small, _mutations_subcase, _mutations_theorem

    theorem, subcase, mod17 = certs
    counts = []
    for cert, mutations in (
        (theorem, [(d, m) for d, m, _ in _mutations_theorem(theorem.to_json())]),
        (subcase, list(_mutations_subcase(subcase.to_json()))),
        (mod17, list(_mutations_small(mod17.to_json()))),
    ):
        base = cert.to_json()
        bad = 0
        for _desc, mutate in mutations:
            obj = copy.deepcopy(base)
            mutate(obj)
            try:
                verdict = verify_certificate(Certificate.from_json(obj))
            except MalformedCertificateError:
                bad += 1
                continue
            assert not verdict.valid, f"{cert.title}: mutation {_desc!r} survived"
            bad += 1
        counts.append(bad)
        assert bad >= 10, cert.title
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _ok(
        f"criterion 5: all shipped certificates valid; {counts} mutations each "
        f"rejected [{elapsed:.1f}s]"
    )


def _corpus_pythag_solutions():
    entries, problems = load_default_corpus()
    assert not problems
    out = []
    for e in entries:
        if not e.searches[0][0].startswith("k="):  # a pythag entry labels each search by its scale
            continue
        for _, bases in e.searches:
            for sol in find_solutions(bases, min(e.x_max, 15), min(e.y_max, 15)).solutions:
                out.append(sol)
    return out


def test_criterion_6_property_suites():
    # (a) + (b): classical filters over every scaled-Pythagorean corpus solution
    sols = _corpus_pythag_solutions()
    assert sols, "corpus yielded no solutions to filter"
    for sol in sols:
        if all(e % 2 == 0 for e in sol):
            assert miyazaki_parity_check(sol), sol
        ok, why = deng_cohen_filter(sol)
        assert ok, (sol, why)

    # (c) search output equals the naive 3-loop oracle on random instances
    rng = random.Random(99)
    for _ in range(50):
        a, b, c = (rng.randint(2, 50) for _ in range(3))
        got = find_solutions((a, b, c), 8, 8).solution_set()
        top = a**8 + b**8
        z_max, cz = 1, c
        while cz <= top:
            z_max += 1
            cz *= c
        oracle = {
            (x, y, z)
            for x in range(1, 9)
            for y in range(1, 9)
            for z in range(1, z_max + 1)
            if a**x + b**y == c**z
        }
        assert got == oracle, (a, b, c)

    # (d) arithmetic invariants over their stated ranges
    import math

    for m in range(2, 501):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                d = mult_order(a, m)
                assert pow(a, d, m) == 1
                assert all(pow(a, q, m) != 1 for q in range(1, d))

    for base in range(2, 1001):
        power = 1
        for z in range(1, 41):
            power *= base
            assert is_perfect_power_of(power, base) == z
    _ok(
        "criterion 6: parity/ordering filters hold on the corpus; search matches "
        "the 3-loop oracle on 50 random instances; arithmetic invariants hold "
        "(orders m<=500 exhaustive, powers to 1000^40)"
    )


def test_criterion_6_factorizations(request):
    # tier-1 checks every n <= 10^5; `pytest --full-factorizations`, a CI
    # step, checks every n <= 10^6
    n_top = 10**6 if request.config.getoption("--full-factorizations") else 10**5
    spf = list(range(n_top + 1))
    i = 2
    while i * i <= n_top:
        if spf[i] == i:
            for j in range(i * i, n_top + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    for n in range(1, n_top + 1):
        f = factorize(n)
        m, pairs = n, []
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        assert tuple(pairs) == f.pairs, n
        rad = f.radical()
        assert n % rad == 0
        assert all(e == 1 for _, e in factorize(rad).pairs)
    _ok(f"criterion 6: factorization and radical of every n <= {n_top:,} match a smallest-prime-factor sieve")
