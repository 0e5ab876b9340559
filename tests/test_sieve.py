import itertools
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from jesma import sieve
from jesma.certificate import dumps_certificate, killing_certificate, loads_certificate, verify_certificate
from jesma.sieve import (
    ConstraintSet,
    KillingWitness,
    NotAUnitError,
    ResidueClassSet,
    SieveError,
    TorusTooLargeError,
    UnsupportedModulusError,
    congruence_fold,
    congruence_solutions,
    find_killing_modulus,
    two_term_solutions,
)
from jesma.symbolic import ExpExpr, Lin, Power, Term


def v(name):
    return ExpExpr(Lin.var(name))


def atom(sym, **coeffs):
    return ExpExpr(Lin.of(0, **coeffs), sym)


def test_order_two_base():
    rcs = congruence_solutions([Term.of(1, (101, v("z"))), Term.of(-1)], 17)
    assert rcs.variables == ("z",) and rcs.periods == (2,)
    assert rcs.tuples == {(0,)}


def test_mod_11_class_is_z_equals_2x():
    rcs = congruence_solutions([Term.of(1, (2, v("z"))), Term.of(-1, (4, v("x")))], 11)
    assert set(rcs.variables) == {"x", "z"}
    assert len(rcs) == 5
    ix, iz = rcs.variables.index("x"), rcs.variables.index("z")
    assert all((t[iz] - 2 * t[ix]) % 10 == 0 for t in rcs.tuples)
    assert rcs.project("z") == {0, 2, 4, 6, 8}


def test_mod_33_full_and_constrained():
    full = two_term_solutions(2, 5, 33)
    assert full.variables == ("x", "z") and full.periods == (10, 10)
    assert full.tuples == {(0, 0), (2, 8), (4, 6), (6, 4), (8, 2)}
    fixed = two_term_solutions(2, 5, 33, ConstraintSet.none().with_fixed("x", 2))
    assert fixed.tuples == {(2, 8)}  # z == 8 (mod 10) once x = 2
    # the listing (z, x) = (8, 2), (18, 2), (28, 2) normalizes to one class
    assert {18 % 10, 28 % 10} == {8}


def test_equal_bases_diagonal():
    rcs = two_term_solutions(3, 3, 5)
    assert rcs.periods == (4, 4)
    assert rcs.tuples == {(a, a) for a in range(4)}


def test_identity_congruence_full_torus():
    terms = [Term.of(1, (7, v("x"))), Term.of(-1, (7, v("x")))]
    rcs = congruence_solutions(terms, 11)
    assert len(rcs) == rcs.periods[0]


def test_two_term_rejects_non_units():
    with pytest.raises(NotAUnitError):
        two_term_solutions(33, 5, 33)


def test_empty_terms_rejected():
    with pytest.raises(SieveError):
        congruence_solutions([], 7)


def test_modulus_above_trial_division_rejected():
    # x -> (m - 1)^x == 1 (mod m) holds for even x; m and its totient factor by trial division
    terms = [Term.of(1, (sieve.MODULUS_MAX - 1, v("x"))), Term.of(-1)]
    assert congruence_solutions(terms, sieve.MODULUS_MAX).tuples == {(0,)}
    for m in (sieve.MODULUS_MAX + 1, (2**127 - 1) * (2**107 - 1)):
        with pytest.raises(SieveError, match="above the limit"):
            congruence_solutions(terms, m)


KILL_TERMS = [
    Term.of(1, (101, v("z"))),
    Term.of(-1),
    Term.of(-1, (99, v("y")), (2, v("a")), (5, v("b"))),
]


def test_merged_residue_modulus_is_bounded():
    cons = ConstraintSet.none().with_residue("x", 32, {1})
    merged, allowed = cons.with_residue("x", 3125, {1}).residues["x"]  # lcm 10**5, the limit
    assert merged == sieve.RESIDUE_MODULUS_MAX and allowed == {1}
    for m0, m1 in ((10_007, 10_009), (1_000_003, 1_000_033)):
        cons = ConstraintSet.none().with_residue("x", m0, {1})
        with pytest.raises(SieveError, match=rf"constraints on x: residue modulus lcm\({m0}, {m1}\)"):
            cons.with_residue("x", m1, {1})


def test_killing_modulus_is_17():
    w = find_killing_modulus(KILL_TERMS, ConstraintSet.none().with_parity("z", 0), m_max=100)
    assert w is not None and w.modulus == 17
    # every supported modulus below 17 was actually scanned and survived
    assert all(m < 17 for m in w.scanned[:-1])
    assert 17 in w.scanned


def test_without_parity_no_kill_at_17():
    rcs = congruence_solutions(KILL_TERMS, 17)
    assert not rcs.is_empty()  # odd z solves it: 101^z == -1, and -2 is a value of the term


def test_unsatisfiable_constraints_kill_immediately():
    cons = ConstraintSet.none().with_residue("z", 4, {1}).with_residue("z", 4, {2})
    w = find_killing_modulus(KILL_TERMS, cons, m_max=10)
    assert w is not None and w.modulus == 2


def test_symbol_fixed_below_0_gives_no_kill():
    # (x, r) = (2, -1) solves 2^(r*(x) + 4) = 4: a symbol's bound below 0
    # times its linear part's bound bounds nothing, so the exponent has only
    # the domain's floor 0 and no modulus up to 20 kills
    terms = [Term.of(1, (2, ExpExpr(Lin.var("x"), "r", 4))), Term.of(-4)]
    assert find_killing_modulus(terms, ConstraintSet.none().with_fixed("r", -1), m_max=20).modulus is None


def test_true_identity_never_killed():
    # 3^2 + 4^2 - 5^2 has the genuine solution (2, 2, 2) in every modulus
    terms = [
        Term.of(1, (3, v("x"))),
        Term.of(1, (4, v("y"))),
        Term.of(-1, (5, v("z"))),
    ]
    assert find_killing_modulus(terms, m_max=60).modulus is None


def test_solutions_re_verify_exactly():
    terms = [Term.of(1, (7, v("x"))), Term.of(-1, (5, v("y"))), Term.of(-2)]
    for m in (9, 11, 13, 19):
        rcs = congruence_solutions(terms, m)
        ox = rcs.period_of("x")
        oy = rcs.period_of("y")
        listed = rcs.tuples
        for xx in range(ox):
            for yy in range(oy):
                vals = dict(zip(rcs.variables, (xx, yy) if rcs.variables == ("x", "y") else (yy, xx)))
                holds = (7 ** vals["x"] - 5 ** vals["y"] - 2) % m == 0
                member = tuple(vals[n] for n in rcs.variables) in listed
                assert holds == member


def test_lifting_projection():
    terms = [Term.of(1, (2, v("z"))), Term.of(-1, (5, v("x")))]
    pairs = [(m, m * f) for m in (3, 7, 9, 11, 13) for f in (2, 3, 5) if m * f <= 200]
    for m, big in pairs:
        try:
            small = congruence_solutions(terms, m)
            large = congruence_solutions(terms, big)
        except SieveError:
            continue
        for t in large.tuples:
            vals = dict(zip(large.variables, t))
            reduced = tuple(
                vals[n] % small.period_of(n) for n in small.variables
            )
            assert reduced in small.tuples


def test_symbolic_atom_enumeration():
    # 99^y * 2^(r(y-z)) == 0 mod 33 for y >= 1 regardless of the atom
    terms = [
        Term.of(1, (101, v("z"))),
        Term.of(-1, (5, v("x"))),
        Term.of(-1, (99, v("y")), (2, atom("r", y=1, z=-1))),
    ]
    rcs = congruence_solutions(terms, 33)
    assert set(rcs.variables) == {"x", "z"}
    assert rcs.tuples == {(0, 0), (2, 8), (4, 6), (6, 4), (8, 2)}


def test_kill_implies_bounded_search_empty():
    # 101^z = 1 + 99^y*2^a*5^b with z even has no small solutions either
    for z in range(2, 21, 2):
        rhs = 101**z - 1
        for y in range(1, 21):
            p99 = 99**y
            if p99 > rhs:
                break
            rest = rhs
            if rest % p99:
                continue
            rest //= p99
            while rest % 2 == 0:
                rest //= 2
            while rest % 5 == 0:
                rest //= 5
            assert rest != 1, (z, y)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=-9, max_value=9),
)
def test_enumeration_is_sound_and_complete(m, a, b, c):
    """Every listed tuple satisfies the congruence; every omitted one fails."""
    terms = [Term.of(1, (a, v("x"))), Term.of(1, (b, v("y"))), Term.of(c)]
    try:
        rcs = congruence_solutions(terms, m)
    except SieveError:
        return  # modulus not representable for these bases: out of scope
    periods = dict(zip(rcs.variables, rcs.periods))
    px, py = periods.get("x", 1), periods.get("y", 1)

    def value(x, y):
        # a variable missing from the torus means its term vanished mod m
        total = c % m
        if "x" in periods:
            total += pow(a, x % px, m)
        if "y" in periods:
            total += pow(b, y % py, m)
        return total % m

    for x in range(px):
        for y in range(py):
            tup = tuple({"x": x, "y": y}[n] for n in rcs.variables)
            expected_zero = value(x, y) == 0
            assert (tup in rcs.tuples) == expected_zero, (m, a, b, c, x, y)


def test_order_cap_skips_heavy_moduli():
    w = find_killing_modulus(KILL_TERMS, ConstraintSet.none().with_parity("z", 0), m_max=100, order_cap=2)
    # with a tiny order cap most moduli are skipped, but 17 needs order 8 for 2
    assert w.modulus != 17


def _stated(constraints):
    """The scan's source of linear-form bounds: the stated ones."""
    return lambda lin, cap: sieve._lin_lower_bound(lin, constraints)


def _reference_solutions(terms, m, constraints, order_cap):
    """Per-cell evaluator: a pow per power per torus cell, no tables."""
    live, plan = sieve._build_plan(terms, m, constraints.residues, _stated(constraints), order_cap)
    names = tuple(n for n, _ in plan)
    periods = tuple(p for _, p in plan)
    if constraints.unsatisfiable_names():
        return ResidueClassSet(m, names, periods, frozenset())
    candidates = []
    for name, period in plan:
        if name in constraints.fixed:
            value = constraints.fixed[name]
            candidates.append([value % period] if constraints.residue_allows(name, value) else [])
        else:
            candidates.append([r for r in range(period) if constraints.residue_allows(name, r)])
    solutions = set()
    for combo in itertools.product(*candidates):
        values = dict(zip(names, combo))
        total = 0
        for const_part, evals in live:
            t = const_part
            for ep in evals:
                if ep.atom is not None:
                    e = (values[ep.atom] + ep.exp.off) % ep.order
                else:
                    e = ep.exp.lin.evaluate(values) % ep.order
                t = t * pow(ep.base, e, m) % m
            total = (total + t) % m
        if total == 0:
            solutions.add(combo)
    return ResidueClassSet(m, names, periods, frozenset(solutions))


VARS = ("x", "y", "z")
ATOM_LINS = (Lin.var("x"), Lin.of(0, x=1, y=-1))
lins = st.builds(
    lambda coeffs, const: Lin.of(const, **coeffs),
    st.dictionaries(st.sampled_from(VARS), st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=3),
    st.integers(-3, 3),
)
const_exponents = st.builds(lambda c: ExpExpr(Lin.const_of(c)), st.integers(-1, 9))
exponents = st.one_of(
    st.builds(ExpExpr, lins),
    st.builds(ExpExpr, st.one_of(st.sampled_from(ATOM_LINS), lins), st.just("r"), st.integers(-2, 3)),
    const_exponents,
)


def _terms(exps, min_powers, bases=st.integers(2, 30)):
    return st.builds(
        lambda coef, powers: Term(coef, tuple(Power(b, e) for b, e in powers)),
        st.sampled_from([1, -1, 2, -2, 3, -3, 5, -7, 9]),
        st.lists(st.tuples(bases, exps), min_size=min_powers, max_size=3),
    )


# varying terms, plus at most one variable-free term of constant powers
terms_st = st.builds(
    lambda varying, fixed: varying + fixed,
    st.lists(_terms(exponents, 1), min_size=2, max_size=3),
    st.lists(_terms(const_exponents, 0), max_size=1),
)
CONSTRAINT_NAMES = VARS + tuple(ExpExpr(lin, "r").atom_name() for lin in ATOM_LINS)
constraint_ops = st.one_of(
    st.tuples(st.just("fixed"), st.sampled_from(CONSTRAINT_NAMES), st.integers(-2, 9)),
    st.tuples(
        st.just("residue"),
        st.sampled_from(CONSTRAINT_NAMES),
        st.integers(2, 4),
        st.sets(st.integers(0, 5), max_size=3),
    ),
    st.tuples(st.just("parity"), st.sampled_from(CONSTRAINT_NAMES), st.integers(0, 1)),
)
# a certificate states lower bounds on variables and symbols, at least 1
lower_bound_ops = st.tuples(st.just("lower"), st.sampled_from(VARS + ("r",)), st.integers(1, 6))
# the symbol fixed, also below 0, where r*(lin) grows with lin no longer
fixed_symbol_ops = st.tuples(st.just("fixed"), st.just("r"), st.integers(-2, 3))


def _apply(cons, op):
    kind, *args = op
    if kind == "fixed":
        return cons.with_fixed(*args)
    if kind == "residue":
        return cons.with_residue(*args)
    if kind == "lower":
        return cons.with_lower_bound(*args)
    return cons.with_parity(*args)


# each varying term draws its variables from its own pool, so the torus
# usually splits into two or more independent groups; a bridge term, whose
# exponents span two pools, may link groups back together.  Mostly prime
# bases and moduli keep most examples on a representable torus.
POOLS = (("x", "y"), ("z",), ("w",))
JOINT_VARS = ("x", "y", "z", "w")
UNIT_BASES = st.sampled_from([2, 3, 5, 7, 11, 13, 20, 99, 101])


def _pool_exponents(pool):
    pool_lins = st.builds(
        lambda coeffs, const: Lin.of(const, **coeffs),
        st.dictionaries(st.sampled_from(pool), st.sampled_from([1, -1, 2, -3]), min_size=1, max_size=2),
        st.integers(-3, 3),
    )
    return st.one_of(
        st.builds(ExpExpr, pool_lins),
        st.builds(ExpExpr, st.sampled_from([Lin.var(v) for v in pool]), st.just("r"), st.integers(-2, 3)),
        st.builds(lambda c: ExpExpr(Lin.const_of(c)), st.integers(0, 9)),
    )


def _varying_exponent(pool):
    return st.builds(lambda v, c: ExpExpr(Lin.of(c, **{v: 1})), st.sampled_from(pool), st.integers(0, 2))


# a variable of the first pool times one of another pool
bridge_terms = st.builds(
    lambda coef, first, other: Term(coef, (Power(*first), Power(*other))),
    st.sampled_from([1, -1, 2, -3]),
    st.tuples(UNIT_BASES, _varying_exponent(POOLS[0])),
    st.tuples(UNIT_BASES, _varying_exponent(POOLS[1] + POOLS[2])),
)
grouped_terms_st = st.builds(
    lambda varying, bridge, fixed: [t for ts in varying for t in ts] + bridge + fixed,
    st.tuples(*(st.lists(_terms(_pool_exponents(pool), 1, UNIT_BASES), min_size=1, max_size=1 + (i == 0))
                for i, pool in enumerate(POOLS))),
    st.lists(bridge_terms, max_size=1),
    st.lists(_terms(st.builds(lambda c: ExpExpr(Lin.const_of(c)), st.integers(0, 9)), 0), max_size=1),
)
grouped_constraint_ops = st.one_of(
    st.tuples(st.just("fixed"), st.sampled_from(JOINT_VARS), st.integers(0, 9)),
    st.tuples(st.just("residue"), st.sampled_from(JOINT_VARS), st.integers(2, 4),
              st.sets(st.integers(0, 5), max_size=3)),
)


def _check_against_reference(terms, m, ops, order_cap):
    cons = ConstraintSet.none()
    for op in ops:
        cons = _apply(cons, op)
    # keep both evaluators on small tori; a larger one raises in both
    with mock.patch.object(sieve, "TORUS_CELL_LIMIT", 20_000):
        try:
            expected = _reference_solutions(terms, m, cons, order_cap)
        except SieveError as e:
            with pytest.raises(type(e)):
                congruence_solutions(terms, m, cons, order_cap=order_cap)
            return
        assert congruence_solutions(terms, m, cons, order_cap=order_cap) == expected


@settings(max_examples=400, deadline=None)
@given(
    terms_st,
    st.one_of(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]), st.integers(2, 40)),
    st.lists(constraint_ops, max_size=3),
    st.sampled_from([None, 6, 12]),
)
def test_tables_match_per_cell_reference(terms, m, ops, order_cap):
    """The table kernel gives the reference's exact ResidueClassSet, or
    raises the same exception type."""
    _check_against_reference(terms, m, ops, order_cap)


@settings(max_examples=300, deadline=None)
@given(
    grouped_terms_st,
    st.one_of(st.sampled_from([3, 5, 7, 9, 11, 13, 17]), st.integers(2, 24)),
    st.lists(grouped_constraint_ops, max_size=3),
    st.sampled_from([None, 6, 12]),
)
def test_grouped_tori_match_per_cell_reference(terms, m, ops, order_cap):
    """Tori that split into independent groups, joined by residue, give the
    reference's exact ResidueClassSet, also when a bridge term links groups."""
    _check_against_reference(terms, m, ops, order_cap)


@seed(2017)
@settings(max_examples=300, deadline=None)
# r*(x) fixed below 1: the verifier once read an unproved bound 0 for it, so
# (2^(r*(x)))^2 no longer vanished mod 2 as it did in the scan that found the kill
@example([Term.of(1, (2, atom("r", x=1)), (2, atom("r", x=1))), Term.of(1, (3, v("x")))], [("fixed", "r*(x)", -1)])
# x >= 3 makes 2^(r*(x)) vanish mod 4, and x occurs only inside exponents
# that are not x itself: the verifier once left x at the default bound 1
@example(
    [
        Term.of(2, (7, ExpExpr(Lin.of(0, x=1, y=-1), "r", 1))),
        Term.of(5, (5, ExpExpr(Lin.of(0, x=1, z=-1))), (2, atom("r", x=1))),
    ],
    [("parity", "y", 1), ("lower", "x", 3)],
)
# x >= 6 makes 2^(r*(x-3)) vanish mod 4, and 2^(r*(x)-3) only with x
# bounded past the sieve's cap (4 at m = 4) by the 3 the offset takes away
@example([Term.of(1, (2, ExpExpr(Lin.of(-3, x=1), "r"))), Term.of(1, (9, v("y"))), Term.of(1)], [("lower", "x", 6)])
@example([Term.of(1, (2, ExpExpr(Lin.var("x"), "r", -3))), Term.of(1, (9, v("y"))), Term.of(1)], [("lower", "x", 6)])
# y fixed at 0: x - y >= 1 is proved, but r*(x-y) - 2 has a negative
# coefficient, so both sides read it at the floor 0 and 3^x*2^(...) vanishes mod 3
@example(
    [Term.of(1, (2, v("x"))), Term.of(1, (3, v("x")), (2, ExpExpr(Lin.of(0, x=1, y=-1), "r", -2)))],
    [("fixed", "y", 0)],
)
@given(terms_st, st.lists(st.one_of(constraint_ops, lower_bound_ops, fixed_symbol_ops), max_size=3))
def test_every_kill_prove_can_emit_verifies(terms, ops):
    """A kill found under residues, parities, fixed values and lower bounds,
    on variables, symbols and exponent atoms, gives a certificate that verifies
    after a round trip through its JSON text: the constraints the scan
    reads are the ones the certificate states."""
    cons = ConstraintSet.none()
    for op in ops:
        cons = _apply(cons, op)
    # small tori keep each scan quick; the verifier plans the killer's torus again
    with mock.patch.object(sieve, "TORUS_CELL_LIMIT", 20_000):
        try:
            witness = find_killing_modulus(terms, cons, m_max=16)
        except SieveError:
            return  # a negative constant exponent
        if witness.modulus is None:
            return
        cert = killing_certificate(terms, cons, witness.modulus)
        verdict = verify_certificate(loads_certificate(dumps_certificate(cert)))
    assert verdict.valid, verdict.describe()


def test_sieve_scan_torus_matches_reference():
    # the benchmark's no-kill scan at m = 37: z alone against (a, b, y)
    cons = ConstraintSet.none()
    expected = _reference_solutions(KILL_TERMS, 37, cons, 120)
    assert expected.periods == (36, 36, 18, 6) and len(expected) == 3240
    sides = []

    def spy(side, *args):
        sides.append([expected.variables[i] for i in side])
        return real(side, *args)

    real = sieve._side_sums
    with mock.patch.object(sieve, "_side_sums", spy):
        assert congruence_solutions(KILL_TERMS, 37, cons, order_cap=120) == expected
    # z is tabulated (6 cells) and (a, b, y), the largest group, streamed against it
    assert sides == [["z"], ["a", "b", "y"]]


def _term_is_constant_zero_reference(term, m, lin_bound):
    # the loop that reads every power's lower bound, unit bases included
    cap = m.bit_length() + 1
    acc = term.coef % m
    for p in term.powers:
        lb = sieve._exp_lower_bound(p.exp, lin_bound, cap)
        if lb < 0:
            return False
        acc = acc * pow(p.base, min(lb, cap), m) % m
    return acc == 0


@settings(max_examples=500, deadline=None)
@given(
    st.builds(
        lambda coef, powers: Term(coef, tuple(Power(b, e) for b, e in powers)),
        st.integers(-40, 40),
        st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 25]), exponents), max_size=4),
    ),
    st.sampled_from([2, 3, 4, 6, 8, 9, 12, 18, 24, 25, 30, 36, 100]),
    st.data(),
)
def test_term_is_constant_zero_matches_full_loop(term, m, data):
    """Setting unit bases aside gives the same answer as multiplying every
    power in, also with non-unit bases, negative bounds and fixed values."""
    names = sorted({p.exp.atom_name() for p in term.powers} | set(CONSTRAINT_NAMES))
    cons = ConstraintSet.none()
    for name, value in data.draw(st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 9)), max_size=3)):
        cons = cons.with_fixed(name, value)
    for name, value in data.draw(st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 9)), max_size=3)):
        cons = cons.with_lower_bound(name, value)
    lin_bound = _stated(cons)
    assert sieve._term_is_constant_zero(term, m, lin_bound) == _term_is_constant_zero_reference(term, m, lin_bound)


def _outcome(fn, *args):
    """fn's result, or the type and message of the SieveError it raises."""
    try:
        return fn(*args)
    except SieveError as e:
        return type(e), str(e)


def _check_fold(terms, m, ops, order_cap, contradict):
    cons = ConstraintSet.none()
    for op in ops:
        cons = _apply(cons, op)
    if contradict:  # x odd and x even: no cell survives, whatever the torus
        cons = cons.with_parity("x", 0).with_parity("x", 1)
    with mock.patch.object(sieve, "TORUS_CELL_LIMIT", 20_000):
        rcs = _outcome(congruence_solutions, terms, m, cons, order_cap)
        fold = _outcome(congruence_fold, terms, m, cons, order_cap)
    if not isinstance(rcs, ResidueClassSet):
        assert fold == rcs  # the same error type and message
        return
    assert (fold.modulus, fold.variables, fold.periods) == (rcs.modulus, rcs.variables, rcs.periods)
    assert fold.is_empty() is rcs.is_empty()
    if contradict:
        assert fold.is_empty()
    assert len(fold) == len(rcs)
    for name in rcs.variables:
        assert fold.project(name) == rcs.project(name), name
    assert fold.first() == (min(rcs.tuples) if rcs.tuples else None)


# no max_examples: tier-1 runs hypothesis's default 100 each, and the
# "fold-ci" profile of conftest.py ten times as many
@settings(deadline=None)
@given(
    terms_st,
    st.one_of(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]), st.integers(0, 40)),
    st.lists(constraint_ops, max_size=3),
    st.sampled_from([None, 6, 12]),
    st.booleans(),
)
def test_fold_matches_join(terms, m, ops, order_cap, contradict):
    """The fold answers emptiness, every projection, the class count and
    the first class as the listed cells do, or raises the same error."""
    _check_fold(terms, m, ops, order_cap, contradict)


@settings(deadline=None)
@given(
    grouped_terms_st,
    st.one_of(st.sampled_from([3, 5, 7, 9, 11, 13, 17]), st.integers(2, 24)),
    st.lists(grouped_constraint_ops, max_size=3),
    st.sampled_from([None, 6, 12]),
    st.booleans(),
)
def test_fold_matches_join_on_grouped_tori(terms, m, ops, order_cap, contradict):
    _check_fold(terms, m, ops, order_cap, contradict)


def test_fold_count_and_first_keep_only_the_residues_needed():
    # the one group (x, y) of 2^x - 2^(x+y) mod 383521 has 73,984 cells and
    # reaches about half as many residues; the count and the first class
    # keep only the residue 0 that the sum must reach
    terms = [Term.of(1, (2, v("x"))), Term.of(-1, (2, ExpExpr(Lin.of(0, x=1, y=1))))]
    fold = congruence_fold(terms, 383521, ConstraintSet.none())
    assert not fold.is_empty()
    tracemalloc.start()
    try:
        assert len(fold) == 272 and fold.first() == (0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_fold_reads_no_torus_cell_of_a_monomial_group():
    # the mod 17 kill: z against the monomial 99^y*2^a*5^b, which folds as
    # a product set; only a group of several terms enumerates its cells
    cons = ConstraintSet.none().with_parity("z", 0)
    listed = AssertionError("cells enumerated")
    with mock.patch.object(sieve, "_side_sums", side_effect=listed), mock.patch.object(
        sieve, "_side_rows", side_effect=listed
    ):
        fold = congruence_fold(KILL_TERMS, 17, cons)
        assert fold.is_empty() and fold.first() is None and fold.project("y") == frozenset()
        fold = congruence_fold(KILL_TERMS, 19, cons)
        assert len(fold) == 648 and fold.first() == (0, 0, 1, 14)


def test_fold_streams_its_largest_group():
    # 2^x - 2^(x+y) vanishes mod 383521 only at y = 0 mod 272, the order of
    # 2, so odd y leaves none: the one group (x, y) of 36,992 cells reaches
    # 18,496 residues, which the emptiness check meets cell by cell rather
    # than holding (as a set they take about 1 MB)
    terms = [Term.of(1, (2, v("x"))), Term.of(-1, (2, ExpExpr(Lin.of(0, x=1, y=1))))]
    fold = congruence_fold(terms, 383521, ConstraintSet.none().with_parity("y", 1))
    tracemalloc.start()
    try:
        assert fold.is_empty()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "terms, m, order_cap, error",
    [
        (KILL_TERMS, 1, None, SieveError),
        (KILL_TERMS, sieve.MODULUS_MAX + 1, None, SieveError),
        ([], 7, None, SieveError),
        ([Term.of(1, (3, v("x"))), Term.of(-1)], 6, None, UnsupportedModulusError),
        (KILL_TERMS, 37, 10, TorusTooLargeError),
        ([Term.of(1, (3, v("x")), (2, ExpExpr(Lin.const_of(-1))))], 7, None, SieveError),
    ],
    ids=["modulus-1", "modulus-huge", "no-terms", "non-unit-base", "order-cap", "negative-constant"],
)
def test_has_solution_raises_as_congruence_solutions(terms, m, order_cap, error):
    full = _outcome(congruence_solutions, terms, m, None, order_cap)
    assert full[0] is error
    assert _outcome(congruence_fold, terms, m, None, order_cap) == full


def _reference_scan(terms, constraints, m_max, order_cap=120):
    """find_killing_modulus as a loop over the full solution sets."""
    scanned, skipped = [], []
    for m in range(2, m_max + 1):
        try:
            rcs = congruence_solutions(terms, m, constraints, order_cap=order_cap)
        except (UnsupportedModulusError, TorusTooLargeError) as e:
            skipped.append((m, str(e)))
            continue
        scanned.append(m)
        if rcs.is_empty():
            return KillingWitness(m, tuple(scanned), tuple(skipped))
    return KillingWitness(None, tuple(scanned), tuple(skipped))


@pytest.mark.parametrize("m_max", [40, 200])
@pytest.mark.parametrize("z_even", [False, True], ids=["any-z", "z-even"])
def test_scan_record_matches_full_enumeration(m_max, z_even):
    """The early-exit scan keeps the killer and every scanned and skipped
    modulus with its message."""
    cons = ConstraintSet.none().with_parity("z", 0) if z_even else ConstraintSet.none()
    witness = find_killing_modulus(KILL_TERMS, cons, m_max=m_max)
    assert witness == _reference_scan(KILL_TERMS, cons, m_max)
    if z_even:
        assert witness.modulus == 17
        assert congruence_fold(KILL_TERMS, 17, cons).variables == ("a", "b", "y", "z")
    else:
        assert witness.modulus is None
        assert len(witness.scanned) == {40: 20, 200: 44}[m_max]


# -- soundness oracle -----------------------------------------------------------
# Random killing certificates over x, y and atoms r*(lin), with moduli 2-24.
# Each one that verifies is checked by brute force on the box x, y in 0..8,
# r in -2..4, at the points of the certificate's domain: x, y and r are their
# fixed values or at least their stated lower bounds (1 when neither is
# stated), every constraint holds and every exponent is >= 0.  No such
# point may solve the congruence.  A fixed r may be negative: the sieve
# proves no bound of r then, and a product of two unproved bounds is none.

ORACLE_ATOM_LINS = (Lin.var("x"), Lin.of(0, x=1, y=-1), Lin.of(-1, y=1))
ORACLE_ATOMS = tuple(ExpExpr(lin, "r").atom_name() for lin in ORACLE_ATOM_LINS)
ORACLE_NAMES = ("x", "y") + ORACLE_ATOMS


def _oracle_point(x, y, r):
    point = {"x": x, "y": y, "r": r}
    return {**point, **{name: r * lin.evaluate(point) for name, lin in zip(ORACLE_ATOMS, ORACLE_ATOM_LINS)}}


ORACLE_BOX = [_oracle_point(*p) for p in itertools.product(range(9), range(9), range(-2, 5))]


def _oracle_draw(rnd):
    """The terms, constraints and modulus of one random killing certificate."""

    def exponent():
        if rnd.random() < 0.5:
            return ExpExpr(Lin.of(rnd.randint(-2, 2), x=rnd.randint(-2, 2), y=rnd.randint(-2, 2)))
        return ExpExpr(rnd.choice(ORACLE_ATOM_LINS), "r", rnd.randint(-2, 2))

    terms = [
        Term(rnd.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)),
             tuple(Power(rnd.randint(2, 12), exponent()) for _ in range(rnd.randint(0, 2))))
        for _ in range(rnd.randint(2, 3))
    ]
    cons = ConstraintSet.none()
    for _ in range(rnd.randint(0, 2)):
        kind = rnd.choice(("residue", "fixed", "lower"))
        if kind == "residue":
            allowed = set(rnd.sample(range(4), rnd.randint(1, 2)))
            cons = cons.with_residue(rnd.choice(ORACLE_NAMES), rnd.randint(2, 4), allowed)
        elif kind == "fixed":
            name = rnd.choice(ORACLE_NAMES + ("r",))
            cons = cons.with_fixed(name, rnd.randint(-2, 4 if name == "r" else 8))  # r stays in the box
        else:
            cons = cons.with_lower_bound(rnd.choice(("x", "y", "r")), rnd.randint(0, 2))
    return terms, cons, rnd.randint(2, 24)


def _oracle_solution(terms, cons, m):
    """A point of the box in the certificate's domain that solves the
    congruence mod m, or None."""
    for values in ORACLE_BOX:
        if any(values[n] < cons.lower_bounds.get(n, 1) for n in ("x", "y", "r") if n not in cons.fixed):
            continue
        if any(values[n] != f for n, f in cons.fixed.items()):
            continue
        if not all(cons.residue_allows(n, values[n]) for n in cons.residues):
            continue
        exps = [[(p.base, p.exp.evaluate(values)) for p in t.powers] for t in terms]
        if any(e < 0 for powers in exps for _, e in powers):
            continue
        if sum(t.coef * math.prod(pow(b, e, m) for b, e in powers) for t, powers in zip(terms, exps)) % m == 0:
            return values
    return None


# no max_examples: tier-1 runs hypothesis's default 100 examples of 30
# certificates each, and the "fold-ci" profile of conftest.py ten times as many
@seed(1917)
@settings(deadline=None)
@given(st.integers(0, 2**64))
def test_soundness_oracle(draw_seed):
    """No killing certificate that verifies has a solution in its domain."""
    rnd = random.Random(draw_seed)
    for _ in range(30):
        terms, cons, m = _oracle_draw(rnd)
        if verify_certificate(killing_certificate(terms, cons, m)).valid:
            point = _oracle_solution(terms, cons, m)
            assert point is None, ([str(t) for t in terms], cons, m, point)
