"""The verifier context: linear implication and linear-form bounds against
their un-memoized forms, exponent bounds against a box of points, and
residue reasoning against plain enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jesma import sieve
from jesma.certificate.context import (
    _FM_FACT_CAP,
    RESIDUE_MODULUS_MAX,
    Context,
    DivisibilityFact,
    _eliminate,
    _infeasible,
    _normalize_fact,
    refine_residues,
)
from jesma.symbolic import ExpExpr, Lin, Power, Term

VARS = ("x", "y", "z")
SYMS = ("r", "s")


def _infeasible_reference(facts) -> bool:
    # the un-memoized path: every fact is normalized again before elimination
    facts = [_normalize_fact(dict(cs), d) for cs, d in facts]
    while True:
        if any(not cs and d < 0 for cs, d in facts):
            return True
        variables = sorted({v for cs, _ in facts for v, _ in cs})
        if not variables:
            return False
        facts = _eliminate(facts, variables[0])
        if len(facts) > _FM_FACT_CAP:
            return False


def _implied_reference(ctx: Context, lin: Lin) -> bool:
    # rebuilds the system on every call, as Context.implied did before its
    # system was cached on the context
    if any(not allowed for _, allowed in ctx.residues.values()):
        return True
    subst = ctx._residue_substitution()
    system = [ctx._transform(dict(cs), d, subst) for cs, d in ctx.facts]
    system += [ctx._transform({s: 1}, -1, subst) for s in ctx.syms]
    neg = lin * -1 - 1
    system.append(ctx._transform(neg.as_dict(), neg.const, subst))
    return _infeasible_reference(system)


def _lin_lower_bound_reference(ctx: Context, lin: Lin, cap: int) -> int:
    if not _implied_reference(ctx, lin):
        return -1
    best = 0
    for b in range(1, cap + 1):
        if not _implied_reference(ctx, lin - b):
            break
        best = b
    return best


# sparse forms, half of them bounds on one variable: there the integer
# rounding after a residue substitution often decides the answer
_lins = st.one_of(
    st.builds(
        lambda v, sign, const: Lin.var(v) * sign + const,
        st.sampled_from(VARS + SYMS),
        st.sampled_from((1, -1)),
        st.integers(-8, 8),
    ),
    st.builds(
        lambda coeffs, const: Lin.of(const, **coeffs),
        st.dictionaries(st.sampled_from(VARS + SYMS), st.integers(-3, 3), max_size=2),
        st.integers(-6, 6),
    ),
)
_residues = st.lists(
    st.tuples(st.sampled_from(VARS), st.integers(2, 4), st.sets(st.integers(0, 3), min_size=1, max_size=2)),
    max_size=2,
)


@st.composite
def _contexts(draw) -> Context:
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    for v in VARS:
        ctx = ctx.with_fact(Lin.var(v) - 1)
    for lin in draw(st.lists(_lins, max_size=4)):
        ctx = ctx.with_fact(lin)
    ctx = ctx.with_syms(draw(st.lists(st.sampled_from(SYMS), max_size=2)))
    for name, m, allowed in draw(_residues):  # one residue left is a substitution
        ctx = ctx.with_residue(name, m, allowed)
    return ctx


@settings(max_examples=150, deadline=None)
@given(_contexts(), st.lists(_lins, min_size=1, max_size=4), _lins)
def test_implied_matches_unmemoized(ctx, queries, extra):
    for lin in queries + queries:  # the second round reads the cached system
        assert ctx.implied(lin) == _implied_reference(ctx, lin), lin
    # a context made from a cached one starts from its own facts
    grown = ctx.with_fact(extra)
    for lin in queries:
        assert grown.implied(lin) == _implied_reference(grown, lin), lin
        assert ctx.implied(lin) == _implied_reference(ctx, lin), lin


def test_implied_rounds_after_substitution():
    # x in [lo, hi] with x = r (mod m): whether x >= c or x <= c follows
    # turns on the integer rounding of the bounds on x // m
    base = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    x = Lin.var("x")
    for lo, hi, m in itertools.product(range(0, 5), range(3, 9), range(2, 5)):
        for r in range(m):
            ctx = base.with_fact(x - lo).with_fact(x * -1 + hi).with_residue("x", m, {r})
            for c in range(-1, 10):
                for q in (x - c, x * -1 + c):
                    assert ctx.implied(q) == _implied_reference(ctx, q), (lo, hi, m, r, q)


@st.composite
def _fact_systems(draw):
    """A context of 2 to 4 variables and a few facts, with singleton
    residues or without; queries, half of them a fact with its constant
    moved or scaled, so that one fact often decides them; and extra facts."""
    names = ("a", "b", "c", "d")[: draw(st.integers(2, 4))]
    lins = st.builds(
        lambda coeffs, const: Lin.of(const, **dict(zip(names, coeffs))),
        st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names)),
        st.integers(-5, 5),
    )
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    facts = draw(st.lists(lins, min_size=1, max_size=5))
    for lin in facts:
        ctx = ctx.with_fact(lin)
    if draw(st.booleans()):
        for name in draw(st.sets(st.sampled_from(names), max_size=2)):
            m = draw(st.integers(2, 4))
            ctx = ctx.with_residue(name, m, {draw(st.integers(0, m - 1))})
    near = st.builds(
        lambda lin, k, d: lin * k + d, st.sampled_from(facts), st.integers(1, 3), st.integers(-2, 3)
    )
    queries = draw(st.lists(st.one_of(lins, near), min_size=1, max_size=6))
    return ctx, queries, tuple(draw(st.lists(lins, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(_fact_systems())
def test_implied_fast_path_matches_elimination(system):
    """implied answers as elimination of the system plus the negated query
    does, whether a single fact decides the query or not, and extra facts
    count as the facts of the context that with_fact builds."""
    ctx, queries, extra = system
    grown = ctx
    for lin in extra:
        grown = grown.with_fact(lin)
    for lin in queries:
        neg = lin * -1 - 1
        for c in (ctx, grown):
            facts, subst = c._system
            assert c.implied(lin) == _infeasible((*facts, c._transform(neg.as_dict(), neg.const, subst))), lin
        assert ctx.implied(lin, extra) == grown.implied(lin), lin


@settings(max_examples=150, deadline=None)
@given(_contexts(), _lins, st.integers(0, 20))
def test_lin_lower_bound_matches_unmemoized(ctx, lin, cap):
    assert ctx.lin_lower_bound(lin, cap) == _lin_lower_bound_reference(ctx, lin, cap)


def test_lin_lower_bound_answers_minus_1_0_and_the_cap():
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence").with_fact(Lin.var("x") - 1)
    x = Lin.var("x")
    assert [ctx.lin_lower_bound(x - 2, 5), ctx.lin_lower_bound(x - 1, 5), ctx.lin_lower_bound(x + 9, 5)] == [-1, 0, 5]
    # at cap 0 only whether lin >= 0 is proved is asked
    assert [ctx.lin_lower_bound(x + 2, 0), ctx.lin_lower_bound(Lin.var("y"), 0)] == [0, -1]


def _box_points(ctx: Context) -> list[dict[str, int]]:
    """The points of x, y, z in 0..4 and r, s in -2..3 that meet the
    context's facts, its symbols' facts (>= 1) and its residues."""
    box = (dict(zip(VARS + SYMS, values)) for values in itertools.product(*[range(5)] * 3, *[range(-2, 4)] * 2))
    return [
        point
        for point in box
        if all(sum(c * point[v] for v, c in cs) + d >= 0 for cs, d in ctx.facts)
        and all(point[s] >= 1 for s in ctx.syms)
        and all(point[n] % m in allowed for n, (m, allowed) in ctx.residues.items())
    ]


# no max_examples: tier-1 runs hypothesis's default 100 examples, and the
# "fold-ci" profile of conftest.py ten times as many
@settings(deadline=None)
@given(
    _contexts(),
    st.lists(
        st.tuples(
            st.one_of(
                st.builds(ExpExpr, _lins),
                st.builds(ExpExpr, _lins, st.sampled_from(SYMS), st.integers(-2, 2)),
            ),
            st.integers(0, 6),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_exp_lower_bound_holds_on_a_box(ctx, exponents):
    """The one rule for an exponent's lower bound, fed by Fourier-Motzkin
    proofs on the branch facts, is exact up to its cap on every point of a
    box that meets the facts and where the exponent is >= 0: no such point
    reads below min(bound, cap)."""
    points = _box_points(ctx)
    for e, cap in exponents:
        floor = min(sieve._exp_lower_bound(e, ctx.lin_lower_bound, cap), cap)
        for point in points:
            value = e.evaluate(point)
            assert value < 0 or value >= floor, (str(e), cap, floor, point)


def test_a_variable_spelt_like_an_exponent_keeps_its_own_bound():
    # 2^v + 2^(x+1) = 6 at x = v = 1, with v named "x+1".  Bounds were once
    # keyed by printed name, so the bound 2 of the exponent x + 1 reached v,
    # 2^v vanished mod 4 and the congruence read as empty: a false kill.
    terms = [Term.of(1, (2, ExpExpr(Lin.var("x+1")))), Term.of(1, (2, ExpExpr(Lin.var("x") + 1))), Term.of(-6)]
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    ctx = ctx.with_fact(Lin.var("x") - 1).with_fact(Lin.var("x+1") - 1)
    with pytest.raises(sieve.UnsupportedModulusError, match=r"term 2\^\(x\+1\) has a non-unit base modulo 4"):
        sieve.congruence_fold(terms, 4, sieve.ConstraintSet(ctx.residues, ctx.fixed), lin_bound=ctx.lin_lower_bound)


def test_normal_form_takes_terms_it_cannot_memoize():
    # a certificate may put a list where a symbol belongs: such a term cannot
    # be a memo key, and is normalized as if there were no memo
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    listed = ExpExpr(Lin.var("x"), [])
    assert ctx.normal_form([Term(3, (Power(1, listed),))]) == ctx.normal_form([Term.of(3)])
    with pytest.raises(ValueError, match="zero coefficient term"):
        ctx.normal_form([Term(0, (Power(2, listed),))])


def test_terms_equal_orders_a_plain_and_a_scaled_exponent_of_one_prime():
    # a plain exponent's key once held None where a scaled one holds its
    # symbol, so sorting the two keys of the prime 2 raised TypeError
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    plain, scaled = Power(2, ExpExpr(Lin.var("x"))), Power(2, ExpExpr(Lin.var("y"), "r"))
    assert ctx.terms_equal([Term(1, (plain,)), Term(1, (scaled,))], [Term(1, (scaled,)), Term(1, (plain,))])
    assert ctx.terms_equal([Term(1, (plain, scaled))], [Term(1, (scaled, plain))])
    assert not ctx.terms_equal([Term(1, (plain,))], [Term(1, (scaled,))])


def test_terms_equal_folds_a_constant_exponent_into_its_primes_one_scaled_exponent():
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    rx, sy = ExpExpr(Lin.var("x"), "r"), ExpExpr(Lin.var("y"), "s")
    two = Power(2, ExpExpr(Lin.const_of(1)))
    # 2 * 2^(r*(x)-1) is 2^(r*(x)), with the 2 as coefficient or as a power
    assert ctx.terms_equal([Term(2, (Power(2, rx.shifted(-1)),))], [Term(1, (Power(2, rx),))])
    assert ctx.terms_equal([Term(1, (Power(2, rx.shifted(-1)), two))], [Term(1, (Power(2, rx),))])
    assert ctx.terms_equal([Term(24, (Power(2, rx),))], [Term(3, (Power(2, rx.shifted(3)),))])
    # with two scaled exponents of one prime the constant stays apart
    assert not ctx.terms_equal([Term(2, (Power(2, rx), Power(2, sy)))],
                               [Term(1, (Power(2, rx.shifted(1)), Power(2, sy)))])


def test_an_emptied_residue_set_implies_every_fact():
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence").with_fact(Lin.var("x") - 1)
    assert not ctx.implied(Lin.var("x") - 2)
    empty = ctx.with_residue("x", 2, {0}).with_residue("x", 4, {1})
    assert empty.residues["x"] == (4, frozenset())
    assert empty.implied(Lin.var("x") - 2) and empty.implied(Lin.const_of(-1))


@pytest.mark.parametrize("m, stride", [(2, 2), (4, 2), (6, 2), (6, 3), (8, 4), (12, 6)])
def test_substituted_carries_a_variables_residues_to_the_new_variable(m, stride):
    """Under x := stride * t, t meets its carried residues exactly where
    stride * t meets those of x, for every set of multiples of the stride
    mod m: an emptied set stays empty, and a set that allows every t goes."""
    base = Context(triple=None, k_min=1, excluded=(), equation_form="congruence").with_residue("y", 2, {1})
    multiples = range(0, m, stride)
    for allowed in itertools.chain.from_iterable(
        itertools.combinations(multiples, k) for k in range(len(multiples) + 1)
    ):
        sub = base.with_residue("x", m, allowed).substituted("x", stride, "t")
        assert set(sub.residues) <= {"y", "t"} and sub.residues["y"] == (2, frozenset({1}))
        for t in range(3 * m):
            carried = sub.residues.get("t")
            meets = carried is None or t % carried[0] in carried[1]
            assert meets == ((stride * t) % m in allowed), (allowed, t)
        assert sub.implied(Lin.const_of(-1)) == (not allowed)


# r*(x+y) and 5^(r*(x+1)) | 3^x - 2^(x+y) under x := 2t, on a box of points
_SUBSTITUTION_BOX = [
    ({"r": r, "x": 2 * t, "y": y}, {"r": r, "t": t, "y": y})
    for r, t, y in itertools.product(range(1, 4), range(4), range(4))
]


def test_substituted_renames_an_atoms_residues():
    atom = ExpExpr(Lin.of(0, x=1, y=1), "r")
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    ctx = ctx.with_equation("main", [Term(1, (Power(3, atom),)), Term.of(-1)], ())
    ctx = ctx.with_residue(atom.atom_name(), 3, {1}).with_residue("x", 2, {0})
    sub = ctx.substituted("x", 2, "t")
    assert sub.residues == {"r*(2*t+y)": (3, frozenset({1}))}
    renamed = sub.atom_registry()["r*(2*t+y)"]
    for before, after in _SUBSTITUTION_BOX:
        assert renamed.evaluate(after) == atom.evaluate(before)


def test_substituted_rewrites_each_divisibility_fact():
    fact = DivisibilityFact(
        Term(1, (Power(5, ExpExpr(Lin.of(1, x=1), "r")),)), "-",
        Power(3, ExpExpr(Lin.var("x"))), Power(2, ExpExpr(Lin.of(0, x=1, y=1))),
    )
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence").with_residue("x", 2, {0})
    (moved,) = ctx.with_divisibility(fact).substituted("x", 2, "t").divisibilities
    assert moved.side == "-" and "x" not in moved.divisor.variables() | moved.p.exp.variables() | moved.q.exp.variables()
    for before, after in _SUBSTITUTION_BOX:
        assert moved.divisor.evaluate(after) == fact.divisor.evaluate(before)
        assert (moved.p.base, moved.p.exp.evaluate(after)) == (fact.p.base, fact.p.exp.evaluate(before))
        assert (moved.q.base, moved.q.exp.evaluate(after)) == (fact.q.base, fact.q.exp.evaluate(before))


def _lin_residues_reference(ctx: Context, lin: Lin, d: int) -> set[int]:
    # lifts each residue constraint through every class mod lcm(m, d)
    acc = {lin.const % d}
    for v, c in lin.coeffs:
        if v in ctx.residues:
            m, allowed = ctx.residues[v]
            values = {a % d for a in range(math.lcm(m, d)) if a % m in allowed}
        else:
            values = set(range(d))
        acc = {(a + c * b) % d for a in acc for b in values}
    return acc


@given(
    st.integers(2, 12),
    st.sets(st.integers(0, 11), min_size=1, max_size=4),
    st.integers(2, 12),
    _lins,
)
def test_lin_residues_mod_matches_lcm_enumeration(m, allowed, d, lin):
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    ctx = ctx.with_residue("x", m, allowed)
    assert ctx.lin_residues(lin, d) == _lin_residues_reference(ctx, lin, d)


def test_refine_residues_refuses_a_large_lcm():
    m1, _ = refine_residues(4, {0}, RESIDUE_MODULUS_MAX, {0})
    assert m1 == RESIDUE_MODULUS_MAX
    with pytest.raises(ValueError, match="is above"):
        refine_residues(2, {0}, RESIDUE_MODULUS_MAX + 1, {1})
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    ctx = ctx.with_residue("y", 2, {0})
    with pytest.raises(ValueError, match="is above"):
        ctx.with_residue("y", 99_991, {1})
