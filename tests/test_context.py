"""The verifier context: linear implication against its un-memoized form,
and residue reasoning against plain enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jesma.certificate.context import (
    _BOUND_SLACK_MAX,
    _FM_FACT_CAP,
    RESIDUE_MODULUS_MAX,
    Context,
    _eliminate,
    _infeasible,
    _normalize_fact,
    refine_residues,
)
from jesma.record import replace
from jesma.sieve import ConstraintSet, SieveError, congruence_solutions
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
    if ctx.conflict:
        return True
    subst = ctx._residue_substitution()
    system = [ctx._transform(dict(cs), d, subst) for cs, d in ctx.facts]
    system += [ctx._transform({s: 1}, -1, subst) for s in ctx.syms]
    neg = lin * -1 - 1
    system.append(ctx._transform(neg.as_dict(), neg.const, subst))
    return _infeasible_reference(system)


def _exp_lower_bound_reference(ctx: Context, e: ExpExpr, cap: int) -> int:
    best = 0
    for b in range(1, cap + 1):
        if e.sym is None:
            ok = _implied_reference(ctx, e.lin - b)
        else:
            ok = e.sym in ctx.syms and _implied_reference(ctx, e.lin - max(b - e.off, 1))
        if not ok:
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
@given(
    _contexts(),
    _lins,
    st.one_of(st.none(), st.sampled_from(SYMS)),
    st.integers(-2, 2),
    st.integers(0, 20),
)
def test_exp_lower_bound_matches_unmemoized(ctx, lin, sym, off, cap):
    e = ExpExpr(lin, sym, off)
    assert ctx.exp_lower_bound(e, cap) == _exp_lower_bound_reference(ctx, e, cap)


def _eager_sieve_constraints(ctx: Context, terms, m: int) -> ConstraintSet:
    # proves a bound for every power before the sieve runs, as the verifier
    # did before it handed the sieve bounds proved on demand
    cons = ConstraintSet.none()
    for name, (mm, allowed) in ctx.residues.items():
        cons = cons.with_residue(name, mm, set(allowed))
    for name, value in ctx.fixed.items():
        cons = cons.with_fixed(name, value)
    cap = m.bit_length() + 1
    # each exponent, then each variable and symbol in it, past the cap by
    # what the exponent's constant and offset take away
    occurrences = []
    for t in terms:
        for p in t.powers:
            e = p.exp
            slack = min(max(0, -e.lin.const) + max(0, -e.off), _BOUND_SLACK_MAX)
            occurrences.append((ExpExpr(e.lin, e.sym), cap))
            occurrences += [(ExpExpr(Lin.var(v)), cap + slack) for v in sorted(e.variables())]
    caps: dict[str, int] = {}
    for bare, c in occurrences:
        caps[bare.atom_name()] = max(caps.get(bare.atom_name(), 0), c)
    for bare, _ in occurrences:
        name = bare.atom_name()
        lb = ctx.exp_lower_bound(bare, caps[name])
        # 0 proves nothing, also under a negative fixed value; any bound
        # >= 1 counts, since an exponent the sieve cannot bound gets 0
        floor = cons.fixed[name] if name in cons.fixed else cons.lower_bounds.get(name, 0)
        if lb > max(floor, 0):
            cons = cons.with_lower_bound(name, lb)
    # a variable or symbol left without a bound gets 0 where the facts prove it
    for name in sorted(set().union(*(t.variables() for t in terms))):
        if name not in cons.fixed and name not in cons.lower_bounds and ctx.implied(Lin.var(name)):
            cons = cons.with_lower_bound(name, 0)
    return cons


# the exponent x + 1, named "x+1": a fixed value may be drawn for that name
_exps = st.one_of(
    st.builds(ExpExpr, _lins),
    st.builds(ExpExpr, _lins, st.sampled_from(SYMS), st.integers(-2, 2)),
    st.just(ExpExpr(Lin.var("x") + 1)),
)
_terms = st.builds(
    lambda coef, powers: Term(coef, tuple(Power(b, e) for b, e in powers)),
    st.sampled_from([1, -1, 2, -3, 4, 6, -9]),
    st.lists(st.tuples(st.sampled_from([2, 3, 4, 5, 6, 7, 10]), _exps), min_size=1, max_size=3),
)


def _solutions_or_error(terms, m, cons):
    try:
        return congruence_solutions(terms, m, cons, order_cap=60)
    except SieveError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(_contexts(), st.integers(-1, 5), st.lists(_terms, min_size=1, max_size=3), st.integers(2, 16), st.data())
def test_lazy_bounds_match_eager_bounds(ctx, low, terms, m, data):
    """The bounds the sieve proves as it reads them give the same solutions
    as bounds proved for every power up front, also for a fixed name that
    is an exponent's atom."""
    names = sorted({p.exp.atom_name() for t in terms for p in t.powers} | set(VARS + SYMS))
    fixed = data.draw(st.dictionaries(st.sampled_from(names), st.integers(-1, 5), max_size=2))
    ctx = replace(ctx.with_fact(Lin.var("x") + 1 - low), fixed=fixed)
    eager = _eager_sieve_constraints(ctx, terms, m)
    lazy = ctx.sieve_constraints(terms, m)
    assert _solutions_or_error(terms, m, lazy) == _solutions_or_error(terms, m, eager)
    assert dict(lazy.lower_bounds) == eager.lower_bounds


def test_normal_form_takes_terms_it_cannot_memoize():
    # a certificate may put a list where a symbol belongs: such a term cannot
    # be a memo key, and is normalized as if there were no memo
    ctx = Context(triple=None, k_min=1, excluded=(), equation_form="congruence")
    listed = ExpExpr(Lin.var("x"), [])
    assert ctx.normal_form([Term(3, (Power(1, listed),))]) == ctx.normal_form([Term.of(3)])
    with pytest.raises(ValueError, match="zero coefficient term"):
        ctx.normal_form([Term(0, (Power(2, listed),))])


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
