"""Verification context: the facts accumulated along one proof branch.

Holds the current (rewritten) equations, linear inequalities, residue
constraints on variables and exponent atoms, and the valuation-pattern
bookkeeping.  Linear implications are decided by Fourier-Motzkin
elimination with gcd rounding, so integer-only consequences such as
"2*z1 - y - 1 >= 0 and y even imply 2*z1 - y - 2 >= 0" are available.

Every context of one verification shares one VerificationMemo, so each
Fourier-Motzkin problem is decided, and each term normalized, once per
verification, and never carried over to the next.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

from ..arith import factorize_bounded
from ..record import FRESH, Frozen, Record, replace
from ..reduction import OrderingClass
from ..sieve import RESIDUE_MODULUS_MAX, merge_residue, refine_residues
from ..symbolic import ExpExpr, Lin, Power, Term
from ..triples import Triple

__all__ = [
    "RESIDUE_MODULUS_MAX",
    "Context",
    "DivisibilityFact",
    "ProvenInequality",
    "VerificationMemo",
    "refine_residues",
]

Fact = tuple[tuple[tuple[str, int], ...], int]  # (coeffs, const): sum + const >= 0

_FM_FACT_CAP = 4000


def _normalize_fact(coeffs: dict[str, int], const: int) -> Fact:
    cs = {v: c for v, c in coeffs.items() if c}
    if cs:
        g = math.gcd(*[abs(c) for c in cs.values()])
        if g > 1:
            cs = {v: c // g for v, c in cs.items()}
            const = const // g  # floor: integer strengthening
    return (tuple(sorted(cs.items())), const)


def _eliminate(facts: list[Fact], var: str) -> list[Fact]:
    lows, ups, rest = [], [], []
    for cs, d in facts:
        c = dict(cs).get(var, 0)
        if c > 0:
            lows.append((dict(cs), d, c))
        elif c < 0:
            ups.append((dict(cs), d, -c))
        else:
            rest.append((cs, d))
    for lc, ld, a in lows:
        for uc, ud, b in ups:
            nc = {}
            for v in set(lc) | set(uc):
                nc[v] = b * lc.get(v, 0) + a * uc.get(v, 0)
            nc.pop(var, None)
            rest.append(_normalize_fact(nc, b * ld + a * ud))
    return list(dict.fromkeys(rest))


def _infeasible(facts: Sequence[Fact]) -> bool:
    """Does Fourier-Motzkin elimination refute the normalized facts?"""
    while True:
        if any(not cs and d < 0 for cs, d in facts):
            return True
        variables = sorted({v for cs, _ in facts for v, _ in cs})
        if not variables:
            return False
        facts = _eliminate(facts, variables[0])
        if len(facts) > _FM_FACT_CAP:
            return False  # give up: treat as not provably infeasible


def _term_form(t: Term) -> tuple:
    """Canonical form of one term for exact comparison.

    The coefficient and integer bases are split into primes, so 2*2^(2x-1),
    4^x*5^x and 20^x all normalize through their prime decompositions.  The
    integers come from a certificate, so they are factored by trial division
    only (factorize_bounded)."""
    if t.coef == 0:
        raise ValueError("zero coefficient term")
    sign = 1 if t.coef > 0 else -1
    plain: dict[int, Lin] = {}
    symbolic: dict[tuple[int, str, tuple], tuple[Lin, int, int]] = {}
    for prime, e in factorize_bounded(abs(t.coef)):
        plain[prime] = plain.get(prime, Lin.const_of(0)) + e
    for p in t.powers:
        e = p.exp
        if p.base == 1:
            continue
        for prime, mult in factorize_bounded(p.base):
            if e.sym is None:
                plain[prime] = plain.get(prime, Lin.const_of(0)) + e.lin * mult
            else:
                key = (prime, e.sym, e.lin.key())
                lin, off, count = symbolic.get(key, (e.lin, 0, 0))
                symbolic[key] = (lin, off + e.off * mult, count + mult)
    pows = [(b, ExpExpr(lin).key()) for b, lin in plain.items() if lin.key() != ((), 0)]
    pows += [
        (prime, ExpExpr(lin * count, sym, off).key())
        for (prime, sym, _), (lin, off, count) in symbolic.items()
    ]
    return (sign, tuple(sorted(pows)))


class VerificationMemo(Record):
    """Answers one verification reuses across its contexts.

    Created with the root Context and handed on by replace(), so every
    context of one verification shares it and no two verifications do.
    """

    _fields = ("refuted", "term_forms")

    def __init__(self, refuted: dict = FRESH, term_forms: dict = FRESH):
        self.refuted = {} if refuted is FRESH else refuted  # Fourier-Motzkin problem -> infeasible?
        self.term_forms = {} if term_forms is FRESH else term_forms  # Term -> _term_form(Term)


class DivisibilityFact(Frozen):
    _fields = ("divisor", "side", "p", "q")

    def __init__(self, divisor: Term, side: str, p: Power, q: Power):
        # side "-" or "+": divisor divides P - Q or P + Q
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def substituted(self, var: str, repl: Lin) -> "DivisibilityFact":
        return DivisibilityFact(
            self.divisor.substitute(var, repl),
            self.side,
            Power(self.p.base, self.p.exp.substitute(var, repl)),
            Power(self.q.base, self.q.exp.substitute(var, repl)),
        )


class ProvenInequality(Frozen):
    _fields = ("lhs", "rhs", "strict")

    def __init__(self, lhs: tuple[Term, ...], rhs: tuple[Term, ...], strict: bool):
        # both sides in context variables
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "strict", strict)


class Context(Frozen):
    """The facts of one proof branch.  Each dict left out is a new empty
    one, and a left-out memo a new VerificationMemo; == and the repr leave
    the memo out."""

    _fields = (
        "triple", "k_min", "excluded", "equation_form", "ordering", "equations", "facts", "residues",
        "syms", "pattern", "divisibilities", "fixed", "conflict", "memo",
    )
    _compared = _shown = _fields[:-1]

    def __init__(
        self,
        triple: Triple | None,
        k_min: int,
        excluded: tuple[tuple[int, int, int], ...],
        equation_form: str,
        ordering: OrderingClass | None = None,
        equations: dict = FRESH,  # id -> (lhs terms, rhs terms)
        facts: tuple[Fact, ...] = (),
        residues: dict = FRESH,  # name -> (mod, frozenset)
        syms: tuple[str, ...] = (),
        pattern: tuple[int, ...] | None = None,  # primes of k dividing the isolated base
        divisibilities: tuple[DivisibilityFact, ...] = (),
        fixed: dict = FRESH,  # name -> pinned integer value
        conflict: str | None = None,
        memo: VerificationMemo = FRESH,
    ):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "excluded", excluded)
        object.__setattr__(self, "equation_form", equation_form)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "equations", {} if equations is FRESH else equations)
        object.__setattr__(self, "facts", facts)
        object.__setattr__(self, "residues", {} if residues is FRESH else residues)
        object.__setattr__(self, "syms", syms)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "divisibilities", divisibilities)
        object.__setattr__(self, "fixed", {} if fixed is FRESH else fixed)
        object.__setattr__(self, "conflict", conflict)
        object.__setattr__(self, "memo", VerificationMemo() if memo is FRESH else memo)

    # -- construction helpers --------------------------------------------------

    def with_fact(self, lin: Lin) -> "Context":
        return replace(self, facts=self.facts + (_normalize_fact(lin.as_dict(), lin.const),))

    def with_equation(self, eq_id: str, lhs, rhs) -> "Context":
        eqs = dict(self.equations)
        eqs[eq_id] = (tuple(lhs), tuple(rhs))
        return replace(self, equations=eqs)._parity_closure()

    def drop_equation(self, eq_id: str) -> "Context":
        eqs = dict(self.equations)
        eqs.pop(eq_id, None)
        return replace(self, equations=eqs)

    def with_residue(self, name: str, modulus: int, allowed) -> "Context":
        return self._restricted(name, modulus, allowed)._parity_closure()

    def _restricted(self, name: str, modulus: int, allowed) -> "Context":
        # the first name whose residues run out is the branch's conflict
        res = merge_residue(self.residues, name, modulus, allowed)
        conflict = name if self.conflict is None and not res[name][1] else self.conflict
        return replace(self, residues=res, conflict=conflict)

    def with_syms(self, syms) -> "Context":
        return replace(self, syms=tuple(dict.fromkeys(self.syms + tuple(syms))))

    def with_divisibility(self, fact: DivisibilityFact) -> "Context":
        return replace(self, divisibilities=self.divisibilities + (fact,))

    # -- linear implication ------------------------------------------------------

    def _residue_substitution(self) -> dict[str, tuple[int, int]]:
        return {
            name: (m, next(iter(allowed)))
            for name, (m, allowed) in self.residues.items()
            if len(allowed) == 1
        }

    def _transform(self, coeffs: dict[str, int], const: int, subst) -> Fact:
        nc: dict[str, int] = {}
        nd = const
        for v, c in coeffs.items():
            if v in subst:
                m, r = subst[v]
                nc[f"{v}//{m}"] = nc.get(f"{v}//{m}", 0) + c * m
                nd += c * r
            else:
                nc[v] = nc.get(v, 0) + c
        return _normalize_fact(nc, nd)

    @cached_property
    def _system(self) -> tuple[tuple[Fact, ...], dict]:
        # the normalized facts every implied() call on this context starts
        # from; the context is frozen and replace() makes a new object, so
        # the cache cannot go stale
        subst = self._residue_substitution()
        facts = [self._transform(dict(cs), d, subst) for cs, d in self.facts]
        for s in self.syms:
            facts.append(self._transform({s: 1}, -1, subst))
        return tuple(facts), subst

    def implied(self, lin: Lin, extra: tuple[Lin, ...] = ()) -> bool:
        """Is lin >= 0 forced by the accumulated facts (integer reasoning)?

        extra are further facts f >= 0, taken as with_fact would add them,
        without building the context that holds them.

        A fact with the query's normalized coefficients and a constant no
        larger than the query's implies it at once; elimination would
        refute that pair, so only the other queries are eliminated."""
        if self.conflict:
            return True
        facts, subst = self._system
        if extra:
            added = [_normalize_fact(f.as_dict(), f.const) for f in extra]
            n = len(self.facts)  # _system lists the facts, then the symbols
            facts = (*facts[:n], *(self._transform(dict(cs), d, subst) for cs, d in added), *facts[n:])
        coeffs, const = self._transform(lin.as_dict(), lin.const, subst)
        if any(cs == coeffs and d <= const for cs, d in facts):
            return True
        # -lin - 1 >= 0, normalized: floor((-c - 1) / g) is -floor(c / g) - 1
        problem = (*facts, (tuple((v, -c) for v, c in coeffs), -const - 1))
        refuted = self.memo.refuted
        if problem not in refuted:
            refuted[problem] = _infeasible(problem)
        return refuted[problem]

    def exp_at_least(self, e: ExpExpr, bound: int) -> bool:
        """Is the exponent expression provably >= bound?"""
        if e.sym is None:
            return self.implied(e.lin - bound)
        if e.sym not in self.syms:
            return False
        target = max(bound - e.off, 1)
        return self.implied(e.lin - target)

    def exp_lower_bound(self, e: ExpExpr, cap: int) -> int:
        """Largest b <= cap with the exponent provably >= b (0 if none).

        b doubles while it is proved, then a binary search runs between the
        last b proved and the first refuted: a proof of b is a proof of
        every smaller bound, and a cap far above the answer costs about
        2 * log2(answer) proofs, not one per value."""
        lo, b = 0, 1  # lo is proved, or 0
        while b <= cap and self.exp_at_least(e, b):
            lo, b = b, 2 * b
        hi = min(b, cap + 1)  # refuted, or past the cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.exp_at_least(e, mid):
                lo = mid
            else:
                hi = mid
        return lo

    # -- term comparison ---------------------------------------------------------

    def normal_form(self, terms) -> tuple:
        """Canonical multiset form of a term list for exact comparison."""
        forms = self.memo.term_forms
        out = []
        for t in terms:
            try:
                form = forms[t]
            except KeyError:
                form = forms[t] = _term_form(t)
            except TypeError:  # a term holding an unhashable payload value
                form = _term_form(t)
            out.append(form)
        return tuple(sorted(out))

    def terms_equal(self, a, b) -> bool:
        return self.normal_form(a) == self.normal_form(b)

    # -- atoms and parity --------------------------------------------------------

    def atom_registry(self) -> dict[str, ExpExpr]:
        atoms: dict[str, ExpExpr] = {}
        terms = [t for lhs, rhs in self.equations.values() for t in (*lhs, *rhs)]
        for t in terms + [f.divisor for f in self.divisibilities]:
            for p in t.powers:
                if p.exp.sym is not None:
                    bare = ExpExpr(p.exp.lin, p.exp.sym)
                    atoms[bare.atom_name()] = bare
        return atoms

    def parity_of_lin(self, lin: Lin) -> int | None:
        total = lin.const % 2
        for v, c in lin.coeffs:
            if c % 2 == 0:
                continue
            par = self.parity_of_name(v)
            if par is None:
                return None
            total = (total + par) % 2
        return total

    def parity_of_name(self, name: str) -> int | None:
        if name in self.residues:
            m, allowed = self.residues[name]
            if m % 2 == 0:
                pars = {a % 2 for a in allowed}
                if len(pars) == 1:
                    return next(iter(pars))
        return None

    def _parity_closure(self) -> "Context":
        # an exponent atom sym*(lin) is even whenever its linear part is
        ctx = self
        for name, e in self.atom_registry().items():
            if ctx.parity_of_lin(e.lin) == 0 and ctx.parity_of_name(name) != 0:
                ctx = ctx._restricted(name, 2, {0})
        return ctx

    # -- substitution --------------------------------------------------------------

    def substituted(self, var: str, stride: int, new_var: str) -> "Context":
        """Rewrite the whole context under var := stride * new_var."""
        registry = self.atom_registry()
        repl = Lin.var(new_var) * stride
        eqs = {
            eq_id: (
                tuple(t.substitute(var, repl) for t in lhs),
                tuple(t.substitute(var, repl) for t in rhs),
            )
            for eq_id, (lhs, rhs) in self.equations.items()
        }
        facts = []
        for cs, d in self.facts:
            nc = dict(cs)
            c = nc.pop(var, 0)
            if c:
                nc[new_var] = nc.get(new_var, 0) + c * stride
            facts.append(_normalize_fact(nc, d))
        res = {}
        for name, (m, allowed) in self.residues.items():
            if name == var:
                if m % stride == 0:
                    nm = m // stride
                    ns = frozenset(a // stride for a in allowed if a % stride == 0)
                    if nm >= 2:
                        res[new_var] = (nm, ns)
                continue
            if name in registry:
                new_name = registry[name].substitute(var, repl).atom_name()
                res[new_name] = (m, allowed)
            else:
                res[name] = (m, allowed)
        return replace(
            self,
            equations=eqs,
            facts=tuple(facts),
            residues=res,
            divisibilities=tuple(f.substituted(var, repl) for f in self.divisibilities),
        )._parity_closure()
