"""Structural lemmas for scaled Pythagorean exponential equations.

Covers the ordering classification of candidate solutions, the classical
acceptance filters (Deng-Cohen, Miyazaki parity, Le's trichotomy), and
the k-valuation factoring that rewrites (kU)^x + (kV)^y = (kW)^z into a
coprime reduced equation plus linear exponent relations.
"""

from __future__ import annotations

import math
from enum import Enum

from .arith import factorize, radical, valuation
from .record import Frozen, replace
from .symbolic import ExpExpr, Lin, Term
from .triples import Triple

__all__ = [
    "OrderingClass",
    "KFactoredForm",
    "ValuationRelation",
    "ReductionError",
    "classify_ordering",
    "deng_cohen_filter",
    "miyazaki_parity_check",
    "le_theorem_check",
    "factor_k",
    "factor_k_symbolic",
    "isolated_base",
    "DEFAULT_SYMBOLS",
]


class ReductionError(ValueError):
    pass


class OrderingClass(Enum):
    ALL_EQUAL = "all-equal"
    Z_GE_MAX = "z-ge-max"
    HAS_TIE = "has-tie"
    CASE_1_1 = "case-1-1"  # z < x < y
    CASE_1_2 = "case-1-2"  # x < z < y
    CASE_2_1 = "case-2-1"  # z < y < x
    CASE_2_2 = "case-2-2"  # y < z < x

    def is_strict(self) -> bool:
        return self in _STRICT_ORDER

    def ascending(self) -> tuple[str, str, str]:
        """The exponent names from smallest to largest (strict classes only)."""
        return _STRICT_ORDER[self]


# exponent names sorted ascending for each strict class
_STRICT_ORDER = {
    OrderingClass.CASE_1_1: ("z", "x", "y"),
    OrderingClass.CASE_1_2: ("x", "z", "y"),
    OrderingClass.CASE_2_1: ("z", "y", "x"),
    OrderingClass.CASE_2_2: ("y", "z", "x"),
}


def classify_ordering(sol: tuple[int, int, int]) -> OrderingClass:
    """Total classification of (x, y, z) into the seven ordering classes.

    Precedence: all three equal, then z >= max{x, y}, then any remaining
    tie, then the four strict orders (all of which have z < max{x, y}).
    """
    x, y, z = sol
    if min(sol) < 1:
        raise ReductionError(f"exponents must be positive: {sol}")
    if x == y == z:
        return OrderingClass.ALL_EQUAL
    if z >= max(x, y):
        return OrderingClass.Z_GE_MAX
    if x == y or x == z or y == z:
        return OrderingClass.HAS_TIE
    if x < y:
        return OrderingClass.CASE_1_1 if z < x else OrderingClass.CASE_1_2
    return OrderingClass.CASE_2_1 if z < y else OrderingClass.CASE_2_2


def deng_cohen_filter(sol: tuple[int, int, int]) -> tuple[bool, str]:
    """Accepts unless z >= max{x, y} with sol != (2, 2, 2).

    Any rejected solution from a pythag-exp search contradicts the
    Deng-Cohen lemma, i.e. flags a bug or a genuine counterexample.
    """
    x, y, z = sol
    if sol != (2, 2, 2) and z >= max(x, y):
        return False, f"z = {z} >= max(x, y) but solution is not (2, 2, 2)"
    return True, ""


def miyazaki_parity_check(sol: tuple[int, int, int]) -> bool:
    """For all-even (x, y, z): x/2, y/2 and z/2 must all be odd."""
    if any(e % 2 for e in sol):
        raise ReductionError(f"parity check needs all-even exponents, got {sol}")
    return all((e // 2) % 2 == 1 for e in sol)


def le_theorem_check(t: Triple, k: int, sol: tuple[int, int, int]) -> tuple[bool, str]:
    """Le's trichotomy for a solution other than (2, 2, 2):

      (i)   max{x,y} > min{x,y} > z, P(k) | W and P(k) < P(W),
      (ii)  x > y > z and P(k) | V,
      (iii) y > z > x and P(k) | U.

    Accepts iff one of the three holds verbatim.
    """
    if sol == (2, 2, 2):
        raise ReductionError("the check applies to solutions other than (2, 2, 2)")
    x, y, z = sol
    pk = radical(k)
    if max(x, y) > min(x, y) > z and t.w % pk == 0 and pk < radical(t.w):
        return True, "i"
    if x > y > z and t.v % pk == 0:
        return True, "ii"
    if y > z > x and t.u % pk == 0:
        return True, "iii"
    return False, "no condition of the trichotomy holds"


class ValuationRelation(Frozen):
    """val * lhs == rhs, with val the p-adic valuation of k (an integer for
    concrete k, a symbol name otherwise) and lhs, rhs linear forms in the
    exponents."""

    _fields = ("prime", "val", "lhs", "rhs")

    def __init__(self, prime: int, val: int | str, lhs: Lin, rhs: Lin):
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __str__(self) -> str:
        return f"{self.val}*({self.lhs}) = {self.rhs}"


class KFactoredForm(Frozen):
    """Result of dividing out the smallest k-power and matching valuations.

    With exponents ordered e1 < e2 < e3 and bases arranged accordingly,
    the equation becomes  B1^e1 = k^(e2-e1) * bracket.  Primes of B1 that
    divide k force the relations below and the cofactor n1 of k collapses
    to 1; what remains is the coprime reduced equation."""

    _fields = (
        "triple", "ordering", "cofactor", "relations",
        "cross_relations", "reduced_lhs", "reduced_rhs", "contradiction",
    )

    def __init__(
        self,
        triple: Triple,
        ordering: OrderingClass,
        cofactor: int | str,
        relations: tuple[ValuationRelation, ...],
        cross_relations: tuple[Lin, ...],  # each == 0, e.g. r - 2q
        reduced_lhs: tuple[Term, ...],
        reduced_rhs: tuple[Term, ...],
        contradiction: str | None = None,
    ):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "cofactor", cofactor)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "cross_relations", cross_relations)
        object.__setattr__(self, "reduced_lhs", reduced_lhs)
        object.__setattr__(self, "reduced_rhs", reduced_rhs)
        object.__setattr__(self, "contradiction", contradiction)


DEFAULT_SYMBOLS = {2: "r", 3: "r", 5: "s", 11: "q", 101: "s"}

_SIGN_OF = {"x": 1, "y": 1, "z": -1}


def _base(t: Triple, exponent: str) -> int:
    return {"x": t.u, "y": t.v, "z": t.w}[exponent]


def isolated_base(t: Triple, ordering: OrderingClass) -> int:
    """B1, the base under the smallest exponent of a strict ordering."""
    return _base(t, ordering.ascending()[0])


def _arrangement(t: Triple, ordering: OrderingClass):
    e1, e2, e3 = ordering.ascending()
    # bracket = B2^e2 + sigma * B3^e3 * k^(e3-e2); sigma is +1 exactly when
    # the two larger exponents sit on the legs (B1 = W), else -1.
    sigma = 1 if _SIGN_OF[e2] == _SIGN_OF[e3] else -1
    return e1, e2, e3, _base(t, e1), _base(t, e2), _base(t, e3), sigma


def _factor_k_core(
    t: Triple,
    ordering: OrderingClass,
    vals: dict[int, int | str],
    cofactor: int | str,
) -> KFactoredForm:
    e1, e2, e3, b1, b2, b3, sigma = _arrangement(t, ordering)
    d21 = Lin.var(e2) - Lin.var(e1)
    d32 = Lin.var(e3) - Lin.var(e2)
    b1_fact = factorize(b1)

    pattern = {p: v for p, v in vals.items() if b1_fact.exponent_of(p) > 0}
    if not pattern:
        contradiction = None if cofactor == 1 else "k-coprime-to-isolated-base"
        k_powers = []
    else:
        contradiction = None if cofactor in (1, "n1") else "cofactor-exceeds-one"
        k_powers = [
            (p, ExpExpr(d32 * v, None) if isinstance(v, int) else ExpExpr(d32, v))
            for p, v in sorted(pattern.items())
        ]

    relations = []
    for p, v in sorted(pattern.items()):
        if math.gcd(p, b2) != 1 or math.gcd(p, b3) != 1:
            raise ReductionError(f"triple is not pairwise coprime at prime {p}")
        rhs = Lin.var(e1) * b1_fact.exponent_of(p)
        relations.append(ValuationRelation(p, v, d21, rhs))

    cross: list[Lin] = []
    sym_rel = [r for r in relations if isinstance(r.val, str)]
    for i in range(len(sym_rel)):
        for j in range(i + 1, len(sym_rel)):
            a, b = sym_rel[i], sym_rel[j]
            # a.val * wb == b.val * wa  where wa, wb are the B1-valuations
            wa = b1_fact.exponent_of(a.prime)
            wb = b1_fact.exponent_of(b.prime)
            g = math.gcd(wa, wb)
            cross.append(Lin.of(0, **{a.val: wb // g, b.val: -(wa // g)}))

    # reduced equation: leftover B1 primes = B2^e2 + sigma*B3^e3*k_pattern^(e3-e2)
    leftover = [
        (p, ExpExpr(Lin.var(e1) * e)) for p, e in b1_fact if p not in pattern
    ]
    if pattern:
        lhs = [Term.of(1, *leftover)]
        rhs = [
            Term.of(1, (b2, ExpExpr(Lin.var(e2)))),
            Term.of(sigma, (b3, ExpExpr(Lin.var(e3))), *k_powers),
        ]
    else:
        # k plays no role (it must be 1): the primitive equation itself
        lhs = [Term.of(1, (b1, ExpExpr(Lin.var(e1))))]
        rhs = [
            Term.of(1, (b2, ExpExpr(Lin.var(e2)))),
            Term.of(sigma, (b3, ExpExpr(Lin.var(e3)))),
        ]
    return KFactoredForm(
        triple=t,
        ordering=ordering,
        cofactor=cofactor,
        relations=tuple(relations),
        cross_relations=tuple(cross),
        reduced_lhs=tuple(lhs),
        reduced_rhs=tuple(rhs),
        contradiction=contradiction,
    )


def factor_k(t: Triple, k: int, ordering: OrderingClass) -> KFactoredForm:
    """Factor a concrete scale k out of the equation under a strict ordering.

    Records the relations the valuations of k at the primes of B1 force,
    and the reduced equation; flags the contradiction when k's shape
    already rules out solutions in this ordering.
    """
    if not ordering.is_strict():
        raise ReductionError(f"k-factoring applies to strict orderings, not {ordering.value}")
    if k < 1:
        raise ReductionError(f"k must be >= 1, got {k}")
    b1 = isolated_base(t, ordering)
    rest = k
    vals: dict[int, int | str] = {}
    for p in factorize(b1).primes():
        e, _ = valuation(p, k)
        if e:
            vals[p] = e
            rest //= p**e
    return _factor_k_core(t, ordering, vals, rest)


def factor_k_symbolic(
    t: Triple,
    pattern: set[int],
    ordering: OrderingClass,
) -> KFactoredForm:
    """Factor a symbolic k = prod(p^sym_p) * n1 with the given primes of
    the isolated base dividing k (each with valuation >= 1) and n1 coprime
    to that base.  An empty pattern is the gcd(k, B1) = 1 branch."""
    if not ordering.is_strict():
        raise ReductionError(f"k-factoring applies to strict orderings, not {ordering.value}")
    b1 = isolated_base(t, ordering)
    b1_primes = set(factorize(b1).primes())
    if not pattern <= b1_primes:
        raise ReductionError(f"pattern {pattern} not within primes {b1_primes} of base {b1}")
    used: dict[int, str] = {}
    for p in sorted(pattern):
        s = DEFAULT_SYMBOLS.get(p)
        if s is None or s in used.values():
            s = f"v{p}"
        used[p] = s
    vals: dict[int, int | str] = dict(used)
    form = _factor_k_core(t, ordering, vals, "n1" if pattern else 1)
    if not pattern:
        # gcd(k, B1) = 1: k^(e2-e1) divides B1^e1 forces k = 1
        form = replace(form, cofactor="k", contradiction="k-coprime-to-isolated-base")
    return form
