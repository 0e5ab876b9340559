"""Exhaustive exact enumeration of exponent solutions.

The ground-truth oracle of the package: every solution claim in the
corpus is reproduced by these searches using exact integer arithmetic
only.  Every form in `FORMS` is scanned over a two-exponent grid; the
third exponent never needs its own bound because the grid cell fixes it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

from .arith import is_perfect_power_of
from .record import Frozen
from .triples import Triple

__all__ = [
    "DegenerateBaseError",
    "FORMS",
    "Form",
    "SelfCheckError",
    "SearchReport",
    "check_instance",
    "find_solutions",
    "find_solutions_scaled",
    "scaled_bases",
]

BOUND_MAX = 1_000  # largest x_max / y_max: a search's work grows with x_max * y_max
# Largest power, in bits, a search may form: a base's bit length times its
# largest exponent.  It bounds the size of each cell's integers.
POWER_BITS_MAX = 1 << 14
# The general and eisenstein forms test a cell's sum against c^z modulo this
# prime, the largest below 2^64, before they check the sum exactly.  2 has
# order 61 modulo the Mersenne prime 2^61 - 1, which would pass every cell of
# 2^x + 2^y = 2^z with x = y mod 61; here 2 to 10 all have order over 2^61.
WORD_PRIME = (1 << 64) - 59


def __getattr__(name: str):
    # Nothing pools; the benchmark tracer (perfbench/tracing.py) still looks
    # this class up here with no default, so the lookup imports it (PEP 562).
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


class DegenerateBaseError(ValueError):
    """Raised for bases <= 1: with a base of 1 the equation collapses to a
    parametric family with a free exponent (Cao's counterexamples to the
    first Terai conjecture), so there is no finite solution set to report."""


class SelfCheckError(RuntimeError):
    """A reported solution failed exact re-substitution into its equation.

    This is a bug in the scan, not bad input.  It is raised, not asserted,
    so the check also runs under python -O."""


def _index_powers(b: int, c: int, modulus: int, y_max: int,
                  square: bool) -> dict[int, list[tuple[int, int, int, int]]]:
    # b^y mod modulus -> (y, b^y mod WORD_PRIME, zb, c^zb mod WORD_PRIME), y
    # ascending, for the ceiling zb: the least with c^zb above b^y, or above its square
    ys_of: dict[int, list[tuple[int, int, int, int]]] = {}
    by, cz, zb, cz_mod = 1, 1, 0, 1  # cz = c^zb
    for y in range(1, y_max + 1):
        by *= b
        top = by * by if square else by
        while cz <= top:
            cz, zb, cz_mod = cz * c, zb + 1, cz_mod * c % WORD_PRIME
        ys_of.setdefault(by % modulus, []).append((y, by % WORD_PRIME, zb, cz_mod))
    return ys_of


def _scan_general(bases: tuple[int, ...], x_max: int, y_max: int) -> list[tuple[int, int, int]]:
    # The y are indexed by b^y mod c^2, each with its ceiling: the least z
    # with c^z above b^y.  A solution with z = 1 has a^x + b^y = c, so both
    # powers are below c: row x with a^x < c reads the y at c - a^x whose
    # ceiling is 1.  Those b^y are below c, so each is its own residue.
    # Every other solution has z >= 2, so c^2 divides a^x + b^y: row x looks
    # only at the y whose residue is -a^x mod c^2.  No cell with both powers
    # below c is among those, as its sum is below 2c <= c^2.  The sum is at
    # most twice max(a^x, b^y), so c^z is above that max and c^(z-1) is
    # not: z is the larger of the two sides' ceilings.  A cell whose sum
    # differs from c^z modulo WORD_PRIME is no solution; only the rest are
    # checked exactly, with b^y formed again.
    a, b, c = bases
    c2 = c * c
    ys_of = _index_powers(b, c, c2, y_max, False)
    out = []
    ax = a
    cz, za, cz_mod = 1, 0, 1  # c^za for the ceiling za of a^x, advanced only on rows with candidates
    for x in range(1, x_max + 1):
        if ax < c:
            out += [(x, y, 1) for y, _, zb, _ in ys_of.get(c - ax, ()) if zb == 1]
        ys = ys_of.get(-ax % c2)
        if ys:
            while cz <= ax:
                cz, za, cz_mod = cz * c, za + 1, cz_mod * c % WORD_PRIME
            ax_mod = ax % WORD_PRIME
            for y, by_mod, zb, czb_mod in ys:
                if (ax_mod + by_mod) % WORD_PRIME == (cz_mod if za >= zb else czb_mod):
                    z = is_perfect_power_of(ax + b**y, c)
                    if z is not None:
                        out.append((x, y, z))
        ax *= a
    return out


def _holds_general(bases: tuple[int, ...], sol: tuple[int, ...]) -> bool:
    (a, b, c), (x, y, z) = bases, sol
    return a**x + b**y == c**z


# The squares modulo 64, 63, 65 and 11: 1 in 119 residues modulo the product
# is a square modulo all four, where one table modulo it would hold 2.9 M entries.
_SQ64, _SQ63, _SQ65, _SQ11 = (frozenset(i * i % q for i in range(q)) for q in (64, 63, 65, 11))


def _scan_terai(bases: tuple[int, ...], m_max: int, n_max: int) -> list[tuple[int, int, int]]:
    # x >= 1 is the integer square root of c^n - b^m, so row m starts at the
    # least n with c^n > b^m.  A cell whose difference is no square modulo
    # 64, 63, 65 or 11 is no solution, which residues modulo their product
    # decide; only the rest take an exact root.
    b, c = bases
    q = 64 * 63 * 65 * 11
    cns = [c**n for n in range(n_max + 1)]
    cn_res = [cn % q for cn in cns]
    out = []
    bm, n0 = 1, 1
    for m in range(1, m_max + 1):
        bm *= b
        while n0 <= n_max and cns[n0] <= bm:
            n0 += 1
        bm_res = bm % q
        for n in range(n0, n_max + 1):
            r = (cn_res[n] - bm_res) % q
            if r & 63 in _SQ64 and r % 63 in _SQ63 and r % 65 in _SQ65 and r % 11 in _SQ11:
                d = cns[n] - bm
                x = math.isqrt(d)
                if x * x == d:
                    out.append((x, m, n))
    return out


def _holds_terai(bases: tuple[int, ...], sol: tuple[int, ...]) -> bool:
    (b, c), (x, m, n) = bases, sol
    return x * x + b**m == c**n


def _scan_eisenstein(bases: tuple[int, ...], x_max: int, y_max: int) -> list[tuple[int, int, int]]:
    # As the general scan, with A = a^x, B = b^y and the sum A^2 + A*B + B^2,
    # but indexed mod c: the sum is above 1, so c divides it, and row x
    # looks only at the y whose residue r has A^2 + A*r + r^2 = 0 mod c.
    # The precondition makes c >= 4 and the sum lies in (M, 3M] for
    # M = max(A^2, B^2), so z is the least with c^z > M, the larger of the
    # two sides' ceilings.
    a, b, c = bases
    ys_of = _index_powers(b, c, c, y_max, True)
    out = []
    ax = a
    cz, za, cz_mod = 1, 0, 1  # c^za for the ceiling za of A^2, advanced only on rows with candidates
    for x in range(1, x_max + 1):
        ra = ax % c
        rs = [r for r in ys_of if (ra * ra + ra * r + r * r) % c == 0]
        if rs:
            a2 = ax * ax
            while cz <= a2:
                cz, za, cz_mod = cz * c, za + 1, cz_mod * c % WORD_PRIME
            ax_mod = ax % WORD_PRIME
            for r in rs:
                for y, by_mod, zb, czb_mod in ys_of[r]:
                    s_mod = (ax_mod * (ax_mod + by_mod) + by_mod * by_mod) % WORD_PRIME
                    if s_mod == (cz_mod if za >= zb else czb_mod):
                        by = b**y
                        z = is_perfect_power_of(a2 + ax * by + by * by, c)
                        if z is not None:
                            out.append((x, y, z))
        ax *= a
    return out


def _holds_eisenstein(bases: tuple[int, ...], sol: tuple[int, ...]) -> bool:
    (a, b, c), (x, y, z) = bases, sol
    return a ** (2 * x) + a**x * b**y + b ** (2 * y) == c**z


def _eisenstein_condition(bases: tuple[int, ...]) -> None:
    # the Eisenstein analogue of the Pythagorean condition behind pythag
    a, b, c = bases
    if a * a + a * b + b * b != c * c:
        raise ValueError(f"{bases} violates a^2 + a*b + b^2 = c^2")


class Form(Frozen):
    """One equation shape: how to scan its grid, re-check a solution and
    print it.

    The grid's first exponent raises the first base and its second the
    second base, to at most `power` times the exponent.
    """

    _fields = ("letters", "scan", "holds", "equation", "precondition", "exponents", "power")

    def __init__(
        self,
        letters: str,  # the names of the bases, in order, as the template uses them
        scan: Callable[[tuple[int, ...], int, int], list[tuple[int, int, int]]],  # bases, x_max, y_max
        holds: Callable[[tuple[int, ...], tuple[int, ...]], bool],
        equation: str,  # str.format template over the base letters
        precondition: Callable[[tuple[int, ...]], None] | None = None,  # raises ValueError
        exponents: tuple[int, ...] = (0, 1, 2),  # where a solution holds exponents, grid pair first
        power: int = 1,
    ):
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "scan", scan)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "precondition", precondition)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "power", power)


FORMS = {
    "general": Form("abc", _scan_general, _holds_general, "{a}^x + {b}^y = {c}^z"),
    "terai": Form("bc", _scan_terai, _holds_terai, "x^2 + {b}^m = {c}^n", exponents=(1, 2)),
    "eisenstein": Form("abc", _scan_eisenstein, _holds_eisenstein, "{a}^2x + {a}^x*{b}^y + {b}^2y = {c}^z",
                       precondition=_eisenstein_condition, power=2),
}


class SearchReport(Frozen):
    """One search's answer; == leaves out `elapsed`."""

    _fields = ("form", "bases", "x_max", "y_max", "solutions", "candidates", "elapsed")
    _compared = _fields[:-1]

    def __init__(
        self,
        form: str,
        bases: tuple[int, ...],
        x_max: int,
        y_max: int,
        solutions: tuple[tuple[int, ...], ...],  # sorted lexicographically
        candidates: int,
        elapsed: float = 0.0,
    ):
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "y_max", y_max)
        object.__setattr__(self, "solutions", solutions)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "elapsed", elapsed)

    def solution_set(self) -> set[tuple[int, ...]]:
        return set(self.solutions)

    def describe(self) -> str:
        spec = FORMS[self.form]
        return spec.equation.format(**dict(zip(spec.letters, self.bases)))


def check_instance(bases: tuple[int, ...], x_max: int, y_max: int, form: str) -> Form:
    """Raise for an instance with no finite bounded answer; return its form."""
    spec = FORMS[form]
    if max(x_max, y_max) > BOUND_MAX:
        raise ValueError(f"bounds must be <= {BOUND_MAX}")
    for b in bases:
        if b <= 1:
            raise DegenerateBaseError(
                f"base {b} rejected: bases of 1 generate infinite parametric "
                f"solution families, so bounded search is meaningless"
            )
    if spec.precondition:
        spec.precondition(bases)
    if x_max < 1 or y_max < 1:
        raise ValueError("bounds must be >= 1")
    bits = spec.power * max(x_max * bases[0].bit_length(), y_max * bases[1].bit_length())
    if bits > POWER_BITS_MAX:
        raise ValueError(f"the grid forms a {bits}-bit power, above the limit of {POWER_BITS_MAX} bits")
    return spec


def find_solutions(
    bases: tuple[int, ...],
    x_max: int = 30,
    y_max: int = 30,
    form: str = "general",
) -> SearchReport:
    """All solutions of the form's equation with its grid exponents in
    [1, x_max] x [1, y_max]; for the general form, all (x, y, z) with
    a^x + b^y == c^z.  The third exponent is recovered per cell exactly,
    so it needs no bound and completeness over the grid is unconditional.
    """
    bases = tuple(bases)
    spec = check_instance(bases, x_max, y_max, form)
    start = time.perf_counter()
    solutions = tuple(sorted(spec.scan(bases, x_max, y_max)))
    elapsed = time.perf_counter() - start
    report = SearchReport(form, bases, x_max, y_max, solutions, x_max * y_max, elapsed)
    for sol in solutions:  # self-check by exact substitution
        if not spec.holds(bases, sol):
            raise SelfCheckError(f"{sol} does not satisfy {report.describe()}")
    return report


def scaled_bases(t: Triple, k: int) -> tuple[int, int, int]:
    """The bases (kU, kV, kW) of the scaled equation for a triple."""
    if k < 1:
        raise ValueError(f"scale k must be >= 1, got {k}")
    return (k * t.u, k * t.v, k * t.w)


def find_solutions_scaled(t: Triple, k: int, x_max: int = 30, y_max: int = 30) -> SearchReport:
    """Search (kU)^x + (kV)^y = (kW)^z for the given triple and scale."""
    return find_solutions(scaled_bases(t, k), x_max, y_max)

