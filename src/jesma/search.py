"""Exhaustive exact enumeration of exponent solutions.

The ground-truth oracle of the package: every solution claim in the
corpus is reproduced by these searches using exact integer arithmetic
only.  The scan runs over the (x, y) grid; z never needs its own bound
because the sum a^x + b^y determines it.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .arith import is_perfect_power_of
from .triples import Triple

__all__ = [
    "DegenerateBaseError",
    "EquationInstance",
    "SelfCheckError",
    "SearchReport",
    "find_solutions",
    "find_solutions_scaled",
    "find_terai_solutions",
    "find_eisenstein_solutions",
]


class DegenerateBaseError(ValueError):
    """Raised for bases <= 1: with a base of 1 the equation collapses to a
    parametric family with a free exponent (Cao's counterexamples to the
    first Terai conjecture), so there is no finite solution set to report."""


class SelfCheckError(RuntimeError):
    """A reported solution failed exact re-substitution into its equation.

    This is a bug in the scan, not bad input.  It is raised, not asserted,
    so the check also runs under python -O."""


def _self_check(holds: bool, solution: tuple[int, int, int], equation: str) -> None:
    if not holds:
        raise SelfCheckError(f"{solution} does not satisfy {equation}")


@dataclass(frozen=True)
class EquationInstance:
    """A concrete equation to search: form is one of pythag-exp,
    general-exp, terai, eisenstein."""

    form: str
    a: int
    b: int
    c: int
    k: int = 1
    tag: str = ""

    def bases(self) -> tuple[int, int, int]:
        return (self.k * self.a, self.k * self.b, self.k * self.c)

    def describe(self) -> str:
        ka, kb, kc = self.bases()
        if self.form == "terai":
            return f"x^2 + {self.b}^m = {self.c}^n"
        if self.form == "eisenstein":
            return f"{self.a}^2x + {self.a}^x*{self.b}^y + {self.b}^2y = {self.c}^z"
        return f"{ka}^x + {kb}^y = {kc}^z"


@dataclass(frozen=True)
class SearchReport:
    instance: EquationInstance
    x_max: int
    y_max: int
    solutions: tuple[tuple[int, ...], ...]  # sorted lexicographically
    candidates: int
    elapsed: float = field(compare=False, default=0.0)

    def solution_set(self) -> set[tuple[int, ...]]:
        return set(self.solutions)


def _check_bases(*bases: int) -> None:
    for b in bases:
        if b <= 1:
            raise DegenerateBaseError(
                f"base {b} rejected: bases of 1 generate infinite parametric "
                f"solution families, so bounded search is meaningless"
            )


def _verify_general(a: int, b: int, c: int, x: int, y: int, z: int) -> bool:
    return a**x + b**y == c**z


def _scan_rows(a: int, b: int, c: int, xs: range, y_max: int) -> list[tuple[int, int, int]]:
    out = []
    ax = a ** xs.start
    for x in xs:
        by = b
        for y in range(1, y_max + 1):
            z = is_perfect_power_of(ax + by, c)
            if z is not None:
                out.append((x, y, z))
            by *= b
        ax *= a
    return out


def find_solutions(
    a: int,
    b: int,
    c: int,
    x_max: int = 30,
    y_max: int = 30,
    threads: int = 1,
    tag: str = "",
    form: str = "general-exp",
    k: int = 1,
) -> SearchReport:
    """All (x, y, z) with a^x + b^y == c^z, 1 <= x <= x_max, 1 <= y <= y_max.

    z is recovered per grid cell by exact repeated division, so no z bound
    is needed and completeness over the grid is unconditional.
    """
    _check_bases(a, b, c)
    if x_max < 1 or y_max < 1:
        raise ValueError("bounds must be >= 1")
    start = time.perf_counter()
    if threads > 1 and x_max >= 4:
        chunk = (x_max + threads - 1) // threads
        rows = [range(lo, min(lo + chunk, x_max + 1)) for lo in range(1, x_max + 1, chunk)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(_scan_rows, *zip(*((a, b, c, r, y_max) for r in rows)))
        found = [s for part in parts for s in part]
    else:
        found = _scan_rows(a, b, c, range(1, x_max + 1), y_max)
    solutions = tuple(sorted(set(found)))
    for x, y, z in solutions:  # self-check by exact substitution
        _self_check(_verify_general(a, b, c, x, y, z), (x, y, z), f"{a}^x + {b}^y = {c}^z")
    inst = EquationInstance(form, a // k, b // k, c // k, k, tag) if k > 1 else EquationInstance(form, a, b, c, 1, tag)
    return SearchReport(inst, x_max, y_max, solutions, x_max * y_max, time.perf_counter() - start)


def find_solutions_scaled(
    t: Triple, k: int, x_max: int = 30, y_max: int = 30, threads: int = 1
) -> SearchReport:
    """Search (kU)^x + (kV)^y = (kW)^z for the given triple and scale."""
    if k < 1:
        raise ValueError(f"scale k must be >= 1, got {k}")
    return find_solutions(
        k * t.u,
        k * t.v,
        k * t.w,
        x_max,
        y_max,
        threads=threads,
        tag=t.label(),
        form="pythag-exp",
        k=k,
    )


def find_terai_solutions(
    b: int, c: int, m_max: int = 10, n_max: int = 10
) -> set[tuple[int, int, int]]:
    """All (x, m, n) with x^2 + b^m == c^n inside the exponent bounds;
    x >= 1 is recovered by exact integer square root."""
    _check_bases(b, c)
    if m_max < 1 or n_max < 1:
        raise ValueError("bounds must be >= 1")
    out = set()
    cn = c
    for n in range(1, n_max + 1):
        bm = b
        for m in range(1, m_max + 1):
            d = cn - bm
            if d >= 1:
                x = math.isqrt(d)
                if x * x == d and x >= 1:
                    out.add((x, m, n))
            bm *= b
        cn *= c
    for x, m, n in out:
        _self_check(x * x + b**m == c**n, (x, m, n), f"x^2 + {b}^m = {c}^n")
    return out


def find_eisenstein_solutions(
    a: int, b: int, c: int, x_max: int = 10, y_max: int = 10
) -> set[tuple[int, int, int]]:
    """All (x, y, z) with a^2x + a^x*b^y + b^2y == c^z in bounds.

    Requires the Eisenstein condition a^2 + a*b + b^2 == c^2, mirroring
    how the Pythagorean condition underlies the pythag-exp form.
    """
    _check_bases(a, b, c)
    if a * a + a * b + b * b != c * c:
        raise ValueError(f"({a}, {b}, {c}) violates a^2 + a*b + b^2 = c^2")
    if x_max < 1 or y_max < 1:
        raise ValueError("bounds must be >= 1")
    out = set()
    ax = a
    for x in range(1, x_max + 1):
        by = b
        for y in range(1, y_max + 1):
            s = ax * ax + ax * by + by * by
            z = is_perfect_power_of(s, c)
            if z is not None:
                out.add((x, y, z))
            by *= b
        ax *= a
    for x, y, z in out:
        _self_check(
            a ** (2 * x) + a**x * b**y + b ** (2 * y) == c**z,
            (x, y, z),
            f"{a}^2x + {a}^x*{b}^y + {b}^2y = {c}^z",
        )
    return out


def default_threads() -> int:
    env = os.environ.get("JESMA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1
