"""Generators for the Pythagorean triple families behind the equation corpus."""

from __future__ import annotations

import math

from .record import Frozen

__all__ = [
    "FAMILIES",
    "FERMAT_N_MAX",
    "Triple",
    "NonPrimitiveParametersError",
    "InvalidParameterError",
    "primitive_from_pq",
    "jesmanowicz_family",
    "lu_family",
    "fermat_family",
    "fibonacci_triple",
    "fibonacci",
]


class NonPrimitiveParametersError(ValueError):
    pass


class InvalidParameterError(ValueError):
    pass


class Triple(Frozen):
    """A Pythagorean triple (u, v, w).

    Leg order is meaningful and preserved exactly as the generating family
    writes it: searches always bind x to u and y to v, and solution tuples
    like (1, 13, 2) versus (13, 1, 2) are not interchangeable.
    """

    _fields = ("u", "v", "w", "family", "params")

    def __init__(self, u: int, v: int, w: int, family: str = "", params: tuple[int, ...] = ()):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        if min(u, v, w) < 1:
            raise InvalidParameterError(f"triple entries must be positive: {self}")
        if u * u + v * v != w * w:
            raise InvalidParameterError(f"({u}, {v}, {w}) is not a Pythagorean triple")

    def is_primitive(self) -> bool:
        return math.gcd(self.u, self.v) == 1 and (self.u + self.v) % 2 == 1

    def swapped(self) -> "Triple":
        return Triple(self.v, self.u, self.w, self.family, self.params)

    def label(self) -> str:
        base = f"({self.u},{self.v},{self.w})"
        if self.family:
            base += f" [{self.family}{list(self.params)}]"
        return base


def primitive_from_pq(p: int, q: int) -> Triple:
    """The primitive triple (p^2 - q^2, 2pq, p^2 + q^2).

    Requires p > q >= 1, gcd(p, q) = 1 and opposite parity; each failed
    condition is named in the error.
    """
    if q < 1 or p <= q:
        raise NonPrimitiveParametersError(f"need p > q >= 1, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise NonPrimitiveParametersError(f"gcd(p, q) = {math.gcd(p, q)} != 1 for p={p}, q={q}")
    if (p + q) % 2 == 0:
        raise NonPrimitiveParametersError(f"p={p} and q={q} must have opposite parity")
    return Triple(p * p - q * q, 2 * p * q, p * p + q * q, family="pq", params=(p, q))


def jesmanowicz_family(n: int) -> Triple:
    """(2n+1, 2n(n+1), 2n(n+1)+1): the family of the original conjecture;
    n = 1 is Sierpinski's (3, 4, 5)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return Triple(2 * n + 1, 2 * n * (n + 1), 2 * n * (n + 1) + 1, family="jesmanowicz", params=(n,))


def lu_family(n: int) -> Triple:
    """(4n^2 - 1, 4n, 4n^2 + 1): Lu's family, odd leg first; n = 5 gives
    (99, 20, 101)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return Triple(4 * n * n - 1, 4 * n, 4 * n * n + 1, family="lu", params=(n,))


FERMAT_N_MAX = 16  # F_n has 2^n + 1 bits: a search refuses every n >= 14 by its power limit


def fermat_family(n: int) -> Triple:
    """(F_n - 2, 2^(2^(n-1)+1), F_n) with F_n = 2^(2^n) + 1; the identity
    holds whether or not F_n is prime.  n is judged before any power is formed."""
    if not 1 <= n <= FERMAT_N_MAX:
        raise InvalidParameterError(f"need 1 <= n <= {FERMAT_N_MAX}, got {n}")
    f = 2 ** (2**n) + 1
    return Triple(f - 2, 2 ** (2 ** (n - 1) + 1), f, family="fermat", params=(n,))


# family name -> (generator, the names of its integer parameters)
FAMILIES = {
    "jesmanowicz": (jesmanowicz_family, ("n",)),
    "lu": (lu_family, ("n",)),
    "fermat": (fermat_family, ("n",)),
    "pq": (primitive_from_pq, ("p", "q")),
}


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci_triple(n: int) -> tuple[int, int, int]:
    """(F_n, F_{2n+2}, F_{n+2}) for n >= 3, satisfying F_n^2 + F_{2n+2} =
    F_{n+2}^2 -- a square-plus-term identity, not a Pythagorean one."""
    if n < 3:
        raise InvalidParameterError(f"need n >= 3, got {n}")
    a, b, c = fibonacci(n), fibonacci(2 * n + 2), fibonacci(n + 2)
    if a * a + b != c * c:
        raise InvalidParameterError(f"fibonacci identity failed for n={n}")
    return (a, b, c)
