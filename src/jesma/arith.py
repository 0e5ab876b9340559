"""Exact unbounded-integer number theory primitives.

Everything here is exact: no floating point is used anywhere, so results
are valid for arbitrarily large operands.
"""

from __future__ import annotations

import math

from .record import Frozen

__all__ = [
    "ArithError",
    "FactoringLimitError",
    "Factorization",
    "PRIME_PROOF_LIMIT",
    "factorize",
    "factorize_bounded",
    "is_perfect_power_of",
    "is_prime",
    "mult_order",
    "radical",
    "valuation",
]

_TRIAL_LIMIT = 10**6

# is_prime is a proof below this bound (Sorenson and Webster 2015) and a
# probable-prime test above it.
PRIME_PROOF_LIMIT = 3_317_044_064_679_887_385_961_981


class ArithError(ValueError):
    """Invalid argument to an arithmetic primitive."""


class FactoringLimitError(ArithError):
    """factorize_bounded cannot factor the integer without leaving trial
    division and the range where is_prime is a proof."""


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


# The primes up to _table_limit, ascending.  The table grows on demand, at
# least doubling each time, so the callers that factor only small integers
# never pay for the primes below _TRIAL_LIMIT.
_prime_table: list[int] = []
_table_limit = 1

# The 40th prime: is_prime's witnesses above the deterministic range are the
# primes up to here.
_WITNESS_LIMIT = 173


def _primes(limit: int) -> list[int]:
    """Every prime up to min(limit, _TRIAL_LIMIT), ascending, and possibly
    some larger ones after them.  Callers must not modify the list."""
    global _prime_table, _table_limit
    if limit > _table_limit and _table_limit < _TRIAL_LIMIT:
        _table_limit = min(max(limit, 2 * _table_limit), _TRIAL_LIMIT)
        _prime_table = _sieve(_table_limit)
    return _prime_table


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below 3.3 * 10**24 via a known-good witness set; above
    that the same 40 fixed prime witnesses make error odds negligible
    while keeping output deterministic.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < PRIME_PROOF_LIMIT:
        witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    else:
        witnesses = tuple(_primes(_WITNESS_LIMIT)[:40])
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle-finding variant; deterministic restart sequence so
    # factorizations are reproducible.
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithError(f"rho failed to split {n}")  # unreachable at desk scale


class Factorization(Frozen):
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pairs,))

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def radical(self) -> int:
        out = 1
        for p, _ in self.pairs:
            out *= p
        return out

    def exponent_of(self, p: int) -> int:
        for q, e in self.pairs:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _trial_division(n: int) -> tuple[dict[int, int], int, bool]:
    """Divide out the primes up to min(isqrt(n), 10**6): the factors found,
    the cofactor left, and whether that cofactor is 1 or a prime.

    The loop divides out every prime up to trial, unless it stops early at
    a p <= trial with p*p > n, every prime below p divided out.  Either way
    no prime up to isqrt(n) is left once isqrt(n) <= trial, so n is 1 or a
    prime: no primality test is needed.
    """
    found: dict[int, int] = {}
    trial = min(math.isqrt(n), _TRIAL_LIMIT)
    for p in _primes(trial):
        if p > trial or p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    return found, n, math.isqrt(n) <= trial


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.

    Trial division over the primes up to min(isqrt(n), 10**6), then
    Pollard rho on whatever survives. Deterministic for fixed n.

    >>> factorize(99).pairs
    ((3, 2), (11, 1))
    >>> factorize(8281).pairs
    ((7, 2), (13, 2))
    """
    if n < 1:
        raise ArithError(f"cannot factor {n}")
    found, n, complete = _trial_division(n)
    if complete:
        if n > 1:
            found[n] = 1
        return Factorization(tuple(sorted(found.items())))
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(found.items())))


def factorize_bounded(n: int) -> Factorization:
    """Prime factorization of n >= 1 for an integer read from untrusted input.

    Trial division up to 10**6 only.  The cofactor it leaves is accepted
    when it is 1 or provably prime: below 10**12, where trial division
    settles it, or below PRIME_PROOF_LIMIT and passing is_prime.  Anything
    else raises FactoringLimitError, so no input reaches Pollard rho.

    >>> factorize_bounded(2**61 - 1).pairs
    ((2305843009213693951, 1),)
    """
    if n < 1:
        raise ArithError(f"cannot factor {n}")
    found, rest, complete = _trial_division(n)
    if not complete and not (rest < PRIME_PROOF_LIMIT and is_prime(rest)):
        raise FactoringLimitError(
            f"cannot factor a {n.bit_length()}-bit integer: its {rest.bit_length()}-bit cofactor "
            f"has no prime factor up to {_TRIAL_LIMIT} and is not provably prime"
        )
    if rest > 1:
        found[rest] = 1
    return Factorization(tuple(sorted(found.items())))


def valuation(p: int, n: int) -> tuple[int, int]:
    """Largest e with p**e | n, plus the cofactor n / p**e.

    >>> valuation(2, 20)
    (2, 5)
    >>> valuation(3, 99)
    (2, 11)
    """
    if n == 0:
        raise ArithError("valuation of 0 is undefined")
    if p < 2 or not is_prime(p):
        raise ArithError(f"{p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def radical(k: int) -> int:
    """Product of the distinct primes dividing k; radical(1) == 1.

    >>> radical(12)
    6
    >>> radical(2**20)
    2
    """
    if k < 1:
        raise ArithError(f"radical needs k >= 1, got {k}")
    return factorize(k).radical()


def _totient(m: int) -> int:
    out = 1
    for p, e in factorize(m):
        out *= p ** (e - 1) * (p - 1)
    return out


def mult_order(a: int, m: int) -> int:
    """Least d > 0 with a**d == 1 (mod m); requires gcd(a, m) == 1.

    Computed by factoring the totient and stripping prime factors while
    the power stays 1, so no O(m) scan is needed.

    >>> mult_order(2, 33)
    10
    >>> mult_order(101, 17)
    2
    """
    if m < 2:
        raise ArithError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ArithError(f"{a} is not a unit modulo {m}")
    d = _totient(m)
    for p, _ in factorize(d):
        while d % p == 0 and pow(a, d // p, m) == 1:
            d //= p
    return d


def is_perfect_power_of(s: int, base: int) -> int | None:
    """z >= 1 with base**z == s, or None; found by repeated exact division.

    >>> is_perfect_power_of(8281, 91)
    2
    >>> is_perfect_power_of(90, 91) is None
    True
    """
    if s <= 0:
        raise ArithError(f"need a positive integer, got {s}")
    if base < 2:
        raise ArithError(f"base must be >= 2, got {base}")
    z = 0
    while s % base == 0:
        s //= base
        z += 1
    return z if s == 1 and z >= 1 else None
