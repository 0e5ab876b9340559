import contextlib
import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jesma import arith
from jesma.arith import (
    PRIME_PROOF_LIMIT,
    ArithError,
    FactoringLimitError,
    factorize,
    factorize_bounded,
    is_perfect_power_of,
    is_prime,
    mult_order,
    radical,
    valuation,
)


def test_mult_order_examples():
    assert mult_order(1, 97) == 1
    assert mult_order(2, 33) == 10
    assert mult_order(101, 17) == 2


def test_mult_order_rejects_non_units():
    with pytest.raises(ArithError):
        mult_order(6, 33)


def test_valuation_examples():
    assert valuation(2, 20) == (2, 5)
    assert valuation(3, 99) == (2, 11)
    assert valuation(101, 7 * 101**3) == (3, 7)


def test_valuation_errors():
    with pytest.raises(ArithError):
        valuation(2, 0)
    with pytest.raises(ArithError):
        valuation(4, 12)


def test_radical_examples():
    assert radical(1) == 1
    assert radical(2**20) == 2
    assert radical(12) == 6
    with pytest.raises(ArithError):
        radical(0)


def test_factorize_examples():
    assert factorize(99).pairs == ((3, 2), (11, 1))
    assert factorize(101).pairs == ((101, 1),)
    assert factorize(8281).pairs == ((7, 2), (13, 2))
    assert factorize(1).pairs == ()


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).pairs == ((p, 1), (q, 1))
    # cofactors that outlast trial division must still be split, not
    # taken as prime
    assert factorize(12 * p * q).pairs == ((2, 2), (3, 1), (p, 1), (q, 1))
    assert factorize(p * p).pairs == ((p, 2),)
    big = 1_000_000_000_039
    assert factorize(6 * big).pairs == ((2, 1), (3, 1), (big, 1))


def test_factorize_bounded_stays_in_trial_division(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"Pollard rho reached on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", no_rho)
    p, q = 1_000_003, 1_000_033
    big = 1_000_000_000_039  # a prime cofactor above 10**12, proved by is_prime
    near_limit = _next_prime(PRIME_PROOF_LIMIT - 10**6)
    for n in (1, 99, 8281, p * p - 1, 12 * big, near_limit, 2**61 - 1, 2**20 * 3**30 * 999_983):
        assert factorize_bounded(n) == factorize(n), n
    # composite cofactors, and a prime beyond the proof range of is_prime
    for n in (p * q, 6 * p * p, (2**127 - 1) * (2**107 - 1), 2**127 - 1, _next_prime(PRIME_PROOF_LIMIT)):
        with pytest.raises(FactoringLimitError, match="is not provably prime"):
            factorize_bounded(n)
    with pytest.raises(ArithError):
        factorize_bounded(0)


def test_perfect_power_examples():
    assert is_perfect_power_of(8281, 91) == 2
    assert is_perfect_power_of(91, 91) == 1
    assert is_perfect_power_of(90, 91) is None
    assert is_perfect_power_of(1, 7) is None
    with pytest.raises(ArithError):
        is_perfect_power_of(0, 2)
    with pytest.raises(ArithError):
        is_perfect_power_of(9, 1)


def test_is_prime_small():
    primes_below_100 = {p for p in range(100) if is_prime(p)}
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
    assert primes_below_100 == sieve


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    prev = 0
    for p, e in f.pairs:
        assert p > prev and e >= 1 and is_prime(p)
        prev = p
        prod *= p**e
    assert prod == n
    assert n % f.radical() == 0


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11, 101]))
def test_valuation_consistency(n, p):
    e, cofactor = valuation(p, n)
    assert p**e * cofactor == n
    assert cofactor % p != 0


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=2, max_value=400))
def test_mult_order_is_least(a, m):
    if math.gcd(a, m) != 1:
        return
    d = mult_order(a, m)
    assert pow(a, d, m) == 1
    assert all(pow(a, q, m) != 1 for q in range(1, d))


@given(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=25))
def test_perfect_power_round_trip(base, z):
    assert is_perfect_power_of(base**z, base) == z


@functools.cache
def _full_table() -> list[int]:
    return arith._sieve(arith._TRIAL_LIMIT)


def _factorize_reference(n: int) -> tuple:
    # trial division over every prime below 10**6: complete for n < 10**12
    found = {}
    for p in _full_table():
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if n > 1:
        found[n] = found.get(n, 0) + 1
    return tuple(sorted(found.items()))


@contextlib.contextmanager
def _fresh_prime_table():
    """The prime table as a new process has it: empty, grown on demand."""
    saved = arith._prime_table, arith._table_limit
    arith._prime_table, arith._table_limit = [], 1
    try:
        yield
    finally:
        arith._prime_table, arith._table_limit = saved


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 2000), st.integers(0, 40), st.integers(1, 10**6))
def test_factorize_matches_full_table(grown_to, gap, n):
    with _fresh_prime_table():
        arith._primes(grown_to)
        # p just above the table: its square and its products need primes
        # the table has yet to hold
        p = _next_prime(arith._table_limit + gap)
        q = _next_prime(p + gap)
        for m in (n, p * p, p * q, 2 * p * q, n * p):
            assert factorize(m).pairs == _factorize_reference(m), m


def test_small_factorizations_leave_the_table_small():
    with _fresh_prime_table():
        for n in range(1, 107):
            factorize(n)
        assert arith._table_limit < 100
        assert is_prime(10**30 + 57)  # past the deterministic witness set
        assert arith._table_limit < 1000
        assert factorize(1_000_003 * 1_000_033).pairs == ((1_000_003, 1), (1_000_033, 1))
        assert arith._table_limit == arith._TRIAL_LIMIT


def test_witness_limit_gives_forty_primes():
    assert len(arith._sieve(arith._WITNESS_LIMIT)) == 40
