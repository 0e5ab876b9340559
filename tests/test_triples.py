import pytest
from hypothesis import given, strategies as st

from jesma.triples import (
    FERMAT_N_MAX,
    InvalidParameterError,
    NonPrimitiveParametersError,
    Triple,
    fermat_family,
    fibonacci,
    fibonacci_triple,
    jesmanowicz_family,
    lu_family,
    primitive_from_pq,
)


def test_primitive_from_pq_examples():
    assert primitive_from_pq(2, 1) == Triple(3, 4, 5, family="pq", params=(2, 1))
    t = primitive_from_pq(10, 1)
    assert (t.u, t.v, t.w) == (99, 20, 101)
    assert primitive_from_pq(5, 2).u == 21


def test_primitive_from_pq_names_failed_condition():
    with pytest.raises(NonPrimitiveParametersError, match="p > q"):
        primitive_from_pq(2, 2)
    with pytest.raises(NonPrimitiveParametersError, match="gcd"):
        primitive_from_pq(9, 3)
    with pytest.raises(NonPrimitiveParametersError, match="parity"):
        primitive_from_pq(3, 1)


def test_jesmanowicz_examples():
    assert (jesmanowicz_family(1).u, jesmanowicz_family(1).v, jesmanowicz_family(1).w) == (3, 4, 5)
    assert (jesmanowicz_family(2).u, jesmanowicz_family(2).v, jesmanowicz_family(2).w) == (5, 12, 13)
    assert (jesmanowicz_family(5).u, jesmanowicz_family(5).v, jesmanowicz_family(5).w) == (11, 60, 61)
    with pytest.raises(InvalidParameterError):
        jesmanowicz_family(0)


def test_lu_examples():
    assert (lu_family(1).u, lu_family(1).v, lu_family(1).w) == (3, 4, 5)
    assert (lu_family(2).u, lu_family(2).v, lu_family(2).w) == (15, 8, 17)
    assert (lu_family(5).u, lu_family(5).v, lu_family(5).w) == (99, 20, 101)


def test_fermat_examples():
    assert (fermat_family(1).u, fermat_family(1).v, fermat_family(1).w) == (3, 4, 5)
    assert (fermat_family(2).u, fermat_family(2).v, fermat_family(2).w) == (15, 8, 17)
    assert (fermat_family(3).u, fermat_family(3).v, fermat_family(3).w) == (255, 32, 257)


def test_fermat_family_refuses_n_above_its_limit():
    # F_n has 2^n + 1 bits: n is judged before any power is formed
    assert FERMAT_N_MAX == 16 and fermat_family(FERMAT_N_MAX).w.bit_length() == 2**16 + 1
    for n in (0, FERMAT_N_MAX + 1, 30, 10**9):
        with pytest.raises(InvalidParameterError, match=f"need 1 <= n <= 16, got {n}"):
            fermat_family(n)


def test_fibonacci_triple_examples():
    assert fibonacci_triple(3) == (2, 21, 5)
    assert fibonacci_triple(4) == (3, 55, 8)
    assert fibonacci_triple(5) == (5, 144, 13)
    with pytest.raises(InvalidParameterError):
        fibonacci_triple(2)


def test_triple_rejects_non_pythagorean():
    with pytest.raises(InvalidParameterError):
        Triple(3, 4, 6)


@given(st.integers(min_value=1, max_value=1000))
def test_families_are_pythagorean(n):
    for t in (jesmanowicz_family(n), lu_family(n)):
        assert t.u**2 + t.v**2 == t.w**2
        assert t.is_primitive()


@given(st.integers(min_value=2, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_pq_triples_are_pythagorean(p, q):
    if p <= q or (p + q) % 2 == 0:
        return
    import math

    if math.gcd(p, q) != 1:
        return
    t = primitive_from_pq(p, q)
    assert t.u**2 + t.v**2 == t.w**2
    assert t.is_primitive()


def test_jesmanowicz_matches_pq_up_to_leg_order():
    for n in range(1, 1001):
        a = jesmanowicz_family(n)
        b = primitive_from_pq(n + 1, n)
        assert {a.u, a.v} == {b.u, b.v} and a.w == b.w


def test_lu_matches_pq_up_to_leg_order():
    for n in range(1, 1001):
        a = lu_family(n)
        b = primitive_from_pq(2 * n, 1)
        assert {a.u, a.v} == {b.u, b.v} and a.w == b.w


def test_fermat_is_lu_at_power_of_two_index():
    for n in range(1, 5):
        f = fermat_family(n)
        l = lu_family(2 ** (2 ** (n - 1) - 1))
        assert (f.u, f.v, f.w) == (l.u, l.v, l.w)


def test_fibonacci_identity_range():
    for n in range(3, 30):
        a, b, c = fibonacci_triple(n)
        assert a * a + b == c * c
        assert (a, c) == (fibonacci(n), fibonacci(n + 2))
