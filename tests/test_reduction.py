from itertools import product

import pytest

from jesma.reduction import (
    OrderingClass,
    ReductionError,
    classify_ordering,
    deng_cohen_filter,
    factor_k,
    factor_k_symbolic,
    isolated_base,
    le_theorem_check,
    miyazaki_parity_check,
)
from jesma.symbolic import Lin
from jesma.triples import Triple

T = Triple(20, 99, 101)


def test_classify_examples():
    assert classify_ordering((2, 2, 2)) == OrderingClass.ALL_EQUAL
    assert classify_ordering((1, 13, 2)) == OrderingClass.CASE_1_2
    assert classify_ordering((2, 5, 4)) == OrderingClass.CASE_1_2
    assert classify_ordering((3, 1, 3)) == OrderingClass.Z_GE_MAX
    assert classify_ordering((3, 3, 1)) == OrderingClass.HAS_TIE
    assert classify_ordering((2, 3, 1)) == OrderingClass.CASE_1_1
    assert classify_ordering((3, 1, 2)) == OrderingClass.CASE_2_2
    assert classify_ordering((3, 2, 1)) == OrderingClass.CASE_2_1


def test_classification_is_total_and_disjoint():
    counts = {c: 0 for c in OrderingClass}
    for sol in product(range(1, 7), repeat=3):
        counts[classify_ordering(sol)] += 1
    assert sum(counts.values()) == 6**3
    # strict classes are symmetric: each holds C(6,3) = 20 points of the cube
    for c in (OrderingClass.CASE_1_1, OrderingClass.CASE_1_2, OrderingClass.CASE_2_1, OrderingClass.CASE_2_2):
        assert counts[c] == 20


def test_ascending_order_agrees_with_classification():
    """Each strict class lists its exponents in the order of every point it
    classifies, and isolates the base under the smallest of them."""
    for sol in product(range(1, 6), repeat=3):
        cls = classify_ordering(sol)
        if not cls.is_strict():
            continue
        values = dict(zip("xyz", sol))
        assert cls.ascending() == tuple(sorted("xyz", key=values.get))
        assert isolated_base(T, cls) == dict(zip("xyz", (T.u, T.v, T.w)))[cls.ascending()[0]]


def test_deng_cohen_filter():
    assert deng_cohen_filter((2, 2, 2))[0]
    assert not deng_cohen_filter((3, 1, 3))[0]
    assert not deng_cohen_filter((1, 1, 1))[0]
    assert deng_cohen_filter((2, 5, 4))[0]


def test_miyazaki_parity():
    assert miyazaki_parity_check((2, 2, 2))
    assert miyazaki_parity_check((6, 2, 6))
    assert not miyazaki_parity_check((4, 2, 2))
    with pytest.raises(ReductionError):
        miyazaki_parity_check((2, 3, 2))


def test_le_theorem_check():
    # ties are rejected outright: no condition allows x = y
    ok, _ = le_theorem_check(T, 3, (3, 3, 1))
    assert not ok
    # (ii): x > y > z with P(k) | V
    ok, which = le_theorem_check(T, 3, (3, 2, 1))
    assert ok and which == "ii"
    # (iii) fails when P(k) does not divide U
    ok, _ = le_theorem_check(T, 7, (1, 3, 2))
    assert not ok
    with pytest.raises(ReductionError):
        le_theorem_check(T, 3, (2, 2, 2))


def test_factor_k_concrete_case_1_2():
    f = factor_k(T, 2**3, OrderingClass.CASE_1_2)
    assert f.contradiction is None
    assert f.cofactor == 1
    assert len(f.relations) == 1
    r = f.relations[0]
    assert (r.prime, r.val) == (2, 3)
    assert r.lhs == Lin.of(0, z=1, x=-1)
    assert r.rhs == Lin.of(0, x=2)


def test_factor_k_concrete_case_1_1():
    f = factor_k(T, 101**2, OrderingClass.CASE_1_1)
    assert f.contradiction is None
    assert f.cofactor == 1
    r = f.relations[0]
    assert (r.prime, r.val) == (101, 2)
    assert r.lhs == Lin.of(0, x=1, z=-1)
    assert r.rhs == Lin.of(0, z=1)


def test_factor_k_trivial_scale():
    f = factor_k(T, 1, OrderingClass.CASE_2_2)
    assert f.relations == ()
    assert f.cofactor == 1
    assert f.contradiction is None


def test_factor_k_flags_impossible_shapes():
    # k coprime to the isolated base forces k = 1
    assert factor_k(T, 7, OrderingClass.CASE_1_2).contradiction == "k-coprime-to-isolated-base"
    # a leftover cofactor beyond the isolated base's primes must be 1
    assert factor_k(T, 2 * 7, OrderingClass.CASE_1_2).contradiction == "cofactor-exceeds-one"


def test_factor_k_symbolic_cross_relation():
    f = factor_k_symbolic(T, {3, 11}, OrderingClass.CASE_2_2)
    assert [str(r) for r in f.relations] == ["r*(-y+z) = 2*y", "q*(-y+z) = y"]
    assert [str(c) for c in f.cross_relations] == ["-2*q+r"]
    assert f.cofactor == "n1"


def test_factor_k_rejects_non_strict_ordering():
    with pytest.raises(ReductionError):
        factor_k(T, 2, OrderingClass.Z_GE_MAX)


def _check_structural_identity(t, k, ordering, samples=60):
    """reduced-form x k-powers reproduces the original equation whenever the
    valuation relations hold."""
    import random

    f = factor_k(t, k, ordering)
    if f.contradiction:
        return
    e1, e2, e3 = f.ordering.ascending()
    sign = -1 if e1 == "z" else 1
    b1 = {"x": t.u, "y": t.v, "z": t.w}[e1]
    from jesma.arith import factorize, valuation

    kpat = 1
    for p in factorize(b1).primes():
        e, _ = valuation(p, k)
        kpat *= p**e
    rng = random.Random(5)
    for _ in range(samples):
        vals = {}
        lo, mid, hi = sorted(rng.sample(range(1, 12), 3))
        vals[e1], vals[e2], vals[e3] = lo, mid, hi
        if any(
            r.val * r.lhs.evaluate(vals) != r.rhs.evaluate(vals)
            for r in f.relations
            if isinstance(r.val, int)
        ):
            continue
        x, y, z = vals["x"], vals["y"], vals["z"]
        original = (k * t.u) ** x + (k * t.v) ** y - (k * t.w) ** z
        lhs = 1
        for term in f.reduced_lhs:
            lhs *= term.evaluate(vals)
        rhs = sum(term.evaluate(vals) for term in f.reduced_rhs)
        rebuilt = sign * k ** vals[e1] * kpat ** (vals[e2] - vals[e1]) * (lhs - rhs)
        assert rebuilt == original, (t, k, ordering, vals)


def test_structural_round_trip_on_20_99_101():
    for ordering in (
        OrderingClass.CASE_1_1,
        OrderingClass.CASE_1_2,
        OrderingClass.CASE_2_1,
        OrderingClass.CASE_2_2,
    ):
        for k in (1, 8, 25, 200, 101, 33, 9, 11, 101**2):
            _check_structural_identity(T, k, ordering)
