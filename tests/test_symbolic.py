import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import jesma

from jesma.certificate.ineq import _BY_RATIO, _ratio_text, check_ratio_rule
from jesma.symbolic import ExpExpr, Lin, Term, term_product


def test_lin_arithmetic():
    a = Lin.of(3, x=2, y=-1)
    b = Lin.var("x") - 1
    assert (a + b).as_dict() == {"x": 3, "y": -1}
    assert (a + b).const == 2
    assert (a * 2).const == 6
    assert a.evaluate({"x": 5, "y": 1}) == 12
    assert str(Lin.of(-1, z=1, x=-2)) == "-2*x+z-1"


def test_lin_substitute():
    a = Lin.of(1, z=3, x=1)
    assert a.substitute("z", Lin.var("z1") * 2) == Lin.of(1, z1=6, x=1)


def test_expexpr_offset_and_atom_name():
    e = ExpExpr(Lin.of(0, y=1, z=-1), "r", -1)
    assert e.evaluate({"y": 5, "z": 2, "r": 3}) == 8
    assert e.atom_name() == "r*(y-z)"
    assert e.shifted(1).off == 0
    plain = ExpExpr(Lin.var("x"), None, 2)  # offset folds into the linear part
    assert plain.off == 0 and plain.lin.const == 2


def test_term_evaluate_and_product():
    t = Term.of(2, (3, ExpExpr(Lin.var("x"))), (5, ExpExpr(Lin.var("y"))))
    assert t.evaluate({"x": 2, "y": 1}) == 90
    prod = term_product([t, Term.of(3, (3, ExpExpr(Lin.var("x"))))])
    assert prod.coef == 6
    assert prod.evaluate({"x": 1, "y": 2}) == 6 * 9 * 25
    # a repeated symbol-scaled power keeps its offset: (2^(s*x+1))^2 = 16 at x = s = 1
    u = Term.of(1, (2, ExpExpr(Lin.var("x"), "s", 1)))
    square = term_product([u, u])
    for values in ({"x": 1, "s": 1}, {"x": 2, "s": 3}):
        assert square.evaluate(values) == u.evaluate(values) ** 2


def test_term_rejects_negative_exponent_value():
    t = Term.of(1, (3, ExpExpr(Lin.of(-2, x=1))))
    with pytest.raises(ValueError):
        t.evaluate({"x": 1})


def test_growth_pair():
    t = Term.of(1, (2, ExpExpr(Lin.of(0, u=2))), (5, ExpExpr(Lin.of(1, u=-1))))
    assert t.growth_pair({"u": 1}) == (4, 5)
    sym = Term.of(1, (2, ExpExpr(Lin.var("y"), "r")))
    assert sym.growth_pair({"x": 1}) == (1, 1)
    with pytest.raises(ValueError):
        sym.growth_pair({"y": 1})
    with pytest.raises(ValueError):
        sym.growth_pair({"r": 1})


def test_growth_pair_is_not_reduced():
    t = Term.of(1, (4, ExpExpr(Lin.var("u"))), (2, ExpExpr(Lin.of(0, u=-1))))
    assert t.growth_pair({"u": 1}) == (4, 2)
    assert Fraction(*t.growth_pair({"u": 1})) == 2


_pairs = st.tuples(st.integers(1, 200), st.integers(1, 200))


@given(_pairs, st.lists(_pairs, min_size=1, max_size=6))
def test_ratio_pairs_print_and_order_as_fractions(pair, pairs):
    assert _ratio_text(*pair) == str(Fraction(*pair))
    assert sorted(pairs, key=_BY_RATIO) == sorted(pairs, key=lambda p: Fraction(*p))
    assert min(pairs, key=_BY_RATIO) == min(pairs, key=lambda p: Fraction(*p))
    assert max(pairs, key=_BY_RATIO) == max(pairs, key=lambda p: Fraction(*p))


def test_ratio_rule_names_the_growth_factors():
    s, minus_s = ExpExpr(Lin.var("s")), ExpExpr(Lin.of(0, s=-1))
    # 5 > 2^s holds at s = 0, but the factors along s, 1 and 2, are one apart
    lhs, rhs = (Term.of(5),), (Term.of(1, (2, s)),)
    assert check_ratio_rule(lhs, rhs, ("s",), True) == "growth along s: left factor 1 < right factor 2"
    # the factors 1/2 and 4/6, each printed in lowest terms
    lhs, rhs = (Term.of(7, (2, minus_s)),), (Term.of(1, (4, s), (6, minus_s)),)
    assert check_ratio_rule(lhs, rhs, ("s",), True) == "growth along s: left factor 1/2 < right factor 2/3"
    assert check_ratio_rule(rhs, lhs, ("s",), False) == "base case fails: 1 >= 7 is false"


def test_import_loads_no_fractions_or_decimal():
    src = str(Path(jesma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, jesma.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
