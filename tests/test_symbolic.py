from fractions import Fraction

import pytest

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


def test_growth_ratio():
    t = Term.of(1, (2, ExpExpr(Lin.of(0, u=2))), (5, ExpExpr(Lin.of(1, u=-1))))
    assert t.growth_ratio({"u": 1}) == Fraction(4, 5)
    sym = Term.of(1, (2, ExpExpr(Lin.var("y"), "r")))
    assert sym.growth_ratio({"x": 1}) == 1
    with pytest.raises(ValueError):
        sym.growth_ratio({"y": 1})
    with pytest.raises(ValueError):
        sym.growth_ratio({"r": 1})
