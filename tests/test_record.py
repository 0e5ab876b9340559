"""The value records keep the behaviour of the dataclasses they replaced:
field order, equality, hashing, repr, immutability, pickling and replace."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jesma
import jesma.cli  # noqa: F401  (loads every module that defines a record)
from jesma.arith import Factorization
from jesma.certificate.context import Context, DivisibilityFact, ProvenInequality, VerificationMemo
from jesma.certificate.engine import Verdict
from jesma.certificate.ineq import IneqClaim
from jesma.certificate.model import Certificate, Node
from jesma.corpus import CorpusEntry, EntryResult
from jesma.record import Record, replace
from jesma.reduction import KFactoredForm, OrderingClass, ValuationRelation
from jesma.search import FORMS, Form, SearchReport
from jesma.sieve import ConstraintSet, KillingWitness, ResidueClassSet, _EvalPower
from jesma.symbolic import ExpExpr, Lin, Power, Term
from jesma.triples import Triple

X, Y = Lin.var("x"), Lin.of(2, y=-3)
EX, EY = ExpExpr(X), ExpExpr(Y, "r", 1)
TX, TY = Term(5, (Power(2, EX),)), Term(-1, (Power(3, EY), Power(7, EX)))
RCS = ResidueClassSet(17, ("x", "y"), (16, 16), frozenset({(0, 1), (3, 5)}))
G, T = FORMS["general"], FORMS["terai"]

# Per class, two samples of every field in order, which differ in each field.
SAMPLES = [
    (Lin, dict(coeffs=(("x", 1),), const=2), dict(coeffs=(("y", -3),), const=0)),
    (ExpExpr, dict(lin=X, sym="r", off=1), dict(lin=Y, sym="s", off=-2)),
    (Power, dict(base=2, exp=EX), dict(base=3, exp=EY)),
    (Term, dict(coef=5, powers=(Power(2, EX),)), dict(coef=-1, powers=())),
    (Factorization, dict(pairs=((2, 3), (5, 1))), dict(pairs=((7, 2),))),
    (Triple, dict(u=3, v=4, w=5, family="pq", params=(2, 1)), dict(u=5, v=12, w=13, family="", params=())),
    (ValuationRelation, dict(prime=2, val="r", lhs=X, rhs=Y), dict(prime=3, val=1, lhs=Y, rhs=X)),
    (
        KFactoredForm,
        dict(triple=Triple(3, 4, 5), ordering=OrderingClass.CASE_1_1, valuations=((2, "r"),), cofactor="n1",
             relations=(ValuationRelation(2, "r", X, Y),), cross_relations=(X,), reduced_lhs=(TX,),
             reduced_rhs=(TY,), contradiction=None),
        dict(triple=Triple(5, 12, 13), ordering=OrderingClass.CASE_2_2, valuations=(), cofactor=1,
             relations=(), cross_relations=(), reduced_lhs=(), reduced_rhs=(TX,), contradiction="k-coprime"),
    ),
    (
        ConstraintSet,
        dict(residues={"z": (2, frozenset({0}))}, fixed={"x": 1}, lower_bounds={"y": 2}),
        dict(residues={}, fixed={"y": 4}, lower_bounds={}),
    ),
    (ResidueClassSet, dict(modulus=17, variables=("x", "y"), periods=(16, 16), tuples=frozenset({(0, 1)})),
     dict(modulus=5, variables=("z",), periods=(4,), tuples=frozenset())),
    (_EvalPower, dict(base=2, order=16, exp=EX, atom=None), dict(base=3, order=8, exp=EY, atom="r*(y)")),
    (KillingWitness, dict(modulus=17, solutions=RCS, scanned=(2, 17), skipped=((4, "order too large"),)),
     dict(modulus=None, solutions=None, scanned=(), skipped=())),
    (Form, dict(letters="abc", scan=G.scan, holds=G.holds, equation="{a}^x", precondition=None, exponents=(0, 1, 2),
                power=1),
     dict(letters="bc", scan=T.scan, holds=T.holds, equation="{b}^m", precondition=print, exponents=(1, 2),
          power=2)),
    (
        SearchReport,
        dict(form="general", bases=(3, 2, 5), x_max=10, y_max=12, solutions=((1, 1, 1),), candidates=120,
             elapsed=0.5),
        dict(form="terai", bases=(3, 5), x_max=4, y_max=5, solutions=(), candidates=20, elapsed=0.25),
    ),
    (
        CorpusEntry,
        dict(id="a", form="general", expected=frozenset({(1, 1, 1)}), searches=(("", (3, 2, 5)),), triple=None,
             x_max=30, y_max=30),
        dict(id="b", form="terai", expected=frozenset(), searches=(("k=1: ", (3, 5)),), triple=Triple(3, 4, 5),
             x_max=5, y_max=6),
    ),
    (EntryResult, dict(entry_id="a", passed=True, detail="", elapsed=0.1),
     dict(entry_id="b", passed=False, detail="found []", elapsed=0.2)),
    (Node, dict(step={"kind": "contradiction"}, children=()),
     dict(step={"kind": "ordering-split"}, children=(Node({"kind": "contradiction"}),))),
    (
        Certificate,
        dict(title="t", equation={"form": "congruence"}, excluded=((2, 2, 2),), tree=Node({"kind": "a"}),
             metadata={"m": "1"}, version="1"),
        dict(title="u", equation={}, excluded=(), tree=Node({"kind": "b"}), metadata={}, version="2"),
    ),
    (
        IneqClaim,
        dict(slacks=("a",), mapping=(("x", X),), inverse=(("a", X, 1),), lhs=(TX,), rhs=(TY,), ctx_lhs=(TX,),
             ctx_rhs=(TY,), strict=True),
        dict(slacks=(), mapping=(), inverse=(), lhs=(), rhs=(TX,), ctx_lhs=(), ctx_rhs=(TX,), strict=False),
    ),
    (Verdict, dict(valid=True, path="", reason=""), dict(valid=False, path="$.tree", reason="bad")),
    (VerificationMemo, dict(refuted={(): True}, term_forms={}), dict(refuted={}, term_forms={TX: (1, ())})),
    (DivisibilityFact, dict(divisor=TX, side="-", p=Power(2, EX), q=Power(3, EY)),
     dict(divisor=TY, side="+", p=Power(3, EY), q=Power(2, EX))),
    (ProvenInequality, dict(lhs=(TX,), rhs=(TY,), strict=True), dict(lhs=(TY,), rhs=(), strict=False)),
    (
        Context,
        dict(triple=Triple(20, 99, 101), k_min=2, excluded=((2, 2, 2),), equation_form="pythag-exp",
             ordering=OrderingClass.CASE_1_1, equations={"main": ((TX,), (TY,))}, facts=(((("x", 1),), -1),),
             residues={"z": (2, frozenset({0}))}, syms=("r",), pattern=(2,),
             divisibilities=(DivisibilityFact(TX, "-", Power(2, EX), Power(3, EY)),),
             proven=(ProvenInequality((TX,), (TY,), True),), fixed={"y": 1}, conflict=None,
             memo=VerificationMemo()),
        dict(triple=None, k_min=1, excluded=(), equation_form="congruence", ordering=None, equations={}, facts=(),
             residues={}, syms=(), pattern=None, divisibilities=(), proven=(), fixed={}, conflict="z",
             memo=VerificationMemo({(): False})),
    ),
]
UNCOMPARED = {Context: {"memo"}, SearchReport: {"elapsed"}, EntryResult: {"elapsed"}}
UNSHOWN = {Context: {"memo"}}
MUTABLE = {_EvalPower, VerificationMemo}
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


def test_every_record_class_has_samples():
    records = {cls for cls in _all_records() if cls.__module__ not in ("jesma.record", __name__)}
    assert records == {cls for cls, _, _ in SAMPLES}


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_record_contract(cls, fields, other):
    obj = cls(*fields.values())  # positional: the field order is part of the contract
    assert vars(obj) == fields

    twin = cls(**copy.deepcopy(fields))
    assert obj == twin and not obj != twin
    assert obj != (cls, tuple(fields.values())) and obj != 0
    compared = tuple(v for k, v in fields.items() if k not in UNCOMPARED.get(cls, ()))
    if cls in MUTABLE:
        assert cls.__hash__ is None
    else:
        try:
            expected = hash(compared)
        except TypeError:  # a dict field: unhashable, as the dataclass was
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(twin) == expected

    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items() if k not in UNSHOWN.get(cls, ()))
    assert repr(obj) == f"{cls.__qualname__}({shown})"

    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and vars(back) == vars(obj)

    name = next(iter(fields))
    if cls in MUTABLE:
        setattr(twin, name, other[name])
        assert getattr(twin, name) == other[name]
    else:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, other[name])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert vars(obj) == fields

    for name, value in other.items():
        try:
            fresh = cls(**{**fields, name: value})
        except ValueError as e:  # such as a Triple that is no longer Pythagorean
            with pytest.raises(type(e), match=re.escape(str(e))):
                replace(obj, **{name: value})
            continue
        changed = replace(obj, **{name: value})
        assert type(changed) is cls and vars(changed) == vars(fresh)
        assert (changed == obj) == (name in UNCOMPARED.get(cls, ()))
    assert vars(replace(obj)) == vars(obj)
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)


def test_defaults_and_fresh_factories():
    assert vars(Lin(())) == {"coeffs": (), "const": 0}
    assert vars(ExpExpr(X)) == {"lin": X, "sym": None, "off": 0}
    assert ExpExpr(X, None, 2) == ExpExpr(X + 2)  # the offset of a plain exponent folds into its linear part
    assert (Triple(3, 4, 5).family, Triple(3, 4, 5).params) == ("", ())
    assert vars(Node({})) == {"step": {}, "children": ()}
    assert vars(Verdict(True)) == {"valid": True, "path": "", "reason": ""}
    assert SearchReport("general", (3, 2, 5), 1, 1, (), 1).elapsed == 0.0
    assert EntryResult("a", True, "").elapsed == 0.0
    form = Form("a", len, len, "")
    assert (form.precondition, form.exponents, form.power) == (None, (0, 1, 2), 1)
    entry = CorpusEntry("a", "general", frozenset(), ())
    assert (entry.triple, entry.x_max, entry.y_max) == (None, 30, 30)
    assert KFactoredForm(*[None] * 8).contradiction is None

    # a field with a factory gets a new value per instance, and an explicit None stays None
    for make, names in [
        (ConstraintSet, ("residues", "fixed", "lower_bounds")),
        (lambda: Certificate("t", {}, (), Node({})), ("metadata",)),
        (VerificationMemo, ("refuted", "term_forms")),
        (lambda: Context(None, 1, (), "congruence"), ("equations", "residues", "fixed")),
    ]:
        a, b = make(), make()
        for name in names:
            assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    a, b = Context(None, 1, (), "congruence"), Context(None, 1, (), "congruence")
    assert a.memo == VerificationMemo() and a.memo is not b.memo
    assert Certificate("t", {}, (), Node({})).version == "1"
    assert Certificate("t", {}, (), Node({}), None).metadata is None


def test_context_caches_its_system_per_instance():
    ctx = Context(None, 1, (), "congruence").with_fact(X - 1)
    assert ctx._system is ctx._system
    assert "_system" in vars(ctx) and "_system" not in vars(replace(ctx))


def test_import_loads_no_dataclasses():
    src = str(Path(jesma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, jesma.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
