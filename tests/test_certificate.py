import copy
import hashlib
import itertools
import json
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from jesma.certificate import (
    Certificate,
    MalformedCertificateError,
    Verdict,
    builtin_certificates,
    canonical_json,
    claim_to_json,
    dumps_certificate,
    killing_certificate,
    loads_certificate,
    verify_certificate,
    verify_inequality_step,
)
from jesma.certificate import context, engine
from jesma.certificate.context import Context
from jesma.certificate.ineq import IneqClaim, claim_from_json
from jesma.certificate.model import MAX_TREE_DEPTH, Node, exp_to_json, terms_to_json
from jesma.cli import main
from jesma.search import find_solutions_scaled
from jesma.sieve import ConstraintSet, SieveError, find_killing_modulus
from jesma.symbolic import ExpExpr, Lin, Power, Term
from jesma.triples import Triple


def test_builtins_all_valid():
    certs = builtin_certificates()
    assert len(certs) == 3
    for cert in certs:
        verdict = verify_certificate(cert)
        assert verdict.valid, f"{cert.title}: {verdict.describe()}"


SHIPPED_SHA256 = {
    "theorem_20_99_101.cert.json": "e7c51063d67a2239c15e8d885ba970929acefd5230713454288cdc6a8d29859f",
    "subcase_z_lt_x_lt_y.cert.json": "d5d3f64cec600ddc5d15bcf5f9faf8d026a6113f9959eedfcc80ef0c55a2e216",
    "mod17_kill.cert.json": "996790dd0d5bfa720b5c02af3d09a58e2416d6c02e33f7644f2c8c0f77116ec0",
}


def _shipped(name: str) -> dict:
    return json.loads(resources.files("jesma.data").joinpath(f"{name}.cert.json").read_text())


def test_shipped_files_pinned():
    data = resources.files("jesma.data")
    for fname, digest in SHIPPED_SHA256.items():
        text = data.joinpath(fname).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fname
        assert dumps_certificate(loads_certificate(text)) + "\n" == text, fname
    # every shipped certificate file is one that builtin_certificates() loads,
    # so none ships without the verification test_builtins_all_valid runs
    shipped = {f.name for f in data.iterdir() if f.name.endswith(".cert.json")}
    assert shipped == set(SHIPPED_SHA256)
    loaded = {dumps_certificate(c) + "\n" for c in builtin_certificates()}
    assert loaded == {data.joinpath(f).read_text() for f in shipped}


def test_serialization_round_trip():
    for cert in builtin_certificates():
        text = dumps_certificate(cert)
        again = loads_certificate(text)
        assert dumps_certificate(again) == text
        # canonical form is stable under JSON re-parsing
        assert canonical_json(json.loads(text)) == text


def test_verifier_is_deterministic():
    broken = _shipped("theorem_20_99_101")
    broken["tree"]["children"][4]["children"][3]["children"][0]["children"][0]["step"]["modulus"] = "19"
    v1 = verify_certificate(Certificate.from_json(broken))
    v2 = verify_certificate(Certificate.from_json(broken))
    assert (v1.valid, v1.path, v1.reason) == (v2.valid, v2.path, v2.reason)
    assert not v1.valid


def _walk(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutations_theorem(base):
    """(description, mutator, path prefix expected to fail)"""

    def m(path, fn):
        def apply(obj):
            fn(_walk(obj, path))

        return apply

    yield "drop ordering case", lambda o: (
        o["tree"]["step"]["cases"].pop(3),
        o["tree"]["children"].pop(3),
    ), "$.tree"
    yield "swap lemma reasons", m(
        ["tree", "children", 2, "step"], lambda s: s.update(reason="z-ge-max-lemma")
    ), "$.tree.children[2]"
    yield "modulus 17 to 19", m(
        ["tree", "children", 4, "children", 3, "children", 0, "children", 0, "step"],
        lambda s: s.update(modulus="19"),
    ), "$.tree.children[4].children[3].children[0].children[0]"
    yield "flip derived parity", m(
        ["tree", "children", 4, "children", 3, "children", 0, "step", "derive", 0],
        lambda d: d.update(residues=["1"]),
    ), "$.tree.children[4].children[3].children[0]"
    yield "drop valuation case", m(
        ["tree", "children", 4],
        lambda n: (n["step"]["cases"].pop(1), n["children"].pop(1)),
    ), "$.tree.children[4]"
    yield "weaken k hypothesis", lambda o: o["equation"].update(k_min="1"), "$.tree"
    yield "empty excluded set", lambda o: o.update(excluded=[]), "$.tree.children[0]"
    yield "corrupt relation", m(
        ["tree", "children", 4, "children", 1, "step", "relations", 0, "rhs", "c"],
        lambda c: c.update(x="3"),
    ), "$.tree.children[4].children[1]"
    yield "shrink inequality base", lambda o: _replace_in(
        _walk(o, ["tree", "children", 4, "children", 1, "children", 0, "children", 0, "children", 0, "children", 0, "children", 0, "step"]),
        '"106"',
        '"94"',
        "claims",
    ), "$.tree.children[4].children[1]"
    yield "swap factor terms", m(
        ["tree", "children", 6, "children", 1, "children", 0, "children", 0, "children", 0, "children", 0, "children", 0, "step", "cases", 0],
        lambda c: c.update(fminus=c["fplus"], fplus=c["fminus"]),
    ), "$.tree.children[6].children[1]"
    yield "substitute stride 3", m(
        ["tree", "children", 4, "children", 1, "children", 0, "children", 0, "step"],
        lambda s: s.update(stride="3"),
    ), "$.tree.children[4].children[1].children[0].children[0]"
    yield "drop residue-split case", m(
        ["tree", "children", 6, "children", 2, "children", 0, "children", 0, "children", 0, "children", 0],
        lambda n: (n["step"]["cases"].pop(1), n["children"].pop(1)),
    ), "$.tree.children[6].children[2]"
    yield "flip reduced-equation sign", m(
        ["tree", "children", 4, "children", 1, "step", "reduced_rhs", 1],
        lambda t: t.update(coef="1"),
    ), "$.tree.children[4].children[1]"
    yield "retarget congruence equation", m(
        ["tree", "children", 6, "children", 1, "children", 0, "children", 0, "children", 0,
         "children", 0, "children", 0, "children", 4, "children", 0, "step"],
        lambda s: s.update(eq="f-"),
    ), "$.tree.children[6].children[1]"
    yield "grow a residue set", m(
        ["tree", "children", 6, "children", 2, "children", 0, "children", 0, "step", "derive", 0],
        lambda d: d.update(residues=["0", "1"]),
    ), "$.tree.children[6].children[2].children[0].children[0]"


def _replace_in(step, old, new, key):
    step[key] = json.loads(json.dumps(step[key]).replace(old, new))


def test_theorem_mutations_all_invalid():
    base = _shipped("theorem_20_99_101")
    count = 0
    for desc, mutate, prefix in _mutations_theorem(base):
        obj = copy.deepcopy(base)
        mutate(obj)
        verdict = verify_certificate(Certificate.from_json(obj))
        assert not verdict.valid, f"mutation {desc!r} still verifies"
        assert verdict.path.startswith(prefix), (desc, verdict.path, prefix)
        count += 1
    assert count >= 10


def _mutations_small(base):
    yield "modulus to 19", lambda o: _walk(o, ["tree", "step"]).update(modulus="19")
    yield "modulus to 15", lambda o: _walk(o, ["tree", "step"]).update(modulus="15")
    yield "drop z-parity constraint", lambda o: o["equation"]["constraints"].update(residues={})
    yield "flip z parity", lambda o: o["equation"]["constraints"]["residues"]["z"].update(residues=["1"]),
    yield "base 101 to 104", lambda o: o["equation"]["terms"][0]["powers"][0].update(base="104")
    yield "drop the unit term", lambda o: o["equation"]["terms"].pop(2)
    yield "coef sign flip", lambda o: o["equation"]["terms"][1].update(coef="1")
    yield "exponent var rename", lambda o: _walk(
        o, ["equation", "terms", 0, "powers", 0, "exp", "lin"]
    ).update(c={"y": "1"})
    yield "children on a leaf", lambda o: o["tree"]["children"].append(copy.deepcopy(o["tree"]))
    yield "unknown reason", lambda o: _walk(o, ["tree", "step"]).update(reason="mystery")
    yield "retarget equation id", lambda o: _walk(o, ["tree", "step"]).update(eq="other")


def test_mod17_mutations_all_invalid():
    base = _shipped("mod17_kill")
    count = 0
    for desc, mutate in _mutations_small(base):
        obj = copy.deepcopy(base)
        mutate(obj)
        try:
            verdict = verify_certificate(Certificate.from_json(obj))
        except MalformedCertificateError:
            count += 1
            continue
        assert not verdict.valid, f"mutation {desc!r} still verifies"
        count += 1
    assert count >= 10


def _mutations_subcase(base):
    yield "not exhaustive valuation", lambda o: (
        _walk(o, ["tree", "step", "cases"]).pop(0),
        o["tree"]["children"].pop(0),
    )
    yield "pattern mismatch", lambda o: _walk(o, ["tree", "children", 1, "step"]).update(pattern=[])
    yield "ordering relabeled", lambda o: o["equation"].update(ordering="case-1-2")
    yield "ordering dropped", lambda o: o["equation"].pop("ordering")
    yield "k_min weakened", lambda o: o["equation"].update(k_min="1")
    yield "cofactor claim", lambda o: _walk(o, ["tree", "children", 1, "step"]).update(cofactor="2")
    yield "triple corrupted", lambda o: o["equation"].update(u="21")
    yield "contradiction reason swap", lambda o: _walk(
        o, ["tree", "children", 0, "children", 0, "step"]
    ).update(reason="distinct-exponents-lemma")
    yield "claim strictness dropped", lambda o: _replace_strict(o)
    yield "inequality rhs inflated", lambda o: _walk(
        o,
        ["tree", "children", 1, "children", 0, "step", "claims", 0, "ctx_rhs", 0],
    ).update(coef="2")
    yield "larger side flipped", lambda o: _walk(
        o, ["tree", "children", 1, "children", 0, "step"]
    ).update(larger="lhs")


def _replace_strict(obj):
    step = _walk(obj, ["tree", "children", 1, "children", 0, "step"])
    for claim in step["claims"]:
        claim["strict"] = False


def test_subcase_mutations_all_invalid():
    base = _shipped("subcase_z_lt_x_lt_y")
    count = 0
    for desc, mutate in _mutations_subcase(base):
        obj = copy.deepcopy(base)
        mutate(obj)
        try:
            verdict = verify_certificate(Certificate.from_json(obj))
        except MalformedCertificateError:
            count += 1
            continue
        assert not verdict.valid, f"mutation {desc!r} still verifies"
        count += 1
    assert count >= 10


@pytest.mark.parametrize(
    "name, mutate, path, reason",
    [
        (
            "mod17_kill",
            lambda o: _walk(o, ["tree", "step"]).update(modulus="19"),
            "$.tree",
            "congruence mod 19 still has 648 solution classes, e.g. {'a': 0, 'b': 0, 'y': 1, 'z': 14}",
        ),
        (
            "theorem_20_99_101",
            lambda o: _walk(o, ["tree", "children", 4, "children", 3, "children", 0, "step", "derive", 0]).update(
                residues=["1"]
            ),
            "$.tree.children[4].children[3].children[0]",
            "derive[0]: declared classes [1] (mod 2) do not equal the projection [0] (mod 2)",
        ),
    ],
    ids=["mod17-modulus-to-19", "theorem-flip-derived-parity"],
)
def test_congruence_rejection_reason_is_pinned(name, mutate, path, reason):
    # the class count and first class of a leaf that is not empty, and the
    # projection a derive step is checked against, to the character
    obj = _shipped(name)
    mutate(obj)
    verdict = verify_certificate(Certificate.from_json(obj))
    assert (verdict.valid, verdict.path, verdict.reason) == (False, path, reason)


# 2^(y - x) == 1 (mod 2) at x = y = 1: the term is 2^0 = 1, which does not
# vanish mod 2, so no bound on y - x may be assumed beyond the domain's 0
_NEGATIVE_EXPONENT_KILL = [Term.of(1, (2, ExpExpr(Lin.of(0, x=-1, y=1)))), Term.of(-1)]
_NEGATIVE_EXPONENT_REASON = "congruence not checkable: term 2^(-x+y) has a non-unit base modulo 2 and does not vanish"


def test_kill_of_a_solvable_congruence_is_rejected():
    cert = killing_certificate(_NEGATIVE_EXPONENT_KILL, ConstraintSet.none(), 2)
    verdict = verify_certificate(loads_certificate(dumps_certificate(cert)))
    assert (verdict.valid, verdict.path, verdict.reason) == (False, "$.tree", _NEGATIVE_EXPONENT_REASON)


def test_cli_rejects_the_kill_of_a_solvable_congruence(tmp_path, capsys):
    f = tmp_path / "neg.cert.json"
    f.write_text(dumps_certificate(killing_certificate(_NEGATIVE_EXPONENT_KILL, ConstraintSet.none(), 2)))
    assert main(["verify", str(f)]) == 1
    out, _ = capsys.readouterr()
    verdicts = [line.strip() for line in out.splitlines() if "invalid" in line]
    assert len(verdicts) == 1 and verdicts[0].startswith(f"invalid at $.tree: {_NEGATIVE_EXPONENT_REASON}  (")


# 2^x == 1 (mod 2) at x = 0, which a stated lower bound of 0 lets in: the
# verifier must pass the sieve that 0, not the default bound 1 of a variable
_ZERO_BOUND_KILL = [Term.of(1, (2, ExpExpr(Lin.var("x")))), Term.of(-1)]
_ZERO_BOUND = ConstraintSet.none().with_lower_bound("x", 0)
_ZERO_BOUND_REASON = "congruence not checkable: term 2^x has a non-unit base modulo 2 and does not vanish"


def test_kill_under_a_stated_bound_of_0_is_rejected():
    assert find_killing_modulus(_ZERO_BOUND_KILL, _ZERO_BOUND, 2).modulus is None
    cert = killing_certificate(_ZERO_BOUND_KILL, _ZERO_BOUND, 2)
    verdict = verify_certificate(loads_certificate(dumps_certificate(cert)))
    assert (verdict.valid, verdict.path, verdict.reason) == (False, "$.tree", _ZERO_BOUND_REASON)


def test_cli_rejects_the_kill_under_a_stated_bound_of_0(tmp_path, capsys):
    f = tmp_path / "zero.cert.json"
    f.write_text(dumps_certificate(killing_certificate(_ZERO_BOUND_KILL, _ZERO_BOUND, 2)))
    assert main(["verify", str(f)]) == 1
    out, _ = capsys.readouterr()
    assert f"invalid at $.tree: {_ZERO_BOUND_REASON}  (" in out


def test_stated_bound_below_0_is_rejected():
    cons = ConstraintSet.none().with_lower_bound("x", -1)
    verdict = verify_certificate(killing_certificate(_ZERO_BOUND_KILL, cons, 2))
    assert (verdict.valid, verdict.path, verdict.reason) == (
        False, "$.equation", "stated lower bound -1 of x is below 0"
    )


# 2^x == 1 (mod m) at x = 0, the fixed value.  A fixed value is the name's
# one value and so its bound: the verifier once stated the default x >= 1
# beside x = 0, which left the domain empty, so any kill verified.
_FIXED_ZERO = ConstraintSet.none().with_fixed("x", 0)


@pytest.mark.parametrize("m", [2, 4])
def test_kill_under_a_fixed_value_of_0_is_rejected(m):
    assert find_killing_modulus(_ZERO_BOUND_KILL, _FIXED_ZERO, m).modulus is None
    cert = killing_certificate(_ZERO_BOUND_KILL, _FIXED_ZERO, m)
    verdict = verify_certificate(loads_certificate(dumps_certificate(cert)))
    reason = f"congruence not checkable: term 2^x has a non-unit base modulo {m} and does not vanish"
    assert (verdict.valid, verdict.path, verdict.reason) == (False, "$.tree", reason)


def test_kill_scan_refuses_a_lower_bound_on_an_atom():
    # a certificate states bounds per variable, so a kill may not rest on a
    # bound of r*(x): its certificate could not state it
    terms = [Term.of(1, (2, ExpExpr(Lin.var("x"), "r", -1))), Term.of(1, (9, ExpExpr(Lin.var("y")))), Term.of(1)]
    cons = ConstraintSet.none().with_lower_bound("r*(x)", 3)
    with pytest.raises(SieveError) as info:
        find_killing_modulus(terms, cons, 10)
    assert str(info.value) == "lower bound on 'r*(x)': a certificate states lower bounds on variables only"


# 2^(2x+1) + 2^y = 12 at (x, y) = (1, 2), with y even.  Under y := 2*(x+1)
# the exponent 2y would print as 2*x+1, the name of the atom 2x+1, whose
# proven bound of 3 the sieve would then apply to both: a false kill mod 8.
_ATOM_NAMED_TERMS = [Term.of(1, (2, ExpExpr(Lin.of(1, x=2)))), Term.of(1, (2, ExpExpr(Lin.var("y")))), Term.of(-12)]


def _substitute_then_kill(new) -> Certificate:
    leaf = {"step": {"kind": "contradiction", "reason": "empty-congruence", "eq": "main", "modulus": "8"}}
    tree = {"step": {"kind": "substitute", "var": "y", "stride": "2", "new": new}, "children": [leaf]}
    residues = {"y": {"modulus": "2", "residues": ["0"]}}
    equation = {"form": "congruence", "terms": terms_to_json(_ATOM_NAMED_TERMS), "constraints": {"residues": residues}}
    return Certificate("substitute then kill", equation, (), Node.from_json(tree))


def test_substitute_new_variable_must_be_an_identifier():
    assert verify_certificate(_substitute_then_kill("x+1")) == Verdict(
        False, "$.tree", "new variable 'x+1' is not an identifier"
    )
    verdict = verify_certificate(_substitute_then_kill("w"))
    assert verdict.path == "$.tree.children[0]" and verdict.reason.startswith("congruence not checkable")


# -- factor-split's checks ---------------------------------------------------------
# P^2 - Q^2 - R = 0 as the equation of a congruence certificate, split on the
# declared parts of R.  Every child is a leaf that cannot close, so a verdict
# at $.tree.children[0] means the split itself was accepted.

_X, _Y, _Z, _W = (ExpExpr(Lin.var(v)) for v in "xyzw")
_OPEN_LEAF = {"step": {"kind": "contradiction", "reason": "residue-conflict", "name": "open"}}
_SPLIT_ACCEPTED = ("$.tree.children[0]", "no empty residue constraint on 'open'")


def _split_case(parts, sides) -> dict:
    """A complete split's case: each odd part goes whole to its side, and
    the 'two' part 2^e puts 2^(e-1) on its side and 2 on the other."""
    factors = {"-": [], "+": []}
    for (name, e), side in zip(parts.items(), sides):
        if name == "two":
            factors[side].append(Power(2, e.shifted(-1)))
            factors["+" if side == "-" else "-"].append(Power(2, ExpExpr(Lin.const_of(1))))
        else:
            factors[side].append(Power(int(name), e))
    fminus, fplus = (terms_to_json([Term(1, tuple(factors[side]))])[0] for side in "-+")
    return {"placement": dict(zip(parts, sides)), "fminus": fminus, "fplus": fplus}


def _split_json(p, q, r, parts, lower_bounds=None, complete=True) -> tuple[dict, dict]:
    """The equation and case tree of a factor-split of P^2 - Q^2 = R.  p and
    q are (base, exponent) pairs, r is a tuple of them, and parts maps each
    part's name, "two" or its prime, to its declared exponent."""
    pp, qq = Power(*p), Power(*q)
    terms = [Term(1, (pp, pp)), Term(-1, (qq, qq)), Term(-1, tuple(Power(*pw) for pw in r))]
    step = {
        "kind": "factor-split", "eq": "main", "complete": complete,
        "p": {"base": str(pp.base), "exp": exp_to_json(pp.exp)},
        "q": {"base": str(qq.base), "exp": exp_to_json(qq.exp)},
        "parts": [{"two": True, "exp": exp_to_json(e)} if name == "two" else {"prime": name, "exp": exp_to_json(e)}
                  for name, e in parts.items()],
        "cases": [_split_case(parts, sides) for sides in itertools.product("-+", repeat=len(parts))],
    }
    constraints = {"lower_bounds": {name: str(b) for name, b in (lower_bounds or {}).items()}}
    equation = {"form": "congruence", "terms": terms_to_json(terms), "constraints": constraints}
    return equation, {"step": step, "children": [_OPEN_LEAF] * len(step["cases"])}


def _split_verdict(equation, tree) -> tuple[str, str]:
    verdict = verify_certificate(Certificate("factor split", equation, (), Node.from_json(tree)))
    return verdict.path, verdict.reason


def _factor_split(p, q, r, parts, lower_bounds=None, complete=True) -> tuple[str, str]:
    """The path and reason of the verdict on the factor-split _split_json builds."""
    return _split_verdict(*_split_json(p, q, r, parts, lower_bounds, complete))


_R_X1 = ExpExpr(Lin.var("x"), "r", 1)  # r*(x) + 1
_R_X = ExpExpr(Lin.var("x"), "r")  # r*(x)


@pytest.mark.parametrize(
    "p, q, r, parts, lower_bounds, reason",
    [
        ((2, _X), (3, _Y), ((5, _Z),), {"5": _Z}, {"x": 0}, "cannot determine the parity of P"),
        ((3, _X), (2, _Y), ((5, _Z),), {"5": _Z}, {"y": 0}, "cannot determine the parity of Q"),
        ((3, _X), (2, _Y), ((5, _Z),), {"5": _Z}, {"z": 0}, "cannot show the 5-part of R is nonempty"),
        ((3, _X), (5, _Y), ((2, _Z), (7, _W)), {"two": _Z, "7": _W}, {},
         "v2(R) >= 2 is not implied (both factors are even)"),
    ],
    ids=["parity-P", "parity-Q", "odd-part", "two-part"],
)
def test_factor_split_rejects_a_bound_it_cannot_prove(p, q, r, parts, lower_bounds, reason):
    assert _factor_split(p, q, r, parts, lower_bounds) == ("$.tree", reason)
    # the bound that was missing, stated, lets the split through
    proved = {name: 2 for name in lower_bounds} or {"z": 2}
    assert _factor_split(p, q, r, parts, proved) == _SPLIT_ACCEPTED


@pytest.mark.parametrize(
    "r, parts, lower_bounds, verdict",
    [
        # r*(x) + 1 >= 1 from r >= 1 and x >= 0: the linear part's bound is 0,
        # and the offset reaches 1
        (((5, _R_X1),), {"5": _R_X1}, {"x": 0}, _SPLIT_ACCEPTED),
        (((5, _R_X),), {"5": _R_X}, {"x": 0}, ("$.tree", "cannot show the 5-part of R is nonempty")),
        # r*(x) >= 2 from r >= 2 and x >= 1, the product of the two bounds;
        # the factors 2^(r*(x)-1) and 2 reproduce R because the normal form
        # folds the constant 2-exponent into the offset of the scaled one
        (((2, _R_X), (7, _W)), {"two": _R_X, "7": _W}, {"r": 2}, _SPLIT_ACCEPTED),
        (((2, _R_X), (7, _W)), {"two": _R_X, "7": _W}, {},
         ("$.tree", "v2(R) >= 2 is not implied (both factors are even)")),
        # R = 2^3 * 2^(r*(x)) * 7^w has the one 2-exponent r*(x) + 3
        (((2, ExpExpr(Lin.const_of(3))), (2, _R_X), (7, _W)), {"two": _R_X.shifted(3), "7": _W}, {},
         _SPLIT_ACCEPTED),
    ],
    ids=["offset", "no-offset", "product", "product-1", "constant-and-scaled"],
)
def test_factor_split_bounds_a_symbol_scaled_part_by_the_sieve_rule(r, parts, lower_bounds, verdict):
    q = (5, _Y) if "two" in parts else (2, _Y)
    assert _factor_split((3, _X), q, r, parts, lower_bounds) == verdict


def test_factor_split_rejects_a_prime_with_a_plain_and_a_scaled_exponent():
    # R = 2^z * 2^(r*(w)): the normal form lists 2 twice, which the split
    # does not decompose; comparing the two exponents' keys once raised
    r = ((2, _Z), (2, ExpExpr(Lin.var("w"), "r")))
    assert _factor_split((3, _X), (5, _Y), r, {}) == ("$.tree", "exponent of 2 in R is not a supported shape")


# 3^(2x) - 5^(2y) = 2^z * 7^w, split on the parts two: z and 7: w
_TWO_AND_7 = ((3, _X), (5, _Y), ((2, _Z), (7, _W)), {"two": _Z, "7": _W}, {"z": 2})


def test_partial_factor_split_takes_a_two_part():
    assert _factor_split(*_TWO_AND_7, complete=False) == _SPLIT_ACCEPTED


def _holds(child: Context, point: dict) -> bool:
    """Are the divisibility facts and equations of a split's child true at the point?"""
    for f in child.divisibilities:
        p, q = (Term(1, (pw,)).evaluate(point) for pw in (f.p, f.q))
        if (p - q if f.side == "-" else p + q) % f.divisor.evaluate(point):
            return False
    return all(sum(t.evaluate(point) for t in lhs) == sum(t.evaluate(point) for t in rhs)
               for lhs, rhs in child.equations.values())


@pytest.mark.parametrize("complete", [False, True], ids=["partial", "complete"])
def test_factor_split_of_a_two_part_holds_in_one_case_at_a_solution(complete):
    # 81 - 25 = 56 = 2^3 * 7 at (x, y, z, w) = (2, 1, 3, 1): F- = 4 = 2^(z-1)
    # and F+ = 14 = 2 * 7^w, so only the case (two: -, 7: +) holds there
    equation, tree = _split_json(*_TWO_AND_7, complete=complete)
    cert = Certificate("factor split", equation, (), Node.from_json(tree))
    children = engine._apply_factor_split(cert.tree.step, engine._initial_context(cert), "$.tree")
    point = {"x": 2, "y": 1, "z": 3, "w": 1}
    holding = [case["placement"] for case, child in zip(tree["step"]["cases"], children) if _holds(child, point)]
    assert holding == [{"two": "-", "7": "+"}]


@pytest.mark.parametrize("twice", [0, 1], ids=["two", "odd"])
def test_factor_split_rejects_a_part_declared_twice(twice):
    equation, tree = _split_json(*_TWO_AND_7)
    assert _split_verdict(equation, tree) == _SPLIT_ACCEPTED
    tree["step"]["parts"].append(tree["step"]["parts"][twice])
    assert _split_verdict(equation, tree) == (
        "$.tree", "cases must cover every placement of the declared parts exactly once"
    )


def test_factor_split_reads_a_square_and_R_through_the_normal_form():
    # P = 2^(r*(x)) squares to 4^(r*(x)), and R = 5^z * 25^z has one
    # 5-exponent, 3z.  P is even by r*(x) >= 1, from the stated r >= 1 and
    # x >= 1 of a congruence certificate, which only the sieve's rule reads
    assert _factor_split((2, _R_X), (3, _Y), ((5, _Z), (25, _Z)), {"5": ExpExpr(Lin.of(0, z=3))}) == _SPLIT_ACCEPTED
    assert _factor_split((2, _R_X), (3, _Y), ((5, _Z), (25, _Z)), {"5": _Z}) == (
        "$.tree", "declared exponent for 5 does not match R"
    )


def test_certificate_agrees_with_search():
    """Sampled soundness: the certified statement holds for concrete k."""
    t = Triple(20, 99, 101)
    for k in (2, 3, 4, 5, 8, 9, 10, 11, 33, 99, 101, 2 * 101, 5 * 11, 3 * 101):
        found = find_solutions_scaled(t, k, 12, 12).solution_set()
        assert found == {(2, 2, 2)}, k


def _slack_claim(strict=True, base_l=11, base_r=106):
    # base_l^y > base_r^z1 under y > z = 2*z1, z1 >= 1
    return claim_to_json(
        IneqClaim(
            slacks=("t", "w"),
            mapping=(("y", Lin.of(3, t=2, w=1)), ("z1", Lin.of(1, t=1))),
            inverse=(
                ("t", Lin.var("z1") - 1, 1),
                ("w", Lin.var("y") - Lin.var("z1") * 2 - 1, 1),
            ),
            lhs=(Term.of(1, (base_l, ExpExpr(Lin.of(3, t=2, w=1)))),),
            rhs=(Term.of(1, (base_r, ExpExpr(Lin.of(1, t=1)))),),
            ctx_lhs=(Term.of(1, (base_l, ExpExpr(Lin.var("y")))),),
            ctx_rhs=(Term.of(1, (base_r, ExpExpr(Lin.var("z1")))),),
            strict=strict,
        )
    )


def test_inequality_step_chain_example():
    # 11^y > 106^z1 under y > z = 2*z1: base (z1=1, y=3) gives 1331 > 106,
    # and a z1 step multiplies the left by 121 >= 106
    ok, reason = verify_inequality_step(_slack_claim())
    assert ok, reason


@pytest.mark.parametrize("field", ["map", "inv"])
def test_inequality_step_malformed_claim(field):
    claim = _slack_claim()
    claim[field] = []
    ok, reason = verify_inequality_step(claim)
    assert not ok and reason.startswith("bad inequality claim")


def test_inner_field_error_names_its_path_once():
    claim = _slack_claim()
    claim["ctx_lhs"][0]["powers"][0]["exp"]["lin"]["c"] = {"x+1": "1"}
    with pytest.raises(MalformedCertificateError) as e:
        claim_from_json(claim, "$.p")
    assert str(e.value) == "$.p[0]: variable name 'x+1' is not an identifier"


def test_inequality_step_false_base():
    # 2^x > 3^x fails at x = 1 already
    claim = claim_to_json(
        IneqClaim(
            slacks=("u",),
            mapping=(("x", Lin.of(1, u=1)),),
            inverse=(("u", Lin.var("x") - 1, 1),),
            lhs=(Term.of(1, (2, ExpExpr(Lin.of(1, u=1)))),),
            rhs=(Term.of(1, (3, ExpExpr(Lin.of(1, u=1)))),),
            ctx_lhs=(Term.of(1, (2, ExpExpr(Lin.var("x")))),),
            ctx_rhs=(Term.of(1, (3, ExpExpr(Lin.var("x")))),),
            strict=True,
        )
    )
    ok, reason = verify_inequality_step(claim)
    assert not ok and "base case" in reason


@pytest.mark.parametrize("a", [2, 3, 10])
def test_inequality_step_power_vs_power_minus_one(a):
    # a^x > a^x - 1 encoded as a^x >= 1 + (a^x - a... the direct form:
    # a^x * a >= a^x * 1 + (a - 1) ... simplest faithful check: a^x > a^x/a
    claim = claim_to_json(
        IneqClaim(
            slacks=("u",),
            mapping=(("x", Lin.of(1, u=1)),),
            inverse=(("u", Lin.var("x") - 1, 1),),
            lhs=(Term.of(1, (a, ExpExpr(Lin.of(1, u=1)))),),
            rhs=(Term.of(1, (a, ExpExpr(Lin.of(0, u=1)))),),
            ctx_lhs=(Term.of(1, (a, ExpExpr(Lin.var("x")))),),
            ctx_rhs=(Term.of(1, (a, ExpExpr(Lin.var("x") - 1))),),
            strict=True,
        )
    )
    ok, reason = verify_inequality_step(claim)
    assert ok, reason


def test_killing_certificate_round_trip():
    terms = [
        Term.of(1, (101, ExpExpr(Lin.var("z")))),
        Term.of(-1),
        Term.of(-1, (99, ExpExpr(Lin.var("y"))), (2, ExpExpr(Lin.var("a"))), (5, ExpExpr(Lin.var("b")))),
    ]
    cons = ConstraintSet.none().with_parity("z", 0)
    cert = killing_certificate(terms, cons, 17)
    assert verify_certificate(cert).valid
    assert verify_certificate(loads_certificate(dumps_certificate(cert))).valid
    wrong = killing_certificate(terms, cons, 13)
    assert not verify_certificate(wrong).valid


def test_standalone_inequality_node():
    x = ExpExpr(Lin.var("x"))
    terms = [Term.of(1, (7, x)), Term.of(-1, (7, x)), Term.of(-1)]
    claim = claim_to_json(
        IneqClaim(
            slacks=("u",),
            mapping=(("x", Lin.of(1, u=1)),),
            inverse=(("u", Lin.var("x") - 1, 1),),
            lhs=(Term.of(1, (7, ExpExpr(Lin.of(1, u=1)))),),
            rhs=(Term.of(1, (5, ExpExpr(Lin.of(1, u=1)))),),
            ctx_lhs=(Term.of(1, (7, x)),),
            ctx_rhs=(Term.of(1, (5, x)),),
            strict=True,
        )
    )
    tree = {
        "step": {"kind": "inequality", "claims": [claim]},
        "children": [
            {
                "step": {"kind": "contradiction", "reason": "empty-congruence", "eq": "main", "modulus": "3"},
                "children": [],
            }
        ],
    }
    cert = Certificate(
        title="standalone inequality node",
        equation={"form": "congruence", "terms": terms_to_json(terms), "constraints": {}},
        excluded=(),
        tree=Node.from_json(tree),
    )
    assert verify_certificate(cert).valid
    # wrong base case must fail inside the node
    bad = json.loads(json.dumps(tree).replace('"7"', '"4"'))
    cert_bad = Certificate(
        title="bad inequality node",
        equation={"form": "congruence", "terms": terms_to_json(terms), "constraints": {}},
        excluded=(),
        tree=Node.from_json(bad),
    )
    verdict = verify_certificate(cert_bad)
    assert not verdict.valid and "base case" in verdict.reason


def test_certified_statement_against_scale_sweep():
    """Broad cross-validation: bounded search finds only (2,2,2) for any
    k-shape the certificate covers."""
    t = Triple(20, 99, 101)
    for k in range(1, 301):
        assert find_solutions_scaled(t, k, 10, 10).solution_set() == {(2, 2, 2)}, k
    special = [2**6, 5**4, 2**3 * 5**2, 101**2, 3**4, 11**2, 3 * 11**2,
               2 * 101, 5 * 101, 3 * 101, 11 * 101, 2 * 3 * 5 * 11 * 101,
               99 * 101, 20 * 101, 2**10 * 5**5]
    for k in special:
        assert find_solutions_scaled(t, k, 14, 14).solution_set() == {(2, 2, 2)}, k


def test_malformed_certificates_rejected():
    with pytest.raises(MalformedCertificateError):
        loads_certificate("{not json")
    with pytest.raises(MalformedCertificateError):
        loads_certificate(json.dumps({"version": "1", "title": "x"}))
    with pytest.raises(MalformedCertificateError):
        loads_certificate(
            json.dumps({"version": "9", "title": "x", "equation": {}, "tree": {"step": {"kind": "k"}}})
        )


def _nested_certificate(levels: int) -> str:
    # written as text: the json module cannot serialise the deepest trees
    step = '"step": {"kind": "contradiction", "reason": "empty-congruence"}'
    tree = f'{{{step}, "children": [' * levels + "]}" * levels
    obj = _shipped("mod17_kill")
    return canonical_json(obj).replace(canonical_json(obj["tree"]), tree)


def test_tree_depth_cap():
    # the cap sits above every shipped certificate and loads at its limit
    deepest = max(_depth(c.tree) for c in builtin_certificates())
    assert deepest < MAX_TREE_DEPTH
    cert = loads_certificate(_nested_certificate(MAX_TREE_DEPTH))
    assert not verify_certificate(cert).valid
    with pytest.raises(MalformedCertificateError, match=f"deeper than {MAX_TREE_DEPTH} levels"):
        loads_certificate(_nested_certificate(MAX_TREE_DEPTH + 1))
    # too deep even for the JSON parser: malformed, not a RecursionError
    with pytest.raises(MalformedCertificateError, match="nested too deeply"):
        loads_certificate(_nested_certificate(2_000))


@pytest.mark.parametrize("levels", [MAX_TREE_DEPTH + 1, 2_000])
def test_deep_certificate_is_input_error(tmp_path, capsys, levels):
    f = tmp_path / "deep.cert.json"
    f.write_text(_nested_certificate(levels))
    assert main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot load certificate: $")


def _depth(node) -> int:
    return 1 + max((_depth(c) for c in node.children), default=0)


# -- hostile payloads ---------------------------------------------------------

_CONGRUENCE = (4, 1, 0)  # theorem: a congruence step that derives x and z even
_SUBSTITUTE = _CONGRUENCE + (0,)
_FACTOR_SPLIT = _SUBSTITUTE + (0, 0)
HUGE_MODULUS = (2**127 - 1) * (2**107 - 1)
_RESIDUE_SPLIT = (6, 2, 0, 0, 0, 0)  # theorem: splits y, known even, mod 4
_CLAIM = ["tree", "children", 1, "children", 0, "step", "claims", 0]  # subcase: first inequality claim
_CLAIM_PATH = "$.tree.children[1].children[0].claims[0]"
# theorem: the first claim of an equation-impossible leaf in case-1-1
PROBE_CLAIM = ["tree", "children", 3, "children", 1, "children", 0, "step", "claims", 0]
PROBE_PATH = "$.tree.children[3].children[1].children[0]"
# a Pythagorean triple (p^2 - q^2, 2pq, p^2 + q^2) whose w has a cofactor
# far above the range where is_prime is a proof
_P, _Q = 2**100, 3**50


def _node_path(node) -> str:
    return "$.tree" + "".join(f".children[{i}]" for i in node)


def _step_keys(node, *keys) -> list:
    """The JSON keys of the step at node, a tuple of child indices, then keys."""
    return ["tree", *(k for i in node for k in ("children", i)), "step", *keys]


def _edit_step(node, **fields):
    """Mutator setting fields of the step at node, a tuple of child indices."""

    def apply(obj):
        _walk(obj, _step_keys(node)).update(fields)

    return apply


# (id, shipped certificate, mutator, path of the rejection or load error, exit code)
HOSTILE_EDITS = [
    ("residue-modulus-zero", "mod17_kill",
     lambda o: o["equation"]["constraints"]["residues"]["z"].update(modulus="0"), "$.equation", 1),
    ("residue-modulus-missing", "mod17_kill",
     lambda o: o["equation"]["constraints"]["residues"]["z"].pop("modulus"), "$.equation", 1),
    ("residues-list", "mod17_kill", lambda o: o["equation"]["constraints"].update(residues=[]), "$.equation", 1),
    ("constraints-list", "mod17_kill", lambda o: o["equation"].update(constraints=[]), "$.equation", 1),
    ("equation-list", "mod17_kill", lambda o: o.update(equation=[]), "$.equation", 2),
    ("fixed-abc", "mod17_kill", lambda o: o["equation"]["constraints"].update(fixed={"y": "abc"}),
     "$.equation", 1),
    ("k-min-abc", "theorem_20_99_101", lambda o: o["equation"].update(k_min="abc"), "$.equation", 1),
    ("u-list", "theorem_20_99_101", lambda o: o["equation"].update(u=["20"]), "$.equation", 1),
    ("ordering-bogus", "subcase_z_lt_x_lt_y", lambda o: o["equation"].update(ordering="bogus"), "$.equation", 1),
    ("kind-list", "mod17_kill", _edit_step((), kind=["contradiction"]), "$.tree", 1),
    ("terms-int", "mod17_kill", lambda o: o["equation"].update(terms=5), "$.equation", 1),
    ("children-int", "mod17_kill", lambda o: o["tree"].update(children=5), "$.tree", 2),
    ("derive-modulus-zero", "theorem_20_99_101",
     lambda o: _walk(o, ["tree", "children", 4, "children", 1, "children", 0, "step", "derive", 0]).update(
         modulus="0"), _node_path(_CONGRUENCE), 1),
    ("substitute-var-list", "theorem_20_99_101", _edit_step(_SUBSTITUTE, var=["x"]), _node_path(_SUBSTITUTE), 1),
    ("factor-split-cases-int", "theorem_20_99_101", _edit_step(_FACTOR_SPLIT, cases=5),
     _node_path(_FACTOR_SPLIT), 1),
    ("factor-split-placement-list", "theorem_20_99_101",
     _edit_step(_FACTOR_SPLIT, cases=[{"placement": [["11", "-"]]}, {"placement": [["11", "+"]]}]),
     _node_path(_FACTOR_SPLIT), 1),
    ("claim-coef-zero", "subcase_z_lt_x_lt_y",
     lambda o: _walk(o, ["tree", "children", 1, "children", 0, "step", "claims", 0, "ctx_lhs", 0]).update(
         coef="0"), "$.tree.children[1].children[0]", 1),
    ("claim-int", "subcase_z_lt_x_lt_y", _edit_step((1, 0), claims=[5]), "$.tree.children[1].children[0]", 1),
    ("ordering-split-int", "theorem_20_99_101", _edit_step((), cases=5), "$.tree", 1),
    ("valuation-split-int", "subcase_z_lt_x_lt_y", _edit_step((), cases=5), "$.tree", 1),
    ("k-factor-int", "subcase_z_lt_x_lt_y", _edit_step((0,), pattern=5), "$.tree.children[0]", 1),
    ("huge-leaf-modulus", "mod17_kill", _edit_step((), modulus=str(HUGE_MODULUS)), "$.tree", 1),
    ("residue-split-modulus-huge", "theorem_20_99_101", _edit_step(_RESIDUE_SPLIT, modulus=str(10**12)),
     _node_path(_RESIDUE_SPLIT), 1),
    ("residue-split-lcm-huge", "theorem_20_99_101", _edit_step(_RESIDUE_SPLIT, modulus="99991"),
     _node_path(_RESIDUE_SPLIT), 1),
    ("claim-exponent-huge", "subcase_z_lt_x_lt_y",
     lambda o: _walk(o, _CLAIM + ["lhs", 0, "powers", 0, "exp", "lin"]).update(d=str(10**7)), _CLAIM_PATH, 1),
    ("claim-divisor-huge", "subcase_z_lt_x_lt_y",
     lambda o: _walk(o, _CLAIM + ["inv", "u"]).update(div=str(10**9)), _CLAIM_PATH, 1),
    ("claim-coef-unfactorable", "theorem_20_99_101",
     lambda o: _walk(o, PROBE_CLAIM + ["ctx_lhs", 0]).update(coef=str(HUGE_MODULUS)), PROBE_PATH, 1),
    ("factor-split-base-unfactorable", "theorem_20_99_101",
     lambda o: _walk(o, _step_keys(_FACTOR_SPLIT, "p")).update(base=str(HUGE_MODULUS)),
     _node_path(_FACTOR_SPLIT), 1),
    ("valuation-split-base-unfactorable", "theorem_20_99_101",
     lambda o: o["equation"].update(u=str(_P**2 - _Q**2), v=str(2 * _P * _Q), w=str(_P**2 + _Q**2)),
     "$.tree.children[3]", 1),
]


def _hostile(name, mutate) -> dict:
    obj = _shipped(name)
    mutate(obj)
    return obj


@pytest.mark.parametrize("name, mutate, path, code", [e[1:] for e in HOSTILE_EDITS], ids=[e[0] for e in HOSTILE_EDITS])
def test_hostile_edit_is_rejected_at_its_node(name, mutate, path, code):
    obj = _hostile(name, mutate)
    if code == 2:
        with pytest.raises(MalformedCertificateError) as e:
            Certificate.from_json(obj)
        assert e.value.path == path
        return
    verdict = verify_certificate(Certificate.from_json(obj))
    assert not verdict.valid
    assert verdict.path == path, verdict.describe()


def _variable_at(*keys):
    def edit(obj, name):
        _walk(obj, keys)["lin"]["c"][name] = "1"
        return f"variable name {name!r} is not an identifier"

    return edit


def _symbol_at(*keys):
    def edit(obj, name):
        _walk(obj, keys)["sym"] = name
        return f"symbol {name!r} is not an identifier"

    return edit


def _new_variable(obj, name):
    _walk(obj, _step_keys(_SUBSTITUTE))["new"] = name
    return f"new variable {name!r} is not an identifier"


_COMPLETE_SPLIT = (6, 1, 0, 0, 0, 0, 0)  # theorem: a factor-split whose cases state fminus and fplus
# Each place a certificate's terms are read: (shipped certificate, the JSON
# keys of one exponent there, the path its rejection names)
_EXPONENT_READS = {
    "equation-terms": ("mod17_kill", ["equation", "terms", 0, "powers", 0, "exp"], "$.equation.terms[0]"),
    "k-factor-reduced-lhs": ("theorem_20_99_101", _step_keys((3, 0), "reduced_lhs", 0, "powers", 0, "exp"),
                             "$.tree.children[3].children[0].reduced_lhs[0]"),
    "factor-split-p": ("theorem_20_99_101", _step_keys(_FACTOR_SPLIT, "p", "exp"), _node_path(_FACTOR_SPLIT) + ".p"),
    "factor-split-q": ("theorem_20_99_101", _step_keys(_FACTOR_SPLIT, "q", "exp"), _node_path(_FACTOR_SPLIT) + ".q"),
    "factor-split-parts": ("theorem_20_99_101", _step_keys(_FACTOR_SPLIT, "parts", 0, "exp"),
                           _node_path(_FACTOR_SPLIT) + ".parts[0]"),
    "factor-split-fminus": ("theorem_20_99_101", _step_keys(_COMPLETE_SPLIT, "cases", 0, "fminus", "powers", 0, "exp"),
                            _node_path(_COMPLETE_SPLIT) + ".cases[0].fminus"),
    "claim-ctx-lhs": ("theorem_20_99_101", PROBE_CLAIM + ["ctx_lhs", 0, "powers", 0, "exp"], PROBE_PATH + ".claims[0][0]"),
}
_NAME_EDITS = [
    (f"{place}-{role}", cert, edit(*keys), path)
    for place, (cert, keys, path) in _EXPONENT_READS.items()
    for role, edit in (("variable", _variable_at), ("symbol", _symbol_at))
] + [("substitute-new", "theorem_20_99_101", _new_variable, _node_path(_SUBSTITUTE))]


@pytest.mark.parametrize("name", ["x+1", "r*(x)"])
@pytest.mark.parametrize("cert, edit, path", [e[1:] for e in _NAME_EDITS], ids=[e[0] for e in _NAME_EDITS])
def test_a_name_that_spells_an_atom_is_rejected_where_terms_are_read(cert, edit, path, name):
    """Every variable and symbol a certificate writes is an identifier, so no
    two bare exponents print alike: the sieve's bounds keep one per name."""
    obj = _shipped(cert)
    reason = edit(obj, name)
    assert verify_certificate(Certificate.from_json(obj)) == Verdict(False, path, reason)


@pytest.mark.parametrize("name", [e[0] for e in HOSTILE_EDITS if e[0].endswith("-unfactorable")])
def test_unfactorable_integer_is_rejected_in_one_line(name):
    _, cert, mutate, path, _ = next(e for e in HOSTILE_EDITS if e[0] == name)
    verdict = verify_certificate(Certificate.from_json(_hostile(cert, mutate)))
    assert verdict.path == path
    assert verdict.reason.startswith("cannot factor a ") and verdict.reason.endswith(" is not provably prime")


def test_residue_split_rejection_lists_few_residues():
    obj = _hostile("theorem_20_99_101", _edit_step(_RESIDUE_SPLIT, modulus="1000"))
    verdict = verify_certificate(Certificate.from_json(obj))
    assert verdict.path == _node_path(_RESIDUE_SPLIT)
    # y is even: the cases {0} and {2} mod 1000 miss 498 even residues
    assert verdict.reason == "cases miss residues [4, 6, 8, 10, 12, 14, 16, 18, 20, 22] and 488 more (mod 1000)"


@pytest.mark.parametrize("const, ok", [(3490, True), (3497, False), (10**7, False)])
def test_inequality_step_bounds_the_base_case(const, ok):
    # 11^(const+2t+w) > 106^(1+t): the left term has 1 + 4*(const+3) bits at most
    claim = _slack_claim()
    claim["lhs"][0]["powers"][0]["exp"]["lin"]["d"] = str(const)
    assert verify_inequality_step(claim) == (ok, "" if ok else "a term's base case or growth factor is over 14000 bits")


_HOSTILE_VALUES = (None, [], {}, "abc", "0", "-1", 5)


def _slots(obj, out: list) -> list:
    """Every (container, key) pair under obj, depth first."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _payload_slots(obj: dict) -> list:
    """The slots of the equation and of every step payload in the tree."""
    out = _slots(obj["equation"], [])
    stack = [obj["tree"]]
    while stack:
        node = stack.pop()
        _slots(node["step"], out)
        stack.extend(node["children"])
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hostile_payload_value_ends_in_a_verdict(data):
    obj = _shipped(data.draw(st.sampled_from(sorted(n.removesuffix(".cert.json") for n in SHIPPED_SHA256))))
    container, key = data.draw(st.sampled_from(_payload_slots(obj)))
    container[key] = copy.deepcopy(data.draw(st.sampled_from(_HOSTILE_VALUES)))
    try:
        cert = Certificate.from_json(obj)
    except MalformedCertificateError:
        return
    assert isinstance(verify_certificate(cert), Verdict)


# -- work per verification ------------------------------------------------------


def _count_work(monkeypatch) -> dict:
    """Count implication queries, Fourier-Motzkin runs, linear-form
    lower-bound proofs and congruence folds."""
    counts = {"implied": 0, "fm": 0, "bounds": 0, "folds": 0}
    real_implied = Context.implied
    real_infeasible = context._infeasible
    real_bound = Context.lin_lower_bound
    real_fold = engine.congruence_fold

    def implied(self, lin, *extra):
        counts["implied"] += 1
        return real_implied(self, lin, *extra)

    def infeasible(facts):
        counts["fm"] += 1
        return real_infeasible(facts)

    def bound(self, lin, cap):
        counts["bounds"] += 1
        return real_bound(self, lin, cap)

    def fold(*args, **kwargs):
        counts["folds"] += 1
        return real_fold(*args, **kwargs)

    monkeypatch.setattr(Context, "implied", implied)
    monkeypatch.setattr(context, "_infeasible", infeasible)
    monkeypatch.setattr(Context, "lin_lower_bound", bound)
    monkeypatch.setattr(engine, "congruence_fold", fold)
    return counts


def test_theorem_verification_work_is_pinned(monkeypatch):
    # proving every bound up front and deciding each problem anew took 463
    # Fourier-Motzkin runs and 133 bound proofs; eliminating every problem
    # once, with no single-fact shortcut, took 87 runs of the 140 queries;
    # proving bounds per name, for the sieve to compose, took 140 queries,
    # 39 runs and 26 proofs, where each linear form and symbol is proved now;
    # factor-split's bound checks asked implied directly (164 queries and 38
    # proofs) before they read the sieve's exponent rule
    counts = _count_work(monkeypatch)
    assert verify_certificate(Certificate.from_json(_shipped("theorem_20_99_101"))).valid
    assert counts == {"implied": 170, "fm": 51, "bounds": 53, "folds": 35}, counts


def test_each_verification_has_its_own_memo(monkeypatch):
    memos: list[list] = []
    real_implied = Context.implied

    def implied(self, lin, *extra):
        memos[-1].append(self.memo)
        return real_implied(self, lin, *extra)

    monkeypatch.setattr(Context, "implied", implied)
    cert = Certificate.from_json(_shipped("theorem_20_99_101"))
    for _ in range(2):
        memos.append([])
        assert verify_certificate(cert).valid
    first, second = memos
    assert first and all(m is first[0] for m in first)
    assert second and all(m is second[0] for m in second)
    assert first[0] is not second[0]


def test_verdicts_do_not_depend_on_earlier_verifications():
    base = _shipped("theorem_20_99_101")
    mutants = []
    for _, mutate, _ in _mutations_theorem(base):
        obj = copy.deepcopy(base)
        mutate(obj)
        mutants.append(Certificate.from_json(obj))
    original = Certificate.from_json(base)
    fresh = [verify_certificate(m) for m in mutants]
    for mutant, verdict in zip(mutants, fresh):
        assert not verdict.valid
        assert verify_certificate(original) == Verdict(True)
        assert verify_certificate(mutant) == verdict


# -- verdict digest -------------------------------------------------------------


def _verdict_of(obj: dict) -> tuple[bool, str, str]:
    """(valid, path, reason) of a certificate object, a load error counting
    as a rejection at its path."""
    try:
        verdict = verify_certificate(Certificate.from_json(obj))
    except MalformedCertificateError as e:
        return False, e.path, e.message
    return verdict.valid, verdict.path, verdict.reason


def _all_verdicts() -> list[tuple[str, bool, str, str]]:
    """The verdicts of the shipped certificates, of the mutants of the
    three mutation tests and of HOSTILE_EDITS, sorted by name."""
    edits = []
    for name, mutations in (
        ("theorem_20_99_101", lambda base: ((d, f) for d, f, _ in _mutations_theorem(base))),
        ("mod17_kill", _mutations_small),
        ("subcase_z_lt_x_lt_y", _mutations_subcase),
    ):
        edits.append((f"shipped/{name}", name, lambda o: None))
        edits += [(f"mutant/{name}/{desc}", name, mutate) for desc, mutate in mutations(_shipped(name))]
    edits += [(f"hostile/{key}", name, mutate) for key, name, mutate, _, _ in HOSTILE_EDITS]
    return sorted((key, *_verdict_of(_hostile(name, mutate))) for key, name, mutate in edits)


# The SHA-256 of the sorted (name, valid, path, reason) tuples as JSON: a
# change to any verdict, down to one character of a reason, changes it.
VERDICT_DIGEST = "b4620ea7c3f61ec8f5eb4d2ee28a3350dde434c3e4ab428329924e91a8d76155"


def _digest(verdicts) -> str:
    return hashlib.sha256(json.dumps(verdicts, ensure_ascii=False).encode()).hexdigest()


def test_verdict_digest_is_pinned():
    verdicts = _all_verdicts()
    assert len(verdicts) == 3 + 15 + 11 + 11 + len(HOSTILE_EDITS)
    valid = [name for name, is_valid, _, _ in verdicts if is_valid]
    assert valid == ["shipped/mod17_kill", "shipped/subcase_z_lt_x_lt_y", "shipped/theorem_20_99_101"]
    assert _digest(verdicts) == VERDICT_DIGEST, json.dumps(verdicts, ensure_ascii=False)


if __name__ == "__main__":
    # The digest check as a plain script, for `python -O`, which strips the
    # asserts a pytest run would rest on; exits 1 when the digest differs:
    #   PYTHONPATH=src python -O tests/test_certificate.py --check-digest
    if sys.argv[1:] != ["--check-digest"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --check-digest")
    digest = _digest(_all_verdicts())
    print(f"verdict digest {digest}: {'pinned' if digest == VERDICT_DIGEST else 'DIFFERS from ' + VERDICT_DIGEST}")
    sys.exit(digest != VERDICT_DIGEST)
