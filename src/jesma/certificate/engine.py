"""Certificate verifier: re-derives every step by finite computation.

Nothing in a certificate is trusted.  Splits are checked for exhaustive
coverage, k-factoring is recomputed through the reduction module,
congruence claims are re-enumerated through the sieve, inequalities are
re-proved by the growth-ratio rule, and a branch is closed only when its
accumulated constraints are demonstrably empty or a cited classical
lemma's side conditions are verified to apply.
"""

from __future__ import annotations

import itertools
import math

from ..arith import FactoringLimitError, factorize_bounded
from ..record import Frozen, replace
from ..reduction import OrderingClass, factor_k_symbolic, isolated_base
from ..sieve import ConstraintSet, SieveError, _exp_lower_bound, congruence_fold
from ..symbolic import ExpExpr, Lin, Power, Term, term_product
from ..triples import Triple
from .context import Context, DivisibilityFact, refine_residues
from .ineq import check_ratio_rule, claim_from_json, verify_claim_in_context
from .model import (
    Certificate,
    MalformedCertificateError,
    Node,
    exp_from_json,
    lin_to_json,
    term_from_json,
    terms_from_json,
)

__all__ = ["Verdict", "verify_certificate", "verify_inequality_step"]

_ALL_CLASSES = [c.value for c in OrderingClass]

# What reading a payload of the wrong shape raises: a missing key, a list
# where a dict belongs, "abc" where an integer belongs, a zero modulus.
# The verifier turns these into a rejection at the node that holds the
# payload, in one place, so no step handler guards its own reads.
_PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, ArithmeticError)

_SHOWN_RESIDUES = 10  # missing residues a residue-split rejection lists


class Verdict(Frozen):
    _fields = ("valid", "path", "reason")

    def __init__(self, valid: bool, path: str = "", reason: str = ""):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.valid

    def describe(self) -> str:
        return "valid" if self.valid else f"invalid at {self.path}: {self.reason}"


class _Invalid(Exception):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-check every node of the certificate; failures carry the step path."""
    try:
        try:
            ctx = _initial_context(cert)
        except MalformedCertificateError:
            raise
        except _PAYLOAD_ERRORS as e:
            raise _Invalid("$.equation", f"malformed equation: {type(e).__name__}: {e}")
        form = cert.equation.get("form")
        root_kind = cert.tree.step.get("kind")
        if form == "pythag-exp" and "ordering" not in cert.equation and root_kind != "ordering-split":
            raise _Invalid("$.tree", "a pythag-exp certificate must split on orderings at the root")
        _verify_node(cert.tree, ctx, "$.tree")
    except _Invalid as e:
        return Verdict(False, e.path, e.reason)
    except MalformedCertificateError as e:
        return Verdict(False, e.path, e.message)
    return Verdict(True)


def _initial_context(cert: Certificate) -> Context:
    eq = cert.equation
    form = eq.get("form")
    if form == "pythag-exp":
        t = Triple(int(eq["u"]), int(eq["v"]), int(eq["w"]))
        if eq.get("k") != "symbolic":
            raise MalformedCertificateError("$.equation", "pythag-exp certificates take k symbolic")
        k_min = int(eq.get("k_min", "1"))
        ctx = Context(triple=t, k_min=k_min, excluded=cert.excluded, equation_form=form)
        for v in ("x", "y", "z"):
            ctx = ctx.with_fact(Lin.var(v) - 1)
        if "ordering" in eq:  # partial-scope certificate for one ordering class
            cls = OrderingClass(eq["ordering"])
            if not cls.is_strict():
                raise MalformedCertificateError("$.equation", "scoped ordering must be strict")
            ctx = _in_ordering(ctx, cls)
        return ctx
    if form == "congruence":
        terms = terms_from_json(eq.get("terms", []), "$.equation.terms")
        ctx = Context(triple=None, k_min=1, excluded=cert.excluded, equation_form=form)
        ctx = ctx.with_equation("main", terms, ())
        cons = eq.get("constraints", {})
        for name, ent in cons.get("residues", {}).items():
            ctx = ctx.with_residue(name, int(ent["modulus"]), {int(r) for r in ent["residues"]})
        fixed = {name: int(val) for name, val in cons.get("fixed", {}).items()}
        if fixed:
            ctx = replace(ctx, fixed=fixed)
            for name, v in fixed.items():
                ctx = ctx.with_fact(Lin.var(name) - v).with_fact(Lin.var(name) * -1 + v)
        # every name an exponent uses, inside atoms too: the sieve reads their
        # bounds, and a fixed name's one value is its bound
        for name in sorted(set().union(*(t.variables() for t in terms))):
            lb = int(cons.get("lower_bounds", {}).get(name, "1"))
            if lb < 0:  # the sieve takes no variable bound below 0 from the verifier
                raise _Invalid("$.equation", f"stated lower bound {lb} of {name} is below 0")
            if name not in fixed:
                ctx = ctx.with_fact(Lin.var(name) - lb)
        return ctx
    raise MalformedCertificateError("$.equation", f"unknown equation form {form!r}")


def _verify_node(node: Node, ctx: Context, path: str) -> None:
    kind = node.step.get("kind")
    handler = _HANDLERS.get(kind) if isinstance(kind, str) else None
    if handler is None:
        raise _Invalid(path, f"unknown step kind {kind!r}")
    try:
        children_ctx = handler(node.step, ctx, path)
    except MalformedCertificateError:
        raise
    except FactoringLimitError as e:  # an integer the verifier will not factor proves nothing
        raise _Invalid(path, str(e))
    except _PAYLOAD_ERRORS as e:
        raise _Invalid(path, f"malformed {kind} step: {type(e).__name__}: {e}")
    if children_ctx is None:  # contradiction leaf
        if node.children:
            raise _Invalid(path, "contradiction steps take no children")
        return
    if len(children_ctx) != len(node.children):
        raise _Invalid(path, f"step needs {len(children_ctx)} children, has {len(node.children)}")
    for i, (child, cctx) in enumerate(zip(node.children, children_ctx)):
        _verify_node(child, cctx, f"{path}.children[{i}]")


# -- split and transform steps ----------------------------------------------------


def _apply_ordering_split(step: dict, ctx: Context, path: str):
    if ctx.ordering is not None:
        raise _Invalid(path, "ordering already split")
    if ctx.equation_form != "pythag-exp":
        raise _Invalid(path, "ordering split applies to pythag-exp equations")
    cases = step.get("cases", [])
    if sorted(cases) != sorted(_ALL_CLASSES):
        missing = sorted(set(_ALL_CLASSES) - set(cases))
        raise _Invalid(path, f"ordering split is not exhaustive: missing {missing}")
    # only the root splits orderings: ctx is the initial context
    return [_in_ordering(ctx, OrderingClass(case)) for case in cases]


def _in_ordering(ctx: Context, cls: OrderingClass) -> Context:
    """ctx in class cls, with e2 - e1 - 1 >= 0 and e3 - e2 - 1 >= 0 for the
    exponents e1 < e2 < e3 of a strict class; other classes add no facts."""
    ctx = replace(ctx, ordering=cls)
    if cls.is_strict():
        e1, e2, e3 = cls.ascending()
        ctx = ctx.with_fact(Lin.var(e2) - Lin.var(e1) - 1).with_fact(Lin.var(e3) - Lin.var(e2) - 1)
    return ctx


def _apply_valuation_split(step: dict, ctx: Context, path: str):
    if ctx.ordering is None or not ctx.ordering.is_strict():
        raise _Invalid(path, "valuation split needs a strict ordering context")
    if ctx.pattern is not None:
        raise _Invalid(path, "k already factored in this branch")
    primes = sorted(factorize_bounded(isolated_base(ctx.triple, ctx.ordering)).primes())
    declared = [sorted(int(p) for p in case) for case in step.get("cases", [])]
    expected = []
    for mask in range(1 << len(primes)):
        expected.append(sorted(primes[i] for i in range(len(primes)) if mask >> i & 1))
    if sorted(map(tuple, declared)) != sorted(map(tuple, expected)):
        raise _Invalid(path, f"valuation split must cover all subsets of {primes}")
    return [
        replace(ctx, pattern=tuple(sorted(int(p) for p in case)), residues={})
        for case in step.get("cases", [])
    ]


def _apply_k_factor(step: dict, ctx: Context, path: str):
    if ctx.pattern is None:
        raise _Invalid(path, "k-factor needs a valuation-split pattern")
    if ctx.equations:
        raise _Invalid(path, "equation already reduced in this branch")
    declared = tuple(sorted(int(p) for p in step.get("pattern", [])))
    if declared != ctx.pattern:
        raise _Invalid(path, f"pattern {declared} does not match the branch pattern {ctx.pattern}")
    form = factor_k_symbolic(ctx.triple, set(ctx.pattern), ctx.ordering)
    want_contr = step.get("contradiction")
    if (form.contradiction or None) != (want_contr or None):
        raise _Invalid(
            path,
            f"re-derived contradiction {form.contradiction!r} does not match {want_contr!r}",
        )
    rels = [
        {"prime": str(r.prime), "val": str(r.val), "lhs": lin_to_json(r.lhs), "rhs": lin_to_json(r.rhs)}
        for r in form.relations
    ]
    if rels != step.get("relations", []):
        raise _Invalid(path, "relations do not match the re-derived k-factoring")
    if step.get("cofactor") != str(form.cofactor):
        raise _Invalid(path, f"cofactor must re-derive to {form.cofactor!r}")
    lhs = terms_from_json(step.get("reduced_lhs", []), f"{path}.reduced_lhs")
    rhs = terms_from_json(step.get("reduced_rhs", []), f"{path}.reduced_rhs")
    if not ctx.terms_equal(lhs, form.reduced_lhs) or not ctx.terms_equal(rhs, form.reduced_rhs):
        raise _Invalid(path, "reduced equation does not match the re-derived k-factoring")
    child = ctx.with_syms(r.val for r in form.relations if isinstance(r.val, str))
    if not form.contradiction:  # an impossible k-shape leaves the child to close it out
        child = child.with_equation("main", lhs, rhs)
    return [child]


def _apply_substitute(step: dict, ctx: Context, path: str):
    var = step.get("var")
    new = step.get("new")
    stride = int(step.get("stride", "0"))
    if stride < 2:
        raise _Invalid(path, f"stride must be >= 2, got {stride}")
    if not var or not new:
        raise _Invalid(path, "substitute needs 'var' and 'new'")
    if var not in ctx.residues:
        raise _Invalid(path, f"no residue constraint justifies {var} = {stride}*{new}")
    m, allowed = ctx.residues[var]
    if m % stride != 0 or any(a % stride for a in allowed):
        raise _Invalid(path, f"context does not force {stride} | {var}")
    used = set(ctx.residues) | {v for cs, _ in ctx.facts for v, _ in cs} | set(ctx.syms)
    if new in used or new == var:
        raise _Invalid(path, f"new variable {new} is already in use")
    if not (isinstance(new, str) and new.isidentifier()):  # else 2*(x+1) could spell an atom's name
        raise _Invalid(path, f"new variable {new!r} is not an identifier")
    return [ctx.substituted(var, stride, new)]


def _apply_congruence(step: dict, ctx: Context, path: str):
    fold = _fold_congruence(step, ctx, path)
    if fold.is_empty():
        raise _Invalid(path, "congruence has no solutions: use a contradiction step")
    derived = step.get("derive", [])
    if not derived:
        raise _Invalid(path, "congruence step derives nothing")
    for i, ent in enumerate(derived):
        name = ent.get("name")
        dm = int(ent["modulus"])
        ds = frozenset(int(r) % dm for r in ent["residues"])
        if name not in fold.variables:
            raise _Invalid(path, f"derive[{i}]: {name} is not enumerated by this congruence")
        period = fold.period_of(name)
        if period % dm != 0:
            raise _Invalid(path, f"derive[{i}]: modulus {dm} does not divide the period {period}")
        projection = fold.project(name)
        pullback = frozenset(a for a in range(period) if a % dm in ds)
        if pullback != projection:
            raise _Invalid(
                path,
                f"derive[{i}]: declared classes {sorted(ds)} (mod {dm}) do not equal the "
                f"projection {sorted(projection)} (mod {period})",
            )
        ctx = ctx.with_residue(name, dm, ds)
    return [ctx]


def _equation(step: dict, ctx: Context, path: str):
    """The id, left side and right side of the equation the step names."""
    eq_id = step.get("eq", "main")
    if eq_id not in ctx.equations:
        raise _Invalid(path, f"unknown equation {eq_id!r}")
    return (eq_id, *ctx.equations[eq_id])


def _fold_congruence(step: dict, ctx: Context, path: str):
    _, lhs, rhs = _equation(step, ctx, path)
    m = int(step["modulus"])
    terms = list(lhs) + [t.scaled(-1) for t in rhs]
    cons = ConstraintSet(ctx.residues, ctx.fixed)  # the branch's bounds come from lin_bound
    try:
        return congruence_fold(terms, m, cons, order_cap=2000, lin_bound=ctx.lin_lower_bound)
    except SieveError as e:  # a modulus the sieve cannot check is no proof, not a malformed payload
        raise _Invalid(path, f"congruence not checkable: {e}")


def _apply_residue_split(step: dict, ctx: Context, path: str):
    name = step.get("name")
    m = int(step["modulus"])
    cases = [frozenset(int(r) % m for r in case) for case in step["cases"]]
    if m < 2 or not cases:
        raise _Invalid(path, "bad residue split payload")
    # refuses a modulus above RESIDUE_MODULUS_MAX before listing any residue
    _, known = refine_residues(*ctx.residues.get(name, (1, {0})), m, range(m))
    missing = sorted({a % m for a in known}.difference(*cases))
    if missing:
        more = f" and {len(missing) - _SHOWN_RESIDUES} more" if len(missing) > _SHOWN_RESIDUES else ""
        raise _Invalid(path, f"cases miss residues {missing[:_SHOWN_RESIDUES]}{more} (mod {m})")
    return [ctx.with_residue(name, m, case) for case in cases]


def _apply_factor_split(step: dict, ctx: Context, path: str):
    eq_id, lhs, rhs = _equation(step, ctx, path)
    p_pow = Power(int(step["p"]["base"]), exp_from_json(step["p"]["exp"], f"{path}.p"))
    q_pow = Power(int(step["q"]["base"]), exp_from_json(step["q"]["exp"], f"{path}.q"))
    signed = list(lhs) + [t.scaled(-1) for t in rhs]
    if len(signed) != 3:
        raise _Invalid(path, "factor split needs an equation with exactly three terms")
    p2, q2 = (ctx.normal_form([Term(1, (pw, pw))]) for pw in (p_pow, q_pow))
    forms = [ctx.normal_form([Term(abs(t.coef), t.powers)]) for t in signed]
    # the last term that matches +-P^2 sets the sign; exactly one other matches -Q^2
    squares = [i for i, t in enumerate(signed) if abs(t.coef) == 1 and forms[i] == p2]
    if not squares:
        raise _Invalid(path, f"no term matches {p_pow}^2")
    eps = signed[squares[-1]].coef
    rest = [i for i in range(3) if i != squares[-1]]
    is_q = [signed[i].coef == -eps and forms[i] == q2 for i in rest]
    if is_q.count(True) != 1:
        raise _Invalid(path, f"no term matches -{q_pow}^2")
    r = signed[rest[is_q.index(False)]].scaled(-eps)
    if r.coef != 1:
        raise _Invalid(path, f"difference of squares must equal a unit-coefficient product, got {r}")
    if math.gcd(p_pow.base, q_pow.base) != 1:
        raise _Invalid(path, "P and Q must have coprime bases")

    # the bounds below come from the sieve's one rule for an exponent
    bound = ctx.lin_lower_bound
    p_odd = p_pow.base % 2 == 1
    q_odd = q_pow.base % 2 == 1
    if not p_odd and _exp_lower_bound(p_pow.exp, bound, 1) < 1:
        raise _Invalid(path, "cannot determine the parity of P")
    if not q_odd and _exp_lower_bound(q_pow.exp, bound, 1) < 1:
        raise _Invalid(path, "cannot determine the parity of Q")
    g = 2 if (p_odd and q_odd) else 1

    # prime -> key of R's exponent of it, read off R's normal form: one
    # entry per prime, unless a plain and a symbol-scaled exponent meet
    combined: dict[int, tuple] = {}
    for prime, key in ctx.normal_form([r])[0][1]:
        if prime in combined:
            raise _Invalid(path, f"exponent of {prime} in R is not a supported shape")
        combined[prime] = key

    # name -> (the power its own side takes, the power the other side takes
    # or None, the declared exponent).  An odd part p^e goes whole to its
    # side; gcd(F-, F+) = 2 splits the 'two' part 2^e into 2^(e-1) and 2.
    names: list[str] = []  # in declaration order, so a part declared twice shows
    rows: dict[str, tuple[Power, Power | None, ExpExpr]] = {}
    for i, pj in enumerate(step.get("parts", [])):
        exp = exp_from_json(pj["exp"], f"{path}.parts[{i}]")
        if pj.get("two"):
            if g != 2:
                raise _Invalid(path, "a 'two' part needs gcd(F-, F+) = 2")
            names.append("two")
            rows["two"] = (Power(2, exp.shifted(-1)), Power(2, ExpExpr(Lin.const_of(1))), exp)
        else:
            prime = int(pj["prime"])
            if prime == 2 or prime not in combined:
                raise _Invalid(path, f"part prime {prime} does not divide R")
            names.append(str(prime))
            rows[str(prime)] = (Power(prime, exp), None, exp)
    complete = bool(step.get("complete"))
    for own, other, exp in sorted(rows.values(), key=lambda row: row[1] is not None):  # 'two' last
        if other is None:
            if combined[own.base] != exp.key():
                raise _Invalid(path, f"declared exponent for {own.base} does not match R")
            if _exp_lower_bound(exp, bound, 1) < 1:
                raise _Invalid(path, f"cannot show the {own.base}-part of R is nonempty")
        else:
            if combined.get(2) != exp.key():
                raise _Invalid(path, "the 'two' part must match the 2-exponent of R")
            if _exp_lower_bound(exp, bound, 2) < 2:
                raise _Invalid(path, "v2(R) >= 2 is not implied (both factors are even)")
    if g == 1 and 2 in combined:
        raise _Invalid(path, "R must be odd when one of P, Q is even")
    if complete:
        if g == 2 and "two" not in rows:
            raise _Invalid(path, "a complete split with even factors needs the 'two' part")
        missing = set(map(str, combined)) - {str(own.base) for own, _, _ in rows.values()}
        if missing:
            raise _Invalid(path, f"complete split must place every prime of R; missing {sorted(missing)}")

    cases = step.get("cases", [])
    expected = [tuple(sorted(zip(names, sides))) for sides in itertools.product("-+", repeat=len(names))]
    got = [tuple(sorted(c.get("placement", {}).items())) for c in cases]
    if sorted(got) != sorted(expected):
        raise _Invalid(path, "cases must cover every placement of the declared parts exactly once")

    out = []
    for i, case in enumerate(cases):
        placement = case.get("placement", {})
        child = replace(ctx, fixed={})
        if complete:
            factors: dict[str, list[Power]] = {"-": [], "+": []}
            for name, side in placement.items():
                own, other, _ = rows[name]
                factors[side].append(own)
                if other is not None:
                    factors["+" if side == "-" else "-"].append(other)
            fm, fp = (Term(1, tuple(factors[side])) for side in "-+")
            fm_json = term_from_json(case.get("fminus", {}), f"{path}.cases[{i}].fminus")
            fp_json = term_from_json(case.get("fplus", {}), f"{path}.cases[{i}].fplus")
            if not ctx.terms_equal([fm_json], [fm]) or not ctx.terms_equal([fp_json], [fp]):
                raise _Invalid(path, f"cases[{i}]: factor terms do not match the placement")
            if not ctx.terms_equal([term_product([fm, fp])], [r]):
                raise _Invalid(path, f"cases[{i}]: factor product does not reproduce R")
            child = child.drop_equation(eq_id)
            pt = Term(1, (p_pow,))
            qt = Term(1, (q_pow,))
            child = child.with_equation("f-", (pt, qt.scaled(-1)), (fm,))
            child = child.with_equation("f+", (pt, qt), (fp,))
        else:  # each row's own power divides the factor on its side
            for name, side in placement.items():
                divisor = Term(1, (rows[name][0],))
                child = child.with_divisibility(DivisibilityFact(divisor, side, p_pow, q_pow))
        out.append(child)
    return out


def _apply_inequality(step: dict, ctx: Context, path: str):
    _verify_chain(step.get("claims", []), ctx, path)
    return [ctx]


def _verify_chain(claim_objs, ctx: Context, path: str) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The two ends (larger, smaller) of the strict inequality the chain proves."""
    if not claim_objs:
        raise _Invalid(path, "empty inequality chain")
    links: list[tuple] = []  # (lhs, rhs, strict), both sides in context variables
    for i, obj in enumerate(claim_objs):
        cpath = f"{path}.claims[{i}]"
        if obj.get("subset"):
            # sum >= sub-sum: every right term must appear on the left
            lhs = terms_from_json(obj.get("ctx_lhs", []), cpath)
            rhs = terms_from_json(obj.get("ctx_rhs", []), cpath)
            if any(t.coef < 1 for t in list(lhs) + list(rhs)):
                raise _Invalid(cpath, "subset links need positive terms")
            left = list(ctx.normal_form(lhs))
            for item in ctx.normal_form(rhs):
                if item not in left:
                    raise _Invalid(cpath, "right side is not a sub-sum of the left side")
                left.remove(item)
            links.append((lhs, rhs, False))
            continue
        claim = claim_from_json(obj, cpath)
        reason = verify_claim_in_context(ctx, claim, cpath)
        if reason:
            raise _Invalid(cpath, reason)
        links.append((claim.ctx_lhs, claim.ctx_rhs, claim.strict))
    for i in range(len(links) - 1):
        if not ctx.terms_equal(links[i][1], links[i + 1][0]):
            raise _Invalid(path, f"chain break between claims[{i}] and claims[{i + 1}]")
    if not any(strict for _, _, strict in links):
        raise _Invalid(path, "chain proves no strict inequality")
    return links[0][0], links[-1][1]


# -- contradiction leaves -----------------------------------------------------------


def _apply_contradiction(step: dict, ctx: Context, path: str):
    reason = step.get("reason")
    checker = _CONTRADICTIONS.get(reason)
    if checker is None:
        raise _Invalid(path, f"unknown contradiction reason {reason!r}")
    checker(step, ctx, path)
    return None


def _contr_k_forced_one(step: dict, ctx: Context, path: str) -> None:
    if ctx.pattern != ():
        raise _Invalid(path, "k-forced-one applies to the coprime valuation pattern")
    if ctx.k_min < 2:
        raise _Invalid(path, "k-forced-one needs the hypothesis k >= 2")
    if ctx.ordering is None or not ctx.ordering.is_strict():
        raise _Invalid(path, "k-forced-one needs a strict ordering")


def _contr_lemma_z_ge_max(step: dict, ctx: Context, path: str) -> None:
    if ctx.equation_form != "pythag-exp":
        raise _Invalid(path, "the lemma applies to pythag-exp equations")
    if ctx.ordering not in (OrderingClass.ALL_EQUAL, OrderingClass.Z_GE_MAX):
        raise _Invalid(path, f"z >= max(x, y) does not hold in class {ctx.ordering}")
    if (2, 2, 2) not in ctx.excluded:
        raise _Invalid(path, "the lemma leaves (2, 2, 2) unexcluded")


def _contr_lemma_distinct(step: dict, ctx: Context, path: str) -> None:
    if ctx.equation_form != "pythag-exp":
        raise _Invalid(path, "the lemma applies to pythag-exp equations")
    if ctx.ordering != OrderingClass.HAS_TIE:
        raise _Invalid(path, f"the distinctness lemma applies to tied exponents, not {ctx.ordering}")
    if (2, 2, 2) not in ctx.excluded:
        raise _Invalid(path, "the lemma leaves (2, 2, 2) unexcluded")


def _contr_empty_congruence(step: dict, ctx: Context, path: str) -> None:
    fold = _fold_congruence(step, ctx, path)
    if not fold.is_empty():
        raise _Invalid(
            path,
            f"congruence mod {fold.modulus} still has {len(fold)} solution classes, e.g. "
            f"{dict(zip(fold.variables, fold.first()))}",
        )


def _contr_residue_conflict(step: dict, ctx: Context, path: str) -> None:
    name = step.get("name")
    if name not in ctx.residues or ctx.residues[name][1]:
        raise _Invalid(path, f"no empty residue constraint on {name!r}")


def _positive_form(lhs, rhs):
    """Move negated terms across the equality so both sides are positive."""
    pos_l = [t for t in lhs if t.coef > 0] + [t.scaled(-1) for t in rhs if t.coef < 0]
    pos_r = [t for t in rhs if t.coef > 0] + [t.scaled(-1) for t in lhs if t.coef < 0]
    return tuple(pos_l), tuple(pos_r)


def _contr_equation_impossible(step: dict, ctx: Context, path: str) -> None:
    _, lhs, rhs = _equation(step, ctx, path)
    lhs, rhs = _positive_form(lhs, rhs)
    larger = step.get("larger")
    if larger == "lhs":
        big, small = lhs, rhs
    elif larger == "rhs":
        big, small = rhs, lhs
    else:
        raise _Invalid(path, "'larger' must be 'lhs' or 'rhs'")
    larger, smaller = _verify_chain(step.get("claims", []), ctx, path)
    if not ctx.terms_equal(larger, big) or not ctx.terms_equal(smaller, small):
        raise _Invalid(path, "the proven inequality does not compare the equation's sides")


def _contr_divisor_too_large(step: dict, ctx: Context, path: str) -> None:
    idx = int(step["fact"])
    if not 0 <= idx < len(ctx.divisibilities):
        raise _Invalid(path, "no such divisibility fact")
    fact = ctx.divisibilities[idx]
    larger, smaller = _verify_chain(step.get("claims", []), ctx, path)
    # chain must show divisor > P + Q >= |dividend|, with dividend > 0
    p_term = Term(1, (fact.p,))
    q_term = Term(1, (fact.q,))
    if not ctx.terms_equal(larger, [fact.divisor]):
        raise _Invalid(path, "the chain does not start from the divisor")
    if not ctx.terms_equal(smaller, [p_term, q_term]):
        raise _Invalid(path, "the chain does not end at P + Q")


_HANDLERS = {
    "ordering-split": _apply_ordering_split,
    "valuation-split": _apply_valuation_split,
    "k-factor": _apply_k_factor,
    "substitute": _apply_substitute,
    "congruence": _apply_congruence,
    "residue-split": _apply_residue_split,
    "factor-split": _apply_factor_split,
    "inequality": _apply_inequality,
    "contradiction": _apply_contradiction,
}

_CONTRADICTIONS = {
    "k-forced-one": _contr_k_forced_one,
    "z-ge-max-lemma": _contr_lemma_z_ge_max,
    "distinct-exponents-lemma": _contr_lemma_distinct,
    "empty-congruence": _contr_empty_congruence,
    "residue-conflict": _contr_residue_conflict,
    "equation-impossible": _contr_equation_impossible,
    "divisor-too-large": _contr_divisor_too_large,
}


def verify_inequality_step(claim_json: dict) -> tuple[bool, str]:
    """Context-free check of one inequality claim (the growth-ratio rule)."""
    try:
        claim = claim_from_json(claim_json)
    except MalformedCertificateError as e:
        return False, e.message
    reason = check_ratio_rule(claim.lhs, claim.rhs, claim.slacks, claim.strict)
    return (reason is None), (reason or "")
