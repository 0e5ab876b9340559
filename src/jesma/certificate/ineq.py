"""Exponential inequality checking by base case plus growth ratios.

A claim compares two sums of positive product terms over nonnegative
slack variables.  It is accepted when it holds exactly at the all-zero
corner and, for each unit slack increment, the smallest per-term growth
factor on the large side is at least the largest on the small side; by
induction the inequality then holds on the whole orthant.

Context quantities (exponent variables and atoms) enter through an
affine map whose declared inverse the verifier checks for integrality,
nonnegativity and exactness, so the orthant provably covers every point
the proof branch still allows.
"""

from __future__ import annotations

import math
from functools import cmp_to_key

from ..record import Frozen
from ..symbolic import CONST_BITS_MAX, ExpExpr, Lin, Power, Term
from .context import RESIDUE_MODULUS_MAX, Context
from .model import (
    MalformedCertificateError,
    lin_from_json,
    lin_to_json,
    terms_from_json,
    terms_to_json,
)

__all__ = ["IneqClaim", "check_ratio_rule", "verify_claim_in_context", "claim_to_json", "claim_from_json"]


class IneqClaim(Frozen):
    _fields = ("slacks", "mapping", "inverse", "lhs", "rhs", "ctx_lhs", "ctx_rhs", "strict")

    def __init__(
        self,
        slacks: tuple[str, ...],
        mapping: tuple[tuple[str, Lin], ...],  # context quantity -> linear form over slacks
        inverse: tuple[tuple[str, Lin, int], ...],  # slack -> (form over ctx quantities, divisor)
        lhs: tuple[Term, ...],  # over slacks
        rhs: tuple[Term, ...],
        ctx_lhs: tuple[Term, ...],  # same terms in context variables
        ctx_rhs: tuple[Term, ...],
        strict: bool,
    ):
        object.__setattr__(self, "slacks", slacks)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "ctx_lhs", ctx_lhs)
        object.__setattr__(self, "ctx_rhs", ctx_rhs)
        object.__setattr__(self, "strict", strict)


def claim_to_json(c: IneqClaim) -> dict:
    return {
        "slacks": list(c.slacks),
        "map": {name: lin_to_json(lin) for name, lin in c.mapping},
        "inv": {s: {"lin": lin_to_json(lin), "div": str(d)} for s, lin, d in c.inverse},
        "lhs": terms_to_json(c.lhs),
        "rhs": terms_to_json(c.rhs),
        "ctx_lhs": terms_to_json(c.ctx_lhs),
        "ctx_rhs": terms_to_json(c.ctx_rhs),
        "strict": c.strict,
    }


def claim_from_json(obj: dict, path: str = "ineq") -> IneqClaim:
    try:
        return IneqClaim(
            slacks=tuple(obj["slacks"]),
            mapping=tuple(sorted((n, lin_from_json(l, path)) for n, l in obj.get("map", {}).items())),
            inverse=tuple(
                sorted(
                    (s, lin_from_json(e["lin"], path, atoms=True), int(e["div"]))
                    for s, e in obj.get("inv", {}).items()
                )
            ),
            lhs=terms_from_json(obj["lhs"], path),
            rhs=terms_from_json(obj["rhs"], path),
            ctx_lhs=terms_from_json(obj.get("ctx_lhs", obj["lhs"]), path),
            ctx_rhs=terms_from_json(obj.get("ctx_rhs", obj["rhs"]), path),
            strict=bool(obj["strict"]),
        )
    except MalformedCertificateError:  # an inner field's error already names its path
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise MalformedCertificateError(path, f"bad inequality claim: {e}")


def check_ratio_rule(
    lhs: tuple[Term, ...], rhs: tuple[Term, ...], slacks: tuple[str, ...], strict: bool
) -> str | None:
    """Context-free core: returns None when lhs > rhs (or >=) holds on the
    whole nonnegative orthant of the slack variables, else a reason."""
    if not lhs or not rhs:
        return "both sides need at least one term"
    for t in list(lhs) + list(rhs):
        if t.coef < 1:
            return f"term {t} is not positive"
        for p in t.powers:
            if p.base < 1:
                return f"base {p.base} is not positive"
            if p.exp.sym is not None:
                return f"symbolic exponent {p.exp} not allowed in slack form"
            if not p.exp.lin.variables() <= set(slacks):
                return f"exponent {p.exp} uses non-slack variables"
        # the term at the all-zero corner, and its growth factor along any one
        # slack, have at most this many bits: bound it before forming a power
        bits = t.coef.bit_length() + sum(
            p.base.bit_length() * (abs(p.exp.lin.const) + sum(abs(c) for _, c in p.exp.lin.coeffs))
            for p in t.powers
        )
        if bits > CONST_BITS_MAX:
            return f"a term's base case or growth factor is over {CONST_BITS_MAX} bits"
    base = {s: 0 for s in slacks}
    try:
        l0 = sum(t.evaluate(base) for t in lhs)
        r0 = sum(t.evaluate(base) for t in rhs)
    except ValueError as e:
        return f"base case not evaluable: {e}"
    if strict and not l0 > r0:
        return f"base case fails: {l0} > {r0} is false"
    if not strict and not l0 >= r0:
        return f"base case fails: {l0} >= {r0} is false"
    for s in slacks:
        delta = {s: 1}
        lmin = min((t.growth_pair(delta) for t in lhs), key=_BY_RATIO)
        rmax = max((t.growth_pair(delta) for t in rhs), key=_BY_RATIO)
        if lmin[0] * rmax[1] < rmax[0] * lmin[1]:
            return f"growth along {s}: left factor {_ratio_text(*lmin)} < right factor {_ratio_text(*rmax)}"
    return None


# growth factors are (numerator, denominator) pairs with positive parts,
# ordered by cross-multiplication
_BY_RATIO = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) prints it."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _forward_exp(e: ExpExpr, fwd: dict[str, Lin], path: str) -> Lin:
    if e.sym is None:
        out = Lin.const_of(e.lin.const)
        for v, c in e.lin.coeffs:
            if v not in fwd:
                raise MalformedCertificateError(path, f"variable {v} missing from map")
            out = out + fwd[v] * c
        return out
    name = e.atom_name()
    if name not in fwd:
        raise MalformedCertificateError(path, f"atom {name} missing from map")
    return fwd[name] + e.off


def _forward_terms(terms, fwd: dict[str, Lin], path: str) -> tuple[Term, ...]:
    out = []
    for t in terms:
        powers = tuple(Power(p.base, ExpExpr(_forward_exp(p.exp, fwd, path))) for p in t.powers)
        out.append(Term(t.coef, powers))
    return tuple(out)


def _implied_nonneg(ctx: Context, lin: Lin) -> bool:
    """ctx.implied with extra facts for exponent atoms: atom >= lin-part
    whenever the symbol is registered and the linear part is positive."""
    extra: list[Lin] = []
    for name, e in ctx.atom_registry().items():
        if name in lin.variables() and e.sym in ctx.syms and ctx.implied(e.lin - 1):
            extra += [Lin.var(name) - 1, Lin.var(name) - e.lin]
    return ctx.implied(lin, tuple(extra))


def verify_claim_in_context(ctx: Context, claim: IneqClaim, path: str) -> str | None:
    """Full verification of one claim against the branch context."""
    reason = check_ratio_rule(claim.lhs, claim.rhs, claim.slacks, claim.strict)
    if reason:
        return reason
    fwd = dict(claim.mapping)
    for name, lin in claim.mapping:
        if not lin.variables() <= set(claim.slacks):
            return f"map for {name} uses non-slack variables"
    # the context-side terms must transport exactly onto the slack-side terms
    try:
        if ctx.normal_form(_forward_terms(claim.ctx_lhs, fwd, path)) != ctx.normal_form(claim.lhs):
            return "context lhs does not match slack lhs under the map"
        if ctx.normal_form(_forward_terms(claim.ctx_rhs, fwd, path)) != ctx.normal_form(claim.rhs):
            return "context rhs does not match slack rhs under the map"
    except MalformedCertificateError as e:
        return e.message
    # declared inverse: each slack is a nonnegative integer at every point
    inv = {s: (lin, d) for s, lin, d in claim.inverse}
    for s in claim.slacks:
        if s not in inv:
            return f"slack {s} has no inverse"
        lin, d = inv[s]
        if d < 1:
            return f"slack {s} has nonpositive divisor"
        if d > RESIDUE_MODULUS_MAX:
            return f"slack {s}: divisor {d} is above {RESIDUE_MODULUS_MAX}"
        if d > 1:
            residues = ctx.lin_residues(lin, d)
            if residues != {0}:
                return f"slack {s}: {lin} is not always divisible by {d} (residues {sorted(residues)})"
        if not _implied_nonneg(ctx, lin):
            return f"slack {s}: {lin} >= 0 is not implied by the context"
    # map composed with inverse must be the identity on every mapped quantity
    for name, flin in claim.mapping:
        # the composition times den, the lcm of the divisors it uses
        den = math.lcm(*(inv[s][1] for s, _ in flin.coeffs))
        const = flin.const * den
        acc: dict[str, int] = {}
        for s, c in flin.coeffs:
            glin, d = inv[s]
            scale = c * (den // d)
            const += scale * glin.const
            for v, gc in glin.coeffs:
                acc[v] = acc.get(v, 0) + scale * gc
        acc = {v: c for v, c in acc.items() if c}
        if const != 0 or acc != {name: den}:
            return f"map/inverse composition is not the identity on {name}"
    return None
