"""Tiny symbolic layer for exponent bookkeeping.

The case analyses this package mechanizes only ever manipulate

  * linear integer expressions in the exponent variables (x, y, z, ...),
  * products of one valuation symbol (r, s, q) with such a linear form,
  * product terms  coef * prod(base_i ** exponent_i).

No general symbolic algebra: just enough structure to state exponent
identities, substitute variables, and evaluate exactly.
"""

from __future__ import annotations

import math

from .record import Frozen

__all__ = ["CONST_BITS_MAX", "Lin", "ExpExpr", "Power", "Term", "term_product"]

# A certificate stores a coefficient as decimal text, and Python converts at
# most 4,300 digits (about 14,280 bits) between int and str.  A term's constant
# part is judged by the sum of exponent times base bit length over its factors,
# an upper bound on its bit length that needs no power formed.
CONST_BITS_MAX = 14_000


class Lin(Frozen):
    """Integer-linear expression: sum(coeffs[v] * v) + const."""

    _fields = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, int], ...], const: int = 0):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs and self.const == other.const
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    @staticmethod
    def of(const: int = 0, /, **coeffs: int) -> "Lin":
        return Lin(tuple(sorted((v, c) for v, c in coeffs.items() if c)), const)

    @staticmethod
    def var(name: str) -> "Lin":
        return Lin(((name, 1),), 0)

    @staticmethod
    def const_of(c: int) -> "Lin":
        return Lin((), c)

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def variables(self) -> set[str]:
        return {v for v, _ in self.coeffs}

    def __add__(self, other: "Lin | int") -> "Lin":
        if isinstance(other, int):
            return Lin(self.coeffs, self.const + other)
        d = self.as_dict()
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return Lin(tuple(sorted((v, c) for v, c in d.items() if c)), self.const + other.const)

    def __sub__(self, other: "Lin | int") -> "Lin":
        return self + (other * -1 if isinstance(other, Lin) else -other)

    def __mul__(self, k: int) -> "Lin":
        if k == 0:
            return Lin((), 0)
        return Lin(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def is_const(self) -> bool:
        return not self.coeffs

    def evaluate(self, values: dict[str, int]) -> int:
        return self.const + sum(c * values[v] for v, c in self.coeffs)

    def substitute(self, var: str, repl: "Lin") -> "Lin":
        d = self.as_dict()
        c = d.pop(var, 0)
        base = Lin(tuple(sorted(d.items())), self.const)
        return base + repl * c if c else base

    def key(self) -> tuple:
        return (self.coeffs, self.const)

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"+{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c:+d}*{v}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


class ExpExpr(Frozen):
    """Exponent expression: a plain linear form, or sym * linear + off
    with sym a valuation symbol known to be a positive integer."""

    _fields = ("lin", "sym", "off")

    def __init__(self, lin: Lin, sym: str | None = None, off: int = 0):
        if sym is None and off:
            lin = lin + off
            off = 0
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "off", off)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.lin == other.lin and self.sym == other.sym and self.off == other.off
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lin, self.sym, self.off))

    def variables(self) -> set[str]:
        out = self.lin.variables()
        if self.sym:
            out.add(self.sym)
        return out

    def evaluate(self, values: dict[str, int]) -> int:
        v = self.lin.evaluate(values)
        return v * values[self.sym] + self.off if self.sym else v

    def substitute(self, var: str, repl: Lin) -> "ExpExpr":
        if self.sym == var:
            raise ValueError(f"cannot substitute into symbol {var}")
        return ExpExpr(self.lin.substitute(var, repl), self.sym, self.off)

    def shifted(self, delta: int) -> "ExpExpr":
        return ExpExpr(self.lin, self.sym, self.off + delta) if self.sym else ExpExpr(self.lin + delta)

    def key(self) -> tuple:
        # "" in a plain exponent's symbol slot keeps the keys of one prime
        # comparable: a symbol is an identifier, never ""
        return ("" if self.sym is None else self.sym, self.lin.key(), self.off)

    def atom_name(self) -> str:
        """Canonical name used to track residue constraints on this exponent.

        The name covers only the sym*(linear) part; a constant offset is
        applied on top of the atom's value where the exponent is used."""
        return f"{self.sym}*({self.lin})" if self.sym else str(self.lin)

    def __str__(self) -> str:
        if self.sym is None:
            return str(self.lin)
        tail = "" if not self.off else f"{self.off:+d}"
        if self.lin.is_const() and self.lin.const == 1:
            return f"{self.sym}{tail}"
        return f"{self.sym}*({self.lin}){tail}"


class Power(Frozen):
    _fields = ("base", "exp")

    def __init__(self, base: int, exp: ExpExpr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.base == other.base and self.exp == other.exp
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.exp))

    def __str__(self) -> str:
        e = str(self.exp)
        return f"{self.base}^{e}" if len(e) == 1 else f"{self.base}^({e})"


class Term(Frozen):
    """coef * prod(base ** exp) with positive integer bases."""

    _fields = ("coef", "powers")

    def __init__(self, coef: int, powers: tuple[Power, ...]):
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "powers", powers)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coef == other.coef and self.powers == other.powers
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coef, self.powers))

    @staticmethod
    def of(coef: int, *powers: tuple[int, ExpExpr]) -> "Term":
        return Term(coef, tuple(Power(b, e) for b, e in powers))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for p in self.powers:
            out |= p.exp.variables()
        return out

    def evaluate(self, values: dict[str, int]) -> int:
        out = self.coef
        for p in self.powers:
            e = p.exp.evaluate(values)
            if e < 0:
                raise ValueError(f"negative exponent {e} for {p}")
            out *= p.base**e
        return out

    def scaled(self, k: int) -> "Term":
        return Term(self.coef * k, self.powers)

    def substitute(self, var: str, repl: Lin) -> "Term":
        return Term(self.coef, tuple(Power(p.base, p.exp.substitute(var, repl)) for p in self.powers))

    def growth_pair(self, deltas: dict[str, int]) -> tuple[int, int]:
        """Exact factor this term gains when variables move by `deltas`, as
        a pair (numerator, denominator) of positive integers, not reduced.

        Only valid when every exponent's change is independent of the
        current point, i.e. for plain linear exponents, or symbol-scaled
        ones whose linear part does not change (the symbol itself must
        not move).
        """
        num = den = 1
        for p in self.powers:
            e = p.exp
            if e.sym is not None:
                if deltas.get(e.sym):
                    raise ValueError(f"cannot step valuation symbol {e.sym}")
                # sym * lin moves by sym * delta(lin); only safe if delta(lin) == 0
                dlin = sum(c * deltas.get(v, 0) for v, c in e.lin.coeffs)
                if dlin != 0:
                    raise ValueError(f"step changes symbolic exponent {e}")
                continue
            d = sum(c * deltas.get(v, 0) for v, c in e.lin.coeffs)
            if d >= 0:
                num *= p.base**d
            else:
                den *= p.base**-d
        return num, den

    def __str__(self) -> str:
        parts = [str(p) for p in self.powers]
        if self.coef != 1 or not parts:
            parts.insert(0, str(self.coef))
        return "*".join(parts)


def term_product(terms: list[Term]) -> Term:
    """The product of the terms as one term: the product of the
    coefficients, with every power kept as it is."""
    return Term(math.prod(t.coef for t in terms), tuple(p for t in terms for p in t.powers))
