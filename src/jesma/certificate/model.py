"""Certificate data model, canonical JSON serialization and the shipped certificates.

Certificates are data, never programs: each step carries only what the
verifier needs to recompute the claim from scratch.  All integers are
serialized as decimal strings so the canonical form is unambiguous at
any magnitude; canonical JSON has sorted keys and no whitespace.
"""

from __future__ import annotations

import json
import os
import re

from ..record import FRESH, Frozen
from ..symbolic import ExpExpr, Lin, Power, Term

__all__ = [
    "Certificate",
    "Node",
    "MalformedCertificateError",
    "lin_to_json",
    "lin_from_json",
    "term_to_json",
    "term_from_json",
    "terms_to_json",
    "terms_from_json",
    "canonical_json",
    "loads_certificate",
    "dumps_certificate",
    "builtin_certificates",
    "killing_certificate",
]

SCHEMA_VERSION = "1"
# Deepest case tree a certificate may hold.  The shipped certificates
# reach 12 levels; the cap keeps loading and verification, which recurse
# once per level, far inside the interpreter's recursion limit.
MAX_TREE_DEPTH = 200
# The name ExpExpr.atom_name gives a symbol-scaled exponent atom.
_ATOM_NAME = re.compile(r"[^\W\d]\w*\*\([\w+*-]+\)")


class MalformedCertificateError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def lin_to_json(lin: Lin) -> dict:
    return {"c": {v: str(c) for v, c in lin.coeffs}, "d": str(lin.const)}


def lin_from_json(obj: dict, path: str = "lin", atoms: bool = False) -> Lin:
    """A linear form whose variable names are identifiers, so that no name
    spells an exponent atom such as `x+1` or `r*(x)`.  With atoms, as in the
    inverse map of an inequality claim, a name may also be an atom `sym*(...)`."""
    try:
        coeffs = {str(v): int(c) for v, c in obj.get("c", {}).items()}
        lin = Lin.of(int(obj.get("d", "0")), **coeffs)
    except (TypeError, ValueError, AttributeError) as e:
        raise MalformedCertificateError(path, f"bad linear form: {e}")
    for v in coeffs:
        if not (v.isidentifier() or atoms and _ATOM_NAME.fullmatch(v)):
            raise MalformedCertificateError(path, f"variable name {v!r} is not an identifier")
    return lin


def exp_to_json(e: ExpExpr) -> dict:
    out: dict = {"lin": lin_to_json(e.lin)}
    if e.sym is not None:
        out["sym"] = e.sym
    if e.off:
        out["off"] = str(e.off)
    return out


def exp_from_json(obj: dict, path: str = "exp") -> ExpExpr:
    lin = lin_from_json(obj.get("lin", {}), path)
    sym = obj.get("sym")
    if sym is not None and not (isinstance(sym, str) and sym.isidentifier()):
        raise MalformedCertificateError(path, f"symbol {sym!r} is not an identifier")
    return ExpExpr(lin, sym, int(obj.get("off", "0")))


def term_to_json(t: Term) -> dict:
    return {
        "coef": str(t.coef),
        "powers": [{"base": str(p.base), "exp": exp_to_json(p.exp)} for p in t.powers],
    }


def term_from_json(obj: dict, path: str = "term") -> Term:
    try:
        coef = int(obj["coef"])
        powers = tuple(
            Power(int(p["base"]), exp_from_json(p["exp"], path)) for p in obj.get("powers", [])
        )
    except MalformedCertificateError:  # an inner field's error already names its path
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedCertificateError(path, f"bad term: {e}")
    return Term(coef, powers)


def terms_to_json(terms) -> list:
    return [term_to_json(t) for t in terms]


def terms_from_json(objs, path: str = "terms") -> tuple[Term, ...]:
    return tuple(term_from_json(o, f"{path}[{i}]") for i, o in enumerate(objs))


class Node(Frozen):
    """One proof step plus its children; leaves are contradiction steps."""

    _fields = ("step", "children")

    def __init__(self, step: dict, children: tuple[Node, ...] = ()):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "children", children)

    def to_json(self) -> dict:
        return {"step": self.step, "children": [c.to_json() for c in self.children]}

    @staticmethod
    def from_json(obj: dict, path: str = "tree", depth: int = 1) -> "Node":
        if depth > MAX_TREE_DEPTH:
            raise MalformedCertificateError(path, f"case tree deeper than {MAX_TREE_DEPTH} levels")
        if not isinstance(obj, dict) or "step" not in obj:
            raise MalformedCertificateError(path, "node needs a 'step' object")
        step = obj["step"]
        if not isinstance(step, dict) or "kind" not in step:
            raise MalformedCertificateError(path, "step needs a 'kind'")
        children = obj.get("children", [])
        if not isinstance(children, list):
            raise MalformedCertificateError(path, "'children' must be a list")
        return Node(
            step,
            tuple(Node.from_json(c, f"{path}.children[{i}]", depth + 1) for i, c in enumerate(children)),
        )


class Certificate(Frozen):
    """A machine-checkable nonexistence proof for one equation.

    The tree's splits must exhaust their domains and every leaf must be a
    contradiction the verifier re-derives; together they show the target
    equation has no solutions beyond the excluded set, under the recorded
    hypotheses (for scaled Pythagorean targets: k >= k_min).
    """

    _fields = ("title", "equation", "excluded", "tree", "metadata", "version")

    def __init__(
        self,
        title: str,
        equation: dict,
        excluded: tuple[tuple[int, int, int], ...],
        tree: Node,
        metadata: dict = FRESH,
        version: str = SCHEMA_VERSION,
    ):
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "excluded", excluded)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "metadata", {} if metadata is FRESH else metadata)
        object.__setattr__(self, "version", version)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "title": self.title,
            "metadata": self.metadata,
            "equation": self.equation,
            "excluded": [[str(a) for a in sol] for sol in self.excluded],
            "tree": self.tree.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise MalformedCertificateError("$", "certificate must be a JSON object")
        for key in ("version", "title", "equation", "tree"):
            if key not in obj:
                raise MalformedCertificateError("$", f"missing field {key!r}")
        if obj["version"] != SCHEMA_VERSION:
            raise MalformedCertificateError("$.version", f"unsupported version {obj['version']!r}")
        if not isinstance(obj["equation"], dict):
            raise MalformedCertificateError("$.equation", "equation must be a JSON object")
        try:
            excluded = tuple(tuple(int(a) for a in sol) for sol in obj.get("excluded", []))
        except (TypeError, ValueError) as e:
            raise MalformedCertificateError("$.excluded", str(e))
        return Certificate(
            title=str(obj["title"]),
            equation=obj["equation"],
            excluded=excluded,
            tree=Node.from_json(obj["tree"], "$.tree"),
            metadata=obj.get("metadata", {}),
            version=obj["version"],
        )


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_certificate(cert: Certificate) -> str:
    return canonical_json(cert.to_json())


def loads_certificate(text: str) -> Certificate:
    try:
        obj = json.loads(text)
        return Certificate.from_json(obj)
    except json.JSONDecodeError as e:
        raise MalformedCertificateError("$", f"invalid JSON: {e}")
    except RecursionError:
        raise MalformedCertificateError("$", "JSON nested too deeply to parse")


# The shipped certificates in the order `builtin_certificates` returns them;
# `jesma verify --builtin` takes the first whose title matches.
_BUILTIN_FILES = ("theorem_20_99_101.cert.json", "subcase_z_lt_x_lt_y.cert.json", "mod17_kill.cert.json")


def builtin_certificates() -> list[Certificate]:
    """The shipped certificates: the (20k, 99k, 101k) theorem for k >= 2, its
    z < x < y ordering on its own, and the mod 17 congruence kill.

    They are data like any other certificate: the verifier trusts nothing
    in them and re-derives every step.
    """
    data = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")
    out = []
    for name in _BUILTIN_FILES:
        with open(os.path.join(data, name), encoding="utf-8") as f:
            out.append(loads_certificate(f.read()))
    return out


def killing_certificate(terms, constraints, modulus: int, title: str = "") -> Certificate:
    """Single-branch certificate wrapping a killing-modulus witness."""
    cons_json: dict = {"residues": {}, "fixed": {}, "lower_bounds": {}}
    for name, (m, allowed) in sorted(constraints.residues.items()):
        cons_json["residues"][name] = {
            "modulus": str(m),
            "residues": [str(r) for r in sorted(allowed)],
        }
    for name, v in sorted(constraints.fixed.items()):
        cons_json["fixed"][name] = str(v)
    for name, b in sorted(constraints.lower_bounds.items()):
        cons_json["lower_bounds"][name] = str(b)
    leaf = {"kind": "contradiction", "reason": "empty-congruence", "eq": "main", "modulus": str(modulus)}
    return Certificate(
        title=title or f"congruence killed modulo {modulus}",
        equation={"form": "congruence", "terms": terms_to_json(terms), "constraints": cons_json},
        excluded=(),
        tree=Node(leaf),
        metadata={},
    )
