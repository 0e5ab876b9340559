"""The four benchmark workloads: their operations, inputs and correctness gates.

An operation is one `jesma` CLI command, given as an argv list for
`jesma.cli.main`.  Each operation carries the answer it must produce; its
`check` method compares the captured exit code and output with that answer
and returns None when they agree, or a one-line reason when they do not.

The seed only permutes a fixed multiset of operations, so every workload
keeps the same mix of operations on every seed; each cycle of a run is one
permutation of that multiset.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

# Scales for `grid`: (20k)^x + (99k)^y = (101k)^z over x, y <= 600.  The
# shipped theorem certificate proves the only solution is (2, 2, 2) for
# every k >= 2, so the expected answer rests on a proof, not on the program.
GRID_SCALES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
GRID_BOUND = 600

KILL_TERMS = "101^z - 1 - 99^y*2^a*5^b"
SCAN_MMAX = 40

CERT_FILES = ("theorem_20_99_101", "subcase_z_lt_x_lt_y", "mod17_kill")


@dataclass(frozen=True)
class Outcome:
    """What one CLI command left behind."""

    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Op:
    """One CLI command and the answer it must produce.

    kind selects the gate; expect holds the kind's expected answer.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    def check(self, out: Outcome) -> str | None:
        return _GATES[self.kind](self, out)


def _json_report(out: Outcome, command: str) -> dict:
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError:
        raise _Wrong(f"stdout is not one JSON report: {out.stdout[:80]!r}")
    if not isinstance(report, dict) or report.get("command") != command:
        raise _Wrong(f"report is not a {command!r} report")
    return report


class _Wrong(Exception):
    pass


def _expect_code(out: Outcome, code: int) -> None:
    if out.code != code:
        raise _Wrong(f"exit code {out.code}, expected {code}; stderr {out.stderr.strip()[:120]!r}")


def _gate_search(op: Op, out: Outcome) -> None:
    _expect_code(out, 0)
    report = _json_report(out, "search")
    if report.get("instance") != op.expect["instance"]:
        raise _Wrong(f"instance {report.get('instance')!r}, expected {op.expect['instance']!r}")
    try:
        found = {tuple(int(a) for a in sol) for sol in report["results"]}
    except (KeyError, TypeError, ValueError):
        raise _Wrong("results are not a list of integer tuples")
    if len(found) != len(report["results"]) or found != op.expect["solutions"]:
        raise _Wrong(f"solutions {sorted(found)}, expected {sorted(op.expect['solutions'])}")


def _gate_corpus(op: Op, out: Outcome) -> None:
    _expect_code(out, 0)
    report = _json_report(out, "corpus")
    results = report.get("results")
    if not isinstance(results, list):
        raise _Wrong("corpus report has no results list")
    ids = [r.get("id") for r in results]
    if ids != op.expect["ids"]:
        raise _Wrong(f"{len(ids)} entries reported, expected the {len(op.expect['ids'])} of the file in order")
    failed = [r.get("id") for r in results if r.get("passed") is not True]
    if failed:
        raise _Wrong(f"entries not PASS: {failed[:5]}")


def _gate_verify(op: Op, out: Outcome) -> None:
    valid = op.expect["valid"]
    _expect_code(out, 0 if valid else 1)
    report = _json_report(out, "verify")
    verdict = report.get("results") or {}
    if verdict.get("valid") is not valid:
        raise _Wrong(f"verdict valid={verdict.get('valid')!r}, expected {valid}")
    if report.get("instance") != op.expect["title"]:
        raise _Wrong(f"verified {report.get('instance')!r}, expected {op.expect['title']!r}")
    prefix = op.expect.get("path_prefix")
    if prefix is not None and not str(verdict.get("path", "")).startswith(prefix):
        raise _Wrong(f"rejected at {verdict.get('path')!r}, expected under {prefix!r}")


def _gate_prove(op: Op, out: Outcome) -> None:
    _expect_code(out, 0)
    modulus = op.expect["modulus"]
    if f"killing modulus {modulus};" not in out.stdout:
        raise _Wrong(f"prove did not report modulus {modulus}: {out.stdout.strip()[:120]!r}")
    try:
        text = Path(op.expect["output"]).read_text()
        obj = json.loads(text)
    except (OSError, json.JSONDecodeError) as e:
        raise _Wrong(f"emitted certificate unreadable: {e}")
    step = obj.get("tree", {}).get("step", {})
    if step.get("reason") != "empty-congruence" or step.get("modulus") != str(modulus):
        raise _Wrong(f"certificate leaf is {step!r}, expected an empty congruence mod {modulus}")
    if obj.get("equation", {}).get("terms") != op.expect["terms"]:
        raise _Wrong("certificate states another equation")
    if obj.get("equation", {}).get("constraints", {}).get("residues") != op.expect["residues"]:
        raise _Wrong("certificate states other constraints")
    if not op.expect["reverify"](text):
        raise _Wrong("emitted certificate does not re-verify")


def _gate_no_kill(op: Op, out: Outcome) -> None:
    _expect_code(out, 1)
    if out.stdout.strip():
        raise _Wrong("prove printed a certificate where none exists")
    want = f"no killing modulus up to {op.expect['mmax']}"
    if not out.stderr.startswith(want):
        raise _Wrong(f"stderr {out.stderr.strip()[:120]!r}, expected {want!r}")


def _checked(gate):
    def check(op: Op, out: Outcome) -> str | None:
        try:
            gate(op, out)
        except _Wrong as e:
            return str(e)
        return None

    return check


_GATES = {
    "search": _checked(_gate_search),
    "corpus": _checked(_gate_corpus),
    "verify": _checked(_gate_verify),
    "prove": _checked(_gate_prove),
    "no-kill": _checked(_gate_no_kill),
}


# -- certificate mutations --------------------------------------------------
# The same kinds of damage the certificate tests apply, restated here so the
# benchmark does not depend on the test suite.  Each must be rejected with
# exit code 1 (an invalid verdict, not a malformed file).  Theorem mutations
# also name the subtree the verifier must reject.


def _walk(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _set(path, **values):
    return lambda o: _walk(o, path).update(values)


def _replace_in(path, key, old, new):
    def apply(o):
        step = _walk(o, path)
        step[key] = json.loads(json.dumps(step[key]).replace(old, new))

    return apply


def _drop_case(path):
    def apply(o):
        node = _walk(o, path)
        node["step"]["cases"].pop(1)
        node["children"].pop(1)

    return apply


_C4 = ["tree", "children", 4]
_INEQ = _C4 + ["children", 1, "children", 0, "children", 0, "children", 0, "children", 0, "children", 0, "step"]

MUTATIONS = {
    "theorem_20_99_101": (
        ("modulus 17 to 19", _set(_C4 + ["children", 3, "children", 0, "children", 0, "step"], modulus="19"),
         "$.tree.children[4].children[3].children[0].children[0]"),
        ("flip derived parity", _set(_C4 + ["children", 3, "children", 0, "step", "derive", 0], residues=["1"]),
         "$.tree.children[4].children[3].children[0]"),
        ("drop valuation case", _drop_case(_C4), "$.tree.children[4]"),
        ("shrink inequality base", _replace_in(_INEQ, "claims", '"106"', '"94"'), "$.tree.children[4].children[1]"),
    ),
    "subcase_z_lt_x_lt_y": (
        ("pattern mismatch", _set(["tree", "children", 1, "step"], pattern=[]), None),
        ("k_min weakened", _set(["equation"], k_min="1"), None),
        ("inequality rhs inflated",
         _set(["tree", "children", 1, "children", 0, "step", "claims", 0, "ctx_rhs", 0], coef="2"), None),
    ),
    "mod17_kill": (
        ("modulus to 19", _set(["tree", "step"], modulus="19"), None),
        ("flip z parity", _set(["equation", "constraints", "residues", "z"], residues=["1"]), None),
        ("coef sign flip", _set(["equation", "terms", 1], coef="1"), None),
    ),
}


# -- workloads ---------------------------------------------------------------


_N_MUTANTS = sum(len(m) for m in MUTATIONS.values())


@dataclass(frozen=True)
class Spec:
    why: str
    seed_varies: str


SPECS = {
    "grid": Spec(
        "bigint grid scan in search with the process pool engaged: 600x600 cells per op",
        f"the order of the {len(GRID_SCALES)} scales k in each cycle; the scales themselves are fixed",
    ),
    "corpus": Spec(
        "many small grids over all four forms plus one pool spawn per command",
        "the order of the 49 catalogue entries in the corpus file; the entries are fixed",
    ),
    "certify": Spec(
        "verifier (Fourier-Motzkin implication) and small constrained sieve tori; search idle",
        f"the order of the {len(CERT_FILES) + _N_MUTANTS + 1} operations in each cycle "
        f"({len(CERT_FILES)} shipped certificates, {_N_MUTANTS} mutants, 1 prove); the operations are fixed",
    ),
    "sieve-scan": Spec(
        "every modulus 2..40 tried on large unconstrained tori; no modulus kills",
        "nothing: every op is the same command, so the seed has no effect",
    ),
}
NAMES = tuple(SPECS)


@dataclass(frozen=True)
class Workload:
    """A fixed multiset of operations plus the warm-up run during set-up.

    cycle(rng) returns one seeded permutation of the multiset.
    """

    ops: tuple[Op, ...]
    warmup: Op

    def cycle(self, rng: random.Random) -> list[Op]:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops


def data_dir(root: Path) -> Path:
    return root / "src" / "jesma" / "data"


def grid_op(k: int, solutions=frozenset({(2, 2, 2)})) -> Op:
    argv = ("search", "--form", "pythag", "--u", "20", "--v", "99", "--w", "101", "--k", str(k),
            "--xmax", str(GRID_BOUND), "--ymax", str(GRID_BOUND), "--json")
    instance = f"{20 * k}^x + {99 * k}^y = {101 * k}^z"
    return Op("search", argv, {"instance": instance, "solutions": set(solutions)})


def build_grid(root: Path, work: Path, seed: int, reverify) -> Workload:
    return Workload(tuple(grid_op(k) for k in GRID_SCALES), grid_op(GRID_SCALES[0]))


def corpus_op(path: Path, ids: list[str]) -> Op:
    return Op("corpus", ("corpus", "--file", str(path), "--json"), {"ids": ids})


def build_corpus(root: Path, work: Path, seed: int, reverify) -> Workload:
    entries = json.loads((data_dir(root) / "corpus.json").read_text())
    random.Random(seed).shuffle(entries)
    path = work / f"corpus-{seed}.json"
    path.write_text(json.dumps(entries, indent=1))
    op = corpus_op(path, [e["id"] for e in entries])
    return Workload((op,), op)


def _title(obj: dict) -> str:
    return str(obj["title"])


def verify_op(path: Path, title: str, valid: bool, path_prefix: str | None = None) -> Op:
    expect = {"valid": valid, "title": title, "path_prefix": path_prefix}
    return Op("verify", ("verify", str(path), "--json"), expect)


def prove_op(root: Path, work: Path, reverify, modulus: int = 17) -> Op:
    output = work / "mod17-proved.cert.json"
    shipped = json.loads((data_dir(root) / "mod17_kill.cert.json").read_text())
    argv = ("prove", "--terms", KILL_TERMS, "--constraint", "z even", "--output", str(output))
    expect = {
        "modulus": modulus,
        "output": str(output),
        "terms": shipped["equation"]["terms"],
        "residues": shipped["equation"]["constraints"]["residues"],
        "reverify": reverify,
    }
    return Op("prove", argv, expect)


def build_certify(root: Path, work: Path, seed: int, reverify) -> Workload:
    ops: list[Op] = []
    for name in CERT_FILES:
        shipped = data_dir(root) / f"{name}.cert.json"
        base = json.loads(shipped.read_text())
        ops.append(verify_op(shipped, _title(base), True))
        for i, (desc, mutate, prefix) in enumerate(MUTATIONS[name]):
            obj = copy.deepcopy(base)
            mutate(obj)
            path = work / f"{name}.mutant{i}.cert.json"
            path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            ops.append(verify_op(path, _title(obj), False, prefix))
    ops.append(prove_op(root, work, reverify))
    return Workload(tuple(ops), ops[0])  # warm up on the theorem certificate


def scan_op(mmax: int = SCAN_MMAX) -> Op:
    return Op("no-kill", ("prove", "--terms", KILL_TERMS, "--mmax", str(mmax)), {"mmax": mmax})


def build_sieve_scan(root: Path, work: Path, seed: int, reverify) -> Workload:
    op = scan_op()
    return Workload((op,), op)


_BUILDERS = {
    "grid": build_grid,
    "corpus": build_corpus,
    "certify": build_certify,
    "sieve-scan": build_sieve_scan,
}


def build(name: str, root: Path, work: Path, seed: int, reverify) -> Workload:
    """The named workload of the checkout at root, its input files written
    under work.  reverify(text) tells whether a certificate text verifies."""
    os.makedirs(work, exist_ok=True)
    return _BUILDERS[name](root, work, seed, reverify)
