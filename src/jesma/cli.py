"""Command line front end: search, corpus, prove, verify.

Exit codes: 0 success/valid, 1 mathematical failure (mismatch, invalid
certificate, no killing modulus), 2 input error, 3 degenerate instance.
JSON output serializes every integer as a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys
import time

from . import __version__
from .certificate import (
    MalformedCertificateError,
    builtin_certificates,
    dumps_certificate,
    killing_certificate,
    loads_certificate,
    verify_certificate,
)
from .corpus import CorpusError, load_corpus, load_default_corpus, run_corpus
from .search import FORMS, DegenerateBaseError, find_solutions, scaled_bases
from .sieve import ConstraintSet, find_killing_modulus
from .symbolic import CONST_BITS_MAX, ExpExpr, Lin, Term
from .triples import FAMILIES, Triple

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _report(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps({"tool_version": __version__, **payload}, indent=1, sort_keys=True))
    else:
        print(human)


def _sols_str(solutions) -> str:
    return ", ".join("(" + ",".join(map(str, s)) + ")" for s in sorted(solutions)) or "none"


def cmd_search(args) -> int:
    try:
        form, bases, (x_max, y_max) = _instance_from_args(args)
        report = find_solutions(bases, x_max, y_max, form=form)
    except DegenerateBaseError as e:
        print(f"degenerate instance: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, TypeError) as e:
        print(f"bad instance: {e}", file=sys.stderr)
        return EXIT_INPUT
    instance = report.describe()
    solutions = report.solutions
    _report(
        {
            "command": "search",
            "instance": instance,
            "results": [[str(a) for a in s] for s in solutions],
            "timing": {"seconds": f"{report.elapsed:.6f}"},
        },
        args.json,
        f"{instance}\n  solutions: {_sols_str(solutions)}\n  ({len(solutions)} found in {report.elapsed:.3f}s)",
    )
    return EXIT_OK


def _flags(args, names, what: str) -> tuple:
    """The values of the flags `names`, which `what` needs all of."""
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")
    return tuple(getattr(args, n) for n in names)


def _instance_from_args(args) -> tuple[str, tuple[int, ...], tuple[int, int]]:
    """The search form, bases and grid bounds the arguments name."""
    if args.form != "pythag":
        bases = _flags(args, FORMS[args.form].letters, f"--form {args.form}")
        bounds = (args.mmax, args.nmax) if args.form == "terai" else (args.xmax, args.ymax)
        return args.form, bases, bounds
    if args.family:
        make, params = FAMILIES[args.family]
        t = make(*_flags(args, params, f"--family {args.family}"))
    elif args.u and args.v and args.w:
        t = Triple(args.u, args.v, args.w)
    else:
        raise ValueError("give --family plus its parameters, or --u/--v/--w")
    if args.swap_legs:
        t = t.swapped()
    return "general", scaled_bases(t, args.k), (args.xmax, args.ymax)


def cmd_corpus(args) -> int:
    try:
        if args.file:
            with open(args.file) as f:
                entries, problems = load_corpus(f.read())
        else:
            entries, problems = load_default_corpus()
    except (OSError, UnicodeDecodeError, CorpusError) as e:
        print(f"cannot load corpus: {e}", file=sys.stderr)
        return EXIT_INPUT
    for p in problems:
        print(f"malformed: {p}", file=sys.stderr)
    if not entries and not problems:
        print("warning: corpus is empty", file=sys.stderr)
        return EXIT_OK
    start = time.perf_counter()
    results = run_corpus(entries)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.entry_id:28s} {r.elapsed:7.3f}s  {r.detail}"
        for r in results
    ]
    summary = f"{len(results) - len(failures)}/{len(results)} entries pass in {elapsed:.2f}s"
    _report(
        {
            "command": "corpus",
            "results": [
                {
                    "id": r.entry_id,
                    "passed": r.passed,
                    "detail": r.detail,
                    "seconds": f"{r.elapsed:.6f}",
                }
                for r in results
            ],
            "timing": {"seconds": f"{elapsed:.6f}"},
        },
        args.json,
        "\n".join(lines + [summary]),
    )
    if problems:
        return EXIT_INPUT
    return EXIT_OK if not failures else EXIT_MATH


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")
_FACTOR_RE = re.compile(r"^(\d+)(?:\^([A-Za-z_]\w*|\d+))?$")


def parse_terms(text: str) -> list[Term]:
    """Parse '101^z - 1 - 99^y*2^a*5^b' into term objects."""
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or not m.group(2).strip():
            raise ValueError(f"cannot parse terms at {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(1) is None and not first:
            raise ValueError(f"missing sign before {m.group(2).strip()!r}")
        coef = sign
        const_bits = 0
        powers = []
        for factor in m.group(2).strip().split("*"):
            fm = _FACTOR_RE.match(factor.strip())
            if not fm:
                raise ValueError(f"cannot parse factor {factor.strip()!r}")
            base = int(fm.group(1))
            exp = fm.group(2)
            if exp is None or exp.isdigit():
                n = 1 if exp is None else int(exp)
                const_bits += n * base.bit_length()
                if const_bits > CONST_BITS_MAX:
                    raise ValueError(
                        f"the constant part of {m.group(2).strip()!r} is too large for a certificate "
                        f"(exponent times base bit length over {CONST_BITS_MAX})"
                    )
                coef *= base**n
            else:
                powers.append((base, ExpExpr(Lin.var(exp))))
        terms.append(Term.of(coef, *powers))
        pos = m.end()
        first = False
    if not terms:
        raise ValueError("no terms given")
    return terms


_CON_EVEN = re.compile(r"^\s*(\w+)\s+(even|odd)\s*$")
_CON_FIX = re.compile(r"^\s*(\w+)\s*=\s*(\d+)\s*$")
_CON_MOD = re.compile(r"^\s*(\w+)\s*%\s*(\d+)\s*=\s*(\d+)\s*$")


def parse_constraint(cons: ConstraintSet, text: str) -> ConstraintSet:
    m = _CON_EVEN.match(text)
    if m:
        return cons.with_parity(m.group(1), 0 if m.group(2) == "even" else 1)
    m = _CON_FIX.match(text)
    if m:
        return cons.with_fixed(m.group(1), int(m.group(2)))
    m = _CON_MOD.match(text)
    if m:
        return cons.with_residue(m.group(1), int(m.group(2)), {int(m.group(3))})
    raise ValueError(f"cannot parse constraint {text!r} (use 'z even', 'x=2' or 'z%10=8')")


def cmd_prove(args) -> int:
    try:
        terms = parse_terms(args.terms)
        cons = ConstraintSet.none()
        for c in args.constraint or []:
            cons = parse_constraint(cons, c)
        witness = find_killing_modulus(terms, cons, m_max=args.mmax, order_cap=args.order_cap)
    except ValueError as e:  # SieveError is one: m_max or order_cap out of range
        print(f"bad input: {e}", file=sys.stderr)
        return EXIT_INPUT
    scan = f"{len(witness.scanned)} moduli scanned, {len(witness.skipped)} skipped"
    if witness.modulus is None:
        print(
            f"no killing modulus up to {args.mmax}: the congruence stays solvable "
            f"on every checkable modulus ({scan})",
            file=sys.stderr,
        )
        return EXIT_MATH
    cert = killing_certificate(terms, cons, witness.modulus, title=args.title or "")
    verdict = verify_certificate(cert)
    if not verdict.valid:  # never expected: the witness was just computed
        print(f"internal error: generated certificate fails: {verdict.describe()}", file=sys.stderr)
        return EXIT_MATH
    text = dumps_certificate(cert)
    if args.output:
        try:
            _write_in_place(args.output, text + "\n")
        except OSError as e:
            print(f"cannot write certificate: {e}", file=sys.stderr)
            return EXIT_INPUT
        print(f"killing modulus {witness.modulus}; {scan}; certificate written to {args.output}")
    else:
        print(text)
    return EXIT_OK


def _write_in_place(path: str, text: str) -> None:
    """Overwrite path with text, creating it if need be.

    A regular file is cut to length after the write rather than truncated
    to zero on opening: on ext4, closing a file that was truncated from a
    non-empty size to zero and rewritten waits for its data to reach the
    disk (the auto_da_alloc heuristic), which took most of the time of a
    `prove` that overwrote its previous output.  The bytes left behind
    are the same, and symlinks are followed as before.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # not a pipe or device
            f.truncate()


def cmd_verify(args) -> int:
    if args.file is not None and args.builtin is not None:
        print("bad input: give a certificate file or --builtin, not both", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.builtin is not None:
            certs = builtin_certificates()
            # the first title containing the name; an empty name matches none
            cert = next((c for c in certs if args.builtin and args.builtin in c.title), None)
            if cert is None:
                names = " | ".join(c.title for c in certs)
                print(f"no builtin certificate matches {args.builtin!r}; have: {names}", file=sys.stderr)
                return EXIT_INPUT
        elif args.file in (None, "-"):
            cert = loads_certificate(sys.stdin.read())
        else:
            with open(args.file) as f:
                cert = loads_certificate(f.read())
    except (OSError, UnicodeDecodeError, MalformedCertificateError) as e:
        print(f"cannot load certificate: {e}", file=sys.stderr)
        return EXIT_INPUT
    start = time.perf_counter()
    verdict = verify_certificate(cert)
    elapsed = time.perf_counter() - start
    _report(
        {
            "command": "verify",
            "instance": cert.title,
            "results": {
                "valid": verdict.valid,
                "path": verdict.path,
                "reason": verdict.reason,
            },
            "timing": {"seconds": f"{elapsed:.6f}"},
        },
        args.json,
        f"{cert.title}\n  {verdict.describe()}  ({elapsed:.3f}s)",
    )
    return EXIT_OK if verdict.valid else EXIT_MATH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing leaves the parser as it was, so one instance serves every
    `main` call in a process; callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="jesma",
        description="search, sieve and certify exponential Diophantine equations "
        "on Pythagorean triples",
    )
    parser.add_argument("--version", action="version", version=f"jesma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="enumerate all exponent solutions within bounds")
    p.add_argument("--form", choices=["pythag", *FORMS], required=True)
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--n", type=int, default=1, help="family parameter")
    p.add_argument("--p", type=int, help="pq family: p")
    p.add_argument("--q", type=int, help="pq family: q")
    p.add_argument("--u", type=int, help="explicit triple leg bound to x")
    p.add_argument("--v", type=int, help="explicit triple leg bound to y")
    p.add_argument("--w", type=int, help="explicit hypotenuse bound to z")
    p.add_argument("--swap-legs", action="store_true", help="exchange u and v")
    p.add_argument("--k", type=int, default=1, help="common scale factor")
    p.add_argument("--a", type=int, help="general/eisenstein base a")
    p.add_argument("--b", type=int, help="general/eisenstein/terai base b")
    p.add_argument("--c", type=int, help="general/eisenstein/terai base c")
    p.add_argument("--xmax", type=int, default=30, help="bound on x, 1 to 1000")
    p.add_argument("--ymax", type=int, default=30, help="bound on y, 1 to 1000")
    p.add_argument("--mmax", type=int, default=10, help="terai: bound on m, 1 to 1000")
    p.add_argument("--nmax", type=int, default=10, help="terai: bound on n, 1 to 1000")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("corpus", help="re-run the catalogue of known solution sets")
    p.add_argument("--file", help="corpus JSON file (default: the shipped corpus)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("prove", help="search for a killing modulus and emit a certificate")
    p.add_argument("--terms", required=True, help="e.g. '101^z - 1 - 99^y*2^a*5^b'")
    p.add_argument("--constraint", action="append", help="'z even', 'x=2' or 'z%%10=8'")
    p.add_argument("--mmax", type=int, default=200, help="largest modulus to scan, 2 to 1000")
    p.add_argument("--order-cap", type=int, default=120, help="skip moduli with larger orders (>= 1)")
    p.add_argument("--title", help="certificate title")
    p.add_argument("--output", help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("file", nargs="?", help="certificate JSON (stdin if omitted or '-')")
    p.add_argument("--builtin", help="verify a shipped certificate by (partial) title")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse errors raise SystemExit."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
