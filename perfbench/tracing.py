"""Spans around the public functions of each jesma layer, recorded from outside.

`Tracer.install()` replaces each traced function at every jesma module that
binds it (for example `jesma.search.find_solutions` and also the names the
`corpus` and `cli` modules imported), wraps `Context.implied` on its class,
and swaps the process pools the program creates for a subclass that records
how long the caller waits on them.  Spans are kept in memory; `write` saves
them at the end of a run.

Only the process that installed the tracer records spans.  Work done inside
pool workers therefore shows up as the parent's `pool` span, which counts as
waiting.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _cells(rcs) -> int:
    return math.prod(rcs.periods)


def _note_search(report):
    return {"cells": report.candidates}


def _note_corpus(results):
    return {"entries": len(results)}


def _note_congruence(rcs):
    return {"cells": _cells(rcs), "survivors": len(rcs.tuples)}


# (module, attribute, span name, note on the result)
FUNCTIONS = (
    ("jesma.cli", "main", "cli.main", None),
    ("jesma.search", "find_solutions", "search.find_solutions", _note_search),
    ("jesma.corpus", "load_corpus", "corpus.load_corpus", None),
    ("jesma.corpus", "run_corpus", "corpus.run_corpus", _note_corpus),
    ("jesma.sieve", "congruence_solutions", "sieve.congruence_solutions", _note_congruence),
    ("jesma.sieve", "find_killing_modulus", "sieve.find_killing_modulus", None),
    ("jesma.certificate.engine", "verify_certificate", "certificate.verify_certificate", None),
    ("jesma.certificate.model", "loads_certificate", "certificate.loads_certificate", None),
    ("jesma.reduction", "factor_k_symbolic", "reduction.factor_k_symbolic", None),
    ("jesma.arith", "factorize", "arith.factorize", None),
    ("jesma.arith", "mult_order", "arith.mult_order", None),
    ("jesma.arith", "is_prime", "arith.is_prime", None),
)
METHODS = (("jesma.certificate.context", "Context", "implied", "certificate.implied"),)
POOL_MODULES = ("jesma.search", "jesma.corpus")
# congruence_solutions raises these for a modulus the sieve cannot handle
SKIP_ERRORS = ("UnsupportedModulusError", "TorusTooLargeError")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.note = None


class Tracer:
    """Records spans while `active`; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int | None:
        if not self.active or os.getpid() != self._pid:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int | None, note: dict | None = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        span.note = note
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            if index is None:
                return fn(*args, **kwargs)
            info = None
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                info = {"error": type(e).__name__}
                raise
            else:
                info = note(result) if note else None
                return result
            finally:
                self.close(index, info)

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_span = tracer.open("pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)

        return TracedPool

    def _rebind(self, original, replacement) -> int:
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "jesma" or name.startswith("jesma.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    count += 1
        return count

    def install(self) -> None:
        """Wrap every traced function; jesma.cli must already be imported."""
        for module, attr, name, note in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            if not self._rebind(original, self.wrap(name, original, note)):
                raise RuntimeError(f"{module}.{attr} is not bound anywhere")
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        pools = {getattr(sys.modules[m], "ProcessPoolExecutor") for m in POOL_MODULES}
        for base in pools:
            self._rebind(base, self._pool_class(base))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.op, s.note]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def unit_of(name: str) -> str:
    """Unit of a layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("calls"):
        return "calls/op"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "arith.prime_table_s":
        return "s"
    return "s/op"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], scales: list[float]) -> dict[str, float]:
    """Per-operation layer figures from one traced run.  scales[i] turns the
    wall seconds of operation i into reference seconds (see speed.py)."""
    ops = len(scales)
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    notes: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, selfs):
        calls[s.name] += 1
        total[s.name] += (s.end - s.start) * scales[s.op]
        own[s.name] += self_s * scales[s.op]
        for key, value in (s.note or {}).items():
            if key == "error":
                notes[f"{s.name}.skipped"] += value in SKIP_ERRORS
            else:
                notes[f"{s.name}.{key}"] += value
    per_op = lambda v: v / ops  # noqa: E731
    cs = "sieve.congruence_solutions"
    m = {
        "cli.main.self_s": per_op(own["cli.main"]),
        "search.find_solutions.calls": per_op(calls["search.find_solutions"]),
        "search.find_solutions.self_s": per_op(own["search.find_solutions"]),
        "search.cells_per_s": _ratio(notes["search.find_solutions.cells"], total["search.find_solutions"]),
        "search.pooled_calls": per_op(calls["pool"]),
        "search.pool_wait_s": per_op(total["pool"]),
        "corpus.load_corpus.self_s": per_op(own["corpus.load_corpus"]),
        "corpus.run_corpus.self_s": per_op(own["corpus.run_corpus"]),
        "corpus.entries_per_s": _ratio(notes["corpus.run_corpus.entries"], total["corpus.run_corpus"]),
        f"{cs}.calls": per_op(calls[cs]),
        f"{cs}.self_s": per_op(own[cs]),
        "sieve.torus_cells_per_s": _ratio(notes[f"{cs}.cells"], total[cs]),
        "sieve.survivor_ratio": _ratio(notes[f"{cs}.survivors"], notes[f"{cs}.cells"]),
        "sieve.skip_ratio": _ratio(notes[f"{cs}.skipped"], calls[cs]),
        "sieve.find_killing_modulus.self_s": per_op(own["sieve.find_killing_modulus"]),
    }
    for name in (
        "certificate.verify_certificate",
        "certificate.implied",
        "certificate.loads_certificate",
        "reduction.factor_k_symbolic",
        "arith.factorize",
        "arith.mult_order",
        "arith.is_prime",
    ):
        m[f"{name}.calls"] = per_op(calls[name])
        m[f"{name}.self_s"] = per_op(own[name])
    return m
