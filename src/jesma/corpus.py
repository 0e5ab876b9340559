"""Corpus fixtures: the catalogue of known solution sets, re-run as a
regression harness.

Each entry names an equation instance (by family + parameters or by
explicit bases), bounds, and the expected solution set; running an entry
searches the instance and diffs the result.  When the file is loaded,
each instance is checked as a search would check it and the expected
solutions are re-verified by exact substitution at every scale k, so the
corpus cannot silently drift and an invalid entry is a diagnostic.
"""

from __future__ import annotations

import json
import time
from importlib import resources

from .record import Frozen
from .search import FORMS, check_instance, find_solutions, scaled_bases
from .triples import FAMILIES, Triple

__all__ = ["CorpusEntry", "CorpusError", "load_corpus", "load_default_corpus", "run_corpus", "run_entry"]

# Load-time work limits: a corpus entry is untrusted input, so neither its
# searches nor the exact substitution of its expected solutions may grow
# without bound.  check_instance caps the bounds of each search.
K_RANGE_MAX = 100  # most scales one pythag k_range may list
EXPECTED_BITS_MAX = 1 << 20  # largest power, in bits, formed to re-verify an expected solution


def __getattr__(name: str):
    # kept, as in jesma.search, only for the benchmark tracer's lookup
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


class CorpusError(ValueError):
    pass


class CorpusEntry(Frozen):
    _fields = ("id", "form", "expected", "searches", "triple", "x_max", "y_max")

    def __init__(
        self,
        id: str,
        form: str,  # a key of search.FORMS; pythag entries search the general form
        expected: frozenset[tuple[int, ...]],
        searches: tuple[tuple[str, tuple[int, ...]], ...],  # (mismatch label, bases)
        triple: Triple | None = None,  # the unscaled triple of a pythag entry
        x_max: int = 30,
        y_max: int = 30,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "searches", searches)
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "y_max", y_max)


def _triple(obj: dict, where: str) -> Triple:
    if "family" not in obj:
        u, v, w = (int(a) for a in obj["triple"])
        return Triple(u, v, w)
    family = obj["family"]
    if family not in FAMILIES:
        raise CorpusError(f"{where}: unknown family {family!r}")
    make, params = FAMILIES[family]
    triple = make(*(int(obj[p]) for p in params))
    return triple.swapped() if obj.get("swap_legs") else triple


def _parse_entry(obj: dict, index: int) -> CorpusEntry:
    where = f"entry[{index}]" + (f" id={obj.get('id')!r}" if isinstance(obj, dict) else "")
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: entry must be an object")
    try:
        form = obj["form"]
        expected = frozenset(tuple(int(a) for a in sol) for sol in obj.get("expected", []))
        x_max = int(obj.get("x_max", "30"))
        y_max = int(obj.get("y_max", "30"))
        triple = None
        if form == "pythag":
            triple = _triple(obj, where)
            if "k_range" in obj:
                lo, hi = (int(a) for a in obj["k_range"])
                ks = range(lo, hi + 1)
                if not 1 <= len(ks) <= K_RANGE_MAX:
                    raise CorpusError(f"{where}: k_range [{lo}, {hi}] must list 1 to {K_RANGE_MAX} scales")
            else:
                ks = (int(obj.get("k", "1")),)
            form = "general"
            searches = tuple((f"k={k}: ", scaled_bases(triple, k)) for k in ks)
        elif form == "terai":
            searches = (("", (int(obj["b"]), int(obj["c"]))),)
            x_max = int(obj.get("m_max", "10"))
            y_max = int(obj.get("n_max", "10"))
        elif form in FORMS:
            bases = tuple(int(a) for a in obj["bases"])
            if len(bases) != 3:
                raise CorpusError(f"{where}: need three bases")
            searches = (("", bases),)
        else:
            raise CorpusError(f"{where}: unknown form {form!r}")
        for _, bases in searches:
            check_instance(bases, x_max, y_max, form)
        spec = FORMS[form]
        base_bits = max(b.bit_length() for _, bases in searches for b in bases)
        for sol in expected:
            if len(sol) != 3:
                raise CorpusError(f"{where}: expected solution {sol} needs three exponents")
            gx, gy = (sol[i] for i in spec.exponents[:2])
            if not (1 <= gx <= x_max and 1 <= gy <= y_max):
                raise CorpusError(
                    f"{where}: expected solution {sol} lies outside the grid [1, {x_max}] x [1, {y_max}]"
                )
            # each power a form's check forms is at most base ** (2 * exponent), but
            # terai's x * x, which int parsing already bounds by its digit limit
            if 2 * max(sol[i] for i in spec.exponents) * base_bits > EXPECTED_BITS_MAX:
                raise CorpusError(
                    f"{where}: expected solution {sol} forms a power over {EXPECTED_BITS_MAX} bits"
                )
            if not all(spec.holds(bases, sol) for _, bases in searches):
                raise CorpusError(f"{where}: expected solution {sol} fails substitution")
        return CorpusEntry(
            id=obj.get("id", f"entry-{index}"),
            form=form,
            expected=expected,
            searches=searches,
            triple=triple,
            x_max=x_max,
            y_max=y_max,
        )
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"{where}: {e}")


def load_corpus(text: str) -> tuple[list[CorpusEntry], list[str]]:
    """Parse a corpus file; malformed entries become diagnostics, the rest load."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorpusError(f"corpus file is not valid JSON: {e}")
    if not isinstance(data, list):
        raise CorpusError("corpus file must hold a JSON array")
    entries: list[CorpusEntry] = []
    problems: list[str] = []
    for i, obj in enumerate(data):
        try:
            entries.append(_parse_entry(obj, i))
        except CorpusError as e:
            problems.append(str(e))
    return entries, problems


def load_default_corpus() -> tuple[list[CorpusEntry], list[str]]:
    text = resources.files("jesma.data").joinpath("corpus.json").read_text()
    return load_corpus(text)


class EntryResult(Frozen):
    """One corpus entry's outcome; == leaves out `elapsed`."""

    _fields = ("entry_id", "passed", "detail", "elapsed")
    _compared = _fields[:-1]

    def __init__(self, entry_id: str, passed: bool, detail: str, elapsed: float = 0.0):
        object.__setattr__(self, "entry_id", entry_id)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed", elapsed)


def run_entry(entry: CorpusEntry) -> EntryResult:
    start = time.perf_counter()
    mismatches: list[str] = []
    for label, bases in entry.searches:
        found = find_solutions(bases, entry.x_max, entry.y_max, form=entry.form).solution_set()
        if found != entry.expected:
            mismatches.append(f"{label}found {sorted(found)} expected {sorted(entry.expected)}")
    return EntryResult(entry.id, not mismatches, "; ".join(mismatches), time.perf_counter() - start)


def run_corpus(entries: list[CorpusEntry]) -> list[EntryResult]:
    return [run_entry(e) for e in entries]
