"""Golden CLI transcripts: every case in golden/cases.json, run in-process
through `jesma.cli.main`, must print what golden/transcripts.json recorded.

A case is an argv list, optionally with a file whose text is fed to stdin.
Arguments may name three directories, filled in before the run and put
back into the output after it: {data} (the shipped certificates), {inputs}
(golden/inputs) and {tmp} (a scratch directory shared by one run of the
list, so a case may read what an earlier case wrote).

Timings are masked by the one regex TIMING before recording and before
comparing.  A case marked "argparse" is an error that argparse reports
itself; its usage text differs between Python versions, so only its exit
code and its empty stdout are recorded.

To record the transcripts again, run from the root of the repository

    PYTHONPATH=src python tests/test_golden.py --record

and say in CHANGES.md why the output changed.
"""

from __future__ import annotations

import difflib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jesma
from jesma.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.json"
TRANSCRIPTS = GOLDEN / "transcripts.json"

# a JSON "seconds" value ("seconds": "0.001234") and a duration in text:
# "(0.012s)", "in 0.05s" and the corpus lines' per-entry "  0.003s"
TIMING = re.compile(r'(?<="seconds": ")\d+\.\d+(?=")|\b\d+\.\d+(?=s\b)')


def mask(text: str) -> str:
    return TIMING.sub("…", text)


def load_cases() -> list[dict]:
    return json.loads(CASES.read_text())


def run_case(case: dict, dirs: dict[str, str]) -> dict:
    """The exit code, and the lines of stdout and stderr, of one case."""

    def fill(text: str) -> str:
        for name, path in dirs.items():
            text = text.replace(name, path)
        return text

    def unfill(text: str) -> list[str]:
        for name, path in sorted(dirs.items(), key=lambda item: -len(item[1])):
            text = text.replace(path, name)
        return mask(text).split("\n")

    stdin = Path(fill(case["stdin"])).read_text() if "stdin" in case else ""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([fill(a) for a in case["argv"]])
    except SystemExit as e:  # argparse's own errors, and --version
        code = e.code
    finally:
        sys.stdin = saved_stdin
    result = {"exit": code, "stdout": unfill(out.getvalue())}
    if not case.get("argparse"):
        result["stderr"] = unfill(err.getvalue())
    return result


def run_all(tmp: Path) -> dict[str, dict]:
    dirs = {
        "{data}": str(Path(jesma.__file__).resolve().parent / "data"),
        "{inputs}": str(GOLDEN / "inputs"),
        "{tmp}": str(tmp),
    }
    return {case["id"]: run_case(case, dirs) for case in load_cases()}


def _mismatches(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    problems = []
    for case_id in sorted(set(got) | set(want)):
        g, w = got.get(case_id), want.get(case_id)
        if g == w:
            continue
        if g is None or w is None:
            problems.append(f"{case_id}: {'not recorded' if w is None else 'no longer a case'}")
            continue
        if g["exit"] != w["exit"]:
            problems.append(f"{case_id}: exit {g['exit']}, recorded {w['exit']}")
        for key in ("stdout", "stderr"):
            if g.get(key) != w.get(key):
                diff = difflib.unified_diff(w.get(key, []), g.get(key, []), "recorded", "now", lineterm="")
                problems.append(f"{case_id} {key}:\n" + "\n".join(list(diff)[:40]))
    return problems


def test_timing_mask():
    assert mask('"seconds": "0.001234"') == '"seconds": "…"'
    assert mask("(1 found in 0.012s)") == "(1 found in …s)"
    assert mask("49/49 entries pass in 0.07s") == "49/49 entries pass in …s"
    assert mask("PASS lu-5    0.003s  ") == "PASS lu-5    …s  "
    assert mask("(2,2,2) x^2 + 3^m = 5^n mod 17 0.5") == "(2,2,2) x^2 + 3^m = 5^n mod 17 0.5"


def test_case_ids_are_unique():
    ids = [case["id"] for case in load_cases()]
    assert len(ids) == len(set(ids))


def test_golden_transcripts_twice_in_one_process(tmp_path):
    """The second pass calls main again in the same process, so it parses
    with the parser the first pass built."""
    want = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
    for run in ("first", "second"):
        problems = _mismatches(run_all(tmp_path), want)
        assert not problems, f"{run} pass:\n" + "\n".join(problems)


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        transcripts = run_all(Path(tmp))
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(transcripts)} transcripts in {TRANSCRIPTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    record()
