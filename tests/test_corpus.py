import json

import pytest

from jesma.cli import main
from jesma.corpus import (
    EXPECTED_BITS_MAX,
    K_RANGE_MAX,
    CorpusError,
    load_corpus,
    load_default_corpus,
    run_entry,
)
from jesma.record import replace
from jesma.search import BOUND_MAX, POWER_BITS_MAX


def test_default_corpus_loads_clean():
    entries, problems = load_default_corpus()
    assert len(entries) == 49
    assert problems == []
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))


def test_expected_solutions_reverify_on_load():
    bad = json.dumps(
        [
            {
                "id": "lies",
                "form": "general",
                "bases": ["3", "2", "5"],
                "expected": [["1", "1", "2"]],
                "note": "3 + 2 != 25",
            }
        ]
    )
    entries, problems = load_corpus(bad)
    assert entries == []
    assert len(problems) == 1 and "substitution" in problems[0]


def test_non_array_corpus_rejected():
    with pytest.raises(CorpusError):
        load_corpus("{}")
    with pytest.raises(CorpusError):
        load_corpus("[")


def test_run_entry_reports_mismatch_detail():
    entries, _ = load_default_corpus()
    nagell = next(e for e in entries if e.id == "nagell-3-2-5")
    result = run_entry(nagell)
    assert result.passed and result.detail == ""
    wrong = replace(nagell, expected=frozenset({(1, 1, 1)}))
    result = run_entry(wrong)
    assert not result.passed and "(2, 4, 2)" in result.detail

    # a pythag k_range entry names the scale of every mismatching search
    scaled = next(e for e in entries if e.id == "deng-cohen-n1-k1-20")
    assert run_entry(scaled).passed
    result = run_entry(replace(scaled, expected=frozenset()))
    details = result.detail.split("; ")
    assert not result.passed and len(details) == 20
    assert details[0] == "k=1: found [(2, 2, 2)] expected []"
    assert details[-1] == "k=20: found [(2, 2, 2)] expected []"


GOOD = {"form": "general", "bases": ["3", "2", "5"], "x_max": "5", "y_max": "5",
        "expected": [["1", "1", "1"], ["2", "4", "2"]]}


@pytest.mark.parametrize(
    "bad, reason",
    [
        ({"form": "general", "bases": ["3", "2", "5"], "x_max": "0"}, "bounds must be >= 1"),
        ({"form": "terai", "b": "3", "c": "5", "m_max": "-1"}, "bounds must be >= 1"),
        ({"form": "general", "bases": ["1", "2", "3"]}, "base 1 rejected: bases of 1 generate"),
        ({"form": "eisenstein", "bases": ["3", "4", "7"]}, "(3, 4, 7) violates a^2 + a*b + b^2 = c^2"),
        ({"form": "pythag", "triple": ["3", "4", "5"], "k": "0"}, "scale k must be >= 1, got 0"),
        ({"form": "general", "bases": ["3", "2", "5"], "expected": [["1", "1"]]},
         "expected solution (1, 1) needs three exponents"),
        ({"form": "pythag", "triple": ["3", "4", "5"], "k_range": ["5", "1"]},
         f"k_range [5, 1] must list 1 to {K_RANGE_MAX} scales"),
        ({"form": "pythag", "triple": ["3", "4", "5"], "k_range": ["1", str(K_RANGE_MAX + 1)]},
         f"k_range [1, {K_RANGE_MAX + 1}] must list 1 to {K_RANGE_MAX} scales"),
        ({"form": "general", "bases": ["3", "2", "5"], "y_max": str(BOUND_MAX + 1)},
         f"bounds must be <= {BOUND_MAX}"),
        ({"form": "general", "bases": ["3", "2", "5"], "x_max": "5", "expected": [["6", "1", "1"]]},
         "expected solution (6, 1, 1) lies outside the grid [1, 5] x [1, 30]"),
        ({"form": "terai", "b": "3", "c": "5", "expected": [["2", "11", "1"]]},
         "expected solution (2, 11, 1) lies outside the grid [1, 10] x [1, 10]"),
        ({"form": "general", "bases": ["3", "2", "5"], "expected": [["1", "1", "300000000"]]},
         f"expected solution (1, 1, 300000000) forms a power over {EXPECTED_BITS_MAX} bits"),
        ({"form": "general", "bases": ["1048576", "3", "5"], "x_max": "1000"},
         f"the grid forms a 21000-bit power, above the limit of {POWER_BITS_MAX} bits"),
        ({"form": "pythag", "family": "fermat", "n": "17"}, "need 1 <= n <= 16, got 17"),
    ],
    ids=["x_max-0", "m_max-negative", "base-1", "eisenstein-condition", "k-0", "expected-arity",
         "k_range-empty", "k_range-wide", "bound-cap", "expected-off-grid", "terai-off-grid",
         "expected-bits", "power-bits", "fermat-n"],
)
def test_invalid_instance_is_malformed_entry(tmp_path, capsys, bad, reason):
    f = tmp_path / "corpus.json"
    f.write_text(json.dumps([{"id": "a", **GOOD}, {"id": "bad", **bad}, {"id": "b", **GOOD}]))
    code = main(["corpus", "--file", str(f)])
    out, err = capsys.readouterr()
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"malformed: entry[1] id='bad': {reason}")
    assert "PASS a " in out and "PASS b " in out and "2/2 entries pass" in out
