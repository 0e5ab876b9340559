import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_certificate import HOSTILE_EDITS, HUGE_MODULUS, PROBE_CLAIM, PROBE_PATH, _hostile, _shipped, _walk

import jesma
from jesma.cli import build_parser, main, parse_constraint, parse_terms
from jesma.sieve import ConstraintSet


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_lu_family(capsys):
    code, out, _ = run(
        ["search", "--form", "pythag", "--family", "lu", "--n", "5", "--k", "1",
         "--xmax", "20", "--ymax", "20"],
        capsys,
    )
    assert code == 0
    assert "(2,2,2)" in out and "1 found" in out


def test_search_general_two_solutions(capsys):
    code, out, _ = run(["search", "--form", "general", "--a", "89", "--b", "2", "--c", "91"], capsys)
    assert code == 0
    assert "(1,1,1)" in out and "(1,13,2)" in out


def test_search_degenerate_base_exits_3(capsys):
    code, _, err = run(["search", "--form", "general", "--a", "1", "--b", "2", "--c", "3"], capsys)
    assert code == 3
    assert "parametric" in err


def test_search_json_report(capsys):
    code, out, _ = run(
        ["search", "--form", "general", "--a", "3", "--b", "2", "--c", "5", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "search"
    assert payload["results"] == [["1", "1", "1"], ["2", "4", "2"]]
    assert "tool_version" in payload and "timing" in payload


def test_search_terai_and_eisenstein(capsys):
    code, out, _ = run(["search", "--form", "terai", "--b", "3", "--c", "5"], capsys)
    assert code == 0 and "(4,2,2)" in out
    code, out, _ = run(["search", "--form", "eisenstein", "--a", "3", "--b", "5", "--c", "7", "--xmax", "10", "--ymax", "10"], capsys)
    assert code == 0 and "(1,1,2)" in out


@pytest.mark.parametrize(
    "argv, instance",
    [
        (["--form", "pythag", "--u", "20", "--v", "99", "--w", "101", "--k", "17"], "340^x + 1683^y = 1717^z"),
        (["--form", "pythag", "--family", "lu", "--n", "5", "--swap-legs"], "20^x + 99^y = 101^z"),
        (["--form", "general", "--a", "89", "--b", "2", "--c", "91"], "89^x + 2^y = 91^z"),
        (["--form", "terai", "--b", "3", "--c", "5"], "x^2 + 3^m = 5^n"),
        (["--form", "eisenstein", "--a", "3", "--b", "5", "--c", "7"], "3^2x + 3^x*5^y + 5^2y = 7^z"),
    ],
    ids=["pythag", "pythag-family", "general", "terai", "eisenstein"],
)
def test_search_json_instance_per_form(capsys, argv, instance):
    code, out, _ = run(["search", *argv, "--xmax", "5", "--ymax", "5", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["instance"] == instance


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--form", "general", "--a", "3", "--b", "2"], "--form general needs --c"),
        (["--form", "terai", "--b", "3"], "--form terai needs --c"),
        (["--form", "eisenstein", "--b", "5"], "--form eisenstein needs --a, --c"),
        (["--form", "pythag", "--family", "pq", "--q", "1"], "--family pq needs --p"),
    ],
    ids=["general", "terai", "eisenstein", "pq-family"],
)
def test_search_names_missing_flags(capsys, argv, message):
    code, out, err = run(["search", *argv], capsys)
    assert code == 2 and out == ""
    assert err == f"bad instance: {message}\n"


def test_corpus_shipped_passes(capsys):
    code, out, _ = run(["corpus"], capsys)
    assert code == 0
    assert "49/49 entries pass" in out


def test_corpus_wrong_expectation_fails(tmp_path, capsys):
    bad = [
        {
            "id": "wrong",
            "form": "general",
            "bases": ["3", "2", "5"],
            "x_max": "10",
            "y_max": "10",
            "expected": [["1", "1", "1"]],
            "note": "deliberately incomplete",
        }
    ]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, out, _ = run(["corpus", "--file", str(f)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_corpus_empty_file_warns(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text("[]")
    code, _, err = run(["corpus", "--file", str(f)], capsys)
    assert code == 0
    assert "empty" in err


def test_corpus_malformed_entry_diagnosed(tmp_path, capsys):
    data = [
        {"id": "ok", "form": "general", "bases": ["3", "2", "5"], "x_max": "5", "y_max": "5",
         "expected": [["1", "1", "1"], ["2", "4", "2"]], "note": ""},
        {"id": "broken", "form": "general", "bases": ["3", "2"], "expected": []},
    ]
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps(data))
    code, out, err = run(["corpus", "--file", str(f)], capsys)
    assert code == 2
    assert "malformed" in err and "PASS ok" in out


def test_prove_emits_verifiable_certificate(tmp_path, capsys):
    out_file = tmp_path / "kill.json"
    code, out, _ = run(
        ["prove", "--terms", "101^z - 1 - 99^y*2^a*5^b", "--constraint", "z even",
         "--mmax", "100", "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "killing modulus 17" in out
    code, out, _ = run(["verify", str(out_file)], capsys)
    assert code == 0 and "valid" in out


PROVE_KILL = ["prove", "--terms", "101^z - 1 - 99^y*2^a*5^b", "--constraint", "z even"]


def _proved_text(capsys) -> bytes:
    """What `prove` writes to stdout: the certificate and a newline."""
    code, out, _ = run(PROVE_KILL, capsys)
    assert code == 0
    return out.encode()


def test_prove_output_overwrites_a_longer_file_in_place(tmp_path, capsys):
    expected = _proved_text(capsys)
    out_file = tmp_path / "kill.json"
    out_file.write_text("x" * 10_000)
    inode = out_file.stat().st_ino
    for _ in range(2):  # over a longer file, then over one of the same length
        assert run([*PROVE_KILL, "--output", str(out_file)], capsys)[0] == 0
        assert out_file.read_bytes() == expected
        assert out_file.stat().st_ino == inode


def test_prove_output_follows_symlinks_and_creates_files(tmp_path, capsys):
    expected = _proved_text(capsys)
    target = tmp_path / "target.json"
    target.write_text("y" * 5_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run([*PROVE_KILL, "--output", str(link)], capsys)[0] == 0
    assert link.is_symlink() and target.read_bytes() == expected
    new = tmp_path / "new.json"
    assert run([*PROVE_KILL, "--output", str(new)], capsys)[0] == 0
    assert new.read_bytes() == expected
    assert run([*PROVE_KILL, "--output", os.devnull], capsys)[0] == 0  # not a regular file


def test_prove_satisfiable_congruence_exits_1(capsys):
    code, _, err = run(["prove", "--terms", "3^x - 9^y", "--mmax", "60"], capsys)
    assert code == 1
    assert "no killing modulus" in err


def test_prove_reports_scanned_and_skipped_moduli(tmp_path, capsys):
    out_file = tmp_path / "kill.json"
    terms = ["prove", "--terms", "101^z - 1 - 99^y*2^a*5^b"]
    code, out, err = run([*terms, "--constraint", "z even", "--output", str(out_file)], capsys)
    assert code == 0 and err == ""
    assert out == f"killing modulus 17; 11 moduli scanned, 5 skipped; certificate written to {out_file}\n"
    code, out, err = run([*terms, "--mmax", "40"], capsys)
    assert code == 1 and out == ""
    assert err == (
        "no killing modulus up to 40: the congruence stays solvable on every checkable "
        "modulus (20 moduli scanned, 19 skipped)\n"
    )


def test_prove_output_bytes_are_pinned(tmp_path, capsys):
    # the mod 17 kill's certificate, byte for byte, however the scan finds it
    out_file = tmp_path / "kill.json"
    assert run([*PROVE_KILL, "--output", str(out_file)], capsys)[0] == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "ba691046196f843c0936567128a6679bd9cf75d730e8b1d967e5ac819a5e3791"


def test_prove_range_too_small_exits_1(capsys):
    code, _, err = run(
        ["prove", "--terms", "101^z - 1 - 99^y*2^a*5^b", "--constraint", "z even", "--mmax", "2"],
        capsys,
    )
    assert code == 1


def test_prove_bad_terms_exit_2(capsys):
    code, _, err = run(["prove", "--terms", "101^z ++ 1"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prove", "--terms", "3^x - 9^y", "--mmax", "1"], "bad input: m_max must be in [2, 1000], got 1"),
        (["prove", "--terms", "3^x - 9^y", "--mmax", "100000000"],
         "bad input: m_max must be in [2, 1000], got 100000000"),
        (["prove", "--terms", "3^x - 9^y", "--order-cap", "0"], "bad input: order_cap must be >= 1, got 0"),
        (["prove", "--terms", "2^20000 - 1"], "bad input: the constant part of '2^20000' is too large"),
        (["prove", "--terms", "2^99999999999 - 3^x"],
         "bad input: the constant part of '2^99999999999' is too large"),
        (["search", "--form", "general", "--a", "3", "--b", "2", "--c", "5",
          "--xmax", "100000000", "--ymax", "100000000"], "bad instance: bounds must be <= 1000"),
        (["search", "--form", "terai", "--b", "3", "--c", "5", "--nmax", "1001"],
         "bad instance: bounds must be <= 1000"),
        (["verify", "bad.json", "--builtin", "killed"], "bad input: give a certificate file or --builtin"),
        (["verify", "-", "--builtin", "killed"], "bad input: give a certificate file or --builtin"),
        (["verify", "--builtin", ""], "no builtin certificate matches ''"),
        ([*PROVE_KILL, "--output", "/dev/null/kill.json"], "cannot write certificate:"),
        (["prove", "--terms", "3^x - 9^y", "--constraint", "x%10007=1", "--constraint", "x%10009=1"],
         "bad input: constraints on x: residue modulus lcm(10007, 10009) = 100160063 is above 100000"),
    ],
    ids=["mmax-1", "mmax-huge", "order-cap-0", "constant-digits", "constant-exponent", "search-bounds",
         "terai-bounds", "verify-file-and-builtin", "verify-stdin-and-builtin", "verify-empty-builtin",
         "prove-output-unwritable", "constraint-lcm-huge"],
)
def test_out_of_range_input_exits_2(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_verify_builtin_and_mutated(tmp_path, capsys):
    code, out, _ = run(["verify", "--builtin", "has only (2,2,2)"], capsys)
    assert code == 0 and "valid" in out

    obj = _shipped("theorem_20_99_101")
    obj["tree"]["children"][4]["children"][3]["children"][0]["children"][0]["step"]["modulus"] = "19"
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(f)], capsys)
    assert code == 1
    assert "$.tree.children[4]" in out


@pytest.mark.parametrize("name, mutate, path, code", [e[1:] for e in HOSTILE_EDITS], ids=[e[0] for e in HOSTILE_EDITS])
def test_verify_hostile_edit_exits_without_traceback(tmp_path, capsys, name, mutate, path, code):
    f = tmp_path / "hostile.cert.json"
    f.write_text(json.dumps(_hostile(name, mutate)))
    exit_code, out, err = run(["verify", str(f)], capsys)
    assert exit_code == code
    if code == 1:
        assert err == "" and f"invalid at {path}: " in out
    else:
        assert out == "" and err.startswith(f"cannot load certificate: {path}: ") and len(err.splitlines()) == 1


def _probe_argv(tmp_path) -> list[str]:
    obj = _shipped("theorem_20_99_101")
    _walk(obj, PROBE_CLAIM + ["ctx_lhs", 0])["coef"] = str(HUGE_MODULUS)
    f = tmp_path / "probe.cert.json"
    f.write_text(json.dumps(obj))
    return ["verify", str(f)]


def _lcm_argv(tmp_path) -> list[str]:
    return ["prove", "--terms", "3^x - 9^y", "--constraint", "x%1000003=1", "--constraint", "x%1000033=1",
            "--mmax", "5"]


@pytest.mark.parametrize(
    "argv_of, code, line",
    [(_probe_argv, 1, f"invalid at {PROBE_PATH}: cannot factor a 234-bit integer"),
     (_lcm_argv, 2, "bad input: constraints on x: residue modulus lcm(1000003, 1000033)")],
    ids=["factoring-probe", "constraint-lcm"],
)
def test_hostile_input_ends_at_once_under_python_O(tmp_path, argv_of, code, line):
    """Each input once ran without bound; the command now ends in well under
    the timeout, with assertions stripped, and prints one line."""
    src = str(Path(jesma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-m", "jesma.cli", *argv_of(tmp_path)],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == code
    output = proc.stdout if code == 1 else proc.stderr
    assert line in output and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == (code == 2)


@pytest.mark.parametrize("argv", [["verify"], ["corpus", "--file"]], ids=["verify", "corpus"])
def test_file_not_utf8_exits_2(tmp_path, capsys, argv):
    f = tmp_path / "not-utf8.json"
    f.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run([*argv, str(f)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot load ")


def test_verify_truncated_file_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"version": "1", "title"')
    code, _, err = run(["verify", str(f)], capsys)
    assert code == 2


def test_main_builds_one_parser_and_parses_each_argv_afresh(monkeypatch):
    """Later calls reuse the parser, yet parse as a fresh process would: no
    --constraint list and no default is left over from an earlier call,
    nor from one that ended in an argparse error."""
    bad = ["search", "--form", "cubic"]
    calls = [
        ["prove", "--terms", "3^x - 9^y", "--constraint", "x%2=1", "--constraint", "y odd", "--mmax", "20"],
        ["prove", "--terms", "3^x - 9^y", "--mmax", "5"],
        ["prove", "--terms", "3^x - 9^y", "--constraint", "x even", "--mmax", "5"],
        bad,
        ["search", "--form", "general", "--a", "3", "--b", "2", "--c", "5", "--xmax", "5", "--ymax", "5"],
        ["search", "--form", "terai", "--b", "3", "--c", "5", "--json"],
    ]
    parsers, namespaces = [], []
    real_parse = argparse.ArgumentParser.parse_args

    def recording_parse(self, args=None, namespace=None):
        parsers.append(self)
        result = real_parse(self, args, namespace)
        namespaces.append(dict(vars(result)))
        return result

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse)
    codes = []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as e:
            codes.append(f"SystemExit({e.code})")
    monkeypatch.undo()
    assert codes == [0, 1, 1, "SystemExit(2)", 0, 0]
    assert build_parser.cache_info().misses == 1
    assert len(parsers) == len(calls) and all(p is build_parser() for p in parsers)
    fresh = build_parser.__wrapped__()
    assert namespaces == [vars(fresh.parse_args(argv)) for argv in calls if argv != bad]
    assert [ns["constraint"] for ns in namespaces[:3]] == [["x%2=1", "y odd"], None, ["x even"]]
    assert (namespaces[3]["xmax"], namespaces[4]["xmax"], namespaces[4]["json"]) == (5, 30, True)


def test_parse_terms_round_trip():
    terms = parse_terms("101^z - 1 - 99^y*2^a*5^b")
    assert len(terms) == 3
    assert terms[0].coef == 1 and terms[0].powers[0].base == 101
    assert terms[1].coef == -1 and not terms[1].powers
    assert terms[2].coef == -1 and len(terms[2].powers) == 3
    assert parse_terms("2^3*7 - 5^x")[0].coef == 56


def test_parse_terms_bounds_constant_part():
    # 2 has bit length 2, so 2^7000 is the largest power of 2 a term may hold
    assert parse_terms("2^7000 - 5^x")[0].coef == 2**7000
    with pytest.raises(ValueError, match="too large for a certificate"):
        parse_terms("2^7001 - 5^x")
    with pytest.raises(ValueError, match="too large for a certificate"):
        parse_terms("2^3500*2^3501 - 5^x")  # the factors' bounds add up


def test_parse_constraints():
    cons = ConstraintSet.none()
    cons = parse_constraint(cons, "z even")
    cons = parse_constraint(cons, "x=2")
    cons = parse_constraint(cons, "y%10=8")
    assert cons.residues["z"] == (2, frozenset({0}))
    assert cons.fixed["x"] == 2
    assert cons.residues["y"] == (10, frozenset({8}))
    with pytest.raises(ValueError):
        parse_constraint(cons, "z prime")
