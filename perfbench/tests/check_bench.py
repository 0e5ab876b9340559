"""Tests of the benchmark itself: gates, traced self times, and a smoke run.

    python3 -m pytest -q -o python_files='check_*.py' perfbench/tests

Run from the root of the repository.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import client  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import Op  # noqa: E402

import jesma.cli  # noqa: E402,F401
import jesma.search  # noqa: E402
from jesma.certificate import loads_certificate, verify_certificate  # noqa: E402


def reverify(text: str) -> bool:
    return verify_certificate(loads_certificate(text)).valid


def passes(op: Op) -> bool:
    return client.execute(op).error is None


def with_expect(op: Op, **changes) -> Op:
    return Op(op.kind, op.argv, {**op.expect, **changes})


def test_grid_gate_rejects_wrong_answer():
    op = workloads.grid_op(2)
    assert passes(op)
    assert not passes(workloads.grid_op(2, solutions={(2, 2, 2), (1, 1, 1)}))
    assert not passes(workloads.grid_op(2, solutions=set()))
    assert not passes(with_expect(op, instance="20^x + 99^y = 101^z"))


def _finds_nothing(s, base):
    return None


def test_grid_gate_catches_a_program_that_misses_solutions(monkeypatch):
    # pool workers are forked, so they inherit the patched module global
    monkeypatch.setattr(jesma.search, "is_perfect_power_of", _finds_nothing)
    assert not passes(workloads.grid_op(2))


def test_corpus_gate_rejects_wrong_answer(tmp_path):
    wl = workloads.build("corpus", ROOT, tmp_path, 3, reverify)
    (op,) = wl.ops
    assert passes(op)
    assert not passes(with_expect(op, ids=op.expect["ids"][1:]))
    # a catalogue entry with a wrong expected solution set fails the run
    entries = json.loads(Path(op.argv[2]).read_text())
    entries[0]["expected"] = entries[0]["expected"][1:] if entries[0]["expected"] else [["1", "1", "1"]]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(entries))
    assert not passes(workloads.corpus_op(wrong, op.expect["ids"]))


def test_certify_gates_reject_wrong_answers(tmp_path):
    wl = workloads.build("certify", ROOT, tmp_path, 5, reverify)
    verifies = [op for op in wl.ops if op.kind == "verify"]
    assert len(verifies) == 3 + sum(len(m) for m in workloads.MUTATIONS.values())
    for op in verifies:
        assert passes(op), op.argv
        assert not passes(with_expect(op, valid=not op.expect["valid"])), op.argv
    theorem_mutant = next(op for op in verifies if op.expect["path_prefix"])
    assert not passes(with_expect(theorem_mutant, path_prefix="$.tree.children[9]"))
    (prove,) = [op for op in wl.ops if op.kind == "prove"]
    assert passes(prove)
    assert not passes(with_expect(prove, modulus=19))
    assert not passes(with_expect(prove, reverify=lambda text: False))


def test_sieve_scan_gate_rejects_wrong_answer():
    op = workloads.scan_op(mmax=12)
    assert passes(op)
    assert not passes(with_expect(op, mmax=13))
    # the same gate on a congruence that a modulus does kill
    killed = Op("no-kill", op.argv + ("--constraint", "z even", "--mmax", "20"), {"mmax": 20})
    assert not passes(killed)


def test_traced_self_times_are_within_op_wall_time(tmp_path):
    wl = workloads.build("certify", ROOT, tmp_path, 7, reverify)
    main = jesma.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = client.run_loop(wl, random.Random(7), 0.0, Speedometer(), tracer)
    finally:
        tracer.uninstall()
    assert all(r.error is None for r in records)
    assert jesma.cli.main is main
    selfs = tracing.self_times(tracer.spans)
    assert tracer.spans and all(s >= 0 for s in selfs)
    per_op = [0.0] * len(records)
    for span, self_s in zip(tracer.spans, selfs):
        assert self_s <= span.end - span.start
        per_op[span.op] += self_s
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.op for s in roots] == list(range(len(records)))
    assert {s.name for s in roots} == {"cli.main"}
    for i, r in enumerate(records):
        assert per_op[i] <= r.seconds
    layers = tracing.layer_metrics(tracer.spans, [r.scale for r in records])
    assert layers["certificate.implied.calls"] > 0
    assert layers["search.find_solutions.calls"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    p, value, beyond = client.tail([float(i) for i in range(1, 101)])
    assert (p, value, beyond) == (90.0, 90.0, 10)
    p, value, beyond = client.tail([float(i) for i in range(1, 15)])
    assert p == 50.0 and value == 7.5 and beyond < 10


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_every_workload(name):
    spec = _bench_spec()
    p = _run("--workload", name, "--seed", "11", "--seconds", "0.1", "--trace", "0")
    assert p.returncode == 0, p.stderr
    record, result = (json.loads(line) for line in p.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    env = record["record"]["environment"]
    assert env["seed"] == 11 and env["nproc"] >= 1 and env["python"] and env["cpu_model"]


def test_smoke_traced_run_reports_every_layer_metric():
    spec = _bench_spec()
    p = _run("--workload", "certify", "--seed", "2", "--seconds", "0.1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
