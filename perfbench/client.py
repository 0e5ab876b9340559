"""One benchmark client: a fresh interpreter calling `jesma.cli.main` in a closed loop.

run.py starts this script with the checkout's `src` on PYTHONPATH:

    python3 perfbench/client.py --workload grid --seed 1 --seconds 20 \
        --mode measure --work .perfbench_work/grid-1

It imports `jesma.cli`, writes the workload's inputs under --work, runs
one warm-up operation and prints a `ready` line; run.py times set-up from
process start to that line.  `--mode setup` stops there.  `--mode measure`
then runs whole seeded cycles of operations, one after another, until
--seconds have passed, and prints one summary line.  `--mode trace` spends
half the time untraced and half traced, and prints the layer figures.

Each operation is one CLI command run in-process with its output captured;
the gate check runs outside the timed region.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from speed import Speedometer
from tracing import Tracer, layer_metrics

# Candidate tail percentiles above the median, in tenths of a percent.  The
# nines, plus p75 for runs of 40 to 99 operations.
TAIL_LADDER = (750, 900, 990, 999)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Record:
    """One operation: wall and CPU seconds as measured, the speed scale in
    force when it ran (see speed.py), and the gate's verdict."""

    seconds: float
    cpu: float
    scale: float
    error: str | None


def _cpu() -> float:
    """CPU seconds of this process and its reaped children (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def execute(op: workloads.Op, tracer: Tracer | None = None, scale: float = 1.0) -> Record:
    """Run one CLI command in-process, then check its output."""
    cli = sys.modules["jesma.cli"]
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = _cpu(), time.perf_counter()
    if tracer:
        tracer.active = True
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as e:  # argparse rejects its input this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.active = False
    seconds, cpu = time.perf_counter() - t0, _cpu() - c0
    error = op.check(workloads.Outcome(code, out.getvalue(), err.getvalue()))
    return Record(seconds, cpu, scale, error)


def run_loop(workload: workloads.Workload, rng: random.Random, seconds: float,
             meter: Speedometer, tracer: Tracer | None = None) -> list[Record]:
    """Whole cycles of the workload until `seconds` of wall time have passed."""
    records: list[Record] = []
    start = time.perf_counter()
    while True:
        for op in workload.cycle(rng):
            if tracer:
                tracer.op = len(records)
            meter.tick()
            records.append(execute(op, tracer, meter.scale()))
        if time.perf_counter() - start >= seconds:
            return records


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it, by nearest
    rank.  Runs too short for any report the median, with its count beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in reversed(TAIL_LADDER):
        rank = -(-p * n // 1000)  # ceil(p/1000 * n)
        if n - rank >= TAIL_BEYOND:
            return p / 10, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def _figures(latencies: list[float], cpus: list[float]) -> dict:
    percentile, tail_s, beyond = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "cpu_s_per_op": sum(cpus) / len(cpus),
    }


def summarize(records: list[Record]) -> dict:
    """Figures in reference seconds, plus the same figures as measured."""
    errors = [r.error for r in records if r.error]
    raw = _figures([r.seconds for r in records], [r.cpu for r in records])
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors[:5],
        **_figures([r.seconds * r.scale for r in records], [r.cpu * r.scale for r in records]),
        "speed_scale": statistics.median(r.scale for r in records),
        "raw": {k: v for k, v in raw.items() if not k.startswith("tail_")},
    }


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _time_prime_table(arith) -> list[float]:
    """Time each build of the arith prime table (`_sieve`) from here on."""
    builds: list[float] = []
    original = arith._sieve

    def timed(limit):
        t0 = time.perf_counter()
        try:
            return original(limit)
        finally:
            builds.append(time.perf_counter() - t0)

    arith._sieve = timed
    return builds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)

    import jesma.arith
    import jesma.cli  # noqa: F401  (set-up cost: the whole package)
    from jesma.certificate import loads_certificate, verify_certificate

    def reverify(text: str) -> bool:
        return verify_certificate(loads_certificate(text)).valid

    prime_builds = _time_prime_table(jesma.arith) if args.mode == "trace" else []
    workload = workloads.build(args.workload, Path.cwd(), args.work, args.seed, reverify)
    warm = execute(workload.warmup)
    _emit({"ready": True, "warmup_error": warm.error})
    if args.mode == "setup":
        return 0

    rng = random.Random(args.seed)
    meter = Speedometer()
    if args.mode == "measure":
        summary = summarize(run_loop(workload, rng, args.seconds, meter))
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _emit(summary)
        return 0

    untraced = summarize(run_loop(workload, rng, args.seconds / 2, meter))
    tracer = Tracer()
    tracer.install()
    try:
        records = run_loop(workload, rng, args.seconds / 2, meter, tracer)
    finally:
        tracer.uninstall()
    tracer.write(args.work / "spans.jsonl")
    traced = summarize(records)
    layers = layer_metrics(tracer.spans, [r.scale for r in records])
    layers["arith.prime_table_s"] = sum(prime_builds)
    layers["trace.ops_per_s"] = traced["ops_per_s"]
    layers["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    layers["trace.overhead_ratio"] = untraced["ops_per_s"] / traced["ops_per_s"]
    _emit({
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "errors": (untraced["errors"] + traced["errors"])[:5],
        "traced_ops": traced["attempted"],
        "layers": layers,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
