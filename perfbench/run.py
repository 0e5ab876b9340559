"""Benchmark of the jesma CLI: four closed-loop workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads: grid, corpus, certify, sieve-scan (see METRICS.md).  Each run
starts fresh client interpreters (client.py) with the checkout's `src` on
PYTHONPATH and JESMA_THREADS removed, so the CLI runs with its defaults.

--trace 0 sets up SETUPS times (the last set-up is the measuring client's
own), then measures for --seconds and prints the end-to-end metrics.
Times are scaled to a reference machine speed (speed.py); the record line
also gives them as measured.
--trace 1 runs one client that measures half the time untraced and half
traced, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment, the seed and the details behind the figures.  Exit code 2
means the checkout holds no jesma sources; 1 means a client failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from speed import WINDOW, Speedometer

SETUPS = 5
DEADLINE_S = 170  # every run must end within 180 s
WORK_DIR = ".perfbench_work"
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}


class ClientError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def client_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("JESMA_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Client:
    """One client process; killed with its pool workers if it overruns."""

    def __init__(self, root: Path, args: list[str], deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py"), *args],
            cwd=root,
            env=client_env(root),
            stdout=subprocess.PIPE,
            bufsize=0,  # unbuffered, so select() sees every line not yet read
            start_new_session=True,
        )

    def read(self) -> dict:
        """The client's next line; each is one JSON object written at once."""
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ClientError("client ended or overran without reporting")
        return json.loads(line)

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ClientError("client did not exit in time")
        if code != 0:
            raise ClientError(f"client exited with code {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()


def run_client(root: Path, args: list[str], mode: str, deadline: float) -> tuple[float, dict, dict | None]:
    """(set-up seconds, ready line, summary line or None) of one client."""
    client = Client(root, [*args, "--mode", mode], deadline)
    try:
        ready = client.read()
        setup_s = time.perf_counter() - client.started
        summary = None if mode == "setup" else client.read()
        client.finish()
        return setup_s, ready, summary
    finally:
        client.stop()


def measure(root: Path, a, deadline: float) -> tuple[dict, dict]:
    work = root / WORK_DIR / f"{a.workload}-{a.seed}"
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--work", str(work)]
    warmup_errors = []
    if a.trace:
        _, ready, summary = run_client(root, base, "trace", deadline)
        warmup_errors.append(ready["warmup_error"])
        metrics = summary.pop("layers")
        details = {"traced_ops": summary.pop("traced_ops")}
    else:
        meter = Speedometer()
        setups, scaled = [], []
        for i in range(SETUPS):
            meter.sample(WINDOW)
            scale = meter.scale()
            mode = "measure" if i == SETUPS - 1 else "setup"
            setup_s, ready, summary = run_client(root, base, mode, deadline)
            setups.append(setup_s)
            scaled.append(setup_s * scale)
            warmup_errors.append(ready["warmup_error"])
        metrics = {
            "setup_s": statistics.median(scaled),
            **{k: summary.pop(k) for k in END_TO_END_UNITS if k in summary},
        }
        summary["raw"]["setup_s"] = statistics.median(setups)
        details = {
            "setup_samples_s": setups,
            "tail_percentile": summary.pop("tail_percentile"),
            "tail_samples_beyond": summary.pop("tail_beyond"),
        }
    details["warmup_errors"] = [e for e in warmup_errors if e]
    return metrics, {**summary, **details}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jesma" / "cli.py").is_file():
        print(f"{root} holds no jesma sources (src/jesma/cli.py); run from a checkout's root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir(root / "src", quiet=1)
    try:
        metrics, details = measure(root, a, deadline)
    except (ClientError, json.JSONDecodeError, KeyError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    attempted, failed = details.pop("attempted"), details.pop("failed")
    spec = workloads.SPECS[a.workload]
    record = {
        "workload": a.workload,
        "why": spec.why,
        "seed_varies": spec.seed_varies,
        "environment": environment(a.seed),
        "seconds": a.seconds,
        "error_rate": failed / attempted,
        **details,
    }
    unit = tracing.unit_of if a.trace else END_TO_END_UNITS.get
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not details["warmup_errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
