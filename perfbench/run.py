"""polylens benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload {verify_all,deep_grid,cli_session} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; it imports polylens from ./src and needs only
the standard library and numpy.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment.  Spans of traced runs and a copy of every result
go to .perfbench_out/.

--trace 0 reports the end-to-end metrics: setup_s (median cold start of a
fresh interpreter importing polylens.cli) and, over batches of the workload
run in fresh worker processes for about S seconds, the median batch wall_s,
cpu_s and peak_rss_mb, and the op_p50_ms/op_p95_ms quantiles of
single-operation latency over all batches.

--trace 1 reports the per-layer metrics: it runs one batch untraced, one
batch traced and one untraced batch with OPENBLAS_NUM_THREADS=1, each in its
own worker, and adds trace.overhead_s, blas1.wall_s, blas1.cpu_s and
src.lines to the span metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.spans import metric_units  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 11
DEADLINE_S = 175.0  # the whole run must end within 180 s

# Units of the metrics an untraced run reports, and of those a traced run
# adds to the span metrics of spans.metric_units().
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_p95_ms": "ms"}
TRACED_EXTRA = {"trace.overhead_s": "s", "blas1.wall_s": "s", "blas1.cpu_s": "s",
                "src.lines": "lines"}


class BenchError(Exception):
    pass


def _env(pythonpath: list[Path], extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in pythonpath)
    env.update(extra or {})
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def measure_setup(started: float) -> float:
    """Median wall time of a fresh interpreter that imports polylens.cli,
    with bytecode cached as an installed package has it: the first, untimed
    start writes the bytecode, even where PYTHONDONTWRITEBYTECODE is set."""
    cmd = [sys.executable, "-c", "import polylens.cli"]
    env = _env([SRC])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for i in range(SETUP_RUNS + 1):
        # A blocking wait returns as the child exits; subprocess's wait with a
        # timeout polls at up to 50 ms intervals, which would quantise the time.
        timeout = _remaining(started)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        if code != 0:
            raise BenchError(f"importing polylens.cli exited with code {code}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(started: float, workload: str, seed: int, trace_out: Path | None = None,
               extra_env: dict | None = None) -> dict:
    """One batch in a fresh worker process."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env([SRC, ROOT], extra_env),
                          stdout=subprocess.PIPE, text=True, timeout=_remaining(started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "polylens").rglob("*.py")))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(started: float, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """Batches in fresh workers until the next one would end after `seconds`."""
    setup = measure_setup(started)
    begin = time.perf_counter()
    batches, elapsed = [], []
    while True:
        t0 = time.perf_counter()
        batches.append(run_worker(started, workload, seed))
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - begin + statistics.median(elapsed) > seconds:
            break
    op_ms = [ms for b in batches for ms in b["op_ms"]]
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "op_p50_ms": _quantile(op_ms, 50),
        "op_p95_ms": _quantile(op_ms, 95),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, batches


def traced(started: float, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """One untraced, one traced and one single-BLAS-thread batch."""
    base = run_worker(started, workload, seed)
    trace = run_worker(started, workload, seed, trace_out=OUT / f"spans_{workload}_seed{seed}.json.gz")
    blas1 = run_worker(started, workload, seed, extra_env={"OPENBLAS_NUM_THREADS": "1"})
    values = dict(trace["layers"])
    values["trace.overhead_s"] = trace["wall_s"] - base["wall_s"]
    values["blas1.wall_s"] = blas1["wall_s"]
    values["blas1.cpu_s"] = blas1["cpu_s"]
    values["src.lines"] = src_lines()
    units = dict(metric_units(), **TRACED_EXTRA)
    return {name: (values[name], unit) for name, unit in units.items()}, [base, trace, blas1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "polylens" / "__init__.py").is_file():
        print(f"perfbench: no polylens sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    measure = traced if args.trace else untraced
    try:
        metrics, results = measure(started, args.workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for reason in (f for r in results for f in r["failures"]):
        print(f"perfbench: failed {reason}", file=sys.stderr)
    env = dict(results[0]["env"], git_commit=git_commit(), src_lines=src_lines(),
               workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": summary, "raw": results}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
