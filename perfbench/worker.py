"""Run one batch of a workload in this process and print its result as one
JSON line.

    python3 -m perfbench.worker --workload NAME --seed S [--trace-out PATH]

The batch's operations run one at a time; each is timed alone, and its
reference check runs after its timer stops, with tracing paused.  With
--trace-out the batch is traced and its spans are written to PATH.  run.py
starts a fresh worker for every batch, so that each batch pays the cold
start of a process as a CLI user does, and peak RSS belongs to one batch.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

from .spans import Tracer, layer_metrics
from .workloads import WORKLOADS, Runner

MAX_REPORTED_FAILURES = 5


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, asked through its
    own entry point; None when no OpenBLAS is loaded or it has no such call."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload: str, seed: int, tracer: Tracer | None = None) -> dict:
    """Run one batch; return its wall and CPU seconds, per-operation
    milliseconds and the reference-check tally."""
    runner = Runner(workload, seed)
    cpu = 0.0
    op_ms, outputs = [], []
    for op_id, spec in enumerate(runner.inputs):
        if tracer:
            tracer.op, tracer.active = op_id, True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output = runner.run(spec)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            output = None
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.active = False
        cpu += c1 - c0
        op_ms.append((t1 - t0) * 1e3)
        outputs.append(output)
    attempted, failures = 0, []
    for index, (spec, output) in enumerate(zip(runner.inputs, outputs)):
        checks, reasons = (1, ["raised"]) if output is None else runner.check(spec, output)
        attempted += checks
        failures += [f"{spec['kind']} #{index}: {reason}" for reason in reasons]
    return {
        "wall_s": sum(op_ms) / 1e3,
        "cpu_s": cpu,
        "op_ms": op_ms,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    result = run(args.workload, args.seed, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans)
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
