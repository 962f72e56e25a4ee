"""Self-tests of the benchmark itself (not of polylens).

    python3 -m pytest -q perfbench

The traced tests run one batch of each workload in this process, about 40 s
in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, worker  # noqa: E402
from perfbench.spans import TARGETS, Tracer, layer_metrics, metric_units  # noqa: E402
from perfbench.workloads import DEEP_PLAN, WORKLOADS, Runner, make_inputs, op_mix  # noqa: E402

# Spans that must record calls on each workload: the layer table of NOTES.md.
ASSIGNED = {
    "verify_all": [
        "laurent.LaurentPoly.eval_grid", "quadrature.laurent_coefficient",
        "quadrature.sample_torus", "quadrature.adaptive_coefficients",
        "quadrature.spectral_summary", "quadrature.expectation_numeric",
        "quadrature.inner_product_numeric", "analysis.variance_sweep",
        "analysis.empirical_optimal_scale", "laurent.decompose", "laurent.variance_exact",
        "laurent.inner_product_exact", "expr.to_laurent", "slices.slice_measure",
        "slices.product_measure", "slices.arc_integral_check", "morphs.morph_validate",
        "morphs.pole_feedthrough", "verify.suite.lemma", "verify.suite.measure",
        "verify.suite.morph", "verify.suite.prop1", "verify.suite.theorem",
        "verify.uncertainty_floor_sweep",
    ],
    "deep_grid": [
        "cli.main", "expr.parse", "expr.MeroExpr.eval_grid", "quadrature.sample_torus",
        "quadrature.laurent_coefficient", "quadrature.adaptive_coefficients",
        "quadrature.spectral_summary",
    ],
    "cli_session": [
        "cli.main", "expr.parse", "expr.MeroExpr.eval_grid", "quadrature.sample_torus",
        "quadrature.adaptive_coefficients", "quadrature.spectral_summary",
        "quadrature.first_order_summary", "analysis.variance_sweep",
        "analysis.empirical_optimal_scale", "morphs.verify_transform", "morphs.pullback",
        "morphs.morph_validate", "slices.slice_measure",
    ],
}


def _inputs_in_subprocess(workload: str, seed: int, hash_seed: str) -> bytes:
    code = ("import json, sys; from perfbench.workloads import make_inputs; "
            f"sys.stdout.write(json.dumps(make_inputs({workload!r}, {seed})))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                          capture_output=True, timeout=60).stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = _inputs_in_subprocess(workload, 5, "1")
    assert first == _inputs_in_subprocess(workload, 5, "2")
    assert first == json.dumps(make_inputs(workload, 5)).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_mix(workload):
    a, b = make_inputs(workload, 5), make_inputs(workload, 6)
    assert a != b
    assert op_mix(a) == op_mix(b)


def test_deep_grid_reaches_planned_grid_sizes():
    """The |a| bands give every seed the same (n, k, grid size) mix."""
    planned = Counter(DEEP_PLAN)
    for seed in (11, 12):
        runner = Runner("deep_grid", seed)
        reached = Counter()
        for spec in runner.inputs:
            code, stdout, stderr = runner.run(spec)
            assert code == 0, stderr
            reached[(spec["n"], spec["k"], json.loads(stdout)["grid_n"])] += 1
        assert reached == planned


def _polylens_bindings() -> dict:
    import polylens.cli  # noqa: F401
    import polylens.verify  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polylens" or name.startswith("polylens."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        for meth, fn in vars(value).items():
                            out[(name, attr, meth)] = fn
    return out


def test_untraced_run_installs_no_wrappers():
    before = _polylens_bindings()
    result = worker.run("cli_session", seed=3)
    assert result["failed"] == 0
    assert _polylens_bindings() == before


def test_uninstall_restores_every_binding():
    before = _polylens_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {key for key, value in _polylens_bindings().items() if before[key] is not value}
        # every target is patched where it is defined, plus re-exports
        assert len(patched) >= len(TARGETS)
        assert ("polylens.analysis", "spectral_summary") in patched
        assert ("polylens.morphs", "sample_torus") in patched
    finally:
        tracer.uninstall()
    assert _polylens_bindings() == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_assigned_layers(workload):
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run(workload, seed=7, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0, result["failures"]
    layers = layer_metrics(tracer.spans)
    assert set(layers) == set(metric_units())
    missing = [name for name in ASSIGNED[workload] if layers[f"{name}.calls"] < 1]
    assert not missing
    assert layers["quadrature.sample_torus.points"] > 0
    assert 0 < layers["quadrature.useful_point_ratio"] < 1
    assert layers["quadrature.adaptive_coefficients.levels"] >= 2
    if workload == "verify_all":
        assert layers["quadrature.spectral_summary.s"] >= 0.5 * result["wall_s"]
    if workload == "cli_session":
        assert 0 < layers["analysis.golden_share"] < 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(metric_units(), **run.TRACED_EXTRA)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
