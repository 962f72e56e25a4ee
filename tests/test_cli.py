"""Command-line interface tests: golden outputs, exit codes, schemas."""

import contextlib
import io
import json
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polylens.verify as verify_mod
from gen_goldens import COMMANDS, GOLDEN_DIR, run_command
from polylens.cli import canonical_json, fmt_complex, fmt_float, main
from polylens.verify import CheckResult


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_byte_equality(name):
    code, text = run_command(COMMANDS[name])
    assert code == 0
    assert text == (GOLDEN_DIR / name).read_text()


class TestExitCodes:
    def test_success(self):
        code, _ = run_command(["analyze", "--expr", "1/w", "--n", "1", "--lambda", "1"])
        assert code == 0

    def test_usage_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 1
        capsys.readouterr()

    def test_usage_missing_argument(self, capsys):
        assert main(["analyze", "--expr", "w"]) == 1
        capsys.readouterr()

    def test_usage_bad_ranges(self, capsys):
        assert main(["sweep", "--expr", "w", "--n", "1", "--lambda-min", "2",
                     "--lambda-max", "1", "--steps", "5"]) == 1
        assert main(["analyze", "--expr", "w", "--n", "1", "--lambda", "-1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err

    def test_parse_error(self, capsys):
        assert main(["analyze", "--expr", "1/w +", "--n", "1", "--lambda", "1"]) == 2
        err = capsys.readouterr().err
        assert "offset 5" in err

    def test_parse_error_unknown_variable(self, capsys):
        assert main(["analyze", "--expr", "1/w3", "--n", "2", "--lambda", "1"]) == 2
        capsys.readouterr()

    def test_parse_error_bad_interval(self, capsys):
        assert main(["measure", "--interval", "0:frog"]) == 2
        capsys.readouterr()

    def test_precondition_pole_on_torus(self, capsys):
        code = main(["analyze", "--expr", "1/(w1+w2)", "--n", "2", "--lambda", "1"])
        assert code == 3
        assert "PoleOnTorus" in capsys.readouterr().err

    def test_precondition_singular_change(self, capsys):
        code = main(
            ["transform", "--expr", "1/u1", "--morph", "w1^2", "--n", "1",
             "--lambda", "0.5"]
        )
        assert code == 3
        assert "SingularJacobian" in capsys.readouterr().err

    def test_verification_failure(self, capsys, monkeypatch):
        def failing(seed):
            return CheckResult(name="always_fails", passed=False, cases=1, detail="boom")

        monkeypatch.setitem(verify_mod.SUITES, "measure", [failing])
        assert main(["verify", "--suite", "measure", "--seed", "7"]) == 4
        out = capsys.readouterr().out
        assert "[FAIL] measure: always_fails" in out

    def test_verify_pass_exit_zero(self, capsys):
        assert main(["verify", "--suite", "measure", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "suite measure: 7/7 checks passed" in out
        assert out.count("[PASS]") == 7


class TestVerifyDeterminism:
    def test_same_seed_same_bytes(self):
        first = run_command(["verify", "--suite", "prop1", "--seed", "3"])
        second = run_command(["verify", "--suite", "prop1", "--seed", "3"])
        assert first == second


class TestJsonOutput:
    def test_round_trip_through_schema(self):
        code, text = run_command(
            ["analyze", "--expr", "2/w + w^2", "--n", "1", "--lambda", "0.5", "--json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert list(doc) == [
            "lambda", "core", "eta", "jacobian",
            "variance", "tail_energy", "est_error", "grid_n",
        ]
        assert doc["lambda"] == 0.5
        assert doc["eta"][0][0][0] == pytest.approx(2.0, abs=1e-9)
        # 2/w at 0.5 contributes 16, w^2 contributes 0.5^4
        assert doc["variance"] == pytest.approx(16 + 0.5**4, abs=1e-9)
        assert doc["grid_n"] >= 16
        rendered = canonical_json(doc)
        assert json.loads(rendered) == doc

    def test_canonical_json_formatting(self):
        assert canonical_json({"a": 1.0, "b": [0.5, "x"], "c": True}) == (
            '{"a": 1, "b": [0.5, "x"], "c": true}'
        )


class TestSweepOutput:
    def test_out_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text = run_command(
            ["sweep", "--expr", "w", "--n", "1", "--lambda-min", "0.5",
             "--lambda-max", "2", "--steps", "5", "--out", str(out)]
        )
        assert code == 0 and text == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,variance,variance_model,bound_gap,est_error"
        assert len(lines) == 8  # header + 5 rows + 2 trailing comments
        assert lines[-2] == "# lambda_star_closed = Degenerate(ZeroResidue)"
        assert lines[-1].startswith("# lambda_star_empirical = ")

    def test_pure_pole_is_monotone(self):
        code, text = run_command(
            ["sweep", "--expr", "1/w", "--n", "1", "--lambda-min", "0.5",
             "--lambda-max", "2", "--steps", "7"]
        )
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:8]]
        variances = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(variances, variances[1:]))
        assert all(abs(float(r[3])) < 1e-9 for r in rows)  # bound gap ~ 0
        assert "# lambda_star_closed = Degenerate(ZeroJacobian)" in text


class TestEnvironmentOverride:
    def test_grid_cap_override(self, monkeypatch, capsys):
        # 1/(w-2) needs more than 32 points per dimension to converge
        monkeypatch.setenv("LENS_MAX_GRID", "32")
        code = main(["analyze", "--expr", "1/(w-2)", "--n", "1", "--lambda", "1"])
        assert code == 3
        assert "NonConvergent" in capsys.readouterr().err
        monkeypatch.delenv("LENS_MAX_GRID")
        assert main(["analyze", "--expr", "1/(w-2)", "--n", "1", "--lambda", "1"]) == 0
        capsys.readouterr()


class TestInputBoundary:
    ANALYZE = ["analyze", "--expr", "1/w", "--n", "1", "--lambda", "1"]

    @pytest.mark.parametrize("cap", ["0", "-4", "many"])
    def test_bad_grid_cap_flag(self, cap, capsys):
        assert main(self.ANALYZE + ["--max-grid", cap]) == 1
        assert "--max-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", ""])
    def test_bad_grid_cap_environment(self, value, monkeypatch, capsys):
        monkeypatch.setenv("LENS_MAX_GRID", value)
        assert main(self.ANALYZE) == 1
        assert "LENS_MAX_GRID" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["8", "16"])
    def test_cap_without_room_for_two_grids(self, cap, capsys):
        # 1/(w-2) has no exponent range, so it takes the doubling loop
        argv = ["analyze", "--expr", "1/(w-2)", "--n", "1", "--lambda", "1"]
        assert main(argv + ["--max-grid", cap]) == 3
        err = capsys.readouterr().err
        assert "NonConvergent" in err and "no room for two grids" in err

    def test_cap_below_the_exact_grid(self, capsys):
        assert main(self.ANALYZE + ["--max-grid", "8"]) == 3
        err = capsys.readouterr().err
        assert "NonConvergent" in err and "exact grid of N=16" in err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-nan", "1e300", "1e-300"])
    def test_non_finite_scale(self, lam, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", "1/w", "--n", "1", "--lambda", lam])
        assert code == 1
        err = capsys.readouterr().err
        assert "positive and finite" in err and "Warning" not in err

    def test_overflow_in_evaluation_is_a_pole(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", "w^200", "--n", "1", "--lambda", "100"])
        assert code == 3
        assert "PoleOnTorus: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--lambda-min", "--lambda-max"])
    def test_sweep_scale_starting_with_minus(self, option, capsys):
        argv = ["sweep", "--expr", "1/w", "--n", "1", "--steps", "3",
                "--lambda-min", "0.5", "--lambda-max", "2"]
        argv[argv.index(option) + 1] = "-inf"
        assert main(argv) == 1
        assert "need 0 < lam_min < lam_max" in capsys.readouterr().err

    def test_expansion_cap_bounds_transform(self, capsys):
        start = time.perf_counter()
        code = main(["transform", "--expr", "1/u", "--morph", "w + 0.25*w^99999999",
                     "--n", "1"])
        assert code == 3 and time.perf_counter() - start < 1.0
        assert "ExpansionTooLarge" in capsys.readouterr().err

    def test_alias_probes(self, capsys):
        assert main(["analyze", "--expr", "w^33", "--n", "1", "--lambda", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid_n"] == 64
        assert max(abs(x) for x in doc["jacobian"][0][0]) < 1e-12
        assert abs(doc["tail_energy"] - 1) < 1e-12
        assert main(["analyze", "--expr", "1/w + w^-31", "--n", "1", "--lambda", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["eta"][0][0][0] - 1) < 1e-12
        assert max(abs(x) for x in doc["jacobian"][0][0]) < 1e-12
        assert abs(doc["variance"] - 2) < 1e-12 and abs(doc["tail_energy"] - 1) < 1e-12

    def test_expression_with_leading_minus(self, capsys):
        assert main(["analyze", "--expr", "-1/w", "--n", "1", "--lambda", "1"]) == 0
        assert "eta         = [[-1" in capsys.readouterr().out

    def test_morph_with_leading_minus(self, capsys):
        code = main(["transform", "--expr", "1/u", "--morph", "-w", "--n", "1"])
        assert code == 0
        assert "morph_jacobian     = [[-1]]" in capsys.readouterr().out

    def test_option_is_not_taken_as_expression(self, capsys):
        assert main(["analyze", "--expr", "--n", "1", "--lambda", "1"]) == 1
        assert "expected one argument" in capsys.readouterr().err


class TestFormatting:
    def test_fmt_float(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(-0.0) == "0"
        assert fmt_float(0.1) == "0.10000000000000001"

    def test_fmt_complex(self):
        assert fmt_complex(1 + 0j) == "1"
        assert fmt_complex(0.5j) == "0.5i"
        assert fmt_complex(1 - 2j) == "1-2i"
        assert fmt_complex(0j) == "0"


# ------------------------------------------------------------------ fuzzing

# Small cases only: n <= 2, --steps <= 9 and --max-grid <= 64, so every call
# samples grids of at most 64^2 points.  Valid values are listed several
# times, so that most calls get past argument parsing into the engine.
_NUMBERS = ["0", "1", "2.5", "3i", "(1+2i)", "0.001", "1e8"]
_SCALES = ["0.5", "1", "2"] * 3 + ["0.001", "1000", "1e300", "1e-300", "0", "-1",
                                   "nan", "inf", "x"]
_MORPHS = {
    1: ["w", "2*w", "w + 0.25*w^2", "i*w", "w^2", "0", "1/w", "w + 1", "-w"],
    2: ["w1, w2", "w1 + w1*w2/4, 2*w2", "w2, w1", "w1", "w1*w2, w2", "w1, 0"],
}
_INTERVALS = ["0:pi/2", "-pi:pi", "pi/4:pi/3", "-pi/2:pi"] * 2 + ["1:0", "0:7", "x", "0:0"]


def _expressions(names: list[str]):
    """Small random expressions in the given variables; one in four is junk."""
    tree = st.recursive(
        st.sampled_from(names + _NUMBERS),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, st.integers(-3, 9)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=5,
    )
    return st.one_of(tree, tree, tree, st.text(alphabet="wu12+-*/^() .i", max_size=10))


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(["analyze", "sweep", "transform", "measure"]))
    n = draw(st.integers(1, 2))
    if command == "measure":
        argv = ["measure"]
        for _ in range(draw(st.integers(1, 2))):
            argv += ["--interval", draw(st.sampled_from(_INTERVALS))]
        if draw(st.booleans()):
            argv += ["--dims", draw(st.sampled_from(["1", "2", "1", "2", "0", "x"]))]
    else:
        letter = "u" if command == "transform" else "w"
        names = [letter, f"{letter}1"] if n == 1 else [f"{letter}1", f"{letter}2"]
        argv = [command, "--expr", draw(_expressions(names)),
                "--n", draw(st.sampled_from([str(n)] * 6 + ["0", "-1", "x"])),
                "--max-grid", draw(st.sampled_from(["16", "32", "64"] * 2 + ["8", "0"]))]
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(["1e-10", "1e-6"] * 2 + ["0", "nan"]))]
        if command == "analyze":
            argv += ["--lambda", draw(st.sampled_from(_SCALES))]
            if draw(st.booleans()):
                argv.append("--json")
        elif command == "sweep":
            argv += ["--lambda-min", draw(st.sampled_from(["0.3"] + _SCALES)),
                     "--lambda-max", draw(st.sampled_from(["3", "5"] * 4 + _SCALES)),
                     "--steps", draw(st.sampled_from(["3", "5", "9"] * 2 + ["2", "0", "x"]))]
        else:
            argv += ["--morph", draw(st.sampled_from(_MORPHS[n]))]
            if draw(st.booleans()):
                argv += ["--lambda", draw(st.sampled_from(_SCALES))]
    # now and then drop a token, which often leaves an option without a value
    if draw(st.sampled_from([False] * 7 + [True])):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in {0, 1, 2, 3, 4}
    assert not caught, [str(w.message) for w in caught]
    err = stderr.getvalue()
    assert "Traceback" not in err and "Warning" not in err
    assert elapsed < 2.0
