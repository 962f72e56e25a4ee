"""Seeded inputs, operations and reference checks of the three workloads.

``make_inputs`` is pure: it imports nothing from polylens and returns the same
JSON-serialisable list for the same seed.  ``Runner`` executes one input as
one operation and checks its output afterwards, so that every reference
check stays outside the timed region.  Expressions always travel as
``--expr=TEXT``: ``--expr TEXT`` is rejected by the CLI when TEXT starts
with '-' (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction

WORKLOADS = ("verify_all", "deep_grid", "cli_session")

# What `polylens verify --suite all` runs, in the same order, as one operation:
# one command for its user.
VERIFY_SUITES = ("lemma", "measure", "morph", "prop1", "theorem")

# (n, k, final grid size the adaptive loop reaches) for each deep_grid call.
# An n=4 call holds several 64^4 complex arrays of 0.27 GB each, so n=4 calls
# keep k=1 to bound the peak memory of the run.  Sorted by cost, the 10th and
# 11th calls are both (3, 2, 128), so the median call is one of a kind.
DEEP_PLAN = (
    [(3, 2, 128)] * 7 + [(3, 1, 128)] * 3
    + [(3, 2, 64)] * 2 + [(3, 1, 64)] * 2 + [(3, 2, 32)] * 2
    + [(4, 1, 64)] * 4
)

# Bands for rho = lam^n / |a|, the ratio of the series r/a * sum (w1..wn / a)^m.
# On an N-grid the constant coefficient aliases r/a * rho^N, so the loop that
# compares grids N and 2N accepts 2N once |r/a| rho^N <= 1e-10 (scaled by the
# entry when it exceeds 1).  With |r/a| in [0.5, 1.5] and |core| below 3 the
# thresholds lie near rho = 0.24 (N=16), 0.49 (N=32) and 0.70 (N=64); each
# band keeps clear of them, so every seed gives the same grid-size mix.
RHO_BANDS = {32: (0.10, 0.19), 64: (0.33, 0.42), 128: (0.55, 0.64)}

# cli_session: commands per batch of each kind.  Dimension, component count
# and sweep length set the cost of a command, so they follow a fixed plan and
# only the coefficients, scales and order come from the seed.
CLI_MIX = {"analyze": 60, "analyze_json": 60, "sweep": 75, "transform": 60, "measure": 45}
SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2)]
SWEEP_STEPS = (9, 17, 33)
SWEEP_RANGE = ("0.3", "3")
MORPH_SCALES = ("0.5", "1", "2", "i", "1.5", "-1", "2i", "-0.5i")

REL_TOL = 1e-8          # agreement required with a closed form or the oracle
RESIDUAL_TOL = 1e-8     # transform residuals, as in the morph suite


# ------------------------------------------------------------------ inputs


def _dec(m: int, places: int) -> str:
    """Exact decimal text of m / 10**places."""
    sign = "-" if m < 0 else ""
    whole, frac = divmod(abs(m), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _cnum(re: str, im: str) -> str:
    return f"({re}{im}i)" if im.startswith("-") else f"({re}+{im}i)"


def _cint(rng: random.Random, bound: int = 3) -> tuple[int, int]:
    return rng.randint(-bound, bound), rng.randint(-bound, bound)


def _cint_nonzero(rng: random.Random) -> tuple[int, int]:
    while True:
        c = _cint(rng)
        if c != (0, 0):
            return c


def _monomial(exps: tuple[int, ...]) -> str:
    factors = []
    for j, e in enumerate(exps):
        if e == 1:
            factors.append(f"w{j + 1}")
        elif e > 1:
            factors.append(f"w{j + 1}^{e}")
    return "*".join(factors)


def _render_poly(terms: dict[tuple[int, ...], tuple[int, int]]) -> str:
    parts = []
    for exps, (re, im) in terms.items():
        if (re, im) == (0, 0):
            continue
        coeff = _cnum(str(re), str(im))
        if any(e < 0 for e in exps):
            parts.append(f"{coeff}/w{exps.index(-1) + 1}")
        elif any(exps):
            parts.append(f"{coeff}*{_monomial(exps)}")
        else:
            parts.append(coeff)
    return " + ".join(parts) or "0"


def _unit(n: int, beta: int, sign: int) -> tuple[int, ...]:
    return tuple(sign if j == beta else 0 for j in range(n))


def _decomposable(rng: random.Random, n: int, sweepable: bool) -> dict:
    """Terms of the family verify.random_decomposable draws from: constant,
    single poles, linear terms and degree-2..4 tails, with integer complex
    coefficients in [-3, 3].  A sweepable polynomial has a nonzero pole and a
    nonzero linear term, so its variance has an interior minimum to refine."""
    terms: dict[tuple[int, ...], tuple[int, int]] = {}
    if rng.random() < 0.8:
        terms[(0,) * n] = _cint(rng)
    for beta in range(n):
        if rng.random() < 0.7:
            terms[_unit(n, beta, -1)] = _cint(rng)
        if rng.random() < 0.7:
            terms[_unit(n, beta, 1)] = _cint(rng)
    for _ in range(rng.randint(0, 3)):
        while True:
            exps = tuple(rng.randint(0, 4) for _ in range(n))
            if 2 <= sum(exps) <= 4:
                break
        terms[exps] = _cint(rng)
    if sweepable:
        for sign in (-1, 1):
            if not any(terms.get(_unit(n, b, sign), (0, 0)) != (0, 0) for b in range(n)):
                terms[_unit(n, rng.randrange(n), sign)] = _cint_nonzero(rng)
    return terms


def _expr_text(rng: random.Random, n: int, k: int, sweepable: bool = False) -> str:
    return ", ".join(_render_poly(_decomposable(rng, n, sweepable)) for _ in range(k))


def _verify_inputs(seed: int, rng: random.Random) -> list[dict]:
    return [{"kind": "verify", "suites": list(VERIFY_SUITES), "seed": seed}]


def _deep_component(rng: random.Random, n: int, lam: float, grid: int) -> dict:
    """c0 + sum e_b/w_b + sum d_b w_b + r/(a - w1...wn) with the series ratio
    rho = lam^n/|a| drawn from the band of the planned grid size."""
    def milli(lo: int, hi: int) -> list[str]:
        return [_dec(rng.randint(lo, hi), 3), _dec(rng.randint(lo, hi), 3)]

    lo, hi = RHO_BANDS[grid]
    modulus = lam**n / rng.uniform(lo, hi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    a = complex(modulus * math.cos(theta), modulus * math.sin(theta))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(0.5, 1.5) * complex(math.cos(phi), math.sin(phi)) * a
    return {
        "c0": milli(-1000, 1000),
        "e": [milli(-2000, 2000) for _ in range(n)],
        "d": [milli(-2000, 2000) for _ in range(n)],
        "r": [_dec(round(r.real * 10**6), 6), _dec(round(r.imag * 10**6), 6)],
        "a": [_dec(round(a.real * 10**6), 6), _dec(round(a.imag * 10**6), 6)],
    }


def _deep_text(n: int, comp: dict) -> str:
    parts = [_cnum(*comp["c0"])]
    parts += [f"{_cnum(*e)}/w{b + 1}" for b, e in enumerate(comp["e"])]
    parts += [f"{_cnum(*d)}*w{b + 1}" for b, d in enumerate(comp["d"])]
    product = "*".join(f"w{b + 1}" for b in range(n))
    parts.append(f"{_cnum(*comp['r'])}/({_cnum(*comp['a'])} - {product})")
    return " + ".join(parts)


def _deep_grid_inputs(seed: int, rng: random.Random) -> list[dict]:
    plan = list(DEEP_PLAN)
    rng.shuffle(plan)
    out = []
    for n, k, grid in plan:
        lam = _dec(rng.randint(800, 1250), 3)
        comps = [_deep_component(rng, n, float(lam), grid) for _ in range(k)]
        text = ", ".join(_deep_text(n, c) for c in comps)
        out.append({
            "kind": "deep", "n": n, "k": k, "grid": grid, "lambda": lam,
            "components": comps,
            "argv": ["analyze", f"--expr={text}", "--n", str(n), "--lambda", lam, "--json"],
        })
    return out


def _cli_inputs(seed: int, rng: random.Random) -> list[dict]:
    plan = []
    for kind, count in CLI_MIX.items():
        for i in range(count):
            n, k = SHAPES[i % len(SHAPES)]
            steps = SWEEP_STEPS[i * len(SWEEP_STEPS) // count] if kind == "sweep" else None
            plan.append((kind, n, k, steps))
    rng.shuffle(plan)
    out = []
    for kind, n, k, steps in plan:
        if kind in ("analyze", "analyze_json"):
            lam = _dec(rng.randint(300, 2000), 3)
            argv = ["analyze", f"--expr={_expr_text(rng, n, k)}", "--n", str(n), "--lambda", lam]
            if kind == "analyze_json":
                argv.append("--json")
            out.append({"kind": kind, "n": n, "lambda": lam, "argv": argv})
        elif kind == "sweep":
            argv = ["sweep", f"--expr={_expr_text(rng, n, k, sweepable=True)}", "--n", str(n),
                    "--lambda-min", SWEEP_RANGE[0], "--lambda-max", SWEEP_RANGE[1],
                    "--steps", str(steps)]
            out.append({"kind": kind, "n": n, "argv": argv})
        elif kind == "transform":
            e, c0, d, t = _cint_nonzero(rng), _cint(rng), _cint(rng), _cint(rng)
            psi = (f"{_cnum(str(e[0]), str(e[1]))}/u + {_cnum(str(c0[0]), str(c0[1]))}"
                   f" + {_cnum(str(d[0]), str(d[1]))}*u + {_cnum(str(t[0]), str(t[1]))}*u^2")
            morph = f"{rng.choice(MORPH_SCALES)}*w + 0.25*w^2"
            argv = ["transform", f"--expr={psi}", f"--morph={morph}", "--n", "1"]
            out.append({"kind": kind, "argv": argv})
        else:
            lo, hi = sorted(rng.randint(-3141592, 3141592) for _ in range(2))
            interval = f"{_dec(lo, 6)}:{_dec(hi, 6)}"
            out.append({"kind": "measure", "argv": ["measure", f"--interval={interval}"]})
    return out


_GENERATORS = {
    "verify_all": _verify_inputs,
    "deep_grid": _deep_grid_inputs,
    "cli_session": _cli_inputs,
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The operations of one batch of a workload, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](seed, rng)


def op_mix(inputs: list[dict]) -> Counter:
    """What must not change with the seed: operation kinds, the n and k of
    analyze and sweep commands, sweep step counts and the planned
    (n, k, grid size) of deep_grid calls."""
    mix = Counter()
    for spec in inputs:
        key = [spec["kind"]]
        if spec["kind"] in ("analyze", "analyze_json", "sweep"):
            key += [spec["n"], spec["argv"][1].count(",") + 1]
        if spec["kind"] == "sweep":
            key.append(spec["argv"][-1])
        if spec["kind"] == "deep":
            key += [spec["n"], spec["k"], spec["grid"]]
        mix[tuple(key)] += 1
    return mix


# ------------------------------------------------------- parsing CLI output


def _complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _vector(text: str) -> list[complex]:
    inner = text.strip()[1:-1]
    return [_complex(x) for x in inner.split(", ")] if inner else []


def _matrix(text: str) -> list[list[complex]]:
    inner = text.strip()[1:-1]
    return [_vector("[" + row.strip("[]") + "]") for row in inner.split("], [")]


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip().lstrip("# ").strip()] = value.strip()
    return out


def _close(got, want, tol: float = REL_TOL) -> bool:
    return abs(complex(got) - complex(want)) <= tol * max(1.0, abs(complex(want)))


def _all_close(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))


def _flat(matrix) -> list[complex]:
    return [complex(z) for row in matrix for z in row]


# ------------------------------------------------------------------ runner


class Runner:
    """Runs one workload's operations against polylens and checks them.

    Every polylens function is looked up on its module at call time, so that
    wrappers installed by the tracer are the ones called.
    """

    def __init__(self, workload: str, seed: int):
        from polylens import cli, verify

        self.cli = cli
        self.verify = verify
        self.inputs = make_inputs(workload, seed)

    def run(self, spec: dict):
        if spec["kind"] == "verify":
            return [r for name in spec["suites"] for r in self.verify.run_suite(name, spec["seed"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(spec["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(self, spec: dict, output) -> tuple[int, list[str]]:
        """(reference checks made, reasons of those that failed).  A verify
        operation makes one check per CheckResult, any other one check."""
        if spec["kind"] == "verify":
            return len(output), [f"{r.name}: {r.detail}" for r in output if not r.passed]
        code, stdout, stderr = output
        if code != 0:
            return 1, [f"exit {code}: {stderr.strip()}"]
        try:
            reason = getattr(self, "_check_" + spec["kind"])(spec, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output ({exc!r}): {stdout[:200]!r}"
        return 1, [reason] if reason else []

    # deep_grid: the generator knows the closed form -----------------------

    def _check_deep(self, spec: dict, stdout: str) -> str | None:
        got = json.loads(stdout)
        n, lam = spec["n"], float(spec["lambda"])

        def num(pair):
            return complex(float(Fraction(pair[0])), float(Fraction(pair[1])))

        core, eta, jac = [], [], []
        variance = tail = 0.0
        for comp in spec["components"]:
            e = [num(x) for x in comp["e"]]
            d = [num(x) for x in comp["d"]]
            r, a = num(comp["r"]), num(comp["a"])
            q = lam ** (2 * n) / abs(a) ** 2
            comp_tail = abs(r) ** 2 / abs(a) ** 2 * q / (1.0 - q)
            core.append(num(comp["c0"]) + r / a)
            eta.append(e)
            jac.append(d)
            variance += (sum(abs(x) ** 2 for x in e) / lam**2
                         + lam**2 * sum(abs(x) ** 2 for x in d) + comp_tail)
            tail += comp_tail

        def pairs(rows):
            return [complex(re, im) for row in rows for re, im in row]

        if not _all_close([complex(*p) for p in got["core"]], core):
            return "core differs from the closed form"
        if not _all_close(pairs(got["eta"]), _flat(eta)):
            return "eta differs from the closed form"
        if not _all_close(pairs(got["jacobian"]), _flat(jac)):
            return "jacobian differs from the closed form"
        if not _close(got["variance"], variance):
            return f"variance {got['variance']!r} vs closed form {variance!r}"
        if abs(got["tail_energy"] - tail) > REL_TOL * max(1.0, variance):
            return f"tail energy {got['tail_energy']!r} vs closed form {tail!r}"
        return None

    # cli_session: compared with the exact oracle -------------------------

    def _oracle(self, spec: dict) -> dict:
        from polylens import decompose, matrix_to_complex, parse, to_laurent

        f = to_laurent(parse(spec["argv"][1].partition("=")[2], spec["n"]))
        d = decompose(f)
        eta, jac = matrix_to_complex(d.eta), matrix_to_complex(d.jacobian)
        return {
            "f": f,
            "core": [complex(c) for c in d.core],
            "eta": eta,
            "jacobian": jac,
            "tr_eta": float(sum(abs(z) ** 2 for z in eta.ravel())),
            "tr_jac": float(sum(abs(z) ** 2 for z in jac.ravel())),
        }

    def _variance_exact(self, oracle: dict, lam: float) -> float:
        from polylens import variance_exact

        return float(variance_exact(oracle["f"], Fraction(lam)))

    def _compare_summary(self, oracle, lam, core, eta, jac, variance, tail) -> str | None:
        v = self._variance_exact(oracle, lam)
        model = oracle["tr_eta"] / lam**2 + lam**2 * oracle["tr_jac"]
        if not _all_close(core, oracle["core"]):
            return "core differs from the oracle"
        if not _all_close(eta, oracle["eta"].ravel()):
            return "eta differs from the oracle"
        if not _all_close(jac, oracle["jacobian"].ravel()):
            return "jacobian differs from the oracle"
        if not _close(variance, v):
            return f"variance {variance!r} vs oracle {v!r}"
        if abs(tail - (v - model)) > REL_TOL * max(1.0, v):
            return f"tail energy {tail!r} vs oracle {v - model!r}"
        return None

    def _check_analyze(self, spec: dict, stdout: str) -> str | None:
        oracle = self._oracle(spec)
        f = _fields(stdout)
        lam = float(spec["lambda"])
        bound = math.sqrt(oracle["tr_eta"]) / lam
        if not _close(float(f["lower_bound"]), bound):
            return f"lower bound {f['lower_bound']} vs oracle {bound!r}"
        return self._compare_summary(
            oracle, lam, _vector(f["core"]), _flat(_matrix(f["eta"])),
            _flat(_matrix(f["jacobian"])), float(f["variance"]), float(f["tail_energy"]),
        )

    def _check_analyze_json(self, spec: dict, stdout: str) -> str | None:
        got = json.loads(stdout)
        return self._compare_summary(
            self._oracle(spec), float(spec["lambda"]),
            [complex(*p) for p in got["core"]],
            [complex(*p) for row in got["eta"] for p in row],
            [complex(*p) for row in got["jacobian"] for p in row],
            got["variance"], got["tail_energy"],
        )

    def _check_sweep(self, spec: dict, stdout: str) -> str | None:
        oracle = self._oracle(spec)
        lines = stdout.splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:] if not line.startswith("#")]
        if len(rows) != int(spec["argv"][-1]):
            return f"{len(rows)} sweep rows"
        exact = []
        for lam, variance, model, gap, _ in rows:
            v = self._variance_exact(oracle, lam)
            want_model = oracle["tr_eta"] / lam**2 + lam**2 * oracle["tr_jac"]
            if not _close(variance, v):
                return f"variance at {lam!r}: {variance!r} vs oracle {v!r}"
            if not _close(model, want_model):
                return f"model at {lam!r}: {model!r} vs oracle {want_model!r}"
            if not _close(gap, lam**2 * v - oracle["tr_eta"]):
                return f"bound gap at {lam!r} differs from the oracle"
            exact.append(v)
        f = _fields(stdout)
        closed = (oracle["tr_eta"] / oracle["tr_jac"]) ** 0.25
        if not _close(float(f["lambda_star_closed"]), closed):
            return f"closed optimum {f['lambda_star_closed']} vs oracle {closed!r}"
        star = float(f["lambda_star_empirical"])
        lo, hi = rows[0][0], rows[-1][0]
        if not lo <= star <= hi:
            return f"empirical optimum {star!r} outside the sweep"
        # Golden section stops at a relative bracket of 1e-4, where the
        # variance can still sit about 1e-8 above its minimum: allow 1e-6.
        v_star = self._variance_exact(oracle, star)
        if v_star > min(exact) + 1e-6 * max(1.0, min(exact)):
            return f"empirical optimum {star!r} has variance above the sweep minimum"
        return None

    def _check_transform(self, spec: dict, stdout: str) -> str | None:
        f = _fields(stdout)
        worst = max(float(f["eta_residual"]), float(f["jacobian_residual"]))
        return None if worst <= RESIDUAL_TOL else f"residual {worst!r}"

    def _check_measure(self, spec: dict, stdout: str) -> str | None:
        lo, hi = (float(x) for x in spec["argv"][1].partition("=")[2].split(":"))
        want = (hi - lo) / (2.0 * math.pi)
        got = float(stdout)
        return None if abs(got - want) <= 1e-12 else f"measure {got!r} vs {want!r}"
