"""The benchmark workloads: sweep and oracle (in BENCHMARK.json), and decompose.

A workload is built from the seed once and warmed up on small inputs
of the same code paths (together its set-up), then run in passes over
the same fixed inputs. Each pass returns one Op per timed
program call; only the program call sits inside the timed region, the
check of its output runs after it. `span` is a context-manager factory
the tracer uses to open one root span per operation (a no-op when the
run is untraced).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import quadboson as qb
from quadboson import (
    BosonBasis,
    ExceptionalPointError,
    FockTruncation,
    OneModeParams,
    QuadraticForm,
    TwoModeParams,
    cli,
)


@dataclass(frozen=True)
class Op:
    """One timed program call: `units` checked results, `failed` of them wrong.

    error names the exception the call raised when that was not an
    outcome the check expects.
    """

    case: str
    seconds: float
    units: int
    failed: int
    error: str = ""


def timed(span, name: str, call):
    """Run call() in a root span; return (seconds, its result or the exception raised).

    An operation that crashes is a failed operation, not a failed run.
    """
    with span(name):
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:
            result = exc
        return perf_counter() - start, result


def error_text(result) -> str:
    if isinstance(result, Exception) and not isinstance(result, ExceptionalPointError):
        return f"{type(result).__name__}: {result}"
    return ""


# --------------------------------------------------------------------- sweep

# Fixed, not seeded: CSV bytes must compare equal across repeats and commits.
# The one-mode grid crosses alpha*beta = 1/4 and has the EP (0.5, 0.5) on a
# node; the two-mode grid at beta = 0.5 meets both loci alpha*beta = (gamma +/- 1)^2/4
# and has gamma = +/-1 and (gamma, alpha_re) = (0, 0.5), (+/-2, 0.5) on nodes.
# 21 steps (0.05 in alpha and beta, 0.2 in gamma) keep a pass near 0.2 s, so a
# 55-s run times each call ~200 times; see bench/DESIGN.md, "Steadiness".
SWEEP_CONFIGS = {
    "one_mode_grid": {
        "model": "one_mode",
        "sweep": [
            {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 21},
            {"parameter": "beta_re", "start": 0.0, "stop": 1.0, "steps": 21},
        ],
    },
    "two_mode_grid": {
        "model": "two_mode",
        "beta": [0.5, 0.0],
        "sweep": [
            {"parameter": "gamma", "start": -2.0, "stop": 2.0, "steps": 21},
            {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 21},
        ],
    },
}


class Sweep:
    """`quadboson sweep` through cli.main on the two fixed grid configs."""

    largest_case = "one_mode_grid"
    unit = "grid point"

    def __init__(self, seed: int, workdir: Path):
        del seed  # the grids are fixed on purpose, see SWEEP_CONFIGS
        self.workdir = workdir
        self.configs = {}
        for name, data in SWEEP_CONFIGS.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(data, indent=2), encoding="utf-8")
            self.configs[name] = (path, cli.load_config(str(path)))
        self.reference: dict[str, tuple[str, np.ndarray]] = {}

    def warm_up(self) -> None:
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps({"model": "two_mode", "sweep": [
            {"parameter": "gamma", "start": 0.0, "stop": 1.0, "steps": 3}]}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--config", str(path), "--out", str(self.workdir / "warm_up.csv")])

    def run_pass(self, span) -> list[Op]:
        ops = []
        for name, (path, config) in self.configs.items():
            out = self.workdir / f"{name}.csv"
            argv = ["sweep", "--config", str(path), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                seconds, code = timed(span, "bench.sweep." + name, lambda: cli.main(argv))
            points = int(np.prod([axis.steps for axis in config.sweep]))
            if code != cli.EXIT_OK:
                ops.append(Op(name, seconds, points, points, error_text(code) or f"exit {code}"))
                continue
            bad = self._judge(name, config, out.read_text(encoding="utf-8"))
            ops.append(Op(name, seconds, points, int(bad.sum())))
        return ops

    def csv_digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(text.encode()).hexdigest()[:16]
                for name, (text, _) in self.reference.items()}

    def _judge(self, name: str, config, text: str) -> np.ndarray:
        ref = self.reference.get(name)
        if ref is not None and ref[0] == text:
            return ref[1]
        bad = self._check(config, text)
        if ref is None:
            self.reference[name] = (text, bad)
            return bad
        # bytes differ from the first pass: every differing row is a failure too
        old, new = ref[0].splitlines(), text.splitlines()
        if len(old) != len(new):
            return np.ones_like(bad)
        changed = np.array([a != b for a, b in zip(old[3:], new[3:])])
        return bad | changed

    @staticmethod
    def _check(config, text: str) -> np.ndarray:
        names = [axis.parameter for axis in config.sweep]
        try:
            grid, values, labels, defective = checks.parse_sweep_csv(text, len(names))
        except ValueError:
            return np.ones(int(np.prod([axis.steps for axis in config.sweep])), dtype=bool)
        n = len(labels)
        params = {
            "alpha_re": np.full(n, config.alpha.real), "alpha_im": np.full(n, config.alpha.imag),
            "beta_re": np.full(n, config.beta.real), "beta_im": np.full(n, config.beta.imag),
            "gamma": np.full(n, config.gamma),
        }
        for col, pname in enumerate(names):
            params[pname] = grid[:, col]
        return checks.check_sweep_rows(config.kind, params, values, labels, defective)


# ----------------------------------------------------------------- decompose

# Mostly small forms, with a tail where LAPACK time competes with Python.
DECOMPOSE_MIX = ((1, 60), (2, 60), (3, 40), (4, 40), (8, 8), (16, 4))

# Exact exceptional points: decompose must raise ExceptionalPointError.
EP_FORMS = (
    ("ep_one_mode", lambda: qb.one_mode(OneModeParams(0.5, 0.5))),
    ("ep_two_mode_minus", lambda: qb.two_mode(TwoModeParams(0.25, 0.25, 0.5))),
    ("ep_two_mode_alpha0", lambda: qb.two_mode(TwoModeParams(0.0, 0.5, 1.0))),
)


def random_form(rng: np.random.Generator, n_modes: int) -> QuadraticForm:
    size = 2 * n_modes
    mat = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return QuadraticForm(BosonBasis(n_modes), 0.5 * (mat + mat.T))


class Decompose:
    """Library decompose + detect_ep on seeded random complex-symmetric K-mode forms."""

    largest_case = "K16"
    unit = "form"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.forms = [(f"K{k}", random_form(rng, k), False)
                      for k, count in DECOMPOSE_MIX for _ in range(count)]
        self.forms += [(name, build(), True) for name, build in EP_FORMS]

    def warm_up(self) -> None:
        for _, form, _ in self.forms[::20]:
            self._call(form)

    def run_pass(self, span) -> list[Op]:
        return [decompose_op(span, "bench.decompose.", case, form, expect_ep)
                for case, form, expect_ep in self.forms]

    @staticmethod
    def _call(form):
        try:
            outcome = qb.decompose(form)
        except ExceptionalPointError as exc:
            outcome = exc
        return outcome, qb.detect_ep(qb.adjoint_rep(form))


def decompose_op(span, prefix: str, case: str, form: QuadraticForm, expect_ep: bool) -> Op:
    """One timed decompose + detect_ep call on `form`, checked after the timer stops."""
    seconds, result = timed(span, prefix + case, lambda: Decompose._call(form))
    if isinstance(result, Exception):
        return Op(case, seconds, 1, 1, error_text(result))
    outcome, report = result
    ok = checks.check_decompose_outcome(form, outcome, report, expect_ep)
    return Op(case, seconds, 1, int(not ok), error_text(outcome))


# -------------------------------------------------------------------- oracle

METRIC_REFERENCE = (0.3, 0.5)   # the paper's reference point (acceptance criterion 8)
METRIC_CUTOFF = 40
# Cheap cases checked on many seeded points; together they take ~10% of a
# pass, which the two-mode and three-mode verifications dominate. Those two
# are sized (nmax 20 and 5, regrown to dimensions 625 and 1000) so that a
# pass takes ~5 s and a 55-s run times each ~10 times; at nmax 30 and 7
# (~20-s passes) runs spread 0.20, see bench/DESIGN.md, "Steadiness".
# nmax 4 for three modes is too small: its levels miss by ~0.1.
ONE_MODE_POINTS = 30
METRIC_POINTS = 10


@dataclass(frozen=True)
class SpectrumCase:
    name: str
    form: QuadraticForm
    levels: int
    trunc: FockTruncation
    tol: float


def weak_three_mode(rng: np.random.Generator) -> QuadraticForm:
    """Three distinct oscillators with small squeezing and exchange couplings."""
    g = np.zeros((6, 6))
    omega = rng.uniform(0.8, 1.2, 3)
    for i in range(3):
        g[i, i + 3] = g[i + 3, i] = 0.5 * omega[i]
        g[i, i], g[i + 3, i + 3] = rng.uniform(0.0, 0.02, 2)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = 0.5 * rng.uniform(-0.05, 0.05)
        g[i, j + 3] = g[j + 3, i] = c
        g[j, i + 3] = g[i + 3, j] = c
    return QuadraticForm(BosonBasis(3), g)


class Oracle:
    """Truncated-Fock verification through the library on seeded all-real points.

    Parameter ranges keep each point inside the domain where the stated
    cutoff resolves the stated levels, so a failure means a wrong result.
    The metric case always includes the reference point (0.3, 0.5).
    Each pass runs ONE_MODE_POINTS one-mode verifications, one two-mode and
    one three-mode verification, METRIC_POINTS metric checks, and checks
    that decompose refuses the exact EPs of EP_FORMS, where no oracle
    comparison is defined.
    """

    largest_case = "k3"
    unit = "verification"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.spectrum_cases = [
            SpectrumCase("k1", qb.one_mode(OneModeParams(*rng.uniform(0.0, 0.4, 2))),
                         5, FockTruncation(1, 60), 1e-6)
            for _ in range(ONE_MODE_POINTS)]
        a2, b2 = rng.uniform(0.0, 0.25, 2)
        self.spectrum_cases += [
            SpectrumCase("k2", qb.two_mode(TwoModeParams(a2, b2, rng.uniform(-0.3, 0.3))),
                         5, FockTruncation(2, 20), 1e-6),
            SpectrumCase("k3", weak_three_mode(rng), 4, FockTruncation(3, 5), 1e-4),
        ]
        self.metric_cases = [("metric_ref", OneModeParams(*METRIC_REFERENCE))]
        self.metric_cases += [("metric", OneModeParams(*rng.uniform(0.05, 0.3, 2)))
                              for _ in range(METRIC_POINTS - 1)]
        self.ep_forms = [(name, build()) for name, build in EP_FORMS]
        self.reference_floor = 0.0

    def warm_up(self) -> None:
        form = self.spectrum_cases[0].form
        qb.verify_spectrum(form, qb.decompose(form), 2, FockTruncation(1, 10))
        self._metric(self.metric_cases[0][1], cutoff=10)

    def run_pass(self, span) -> list[Op]:
        ops = []
        for case in self.spectrum_cases:
            seconds, report = timed(span, "bench.oracle." + case.name, lambda: qb.verify_spectrum(
                case.form, qb.decompose(case.form), case.levels, case.trunc, tol=case.tol))
            ok = not isinstance(report, Exception) and checks.check_oracle_report(report)
            ops.append(Op(case.name, seconds, 1, int(not ok), error_text(report)))
        for name, params in self.metric_cases:
            seconds, result = timed(span, "bench.oracle." + name, lambda: self._metric(params))
            if isinstance(result, Exception):
                ops.append(Op(name, seconds, 1, 1, error_text(result)))
                continue
            transformed, report = result
            if name == "metric_ref":
                self.reference_floor = checks.metric_floor(report)
            ok = (checks.check_metric_report(report)
                  and checks.check_number_form(transformed, qb.one_mode_lambdas(params)[1]))
            ops.append(Op(name, seconds, 1, int(not ok)))
        ops += [decompose_op(span, "bench.oracle.", name, form, True)
                for name, form in self.ep_forms]
        return ops

    @staticmethod
    def _metric(params, cutoff=METRIC_CUTOFF):
        """The `transform --oracle` pipeline: map, mapped form, generator, metric check."""
        cmap = qb.bogoliubov_map(params, 1.0)
        transformed = qb.transform_form(qb.one_mode(params), cmap)
        qb.generator_coeffs(cmap)
        return transformed, qb.verify_metric(params, cmap, FockTruncation(1, cutoff))


WORKLOADS = {"sweep": Sweep, "decompose": Decompose, "oracle": Oracle}
