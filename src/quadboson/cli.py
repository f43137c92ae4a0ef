"""Command-line front end.

Subcommands: analyze (spectral report for one model), sweep (CSV grid
scan over one or two parameters), oracle (truncated-Fock verification),
transform (one-mode canonical map, generator, and metric check).

Exit codes: 0 success, 1 bad config or failed verification, 2
exceptional-point degeneracy (analysis still printed where possible).
Config files are JSON; complex numbers are two-element [re, im] arrays.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import (
    BosonBasis,
    QuadraticForm,
    adjoint_rep,
    transform_form,
)
from .fock import SPECTRUM_TOL, FockTruncation, _rerun_cutoff, verify_metric, verify_spectrum
from .spectral import (
    ExceptionalPointError,
    Reality,
    _eigensystem,
    _stacked_labels,
    decompose,
    normalize_pairs,
)
from .swanson import (
    OneModeParams,
    TwoModeParams,
    bogoliubov_map,
    generator_coeffs,
    one_mode,
    two_mode,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCEPTIONAL = 2

# Per model: the fields read besides model/oracle/sweep (others are refused), sweep axes.
_MODELS = {
    "one_mode": (("alpha", "beta"), ("alpha_re", "alpha_im", "beta_re", "beta_im")),
    "two_mode": (("alpha", "beta", "gamma"),
                 ("alpha_re", "alpha_im", "beta_re", "beta_im", "gamma")),
    "custom": (("matrix", "offset"), ()),
}
# Criterion 9's 101x101 grid is the largest in use. At the cap, a 1000x1000 two-mode
# grid takes 25 s and 79 MB peak RSS (one-mode: 11 s, 66 MB; 2 cores, 1 BLAS thread).
_MAX_SWEEP_POINTS = 1_000_000
# A sweep solves and writes this many grid points at a time, which bounds its memory.
_SWEEP_CHUNK = 2**14
# The oracle settings that a config's "oracle" object and the flags leave out.
_ORACLE_DEFAULTS = {"nmax": 40, "levels": 5, "tol": SPECTRUM_TOL}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    nmax: int
    levels: int
    tol: float
    alpha: complex
    beta: complex
    gamma: float
    matrix: np.ndarray | None
    offset: complex
    sweep: tuple
    raw_bytes: bytes


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether value is a JSON number of the given kinds that a float holds finitely;
    JSON true/false are not numbers, nor are the NaN/Infinity literals json reads."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _as_complex(value, field):
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"field '{field}': expected a number or [re, im] pair, got {value!r}")


def _parse_matrix(entries, field):
    try:
        rows = [[_as_complex(v, field) for v in row] for row in entries]
        mat = np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:  # ConfigError, or numpy's for a ragged matrix
        raise ConfigError(f"field '{field}': malformed matrix ({exc})") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or mat.shape[0] < 2:
        raise ConfigError(f"field '{field}': matrix must be square with even size 2K")
    return mat


def load_config(path: str, overrides: dict | None = None) -> ModelConfig:
    """Read and check a config; non-None `overrides` replace oracle settings first."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")

    kind = data.get("model")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"field 'model': must be one of {', '.join(_MODELS)}")
    fields, sweepable = _MODELS[kind]
    for key in data:
        if key not in ("model", "oracle", "sweep", *fields):
            raise ConfigError(f"field '{key}': unknown field for model {kind}")

    alpha = _as_complex(data.get("alpha", 0.0), "alpha")
    beta = _as_complex(data.get("beta", 0.0), "beta")
    gamma = data.get("gamma", 0.0)
    if not _is_number(gamma):
        raise ConfigError("field 'gamma': must be a real number")

    matrix = None
    offset = 0.0
    if kind == "custom":
        if "matrix" not in data:
            raise ConfigError("field 'matrix': required for custom models")
        matrix = _parse_matrix(data["matrix"], "matrix")
        offset = _as_complex(data.get("offset", 0.0), "offset")

    oracle = data.get("oracle", {})
    if not isinstance(oracle, dict):
        raise ConfigError("field 'oracle': must be an object")
    for key in oracle:
        if key not in _ORACLE_DEFAULTS:
            raise ConfigError(f"field 'oracle.{key}': unknown oracle setting")
    oracle = {**_ORACLE_DEFAULTS, **oracle,
              **{k: v for k, v in (overrides or {}).items() if v is not None}}
    nmax, levels, tol = oracle["nmax"], oracle["levels"], oracle["tol"]
    if not _is_number(nmax, int) or nmax < 2:
        raise ConfigError("field 'oracle.nmax' (--nmax): must be an integer >= 2")
    if not _is_number(levels, int) or levels < 1:
        raise ConfigError("field 'oracle.levels' (--levels): must be a positive integer")
    if not _is_number(tol) or tol <= 0:
        raise ConfigError("field 'oracle.tol' (--tol): must be a positive finite number")

    sweep = data.get("sweep", [])
    if not isinstance(sweep, list):
        raise ConfigError("field 'sweep': must be a list of axis objects")
    axes = []
    for pos, axis in enumerate(sweep):
        if not isinstance(axis, dict):
            raise ConfigError(f"field 'sweep[{pos}]': must be an object")
        for key in axis:
            if key not in ("parameter", "start", "stop", "steps"):
                raise ConfigError(f"field 'sweep[{pos}].{key}': unknown axis field")
        name = axis.get("parameter")
        if name not in sweepable:
            raise ConfigError(
                f"field 'sweep[{pos}].parameter': '{name}' not sweepable for {kind} "
                f"(choose from {', '.join(sweepable) or 'none'})"
            )
        if any(ax.parameter == name for ax in axes):
            raise ConfigError(f"field 'sweep[{pos}].parameter': '{name}' is already swept")
        steps = axis.get("steps")
        if not _is_number(steps, int) or steps < 1:
            raise ConfigError(f"field 'sweep[{pos}].steps': must be a positive integer")
        for end in ("start", "stop"):
            if not _is_number(axis.get(end)):
                raise ConfigError(f"field 'sweep[{pos}].{end}': must be a number")
        axes.append(SweepAxis(name, float(axis["start"]), float(axis["stop"]), steps))
    if len(axes) > 2:
        raise ConfigError("field 'sweep': at most two swept parameters")
    if math.prod(ax.steps for ax in axes) > _MAX_SWEEP_POINTS:
        raise ConfigError(f"field 'sweep': more than {_MAX_SWEEP_POINTS} grid points")

    return ModelConfig(
        kind=kind, alpha=alpha, beta=beta, gamma=float(gamma),
        matrix=matrix, offset=offset, nmax=nmax, levels=levels, tol=float(tol),
        sweep=tuple(axes), raw_bytes=raw,
    )


def _build_form(config: ModelConfig, overrides: dict | None = None) -> QuadraticForm:
    params = {"alpha": config.alpha, "beta": config.beta, "gamma": config.gamma}
    for axis, value in (overrides or {}).items():
        name, _, part = axis.partition("_")  # alpha_re is alpha's real part
        z = params[name]
        params[name] = (complex(value, z.imag) if part == "re" else
                        complex(z.real, value) if part == "im" else value)
    if config.kind == "one_mode":
        return one_mode(OneModeParams(params["alpha"], params["beta"]))
    if config.kind == "two_mode":
        return two_mode(TwoModeParams(**params))
    try:
        return QuadraticForm(BosonBasis(config.matrix.shape[0] // 2), config.matrix, config.offset)
    except ValueError as exc:
        raise ConfigError(f"field 'matrix': {exc}") from None


def _fmt(x: float, digits: int = 9) -> str:
    return f"{x:.{digits}g}"


def _fmt_c(z: complex, digits: int = 9) -> str:
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def _fmt_vector(vec: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_c(z) for z in vec) + "]"


def _print_matrix(label: str, mat: np.ndarray) -> None:
    print(f"{label}:")
    for row in mat:
        print("  [" + ", ".join(_fmt_c(z) for z in row) + "]")


def cmd_analyze(config: ModelConfig) -> int:
    form = _build_form(config)
    system = _eigensystem(adjoint_rep(form))
    print(f"model: {config.kind}")

    if system.report.defective:
        values = np.sort(system.values, kind="stable")
        print("eigenvalues: " + ", ".join(_fmt_c(v) for v in values))
        print(f"reality: {system.reality.value}")
        print("exceptional point: defective adjoint matrix")
        for c in system.report.clusters:
            print(
                f"  cluster lambda={_fmt_c(c.value)}: algebraic {c.algebraic}, "
                f"geometric {c.geometric}, defective={str(c.defective).lower()}"
            )
        print("ladder construction impossible at an exceptional point")
        return EXIT_EXCEPTIONAL

    ladders = system.ladders()
    print("eigenvalues: " + ", ".join(_fmt_c(op.eigenvalue) for op in ladders))
    print(f"reality: {system.reality.value}")
    for c in system.report.clusters:
        if c.algebraic > 1:
            print(
                f"degenerate cluster lambda={_fmt_c(c.value)}: algebraic {c.algebraic}, "
                f"geometric {c.geometric}"
            )
    decomp = normalize_pairs(ladders, offset=form.offset)
    print("frequencies: " + ", ".join(_fmt_c(f) for f in decomp.frequencies))
    print(f"ground energy: {_fmt_c(decomp.ground_energy)}")
    for idx, (low, high) in enumerate(decomp.pairs, start=1):
        print(f"lowering Z{idx} (lambda={_fmt_c(low.eigenvalue)}): {_fmt_vector(low.coeffs)}")
        print(f"raising  Z{idx}' (lambda={_fmt_c(high.eigenvalue)}): {_fmt_vector(high.coeffs)}")
    return EXIT_OK


def cmd_sweep(config: ModelConfig, out_path: str | None) -> int:
    if not config.sweep:
        raise ConfigError("field 'sweep': at least one axis is required for the sweep command")
    axes = config.sweep
    names = [ax.parameter for ax in axes]
    # G, and so the adjoint matrix, is affine in every sweepable parameter.
    origin = dict.fromkeys(names, 0.0)
    base = adjoint_rep(_build_form(config, origin))
    slopes = [adjoint_rep(_build_form(config, {**origin, name: 1.0})) - base for name in names]

    def stack(points):
        return base + sum(points[:, p, None, None] * slope for p, slope in enumerate(slopes))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        ticks = [np.linspace(ax.start, ax.stop, ax.steps) for ax in axes]
        # each entry is monotone in each axis, so the box corners bound the whole stack;
        # 4 covers a complex modulus (sqrt 2) and an eigenvalue gap (2 norms)
        corners = stack(np.array(list(itertools.product(*((x.min(), x.max()) for x in ticks)))))
        bound = 4.0 * np.abs(corners).max(axis=0).sum(axis=-1).max()
    if not np.isfinite(bound):
        raise ConfigError("field 'sweep': the grid or its adjoint matrices overflow")
    points = np.column_stack([g.ravel() for g in np.meshgrid(*ticks, indexing="ij")])

    columns = list(names)
    for i in range(1, base.shape[0] + 1):
        columns += [f"lambda{i}_re", f"lambda{i}_im"]
    columns += ["reality", "defective", "min_gap"]
    # "%.17g" is _fmt(x, 17), one format per row
    row = ",".join(["%.17g"] * (len(names) + 2 * base.shape[0])) + ",%s,%d,%.17g\n"

    with (open(out_path, "w", encoding="utf-8", newline="\n") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(f"# tool: quadboson {__version__}\n"
                 f"# config-sha256: {hashlib.sha256(config.raw_bytes).hexdigest()}\n"
                 + ",".join(columns) + "\n")
        for start in range(0, len(points), _SWEEP_CHUNK):
            chunk = points[start:start + _SWEEP_CHUNK]
            values, reality, gap = _stacked_labels(stack(chunk))
            # values.view(float) interleaves (re, im) per eigenvalue, the column order
            values = np.sort(values, axis=-1, kind="stable")
            numbers = np.column_stack([chunk, values.view(float)]).tolist()
            defective = (reality == Reality.EXCEPTIONAL_POINT).tolist()
            fh.write("".join(row % (*x, label.value, flag, g) for x, label, flag, g
                             in zip(numbers, reality, defective, gap.tolist())))
    if out_path:
        print(f"wrote {len(points)} rows to {out_path}")
    return EXIT_OK


def cmd_oracle(config: ModelConfig, allow_complex: bool) -> int:
    form = _build_form(config)
    decomp = decompose(form)

    if decomp.reality is not Reality.ALL_REAL and not allow_complex:
        print(
            f"spectrum classified {decomp.reality.value}; oracle comparison needs "
            "--allow-complex (report-only) or an all-real parameter point"
        )
        return EXIT_ERROR

    # the re-run is checked first: its refusal names a cutoff that fits with the re-run
    _rerun_cutoff(form.basis.n_modes, config.nmax)
    trunc = FockTruncation(form.basis.n_modes, config.nmax)
    report = verify_spectrum(form, decomp, config.levels, trunc, tol=config.tol)
    print(f"model: {config.kind}  nmax: {config.nmax}  levels: {config.levels}  "
          f"tol: {_fmt(config.tol)}")
    print(f"reality: {decomp.reality.value}")
    print("predicted vs oracle (lowest levels):")
    for predicted, observed, dev in report.matched:
        print(f"  {_fmt_c(predicted)}  {_fmt_c(observed)}  dev={_fmt(dev)}")
    print(f"converged: {str(report.converged).lower()}")
    if not report.comparable:
        print("comparison is informational only for a non-real spectrum")
        return EXIT_OK
    print(f"max deviation: {_fmt(report.max_deviation)}")
    print("result: " + ("pass" if report.passed else "fail"))
    return EXIT_OK if report.passed else EXIT_ERROR


def cmd_transform(config: ModelConfig, s11: float, with_oracle: bool) -> int:
    if config.kind != "one_mode":
        raise ConfigError("field 'model': transform requires a one_mode model")
    params = OneModeParams(config.alpha, config.beta)
    cmap = bogoliubov_map(params, s11)
    # everything is computed before any output, so a refused setting prints nothing else
    transformed = transform_form(one_mode(params), cmap)
    gen = generator_coeffs(cmap)
    metric = verify_metric(params, cmap, FockTruncation(1, config.nmax)) if with_oracle else None

    det = np.linalg.det(cmap.matrix)
    _print_matrix("canonical map S", cmap.matrix)
    print("determinant: " + _fmt_c(det))
    conditions = (det - 1.0, transformed.coeffs[0, 0], transformed.coeffs[1, 1])  # a^2, a^dag^2
    print("map condition residuals: " + ", ".join(_fmt(abs(c)) for c in conditions))
    _print_matrix("transformed coefficients", transformed.coeffs)
    print(f"transformed offset: {_fmt_c(transformed.offset)}")
    _print_matrix("generator coefficients", gen.coeffs)

    if metric is not None:
        print(f"metric interior size: {metric.interior_size}")
        print(f"quasi-hermiticity residual: {_fmt(metric.residual)}")
        print(f"relative quasi-hermiticity residual: {_fmt(metric.relative_residual)}")
        print(f"min metric eigenvalue: {_fmt(metric.min_metric_eigenvalue)}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadboson",
        description="Ladder-operator analysis of quadratic boson Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON model configuration")

    sub.add_parser("analyze", parents=[common],
                   help="spectral report: eigenvalues, ladders, reality, degeneracies")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="CSV scan over one or two parameters")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="truncated-Fock verification of the spectrum")
    p_oracle.add_argument("--nmax", type=int, help="per-mode cutoff override")
    p_oracle.add_argument("--levels", type=int, help="levels to match override")
    p_oracle.add_argument("--tol", type=float, help="match tolerance override")
    p_oracle.add_argument("--allow-complex", action="store_true",
                          help="report-only comparison for non-real spectra")

    p_tr = sub.add_parser("transform", parents=[common],
                          help="one-mode canonical map, generator, metric check")
    p_tr.add_argument("--s11", type=float, default=1.0, help="positive real gauge entry")
    p_tr.add_argument("--nmax", type=int, help="metric-check cutoff override")
    p_tr.add_argument("--oracle", action="store_true",
                      help="also run the Fock-space metric check")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        flags = {name: getattr(args, name, None) for name in ("nmax", "levels", "tol")}
        config = load_config(args.config, flags)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.out)
        if args.command == "oracle":
            return cmd_oracle(config, args.allow_complex)
        return cmd_transform(config, args.s11, args.oracle)
    except ExceptionalPointError as exc:
        print(f"exceptional point: {exc}")
        return EXIT_EXCEPTIONAL
    except BrokenPipeError:  # a reader such as head stopped a streamed sweep early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nothing left to flush
        return EXIT_OK
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
