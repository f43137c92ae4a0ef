"""Output checks for the benchmark workloads.

Each check compares a program output against a reference that does not
come from the code path being timed: sweep rows against the closed-form
Swanson eigenvalues and discriminants, decompositions against the form
they must rebuild, oracle reports against their own pass/convergence
verdicts and the acceptance bound of the metric criterion. A check
returns a verdict (a boolean, or a mask of failed sweep rows); it never
raises on a wrong program output.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from quadboson import ExceptionalPointError, commutator_linear, commutator_matrix

EPS = float(np.finfo(float).eps)
SWEEP_EIG_REL = 1e-12           # eigenvalue match away from EPs, relative to scale
EP_SPLIT = 16.0 * np.sqrt(EPS)  # order-2 EP splitting bound, relative to scale
RECONSTRUCT_REL = 1e-8
PAIR_REL = 1e-8
COMMUTATOR_TOL = 1e-8
METRIC_FLOOR = 1e-6             # acceptance criterion 8 bound


# --------------------------------------------------------------------- sweep

def parse_sweep_csv(text: str, n_params: int):
    """Split a sweep CSV into parameter columns, eigenvalues, labels and defective flags."""
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("#") or not lines[1].startswith("#"):
        raise ValueError("sweep CSV lacks its two metadata lines and header")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    n_eigs = (len(header) - n_params - 3) // 2
    table = np.array(rows, dtype=object)
    params = table[:, :n_params].astype(float)
    parts = table[:, n_params:n_params + 2 * n_eigs].astype(float)
    values = parts[:, 0::2] + 1j * parts[:, 1::2]
    labels = table[:, n_params + 2 * n_eigs]
    defective = table[:, n_params + 2 * n_eigs + 1].astype(int)
    return params, values, labels, defective


def _sector_frequencies(model: str, gamma: np.ndarray):
    """Base frequency of each decoupled sector; one sector per mode."""
    if model == "one_mode":
        return [np.ones_like(gamma)]
    return [1.0 + gamma, 1.0 - gamma]


def _exact_nilpotent(omega: float, alpha: float, beta: float) -> bool:
    # The sector block [[-w, 2a], [-2b, w]] squares to (w^2 - 4ab) I; it is
    # nilpotent and nonzero exactly when that vanishes in rational arithmetic.
    w, a, b = Fraction(float(omega)), Fraction(float(alpha)), Fraction(float(beta))
    return w * w == 4 * a * b and (w, a, b) != (0, 0, 0)


def check_sweep_rows(model: str, params: dict, values: np.ndarray, labels: np.ndarray,
                     defective: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose eigenvalues or label disagree with the closed form.

    params maps parameter name to its column; unswept parameters are given
    as constant columns. Eigenvalues must match the closed form as a
    multiset within 1e-12 * scale, widened near a sector coalescence by the
    first-order bound eps * scale^2 / |w| and capped at the sqrt(eps)
    splitting of an order-2 exceptional point. Labels must follow the
    sign of each sector discriminant; a sector whose closed-form block is
    nilpotent and nonzero must read ExceptionalPoint with defective=1.
    Inside the numerical band |w| <= 16 sqrt(eps) * scale either reading
    is accepted.
    """
    alpha = params["alpha_re"] + 1j * params["alpha_im"]
    beta = params["beta_re"] + 1j * params["beta_im"]
    gamma = params["gamma"]
    n = len(labels)
    scale = 1.0 + np.abs(gamma) + 2.0 * np.maximum(np.abs(alpha), np.abs(beta))

    expected, tols = [], []
    exact_ep = np.zeros(n, dtype=bool)
    near_ep = np.zeros(n, dtype=bool)
    all_real = np.ones(n, dtype=bool)
    for omega in _sector_frequencies(model, gamma):
        disc = omega ** 2 - 4.0 * alpha * beta
        w = np.sqrt(disc.astype(complex))
        first_order = 16.0 * EPS * scale ** 2 / np.maximum(np.abs(w), 1e-300)
        bound = np.minimum(EP_SPLIT * scale, first_order)
        tol = np.maximum(SWEEP_EIG_REL * scale, bound)
        expected += [-w, w]
        tols += [tol, tol]
        band = np.abs(w) <= EP_SPLIT * scale
        near_ep |= band
        for i in np.flatnonzero(band):
            if alpha[i].imag == 0 and beta[i].imag == 0 and _exact_nilpotent(
                    omega[i], alpha[i].real, beta[i].real):
                exact_ep[i] = True
        all_real &= (np.abs(disc.imag) == 0) & (disc.real > 0)
    expected = np.stack(expected, axis=1)
    tols = np.stack(tols, axis=1)

    perms = np.array(list(itertools.permutations(range(expected.shape[1]))))
    diff = np.abs(values[:, None, :] - expected[:, perms])
    eig_ok = np.any(np.all(diff <= tols[:, perms], axis=2), axis=1)

    sign_label = np.where(all_real, "AllReal", "Complex")
    is_ep = labels == "ExceptionalPoint"
    flag_ok = defective == is_ep.astype(int)
    label_ok = np.where(exact_ep, is_ep,
                        np.where(near_ep, is_ep | (labels == sign_label), labels == sign_label))
    return ~(eig_ok & label_ok & flag_ok)


# ----------------------------------------------------------------- decompose

def reconstruct(decomp, basis):
    """Coefficients and offset rebuilt from the ladder pairs.

    Sum over pairs of (w/2)(Z_low Z_high + Z_high Z_low), symmetrized, with
    the reordering commutators moved into the scalar.
    """
    size = basis.size
    raw = np.zeros((size, size), dtype=complex)
    for low, high in decomp.pairs:
        outer = np.outer(low.coeffs, high.coeffs)
        raw += 0.5 * high.eigenvalue * (outer + outer.T)
    u = commutator_matrix(basis)
    return 0.5 * (raw + raw.T), 0.5 * complex(np.sum(raw * u))


def check_decomposition(form, decomp) -> bool:
    """Rebuild within 1e-8 relative, +/- pairing, and [Z_low, Z_high] = 1."""
    scale = max(1.0, float(np.max(np.abs(form.coeffs))))
    coeffs, offset = reconstruct(decomp, form.basis)
    if np.max(np.abs(coeffs - form.coeffs)) > RECONSTRUCT_REL * scale:
        return False
    if abs(offset + decomp.offset - form.offset) > RECONSTRUCT_REL * scale:
        return False
    u = commutator_matrix(form.basis)
    lam_scale = max(1.0, float(np.max(np.abs(decomp.frequencies))))
    for low, high in decomp.pairs:
        if abs(low.eigenvalue + high.eigenvalue) > PAIR_REL * lam_scale:
            return False
        if abs(commutator_linear(low.coeffs, high.coeffs, u) - 1.0) > COMMUTATOR_TOL:
            return False
    return True


def check_decompose_outcome(form, outcome, report, expect_ep: bool) -> bool:
    """Judge one decompose + detect_ep result.

    outcome is the SpectralDecomposition or the exception decompose raised.
    At an exceptional point decompose must raise ExceptionalPointError and
    detect_ep must report a defective cluster; elsewhere the decomposition
    must pass check_decomposition and detect_ep must report none.
    """
    if expect_ep:
        return isinstance(outcome, ExceptionalPointError) and report.defective
    if isinstance(outcome, Exception):
        return False
    return (not report.defective) and check_decomposition(form, outcome)


# -------------------------------------------------------------------- oracle

def check_oracle_report(report) -> bool:
    """A spectrum verification passes only when comparable, converged and within tol."""
    return bool(report.passed)


def metric_floor(report) -> float:
    """Best interior residual beyond the two smallest blocks, as criterion 8 reads it."""
    return float(min(report.residual_profile[2:]))


def check_metric_report(report) -> bool:
    """Criterion 8: residual floor below 1e-6 and a positive metric."""
    return metric_floor(report) < METRIC_FLOOR and report.min_metric_eigenvalue > 0.0


def check_number_form(transformed, frequency: complex) -> bool:
    """The mapped one-mode form must be w (a^dag a + 1/2): off-diagonal w/2 only."""
    target = np.array([[0.0, 0.5 * frequency], [0.5 * frequency, 0.0]], dtype=complex)
    return float(np.max(np.abs(transformed.coeffs - target))) < 1e-9 * max(1.0, abs(frequency))
