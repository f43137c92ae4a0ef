"""Closed forms for the generalized Swanson oscillator and its coupled twin.

One mode: H = (a^dag a + a a^dag)/2 + alpha a^2 + beta a^dag^2 at unit
base frequency. Two modes: two identical copies coupled by
gamma (a_1 a_2^dag + a_1^dag a_2), which are two one-mode sectors in
(a_1 +/- a_2)/sqrt(2) with base frequency 1 +/- gamma. Both admit
closed-form eigenvalues, ladder operators (one sector solution serves
both), and (for one mode) an algebraic Bogoliubov-type map that rotates
the operator into a plain number-operator form, together with the
generator of the similarity transformation, whose logarithm is taken in
closed form, so this module loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    BosonBasis,
    CanonicalMap,
    QuadraticForm,
    build_quadratic,
    commutator_linear,
    commutator_matrix,
)
from .spectral import (
    LOWERING,
    RAISING,
    ExceptionalPointError,
    LadderOperator,
)


@dataclass(frozen=True)
class OneModeParams:
    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))


@dataclass(frozen=True)
class TwoModeParams:
    alpha: complex
    beta: complex
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        g = complex(self.gamma)
        if g.imag != 0.0:
            raise ValueError(f"coupling gamma must be real, got {self.gamma!r}")
        object.__setattr__(self, "gamma", g.real)


def one_mode(params: OneModeParams) -> QuadraticForm:
    """Coefficient form of the one-mode oscillator; offset normalizes to zero."""
    return build_quadratic(
        BosonBasis(1),
        [(2, 1, 1.0), (1, 1, params.alpha), (2, 2, params.beta)],
        offset=0.5,
    )


def one_mode_lambdas(params: OneModeParams) -> tuple[complex, complex]:
    """Adjoint eigenvalues -/+ sqrt(1 - 4 alpha beta), principal branch."""
    root = np.sqrt(complex(1.0 - 4.0 * params.alpha * params.beta))
    return -root, root


def _sector(c: float, alpha: complex, beta: complex) -> tuple[complex, np.ndarray, np.ndarray]:
    """Frequency w and ladder pair of c (a^dag a + 1/2) + alpha a^2 + beta a^dag^2.

    The adjoint matrix h = [[-c, 2 alpha], [-2 beta, c]] has eigenvalues -/+ w,
    w = sqrt(c^2 - 4 alpha beta) on the principal branch. Each vector over
    (a, a^dag) is read from the row of h +/- w with the larger pivot, c + w for
    c >= 0 and c - w otherwise, so nothing divides by alpha or beta and only
    w = 0 (the exceptional point) is singular. The lowering vector has unit
    norm and a real non-negative a-coefficient; the raising one has [low, high] = 1.
    """
    w = np.sqrt(complex(c * c - 4.0 * alpha * beta))
    if w == 0:
        raise ExceptionalPointError(
            f"ladder operators coalesce at alpha*beta = c^2/4 for base frequency c = {c:g} "
            "(exceptional point)"
        )
    pivot = c + w if c >= 0 else c - w
    low, high = np.array([pivot, 2.0 * beta]), np.array([2.0 * alpha, pivot])
    if c < 0:
        low, high = high, low
    low = low * np.exp(-1j * np.angle(low[0])) / np.linalg.norm(low)
    high = high / commutator_linear(low, high, commutator_matrix(BosonBasis(1)))
    return w, low, high


def one_mode_ladders(params: OneModeParams) -> tuple[LadderOperator, LadderOperator]:
    """Closed-form lowering/raising pair, normalized to [Z1, Z2] = 1.

    The sector at base frequency 1: the lowering vector is proportional to
    (1 + sqrt(1-4ab), 2b) and keeps unit norm; the raising member absorbs the
    normalization scale. Defined everywhere except the exceptional point
    alpha*beta = 1/4, which raises.
    """
    w, low, high = _sector(1.0, params.alpha, params.beta)
    return (LadderOperator(-w, low, LOWERING), LadderOperator(w, high, RAISING))


def bogoliubov_map(params: OneModeParams, s11: float) -> CanonicalMap:
    """Closed-form canonical map sending the oscillator to number-operator form.

    The map solves the unit-determinant condition together with the two
    requirements that the transformed operator commute twice with a and
    with a^dag; s11 > 0 real fixes the leftover gauge. Defined everywhere
    except the exceptional point alpha*beta = 1/4 and where 1 - 4 alpha beta
    is negative real; an s11 extreme enough to overflow an entry raises
    ValueError.
    """
    s = complex(s11)
    if s.imag != 0.0 or not 0.0 < s.real < np.inf:
        raise ValueError(f"s11 must be a positive real number, got {s11!r}")
    s11 = s.real
    alpha, beta = params.alpha, params.beta
    disc = complex(1.0 - 4.0 * alpha * beta)
    if disc == 0:
        raise ExceptionalPointError(
            "canonical transform undefined at alpha*beta = 1/4 (exceptional point)"
        )
    if disc.imag == 0.0 and disc.real < 0.0:
        raise ValueError(
            "1 - 4*alpha*beta lies on the negative real axis; the principal "
            "square root branch does not yield a real-gauge map here"
        )
    root = np.sqrt(disc)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without warnings
        s12 = -beta / (s11 * root)
        s21 = -2.0 * alpha * s11 / (1.0 + root)
        s22 = 1.0 / (2.0 * s11 * root) + 1.0 / (2.0 * s11)
    matrix = np.array([[s11, s12], [s21, s22]], dtype=complex)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"s11 = {s11!r} gives a map with a non-finite entry")
    return CanonicalMap(matrix)


def generator_coeffs(cmap: CanonicalMap) -> QuadraticForm:
    """Quadratic form of the one-mode map generator (coefficients -log(S^t) u / 2).

    The principal logarithm is taken in closed form: S^t has unit
    determinant (for a 2x2 map S u S^t = det(S) u, so require_canonical
    checks it), hence eigenvalues exp(+/-theta) with cosh(theta) = c =
    tr(S^t)/2, and log S^t = (theta / sinh theta)(S^t - c I) with sinh theta
    = sqrt(c - 1) sqrt(c + 1). (S^t - c I) u is symmetric because S^t - c I is
    traceless, so the coefficients are exactly symmetric. Raises ValueError
    for a map of more than one mode and where an eigenvalue lies on the
    closed negative real axis (no principal logarithm).
    """
    if cmap.basis.n_modes != 1:
        raise ValueError("the closed-form generator is defined for one-mode maps")
    cmap.require_canonical()
    st = cmap.matrix.T
    eig = np.linalg.eigvals(st)
    on_cut = (np.abs(eig.imag) < 1e-14 * np.maximum(1.0, np.abs(eig))) & (eig.real <= 0.0)
    if np.any(on_cut):
        raise ValueError(
            "map matrix has an eigenvalue on the closed negative real axis; "
            "the principal logarithm is undefined -- rebuild the map with a "
            "different s11 gauge"
        )
    c = 0.5 * (st[0, 0] + st[1, 1])
    half = 0.5 * (st[0, 0] - st[1, 1])
    theta = np.arccosh(c)
    # theta / sinh(theta) = 1 - theta^2/6 + 7 theta^4/360 - ..., 0/0 at theta = 0; the
    # dropped term is below 2e-18 where the series is used
    scale = (1.0 - theta * theta / 6.0 if abs(theta) < 1e-4
             else theta / (np.sqrt(c - 1.0) * np.sqrt(c + 1.0)))
    q_rep = scale * np.array([[half, st[0, 1]], [st[1, 0], -half]])
    return QuadraticForm(cmap.basis, -0.5 * q_rep @ commutator_matrix(cmap.basis), 0.0)


def two_mode(params: TwoModeParams) -> QuadraticForm:
    """Coefficient form of the coupled pair; the +1 constant is absorbed."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    return build_quadratic(
        BosonBasis(2),
        [
            (3, 1, 1.0), (4, 2, 1.0),
            (1, 1, alpha), (2, 2, alpha),
            (3, 3, beta), (4, 4, beta),
            (1, 4, gamma), (3, 2, gamma),
        ],
        offset=1.0,
    )


def two_mode_lambdas(params: TwoModeParams) -> tuple[complex, complex, complex, complex]:
    """Adjoint eigenvalues -w+, -w-, +w-, +w+ with w^2 = (gamma +/- 1)^2 - 4 alpha beta."""
    ab4 = 4.0 * params.alpha * params.beta
    wp = np.sqrt(complex((params.gamma + 1.0) ** 2 - ab4))
    wm = np.sqrt(complex((params.gamma - 1.0) ** 2 - ab4))
    return -wp, -wm, wm, wp


def two_mode_ladders(params: TwoModeParams):
    """Closed-form ladder quadruple (Z1, Z2, Z3, Z4), pairwise normalized.

    Z1/Z4 are the sector (x, y) at base frequency 1 + gamma embedded as
    (x, x, y, y), at frequency w+; Z2/Z3 the sector at 1 - gamma embedded as
    (x, -x, y, -y), at w-. [Z1, Z4] = [Z2, Z3] = 1
    with the lowering members unit-normalized. Defined everywhere except
    where a frequency vanishes, alpha*beta = (gamma +/- 1)^2 / 4, which raises.
    """
    wp, low_p, high_p = _sector(1.0 + params.gamma, params.alpha, params.beta)
    wm, low_m, high_m = _sector(1.0 - params.gamma, params.alpha, params.beta)
    sym, anti = np.sqrt(0.5) * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
    return (
        LadderOperator(-wp, np.repeat(low_p, 2) * sym, LOWERING),
        LadderOperator(-wm, np.repeat(low_m, 2) * anti, LOWERING),
        LadderOperator(wm, np.repeat(high_m, 2) * anti, RAISING),
        LadderOperator(wp, np.repeat(high_p, 2) * sym, RAISING),
    )


def two_mode_ep_locus(gamma: float) -> tuple[float, float]:
    """Products alpha*beta where each two-mode frequency vanishes."""
    return ((gamma + 1.0) ** 2 / 4.0, (gamma - 1.0) ** 2 / 4.0)
