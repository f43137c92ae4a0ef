"""Brute-force verification in a truncated number basis.

Every quadratic form can be assembled as a dense matrix on the product
Fock space with each mode cut off at nmax levels. Diagonalizing that
matrix gives an oracle for the ladder-operator predictions that knows
nothing about the algebraic construction. Every quadratic term changes
the total boson number by 0 or +/-2, so the matrix is block-diagonal in
total-number parity and the oracle diagonalizes the two blocks apart, in
real arithmetic when the form is real. Truncation corrupts matrix
elements near the cutoff, so all comparisons restrict to interior blocks
and convergence is confirmed by re-running at a larger cutoff.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .algebra import CanonicalMap, QuadraticForm, adjoint_rep, build_quadratic
from .spectral import Reality, SpectralDecomposition, spectrum
from .swanson import OneModeParams, one_mode

DEFAULT_DIMENSION_CAP = 4096
SPECTRUM_TOL = 1e-6
_METRIC_REAL_TOL = 1e-9


@dataclass(frozen=True)
class FockTruncation:
    """Product number basis |n_1..n_K> with every n_i < cutoff."""

    n_modes: int
    cutoff: int
    cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be positive, got {self.n_modes}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")
        if self.dimension > self.cap:
            raise ValueError(
                f"truncated dimension {self.dimension} exceeds cap {self.cap}; "
                f"largest feasible cutoff for {self.n_modes} mode(s) is {_largest_cutoff(self)}"
            )

    @property
    def dimension(self) -> int:
        return self.cutoff ** self.n_modes

    def grown(self, stride: int) -> "FockTruncation":
        """Truncation `stride` levels larger under the same cap, for a convergence re-run."""
        bigger = self.cutoff + stride
        if bigger ** self.n_modes > self.cap:
            largest = _largest_cutoff(self) - stride
            hint = (
                f"largest feasible cutoff for {self.n_modes} mode(s) with that re-run is {largest}"
                if largest >= 2 else
                f"no starting cutoff for {self.n_modes} mode(s) fits; the smallest re-run "
                f"(cutoff {2 + stride}) needs cap {(2 + stride) ** self.n_modes}"
            )
            raise ValueError(f"convergence re-run at cutoff {bigger} exceeds cap {self.cap}; {hint}")
        return FockTruncation(self.n_modes, bigger, self.cap)

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of basis states with every mode index < cutoff - 2."""
        keep = np.arange(self.cutoff) < self.cutoff - 2
        return functools.reduce(np.kron, [keep] * self.n_modes)

    def odd_mask(self) -> np.ndarray:
        """Boolean mask of basis states whose total boson number is odd."""
        sign = 1 - 2 * (np.arange(self.cutoff) % 2)
        return functools.reduce(np.kron, [sign] * self.n_modes) < 0


def _largest_cutoff(trunc: FockTruncation) -> int:
    """Largest r with r ** n_modes <= cap; the float root is rounded, then corrected."""
    root = round(trunc.cap ** (1.0 / trunc.n_modes))
    while root ** trunc.n_modes > trunc.cap:
        root -= 1
    return root


def _product(trunc: FockTruncation, indices) -> np.ndarray:
    """Truncated matrix of O_i O_j .. (0-based basis indices) as one Kronecker product.

    Mode m's factor is the product of its own a / a^dag (a[n-1, n] = sqrt(n)), in
    order, identity if none; mode 1 is leftmost. Right-multiplying by a (a^dag) moves
    column c - 1 (c + 1) to c scaled by sqrt(c) (sqrt(c + 1)), with no dense product.
    """
    nmax, k = trunc.cutoff, trunc.n_modes
    root = np.sqrt(np.arange(nmax))
    factors = [np.eye(nmax) for _ in range(k)]
    for i in indices:
        moved = np.zeros((nmax, nmax))
        if i < k:
            moved[:, 1:] = factors[i % k][:, :-1] * root[1:]
        else:
            moved[:, :-1] = factors[i % k][:, 1:] * root[1:]
        factors[i % k] = moved
    return functools.reduce(np.kron, factors)


def fock_matrices(trunc: FockTruncation) -> list[np.ndarray]:
    """Truncated matrices of (a_1..a_K, a_1^dag..a_K^dag): I x .. x a x .. x I, mode 1 leftmost."""
    return [_product(trunc, [i]) for i in range(2 * trunc.n_modes)]


def assemble(form: QuadraticForm, trunc: FockTruncation) -> np.ndarray:
    """Dense matrix sum_ij G[i,j] M_i M_j + offset * I on the truncated space.

    The matrix is float64 when every coefficient and the offset are real,
    complex128 otherwise.
    """
    if form.basis.n_modes != trunc.n_modes:
        raise ValueError(
            f"form has {form.basis.n_modes} mode(s) but truncation has {trunc.n_modes}"
        )
    g, offset = form.coeffs, form.offset
    if not np.any(g.imag) and offset.imag == 0:
        g, offset = g.real, offset.real
    out = np.zeros((trunc.dimension, trunc.dimension), dtype=g.dtype)
    for i, j in zip(*np.nonzero(g)):
        out += g[i, j] * _product(trunc, (i, j))
    if offset != 0:
        out += offset * np.eye(trunc.dimension)
    return out


def oracle_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense matrix as a complex array, sorted by real part then imaginary.

    A real matrix is diagonalized in real arithmetic.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    values = np.linalg.eigvals(matrix).astype(complex, copy=False)
    return values[np.lexsort((values.imag, values.real))]


def _parity_eigenvalues(form: QuadraticForm, trunc: FockTruncation) -> np.ndarray:
    """Sorted oracle spectrum from one assembly and one solve per total-parity block."""
    matrix = assemble(form, trunc)
    odd = trunc.odd_mask()
    values = np.concatenate(
        [oracle_eigenvalues(matrix[np.ix_(mask, mask)]) for mask in (~odd, odd)]
    )
    return values[np.lexsort((values.imag, values.real))]


def predicted_levels(decomp: SpectralDecomposition, count: int) -> np.ndarray:
    """Lowest `count` energies of the diagonal form, by bounded occupation search.

    Occupation tuples with every n_i <= count are enumerated and the
    energies sorted by real part (imaginary tie-break).
    """
    k = decomp.frequencies.size
    energies = np.array([
        spectrum(decomp, occ)
        for occ in itertools.product(range(count + 1), repeat=k)
    ])
    energies = energies[np.lexsort((energies.imag, energies.real))]
    return energies[:count]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Oracle spectrum versus ladder predictions.

    matched rows are (predicted, observed, |deviation|) for the lowest
    levels; converged reflects a second run at a larger cutoff. For a
    non-real classification the comparison is informational only.
    """

    eigenvalues: np.ndarray
    matched: tuple
    converged: bool
    comparable: bool
    tol: float

    @property
    def max_deviation(self) -> float:
        return max((row[2] for row in self.matched), default=0.0)

    @property
    def passed(self) -> bool:
        return self.comparable and self.converged and self.max_deviation < self.tol


def verify_spectrum(form: QuadraticForm, decomp: SpectralDecomposition, levels: int,
                    trunc: FockTruncation, tol: float = SPECTRUM_TOL) -> OracleReport:
    """Compare the lowest oracle eigenvalues against the ladder spectrum.

    The `levels` oracle eigenvalues of smallest real part are matched
    elementwise against the enumerated diagonal-form energies. The run is
    repeated with the cutoff grown by 20 for one mode and by 5 per mode
    otherwise; converged means every matched level moved by less than
    tol/10. The re-run stays under trunc.cap: a truncation whose re-run
    exceeds it raises ValueError before anything is assembled. Each run
    assembles the full truncation once and solves the even and odd
    total-parity blocks separately (the form conserves that parity).
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    if levels > trunc.dimension:
        raise ValueError(
            f"cannot match {levels} levels from a {trunc.dimension}-state truncation"
        )
    regrown = trunc.grown(20 if trunc.n_modes == 1 else 5)
    observed = _parity_eigenvalues(form, trunc)
    predicted = predicted_levels(decomp, levels)
    matched = tuple(
        (complex(p), complex(o), float(abs(p - o)))
        for p, o in zip(predicted, observed[:levels])
    )
    refined = _parity_eigenvalues(form, regrown)
    drift = np.abs(observed[:levels] - refined[:levels])
    converged = bool(np.all(drift < tol / 10.0))
    return OracleReport(
        eigenvalues=observed,
        matched=matched,
        converged=converged,
        comparable=decomp.reality is Reality.ALL_REAL,
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class AdjointActionReport:
    """Residuals of [H, O_i] = sum_j h[j,i] O_j realized on the Fock space."""

    interior_residuals: tuple
    full_residuals: tuple

    @property
    def max_interior(self) -> float:
        return max(self.interior_residuals)


def verify_adjoint_action(form: QuadraticForm, trunc: FockTruncation) -> AdjointActionReport:
    """Check the adjoint-matrix action of the assembled operator on each O_i.

    The commutator identity is exact before truncation, so the residual
    matrix restricted to rows and columns with all mode indices below
    cutoff - 2 must vanish to round-off; the full-matrix residual keeps
    the truncation-corrupted corner for inspection.
    """
    ops = fock_matrices(trunc)
    ham = assemble(form, trunc)
    rep = adjoint_rep(form)
    mask = trunc.interior_mask()
    interior, full = [], []
    for i, op in enumerate(ops):
        # op has at most one nonzero per row and column, so ham @ op gathers
        # weighted columns of ham and op @ ham weighted rows
        rows, cols = np.nonzero(op)
        weights = op[rows, cols]
        resid = np.zeros_like(ham)
        resid[:, cols] = ham[:, rows] * weights
        resid[rows, :] -= weights[:, None] * ham[cols, :]
        for j in range(len(ops)):
            if rep[j, i] != 0:
                resid = resid - rep[j, i] * ops[j]
        full.append(float(np.max(np.abs(resid))))
        interior.append(float(np.max(np.abs(resid[np.ix_(mask, mask)]))))
    return AdjointActionReport(tuple(interior), tuple(full))


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Quasi-Hermiticity data for the metric rho = S^dag S.

    residual is the interior max-norm of rho H - H^dag rho; smaller
    interiors can be read off residual_profile (index = interior size).
    The metric block is exact at every cutoff, so the residual is round-off
    alone; as an absolute max-norm it scales with rho's entries, which grow
    geometrically with the level for strongly squeezing maps (about 4x per
    level at alpha=0.3, beta=0.5, where the round-off reaches ~1e10 at
    interior 38). The small-block entries of residual_profile are the
    meaningful ones there. min_metric_eigenvalue is the smallest eigenvalue
    of the interior metric block (positive-definiteness witness).
    """

    residual: float
    min_metric_eigenvalue: float
    interior_size: int
    residual_profile: tuple


def _metric_factor(cmap: CanonicalMap, trunc: FockTruncation) -> np.ndarray:
    """Lower-triangular F with F F^dag = rho[:cutoff, :cutoff] exactly.

    In normal order rho = sqrt(E) exp(A a^dag^2) E^(a^dag a) exp(conj(A) a^2)
    (Truax, Phys. Rev. D 31, 1988 (1985)). S = exp(Q) has the 2x2 adjoint
    representation S^t = cmap.matrix.T (swanson.generator_from_map), and
    Q^dag has the conjugated coefficients with a and a^dag swapped, so
    exp(Q^dag) exp(Q) is represented by P conj(S^t)^-1 P S^t with P the
    swap. That matrix factors as [[1, 0], [-2A, 1]] diag(1/E, E)
    [[1, 2 conj(A)], [0, 1]], which fixes A and E. a^dag^2 is strictly
    lower triangular in the number basis, so expm of its truncated matrix
    is exactly the truncation of exp(A a^dag^2); F is that block with
    column k scaled by E^(k/2 + 1/4).
    """
    cmap.require_canonical()
    st = cmap.matrix.T
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = swap @ np.linalg.inv(st.conj()) @ swap @ st
    pivot = rep[0, 0]
    if not (pivot.real > 0.0 and abs(pivot.imag) <= _METRIC_REAL_TOL * abs(pivot)):
        raise ValueError(
            f"S^dag S has no normal-ordered form: the pivot {pivot:.3e} of its "
            "adjoint representation is not real and positive"
        )
    e = 1.0 / pivot.real
    a = -0.5 * e * rep[1, 0]
    lower = sla.expm(a * assemble(build_quadratic(cmap.basis, [(2, 2, 1.0)]), trunc))
    return lower * e ** (0.5 * np.arange(trunc.cutoff) + 0.25)


def verify_metric(params: OneModeParams, cmap: CanonicalMap, trunc: FockTruncation,
                  interior: int | None = None) -> MetricReport:
    """Build rho = S^dag S in normal order and test rho H = H^dag rho.

    S = exp(Q) is the operator that implements the canonical map. The
    truncated metric is exact at every cutoff (see _metric_factor), so no
    padding is needed. The residual is reported on the interior block
    (default all levels below cutoff - 2, where the truncated H is exact).
    The positivity witness is 1 / ||F^-1||_2^2 for the interior block of
    the triangular factor F, which stays accurate on these strongly graded
    blocks where an eigensolver on rho itself loses all digits (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).

    Raises ValueError when 1 - 4 alpha beta is not real: the frequency is
    then complex and no metric with rho H = H^dag rho exists.
    """
    if trunc.n_modes != 1:
        raise ValueError("metric verification is defined for the one-mode model")
    disc = 1.0 - 4.0 * params.alpha * params.beta
    if abs(disc.imag) > _METRIC_REAL_TOL * max(1.0, abs(disc)):
        raise ValueError(
            f"1 - 4*alpha*beta = {disc:.6g} is not real; the frequency is complex "
            "and no quasi-Hermiticity metric exists"
        )
    if interior is None:
        interior = trunc.cutoff - 2
    if not 1 <= interior <= trunc.cutoff:
        raise ValueError(f"interior must lie in 1..{trunc.cutoff}, got {interior}")

    factor = _metric_factor(cmap, trunc)
    rho = factor @ factor.conj().T
    ham = assemble(one_mode(params), trunc)
    resid = rho @ ham - ham.conj().T @ rho

    profile = tuple(
        float(np.max(np.abs(resid[:cut, :cut]))) for cut in range(1, trunc.cutoff + 1)
    )
    inverse = sla.solve_triangular(factor[:interior, :interior], np.eye(interior), lower=True)
    return MetricReport(
        residual=profile[interior - 1],
        min_metric_eigenvalue=float(np.linalg.norm(inverse, 2)) ** -2,
        interior_size=interior,
        residual_profile=profile,
    )
