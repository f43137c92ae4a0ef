"""Structural algebra of quadratic boson forms.

A Hamiltonian quadratic in the mode operators (a_1..a_K, a_1^dag..a_K^dag)
is stored as a symmetric 2K x 2K coefficient matrix plus a scalar offset.
This module provides the basis commutator matrix, the adjoint (regular)
matrix representation, commutators of linear operator combinations, and
the action of linear canonical maps on quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CANONICAL_TOL = 1e-9

_SYMMETRY_TOL = 1e-12


class NonCanonicalMapError(ValueError):
    """Raised when a linear map does not preserve the basis commutators."""


@dataclass(frozen=True, eq=False)
class BosonBasis:
    """Ordered operator basis (a_1..a_K, a_1^dag..a_K^dag) for K modes."""

    n_modes: int

    def __post_init__(self):
        if not _is_integer(self.n_modes) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes!r}")

    @property
    def size(self) -> int:
        return 2 * self.n_modes


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Quadratic operator sum_ij coeffs[i,j] O_i O_j + offset with symmetric coeffs;
    build_quadratic normalizes arbitrary term lists."""

    basis: BosonBasis
    coeffs: np.ndarray
    offset: complex = 0.0

    def __post_init__(self):
        mat = np.asarray(self.coeffs, dtype=complex)
        n = self.basis.size
        if mat.shape != (n, n):
            raise ValueError(f"coefficient matrix must be {n}x{n}, got {mat.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, so 2 G u stays finite
            sym, asym = 0.5 * (mat + mat.T), np.max(np.abs(mat - mat.T))
            scale = max(1.0, np.max(np.abs(mat)))
        if not (np.all(np.isfinite(sym)) and np.isfinite(complex(self.offset))):
            raise ValueError("coefficients and offset must be finite")
        if asym > _SYMMETRY_TOL * scale:
            raise ValueError(f"coefficient matrix is not symmetric (max asymmetry {asym:.3e})")
        object.__setattr__(self, "coeffs", sym)
        object.__setattr__(self, "offset", complex(self.offset))


@dataclass(frozen=True, eq=False)
class CanonicalMap:
    """Linear map O_i -> sum_j matrix[i,j] O_j preserving all commutators."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"map matrix must be square of even size, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def basis(self) -> BosonBasis:
        return BosonBasis(self.matrix.shape[0] // 2)

    def defect(self) -> float:
        """Max-norm of S U S^t - U; zero for an exactly canonical map."""
        u = commutator_matrix(self.basis)
        return float(np.max(np.abs(self.matrix @ u @ self.matrix.T - u)))

    def require_canonical(self) -> None:
        d = self.defect()
        if not d <= DEFAULT_CANONICAL_TOL:
            raise NonCanonicalMapError(
                f"map does not preserve commutators: defect {d:.3e} exceeds tol "
                f"{DEFAULT_CANONICAL_TOL:.1e}"
            )


def commutator_matrix(basis: BosonBasis) -> np.ndarray:
    """Pairwise commutator table u[i,j] = [O_i, O_j] for the boson basis.

    Block form [[0, I], [-I, 0]]; skew-symmetric and squares to -I.
    """
    k = basis.n_modes
    u = np.zeros((2 * k, 2 * k))
    u[:k, k:] = np.eye(k)
    u[k:, :k] = -np.eye(k)
    return u


def _normal_form(raw: np.ndarray, offset: complex) -> tuple[np.ndarray, complex]:
    # O_i O_j = (O_i O_j + O_j O_i)/2 + u[i,j]/2 moves all antisymmetric
    # content of the raw 2K x 2K coefficients into the scalar.
    u = commutator_matrix(BosonBasis(raw.shape[0] // 2))
    with np.errstate(over="ignore", invalid="ignore"):  # QuadraticForm refuses non-finite ones
        sym = 0.5 * (raw + raw.T)
        shift = 0.5 * np.sum(raw * u)
        return sym, complex(offset + shift)


def build_quadratic(basis: BosonBasis, raw_terms, offset: complex = 0.0) -> QuadraticForm:
    """Assemble a QuadraticForm from raw product terms.

    Parameters
    ----------
    basis : BosonBasis
    raw_terms : iterable of (i, j, coefficient)
        Each entry contributes coefficient * O_i O_j with 1-based indices
        into the operator basis, in the order written (no symmetry assumed).
    offset : complex
        Scalar added to the operator before normalization.

    The result has an exactly symmetric coefficient matrix; commutator
    corrections from reordering are absorbed into the returned offset.
    """
    n = basis.size
    raw = np.zeros((n, n), dtype=complex)
    for i, j, coeff in raw_terms:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"term index ({i},{j}) out of range 1..{n}")
        raw[i - 1, j - 1] += coeff
    sym, total = _normal_form(raw, offset)
    return QuadraticForm(basis, sym, total)


def adjoint_rep(form: QuadraticForm) -> np.ndarray:
    """Adjoint matrix h = 2 G u of the form, acting as [H, O_i] = sum_j h[j,i] O_j."""
    u = commutator_matrix(form.basis)
    return 2.0 * (form.coeffs @ u)


def commutator_linear(ca: np.ndarray, cb: np.ndarray, u: np.ndarray) -> complex:
    """Commutator [Z_a, Z_b] of two linear combinations Z = sum_i c_i O_i.

    Bilinear in the coefficient vectors: returns ca^t u cb.
    """
    ca = np.asarray(ca, dtype=complex)
    cb = np.asarray(cb, dtype=complex)
    if ca.shape != (u.shape[0],) or cb.shape != (u.shape[0],):
        raise ValueError(
            f"coefficient vectors must have length {u.shape[0]}, got {ca.shape} and {cb.shape}"
        )
    return complex(ca @ u @ cb)


def transform_form(form: QuadraticForm, cmap: CanonicalMap) -> QuadraticForm:
    """Quadratic form of the conjugated operator S H S^{-1}.

    Substituting O_i -> sum_j S[i,j] O_j gives coefficients S^t G S, which
    is then passed through the symmetrization normal form. A canonical map
    leaves the adjoint-representation spectrum unchanged.
    """
    if cmap.basis.size != form.basis.size:
        raise ValueError(
            f"map size {cmap.basis.size} does not match form size {form.basis.size}"
        )
    cmap.require_canonical()
    s = cmap.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # S^t G S may overflow as well
        sym, total = _normal_form(s.T @ form.coeffs @ s, form.offset)
    return QuadraticForm(form.basis, sym, total)
