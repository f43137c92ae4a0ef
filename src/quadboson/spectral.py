"""Diagonalization of the adjoint representation into ladder operators.

The adjoint matrix of a quadratic boson form has eigenvalues in exact
+/- pairs. Each eigenvector supplies the coefficients of a ladder
operator Z with [H, Z] = lambda Z; the K conjugate pairs are normalized
jointly to [Z_low_i, Z_high_j] = delta_ij, which fixes the diagonal form
of the operator and its spectrum. Parameter points where the adjoint
matrix is defective (eigenvalue coalescence without enough eigenvectors)
are exceptional points, reported rather than diagonalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import BosonBasis, QuadraticForm, adjoint_rep, commutator_linear, commutator_matrix

PAIR_TOL = 1e-8
# An order-2 exceptional point splits in floating point by O(sqrt(eps * |h|)),
# so a narrower relative cluster width reads an exact EP as two simple values.
CLUSTER_TOL = 16.0 * np.sqrt(np.finfo(float).eps)
REALITY_TOL = 1e-9
COMMUTATOR_FLOOR = 1e-12

LOWERING = "lowering"
RAISING = "raising"


class Reality(enum.Enum):
    """Classification of an adjoint-representation spectrum."""

    ALL_REAL = "AllReal"
    COMPLEX = "Complex"
    EXCEPTIONAL_POINT = "ExceptionalPoint"


@dataclass(frozen=True, eq=False)
class LadderOperator:
    """Linear combination Z = sum_i coeffs[i] O_i with [H, Z] = eigenvalue * Z."""

    eigenvalue: complex
    coeffs: np.ndarray
    role: str

    def __post_init__(self):
        if self.role not in (LOWERING, RAISING):
            raise ValueError(f"role must be '{LOWERING}' or '{RAISING}', got {self.role!r}")
        vec = np.asarray(self.coeffs, dtype=complex)
        if vec.ndim != 1 or not np.any(vec):
            raise ValueError("coefficient vector must be 1-d and nonzero")
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def residual(self, rep: np.ndarray) -> float:
        """Max-norm of (h - lambda I) c, the eigenpair defect."""
        return float(np.max(np.abs(rep @ self.coeffs - self.eigenvalue * self.coeffs)))


@dataclass(frozen=True, eq=False)
class EigenvalueCluster:
    value: complex
    algebraic: int
    geometric: int

    @property
    def defective(self) -> bool:
        return self.geometric < self.algebraic


@dataclass(frozen=True, eq=False)
class EPReport:
    """Degeneracy diagnostics for an adjoint matrix."""

    clusters: tuple

    @property
    def defective(self) -> bool:
        return any(c.defective for c in self.clusters)


class ExceptionalPointError(RuntimeError):
    """Ladder construction impossible: the adjoint matrix is (nearly) defective."""

    def __init__(self, message: str, report: EPReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Normalized ladder pairs and the resulting diagonal-form data.

    pairs[i] holds (lowering, raising) operators with eigenvalues
    -frequencies[i], +frequencies[i]; frequencies are sorted descending
    by real part. ground_energy is half the frequency sum plus the form
    offset.
    """

    pairs: tuple
    frequencies: np.ndarray
    ground_energy: complex
    reality: Reality
    defective: bool
    offset: complex

    def spectrum(self, occupation) -> complex:
        return spectrum(self, occupation)


def _cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    # Breadth-first search over |v_i - v_j| < tol from the lowest index left: groups
    # come by smallest member, members ascending. A K = 16 spectrum has 32 entries.
    left = list(range(len(values)))
    groups = []
    while left:
        group = [left.pop(0)]
        for i in group:  # grows as it is read, until nothing more joins
            rest = []
            for j in left:
                (group if abs(values[i] - values[j]) < tol else rest).append(j)
            left = rest
        groups.append(sorted(group))
    return groups


def _is_real(values: np.ndarray) -> np.ndarray:
    # reads the last axis, so a stack of spectra gets one verdict each
    return np.all(np.abs(values.imag) < REALITY_TOL * np.maximum(1.0, np.abs(values)), axis=-1)


def _pair_indices(values: np.ndarray, tol: float, report: EPReport) -> list[tuple[int, int]]:
    # Greedy +/- matching: repeatedly take the largest unpaired |value| and
    # match it with the unpaired value minimizing |v_i + v_j|. The spectrum is
    # +/- symmetric in exact arithmetic, so a miss above tol means ill-conditioned
    # eigenvalues, i.e. a (near-)defective matrix such as an order-4 EP. Each pair
    # comes lower member first in (real, imag) order: the lowering one.
    remaining = sorted(range(len(values)), key=lambda i: -abs(values[i]))
    pairs = []
    while remaining:
        i = remaining.pop(0)
        best = min(range(len(remaining)), key=lambda m: abs(values[i] + values[remaining[m]]))
        j = remaining.pop(best)
        mismatch = abs(values[i] + values[j])
        if mismatch > tol:
            raise ExceptionalPointError(
                f"eigenvalues do not split into +/- pairs: residual {mismatch:.3e} "
                f"for {values[i]:.6g} above pairing tolerance {tol:.1e}; "
                "the adjoint matrix is near an exceptional point",
                report=report,
            )
        a, b = values[i], values[j]
        pairs.append((j, i) if (a.real, a.imag) > (b.real, b.imag) else (i, j))
    return pairs


@dataclass(frozen=True, eq=False)
class _Eigensystem:
    """One eigendecomposition of an adjoint matrix and what is read from it."""

    values: np.ndarray
    vectors: np.ndarray
    scale: float
    report: EPReport
    reality: Reality

    def ladders(self) -> list[LadderOperator]:
        """The +/- ordered ladder operators; see eigenpairs."""
        if self.report.defective:
            bad = next(c for c in self.report.clusters if c.defective)
            raise ExceptionalPointError(
                f"adjoint matrix is defective at lambda={bad.value:.6g} "
                f"(algebraic {bad.algebraic}, geometric {bad.geometric}); "
                "no complete ladder basis exists at an exceptional point",
                report=self.report,
            )
        values, vectors = self.values, self.vectors
        pairs = sorted(_pair_indices(values, PAIR_TOL * self.scale, self.report),
                       key=lambda p: (values[p[0]].real, values[p[0]].imag))

        lowers, raisers = [], []
        for i, j in pairs:
            vi = vectors[:, i] / np.linalg.norm(vectors[:, i])
            vj = vectors[:, j] / np.linalg.norm(vectors[:, j])
            lowers.append(LadderOperator(values[i], vi, LOWERING))
            raisers.append(LadderOperator(values[j], vj, RAISING))
        return lowers + raisers[::-1]


def _eigensystem(rep: np.ndarray) -> _Eigensystem:
    """The one eigensolve behind detect_ep, classify_reality and eigenpairs.

    Their docstrings state the tolerances; one SVD per multi-member cluster.
    """
    rep = np.asarray(rep, dtype=complex)
    values, vectors = np.linalg.eig(rep)
    return _Eigensystem(values, vectors, *_read_spectrum(rep, values))


def _read_spectrum(rep: np.ndarray, values: np.ndarray) -> tuple[float, EPReport, Reality]:
    """Scale, EP report and reality label of rep, read from its eigenvalues alone."""
    with np.errstate(over="ignore"):  # refused just below
        scale = max(1.0, float(np.linalg.norm(rep, np.inf)))
    if not np.isfinite(4.0 * scale):  # 4 |rep|_inf bounds every eigenvalue gap
        raise ValueError("the adjoint matrix's spectrum overflows float64")
    tol = CLUSTER_TOL * scale
    clusters = []
    for group in _cluster_indices(values, tol):
        center = complex(np.mean(values[group]))
        algebraic = geometric = len(group)
        if algebraic > 1:
            sv = np.linalg.svd(rep - center * np.eye(rep.shape[0]), compute_uv=False)
            geometric = min(algebraic, int(np.sum(sv <= tol)))
        clusters.append(EigenvalueCluster(center, algebraic, geometric))
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    report = EPReport(tuple(clusters))
    reality = (Reality.EXCEPTIONAL_POINT if report.defective else
               Reality.ALL_REAL if _is_real(values) else Reality.COMPLEX)
    return scale, report, reality


def _stacked_labels(reps: np.ndarray):
    """Spectra, Reality labels (ExceptionalPoint where defective) and minimum gaps of a stack.

    One eigvals call solves all (N, 2K, 2K) reps, and every label reads those
    values, the ones the sweep prints. A point whose eigenvalues all lie at
    least twice the cluster width apart holds only simple clusters, so its
    label is the reality test alone; the others (an over-flagging mask, never
    a missed pair) get the clusters and SVDs of _read_spectrum.
    The minimum gap is the smallest pairwise distance, taken with hypot, which
    matches the scalar abs() of a complex difference bit for bit where the
    vectorized abs can differ by one ulp.
    """
    values = np.linalg.eigvals(reps)
    scale = np.maximum(1.0, np.abs(reps).sum(axis=-1).max(axis=-1))
    i, j = np.triu_indices(values.shape[-1], 1)
    diff = values[:, i] - values[:, j]
    gap = np.hypot(diff.real, diff.imag).min(axis=-1)
    reality = np.where(_is_real(values), Reality.ALL_REAL, Reality.COMPLEX)
    for n in np.flatnonzero(gap < 2.0 * CLUSTER_TOL * scale):
        reality[n] = _read_spectrum(reps[n], values[n])[2]
    return values, reality, gap


def detect_ep(rep: np.ndarray) -> EPReport:
    """Cluster the spectrum and compare algebraic vs geometric multiplicities.

    Eigenvalues are grouped within CLUSTER_TOL * max(1, |rep|_inf)
    (16 sqrt(eps) relative, about 2.4e-7); the geometric multiplicity of a
    cluster is the number of singular values of (rep - lambda I) within
    that same width, capped at the cluster size. A split cluster with a
    full eigenvector basis thus stays regular, while an exceptional point
    keeps a single near-null direction.
    """
    return _eigensystem(rep).report


def classify_reality(rep: np.ndarray) -> Reality:
    """AllReal, Complex, or ExceptionalPoint for an adjoint matrix.

    The spectrum counts as real when every
    |Im lambda| < REALITY_TOL * max(1, |lambda|). A defective matrix is
    classified as an exceptional point regardless of where its eigenvalues
    lie.
    """
    return _eigensystem(rep).reality


def eigenpairs(rep: np.ndarray) -> list[LadderOperator]:
    """Eigenvalue/eigenvector pairs of the adjoint matrix, +/- ordered.

    Returns 2K ladder operators with unit-norm coefficient vectors,
    arranged so entry i and entry 2K-1-i carry opposite eigenvalues;
    the first K entries are the lowering members (negative real part,
    lexicographic tie-break on the imaginary part), sorted ascending.

    Raises ExceptionalPointError, carrying the degeneracy report, when
    the matrix is defective and no eigenvector basis exists.
    """
    rep = np.asarray(rep, dtype=complex)
    if rep.ndim != 2 or rep.shape[0] != rep.shape[1] or rep.shape[0] % 2:
        raise ValueError(f"adjoint matrix must be square of even size, got {rep.shape}")
    return _eigensystem(rep).ladders()


def _symplectic_pairs_at_zero(vectors, u):
    # Null-eigenvalue cluster: grab mutually commuting pairs greedily and
    # u-orthogonalize the rest against each chosen pair.
    remaining = [np.array(v, dtype=complex) for v in vectors]
    pairs = []
    while remaining:
        x = remaining.pop(0)
        xn = np.linalg.norm(x)
        if xn < COMMUTATOR_FLOOR:
            raise ExceptionalPointError(
                "null-space pairing collapsed; adjoint matrix is effectively defective"
            )
        x = x / xn
        overlaps = [abs(commutator_linear(x, y, u)) for y in remaining]
        if not overlaps or max(overlaps) < COMMUTATOR_FLOOR:
            raise ExceptionalPointError(
                "vanishing pair commutator in the zero-eigenvalue cluster; "
                "parameters sit at (or numerically near) an exceptional point"
            )
        k = int(np.argmax(overlaps))
        y = remaining.pop(k)
        c = commutator_linear(x, y, u)
        y = y / c
        remaining = [v - commutator_linear(v, y, u) * x + commutator_linear(v, x, u) * y
                     for v in remaining]
        pairs.append((x, y))
    return pairs


def normalize_pairs(ladders, *, offset: complex = 0.0) -> SpectralDecomposition:
    """Rescale +/- eigenpairs jointly so that [Z_low_i, Z_high_j] = delta_ij.

    The 2K ladders (the eigenpairs layout, K >= 1) each carry 2K
    coefficients, read against the boson commutator matrix u of K modes
    (algebra.commutator_matrix); any other count raises ValueError.
    Lowering vectors (entries i < K) form the columns of L, their raising
    mates (entry 2K-1-i) those of R. Pairs with |lambda_low| < CLUSTER_TOL
    * max(1, max |lambda|) first get a symplectic basis of the zero
    eigenspace, where either member may be the lowering one. Then
    R <- R (L^t u R)^-1 against the one K x K Gram matrix (para-unitary
    normalization; Colpa, Physica A 93, 327 (1978)): lowering vectors keep
    unit norm and cross commutators vanish between all pairs, so the
    diagonal form reproduces the operator. The reality label reads the 2K
    eigenvalues given, by classify_reality's rule, not the frequencies.

    A Gram matrix with smallest singular value below COMMUTATOR_FLOOR
    signals an exceptional point and raises ExceptionalPointError.
    """
    ladders = list(ladders)
    n = len(ladders)
    if not n or n % 2 or any(op.coeffs.size != n for op in ladders):
        raise ValueError(f"expected 2K ladder operators of 2K coefficients each, got {n}")
    k = n // 2
    u = commutator_matrix(BosonBasis(k))

    lam = np.array([op.eigenvalue for op in ladders])
    freqs = 0.5 * (lam[::-1][:k] - lam[:k])
    low = np.column_stack([op.coeffs for op in ladders[:k]])
    high = np.column_stack([op.coeffs for op in ladders[::-1][:k]])

    zero = np.flatnonzero(np.abs(lam[:k]) < CLUSTER_TOL * max(1.0, float(np.max(np.abs(lam)))))
    if zero.size:
        sympairs = _symplectic_pairs_at_zero(
            [vec for g in zero for vec in (low[:, g], high[:, g])], u)
        low[:, zero] = np.column_stack([x for x, _ in sympairs])
        high[:, zero] = np.column_stack([y for _, y in sympairs])

    gram = low.T @ u @ high
    smallest = np.linalg.svd(gram, compute_uv=False)[-1]
    if smallest < COMMUTATOR_FLOOR:
        raise ExceptionalPointError(
            f"pair commutator matrix has smallest singular value {smallest:.3e} "
            f"(floor {COMMUTATOR_FLOOR:.0e}); ladder normalization impossible "
            "(exceptional-point proximity)"
        )
    high = high @ np.linalg.inv(gram)

    order = np.lexsort((freqs.imag, -freqs.real))
    pairs = tuple((LadderOperator(-freqs[g], low[:, g], LOWERING),
                   LadderOperator(freqs[g], high[:, g], RAISING)) for g in order)
    freqs = freqs[order]
    reality = Reality.ALL_REAL if _is_real(lam) else Reality.COMPLEX
    ground = 0.5 * complex(np.sum(freqs)) + complex(offset)
    return SpectralDecomposition(pairs=pairs, frequencies=freqs, ground_energy=ground,
                                 reality=reality, defective=False, offset=complex(offset))


def decompose(form: QuadraticForm) -> SpectralDecomposition:
    """Full pipeline: adjoint matrix -> eigenpairs -> normalized ladder pairs."""
    ladders = eigenpairs(adjoint_rep(form))
    return normalize_pairs(ladders, offset=form.offset)


def spectrum(decomp: SpectralDecomposition, occupation) -> complex:
    """Energy sum_i frequencies[i] * (n_i + 1/2) + offset for occupation numbers n."""
    n = np.asarray(occupation)
    if n.shape != decomp.frequencies.shape:
        raise ValueError(
            f"occupation must supply {decomp.frequencies.size} numbers, got shape {n.shape}"
        )
    if np.any(n < 0) or not np.issubdtype(n.dtype, np.integer):
        raise ValueError("occupation numbers must be non-negative integers")
    return complex(np.sum(decomp.frequencies * (n + 0.5)) + decomp.offset)
