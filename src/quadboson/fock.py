"""Brute-force verification in a truncated number basis.

Every quadratic form can be assembled in normal order on the product Fock
space with each mode cut off at nmax levels, as COO triplets composed
term by term from single-operator index maps, which read the basis
layout through FockTruncation alone; no dense full-size matrix is formed.
Its spectrum is an oracle for the ladder-operator predictions that knows
nothing about the algebraic construction, and verify_adjoint_action
checks the same operator. Where a number scaling makes the form Hermitian
(_hermitian_balance), that similar form is assembled instead; the
untruncated spectrum need not be real for that. Every quadratic term
changes the total boson number by 0 or +/-2, so the operator is
block-diagonal in total-number parity. Where swapping two modes leaves the
form unchanged (_mode_exchange), a parity block splits further into that
exchange's even and odd sectors. A parity block and an exchange sector
are both solve units (_blocks): each is folded from the same triplets
(_fold) and solved on its own, in real arithmetic when the form is real.

Size policy, stated here once. The limit is _HERMITIAN_BLOCK_MAX (512
states) for a balanced form and _DENSE_BLOCK_MAX (256) otherwise. A block
is solved as its two sectors where each sector is within the limit and
the block itself is too, or the balanced form is real (the measurements
are at _parity_eigenvalues); else it is solved whole. A unit within the
limit is diagonalized in full, by eigvalsh when it equals its conjugate
transpose exactly; a larger one is solved by Arnoldi iteration for only
the lowest levels + 1 eigenvalues a spectrum check reads, so the reported
spectrum then holds just those (oracle_eigenvalues). A copy of a repeated
level the iteration missed is looked for by one more Arnoldi run for a
single value, from an independent start vector with the found
eigenvectors deflated.

Truncation corrupts elements near the cutoff, so comparisons use interior
blocks and are re-run at a larger cutoff, each run within the fixed
DIMENSION_CAP (4096 states). The index tables that depend on the truncation
alone, the single-operator maps and every solve unit's slots and
coefficients, are built once per truncation (and transposition) and kept,
read-only, for the 8 most recently used ones (under 1 MB each at the cap).
The pair products O_i O_j that assemble scales (_pair) are built the first
time a pair is needed and kept, read-only, for the 128 most recently used
pairs: a dense four-mode run and its re-run need 96. Each holds at most one
entry of 24 bytes per basis state, so the 128 take at most 12.6 MB at the
cap (a dense six-mode form there fills 108 of them with 6.0 MB).

scipy is imported inside the functions that need it, the Arnoldi solve
and the metric factor's expm, so importing this module, and every dense
oracle solve, loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import CanonicalMap, QuadraticForm, _is_integer, adjoint_rep, build_quadratic
from .spectral import Reality, SpectralDecomposition
from .swanson import OneModeParams, one_mode

DIMENSION_CAP = 4096  # states, of a run and of its convergence re-run
SPECTRUM_TOL = 1e-6
_METRIC_REAL_TOL = 1e-9
# Largest solve unit solved in full (the size policy, module docstring).
# Odd blocks, best of 15 in each of two runs, one BLAS thread, dense eigvals
# against Arnoldi with its repeated-level check (ms): two-mode 200 states 11 /
# 11-18, 242 states 16-17 / 12-14, 312 states 28 / 16; three-mode 256 states 20 /
# 11, 364 states 36 / 14, 500 states 76-83 / 17; so Arnoldi wins from ~220
# states. The strongly non-normal one-mode block at (0.3, 0.5) crosses later:
# 260 states 33 / 36, 300 states 37-49 / 43-65, 400 states 80 / 53.
_DENSE_BLOCK_MAX = 256
# Largest solve unit of a balanced form (_hermitian_balance) solved in full.
# Best of 15, one BLAS thread, eigvalsh against Arnoldi (ms), two-mode
# (0.1, 0.2, 0.3): 313 states 8.2 / 23-26, 512 states 17-18 / 21, 613 states
# 29-39 / 22-26; one-mode (0.3, 0.5), 300 states: 4.6-4.8 / 34-42.
_HERMITIAN_BLOCK_MAX = 512
# Largest misfit of the balancing equations, relative to their largest log ratio.
_BALANCE_TOL = 1e-13
# A level left below the largest Arnoldi level by more than this (relative) was missed.
_ARNOLDI_SLACK = 1e-10


@dataclass(frozen=True)
class FockTruncation:
    """Product number basis |n_1..n_K> with every n_i < cutoff, at most DIMENSION_CAP states."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        for name in ("n_modes", "cutoff"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be positive, got {self.n_modes}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")
        if self.dimension > DIMENSION_CAP:
            raise _cap_error(self.n_modes, 0, f"truncated dimension {self.dimension}")

    @property
    def dimension(self) -> int:
        return _dimension(self.n_modes, self.cutoff)

    def occupations(self) -> np.ndarray:
        """(dimension, n_modes) table of the basis states' occupations, mode 1 slowest."""
        return np.indices((self.cutoff,) * self.n_modes).reshape(self.n_modes, -1).T

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis index of each occupation row (..., n_modes), or -1 for a state outside it."""
        inside = np.all((occ >= 0) & (occ < self.cutoff), axis=-1)
        return np.where(inside, occ @ self.cutoff ** np.arange(self.n_modes)[::-1], -1)

    def grown(self) -> "FockTruncation":
        """Truncation of a convergence re-run: cutoff + 20 for one mode, else + 5."""
        return FockTruncation(self.n_modes, _rerun_cutoff(self.n_modes, self.cutoff))

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of basis states with every mode index < cutoff - 2."""
        return np.all(self.occupations() < self.cutoff - 2, axis=1)

    def odd_mask(self) -> np.ndarray:
        """Boolean mask of basis states whose total boson number is odd."""
        return self.occupations().sum(axis=1) % 2 == 1


def _dimension(n_modes: int, cutoff: int) -> int:
    """States of the product basis, the size rule of every cap check (Python ints: exact)."""
    return int(cutoff) ** int(n_modes)


def _rerun_cutoff(n_modes: int, cutoff: int) -> int:
    """Cutoff of the convergence re-run from `cutoff`; ValueError where it exceeds the cap."""
    stride = 20 if n_modes == 1 else 5
    bigger = cutoff + stride
    if _dimension(n_modes, bigger) > DIMENSION_CAP:
        raise _cap_error(n_modes, stride, f"convergence re-run at cutoff {bigger}")
    return bigger


def _cap_error(n_modes: int, stride: int, what: str) -> ValueError:
    """`what` exceeds the cap: name the largest cutoff c >= 2 whose run at c + stride fits."""
    fits = max(c for c in range(1, DIMENSION_CAP + 1) if _dimension(n_modes, c) <= DIMENSION_CAP)
    rerun = " with that re-run" if stride else ""
    hint = (f"largest feasible cutoff for {n_modes} mode(s){rerun} is {fits - stride}"
            if fits - stride >= 2 else f"no starting cutoff for {n_modes} mode(s) fits")
    return ValueError(f"{what} exceeds cap {DIMENSION_CAP}; {hint}")


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, each marked read-only, as a tuple: a cached table is shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=8)
def _ladder_maps(trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """(targets, weights): O_i of (a_1..a_K, a_1^dag..a_K^dag) sends basis state n to
    targets[i, n], or -1 where it leaves the table, with weight weights[i, n]
    (a|n> = sqrt(n) |n-1>, a^dag|n> = sqrt(n+1) |n+1>). Cached per truncation,
    read-only."""
    occ, unit = trunc.occupations(), np.eye(trunc.n_modes, dtype=int)
    moved = occ + np.vstack([-unit, unit])[:, None, :]  # each O_i applied to every state
    return _read_only(trunc.rank(moved), np.sqrt(np.vstack([occ.T, occ.T + 1])))


@lru_cache(maxsize=8)
def _blocks(trunc: FockTruncation, perm: tuple | None = None) -> tuple:
    """(whole, split) of the even and then the odd total-parity block, each a solve unit
    (slot, coef, size) for _fold: slot gives each basis state its index in the unit, or -1
    where the state is not in it, coef its coefficient in that basis vector (None: 1), size
    counts the unit's states.

    whole is the block itself, its states in basis order. split is None without perm, else
    the even (+) and then the odd (-) sector of the mode transposition P, perm the mode
    order it makes: a sector is spanned by (|n> +/- P|n>) / sqrt 2 over the orbit
    representatives n, the lower state of each pair, and by |n> alone where P|n> = |n>
    (+ sector only). Cached per truncation and transposition, read-only.
    """
    index, odd = np.arange(trunc.dimension), trunc.odd_mask()

    def unit(member, heads, rep, coef):
        return (*_read_only(np.where(member, (np.cumsum(heads) - 1)[rep], -1)), coef,
                int(heads.sum()))

    if perm is not None:
        image = trunc.rank(trunc.occupations()[:, list(perm)])
        fixed, lead, rep = index == image, index <= image, np.minimum(index, image)
        half = np.sqrt(0.5)
        plus, minus = _read_only(np.where(fixed, 1.0, half), np.where(lead, half, -half))
    blocks = []
    for mask in (~odd, odd):
        split = None if perm is None else tuple(
            unit(member, member & lead, rep, coef)
            for member, coef in ((mask, plus), (mask & ~fixed, minus)))
        blocks.append((unit(mask, mask, index, None), split))
    return tuple(blocks)


def _mode_exchange(form: QuadraticForm) -> tuple | None:
    """The mode order of the first transposition P with G[P, P] == G exactly, P acting on
    both halves of the basis, or None. Only the K(K-1)/2 transpositions are tried."""
    k, g = form.basis.n_modes, form.coeffs
    for i in range(k):
        for j in range(i + 1, k):
            perm = list(range(k))
            perm[i], perm[j] = j, i
            index = perm + [p + k for p in perm]
            if np.array_equal(g[np.ix_(index, index)], g):
                return tuple(perm)
    return None


@lru_cache(maxsize=128)
def _pair(trunc: FockTruncation, i: int, j: int) -> tuple:
    """Truncated O_i O_j (0-based, _ladder_maps order) as an index map (rows, cols, weights):
    basis state cols[n] goes to rows[n] with weight weights[n], every other state to zero.
    O_j acts first; a state pushed out of the table is dropped. Cached for the 128 most
    recently used pairs, read-only."""
    targets, factors = _ladder_maps(trunc)
    cols = np.flatnonzero(targets[j] >= 0)
    middle = targets[j][cols]
    rows = targets[i][middle]
    inside = rows >= 0
    return _read_only(rows[inside], cols[inside], (factors[j][cols] * factors[i][middle])[inside])


def assemble(form: QuadraticForm, trunc: FockTruncation) -> tuple:
    """COO triplets (rows, cols, values, dimension) of sum_ij G[i,j] M_i M_j + offset * I.

    G and the offset are the form's in normal order: a_i a_j^dag = a_j^dag a_i + delta_ij, so
    that every term is exact on each kept state (a a^dag gives 0, not n + 1, at the cutoff).
    One run of entries per nonzero G[i,j] in np.nonzero order, then the offset
    on the diagonal; a position repeated across runs sums in this order (_dense).
    values are float64 when every coefficient and the offset are real, else complex128.
    A run is G[i,j] times the weights of the index map of O_i O_j (_pair), kept for the 128
    most recently used pairs, at most 12.6 MB at the 4096-state cap.
    """
    if form.basis.n_modes != trunc.n_modes:
        raise ValueError(
            f"form has {form.basis.n_modes} mode(s) but truncation has {trunc.n_modes}"
        )
    k, g = trunc.n_modes, form.coeffs.copy()
    g[k:, :k] += g[:k, k:].T
    offset = form.offset + np.trace(g[:k, k:])
    g[:k, k:] = 0
    if not np.any(g.imag) and offset.imag == 0:
        g, offset = g.real, offset.real
    terms = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0, g.dtype))]  # typed even with no term
    for i, j in zip(*np.nonzero(g)):
        rows, cols, weights = _pair(trunc, i, j)
        terms.append((rows, cols, g[i, j] * weights))
    if offset != 0:
        diagonal = np.arange(trunc.dimension)
        terms.append((diagonal, diagonal, np.full(trunc.dimension, offset)))
    rows, cols, values = (np.concatenate(column) for column in zip(*terms))
    return rows, cols, values, trunc.dimension


def _dense(rows, cols, values, size: int) -> np.ndarray:
    """Dense size x size matrix of COO triplets, a repeated position summed in entry order."""
    out = np.zeros((size, size), dtype=values.dtype)
    np.add.at(out.reshape(-1), rows * size + cols, values)
    return out


def oracle_eigenvalues(operator: tuple, count: int | None = None) -> np.ndarray:
    """Eigenvalues of COO triplets (rows, cols, values, size), complex, sorted by (real, imag).

    The triplets are read as assemble returns them, a repeated position
    summed in entry order; an entry outside size, or a count that is not
    None or a positive integer, raises ValueError. With count None, or for
    an operator of at most _DENSE_BLOCK_MAX states, it is scattered densely
    and every eigenvalue is returned, a real operator diagonalized in real
    arithmetic, by eigvalsh when the scattered matrix equals its conjugate
    transpose exactly, else by eigvals. A larger operator given a count is
    built as CSR and returns only its lowest count + 1 eigenvalues, found
    by implicitly restarted Arnoldi (ARPACK; Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, SIAM 1998); the extra one keeps a complex-conjugate
    pair at the boundary whole. Where Arnoldi fails or misses a level, the
    operator is scattered densely and solved in full.
    """
    if count is not None and not (_is_integer(count) and count >= 1):
        raise ValueError(f"count must be None or a positive integer, got {count!r}")
    rows, cols, values, size = operator
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= size):
        raise ValueError(f"COO entries lie outside the {size}-state operator")
    eigenvalues = None
    if count is not None and size > _DENSE_BLOCK_MAX and count + 1 < size - 1:
        from scipy.sparse import csr_array
        eigenvalues = _lowest_by_arnoldi(csr_array((values, (rows, cols)), shape=(size, size)),
                                         count + 1)
    if eigenvalues is None:
        dense = _dense(rows, cols, values, size)
        hermitian = np.array_equal(dense, dense.conj().T)
        eigenvalues = (np.linalg.eigvalsh if hermitian else np.linalg.eigvals)(dense)
    return np.sort(eigenvalues.astype(complex, copy=False), kind="stable")


def _lowest_by_arnoldi(matrix, k: int) -> np.ndarray | None:
    """The k eigenvalues of smallest real part of a CSR matrix, or None where ARPACK can't vouch.

    A Krylov space meets each eigenvalue through a single vector, so it can
    miss a copy of a repeated eigenvalue (identical modes give such levels).
    The found eigenvectors are therefore deflated, their eigenvalues moved
    above the highest found one, and a second run, started from an
    independent random vector, looks for the single lowest level left; one
    below the highest found level was missed. None also covers ARPACK
    errors, non-convergence included.
    """
    import scipy.linalg as sla
    from scipy.sparse import identity
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    size = matrix.shape[0]
    # ARPACK passes over an eigenvalue that is exactly zero (diag(256..0) gives
    # 1..4 for k = 4), so every real part is lifted to 1 or above; by Gershgorin's
    # theorem Re(lambda) >= min_i (Re m_ii - sum_j!=i |m_ij|)
    diagonal = matrix.diagonal()
    lift = 1.0 - float(np.min(diagonal.real - abs(matrix).sum(axis=1) + np.abs(diagonal)))
    shifted = matrix + lift * identity(size, dtype=matrix.dtype, format="csr")
    # fixed, so that runs in one process repeat bit for bit (across interpreters
    # the results can differ at round-off); random, so that no symmetry of the
    # basis (all-ones is even under mode exchange) keeps Arnoldi in one sector
    start = np.random.default_rng(0).standard_normal(size)
    # ARPACK's default of 10 * size restarts can outlast a dense solve many times
    # over on a badly non-normal block (3.6 s against 45 ms at 365 states); the
    # one-mode block at (0.3, 0.5) needs about size / 5 up to 2000 states
    restarts = size // 3
    try:
        values, vectors = eigs(shifted, k=k, which="SR", v0=start, tol=0, maxiter=restarts)
        if not np.iscomplexobj(matrix):
            vectors = np.hstack([vectors.real, vectors.imag])  # real basis, same span
        found = sla.orth(vectors)
        top = float(values.real.max())
        gemv = sla.get_blas_funcs("gemv", (found,))

        def project(v):  # found found^H v, in the BLAS that ARPACK runs in, not numpy's
            return gemv(1.0, found, gemv(1.0, found, v, trans=2))

        def deflated(v):  # found directions sent to 2 top, above top as top >= 1
            inside = project(v)
            w = shifted @ (v - inside)
            return w - project(w) + 2.0 * top * inside

        # a second, independent start: the first one minus the found directions
        # holds almost nothing of a missed copy, which must then grow out of
        # round-off; a fresh vector holds a share of it, so one value finds it
        check = np.random.default_rng(1).standard_normal(size)
        rest = eigs(LinearOperator((size, size), matvec=deflated, dtype=matrix.dtype), k=1,
                    which="SR", v0=check - project(check), tol=0,
                    maxiter=restarts, return_eigenvectors=False)
    except ArpackError:
        return None
    if rest.real.min() < top - _ARNOLDI_SLACK * max(1.0, abs(top - lift)):
        return None
    return values - lift


def _hermitian_balance(form: QuadraticForm, perm: tuple | None = None) -> QuadraticForm | None:
    """The form of D H D^-1, Hermitian in the number basis, or None where no such D is found.

    D = prod_i r_i^(a_i^dag a_i) scales G[p,q] by s_p s_q, s = (1/r_1..1/r_K,
    r_1..r_K), and is diagonal in the number basis, so it relates the
    truncated matrices exactly too. With bar swapping a_i and a_i^dag, the
    result is Hermitian when G'[bar p, bar q] = conj(G'[p,q]): for each nonzero
    pair 2 (+/-x_i +/- x_j) = log(conj(G[p,q]) / G[bar p, bar q]), x = log r, + for
    a lowering operator, solved by least squares. For one mode r^2 = sqrt(alpha
    / beta) (Musumbu, Geyer & Heiss, J. Phys. A 40, F75 (2007)). None where bar
    changes the zero pattern, a ratio is not positive, the misfit exceeds
    _BALANCE_TOL or the offset is complex. Averaging with the bar-conjugate
    makes the result exactly Hermitian and, by Bauer-Fike, moves eigenvalues
    by about _BALANCE_TOL ||H||. The untruncated operator need not have a real
    spectrum: for alpha beta > 1/4 it is unbounded below. perm, a mode transposition
    that leaves G unchanged (_mode_exchange), leaves the result unchanged exactly too:
    x is averaged over its orbits, where least squares can set the two modes' scales
    apart in the last bit.
    """
    k, g = form.basis.n_modes, form.coeffs
    bar = np.roll(np.arange(2 * k), k)
    mirror = g[np.ix_(bar, bar)]
    if form.offset.imag != 0 or not np.array_equal(g != 0, mirror != 0):
        return None
    p, q = np.nonzero(g)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        logs = np.log(g[p, q].conj() / mirror[p, q])
    if not np.all(np.isfinite(logs)):
        return None
    steps = 2.0 * np.vstack([np.eye(k), -np.eye(k)])
    system = steps[p] + steps[q]
    x = np.linalg.lstsq(system, logs.real, rcond=None)[0]
    if perm is not None:
        x = 0.5 * (x + x[list(perm)])
    misfit = np.max(np.abs(system @ x - logs), initial=0.0)
    if not misfit <= _BALANCE_TOL * max(1.0, np.max(np.abs(logs), initial=0.0)):
        return None
    s = np.exp(np.concatenate([-x, x]))
    with np.errstate(over="ignore", invalid="ignore"):  # an unbounded scale on a zero entry
        scaled = np.where(g != 0, np.outer(s, s) * g, 0.0)
    return QuadraticForm(form.basis, 0.5 * (scaled + scaled[np.ix_(bar, bar)].conj()),
                         form.offset)


def _fold(rows, cols, values, unit: tuple, hermitian: bool) -> tuple:
    """COO triplets of one solve unit (_blocks) folded from the full operator's: each state's
    position becomes its slot in the unit, an entry of a state outside it is dropped. In an
    exchange sector each value is also multiplied by the two states' coefficients, and
    hermitian keeps the upper triangle and its mirror image, so that the sector of a
    Hermitian operator is Hermitian bit for bit, whatever order the folded entries of a
    position sum in; a whole block of a balanced form is so already, as each of its
    positions sums at most two conjugate terms."""
    slot, coef, size = unit
    i, j = slot[rows], slot[cols]
    keep = (np.minimum(i, j) >= 0).nonzero()[0]  # an index array: it is applied 3 to 5 times
    i, j, v = i[keep], j[keep], values[keep]
    if coef is not None:
        rows, cols = rows[keep], cols[keep]
        v = v * (coef[rows] * coef[cols])
        if hermitian:
            upper, strict = (i <= j).nonzero()[0], (i < j).nonzero()[0]
            i, j, v = (np.concatenate([i[upper], j[strict]]),
                       np.concatenate([j[upper], i[strict]]),
                       np.concatenate([v[upper], v[strict].conj()]))
    return i, j, v, size


def _parity_eigenvalues(form: QuadraticForm, trunc: FockTruncation, count: int,
                        balanced: QuadraticForm | None = None,
                        perm: tuple | None = None) -> np.ndarray:
    """Sorted oracle spectrum from one assembly and one oracle_eigenvalues call per solve
    unit (_blocks), a total-parity block or one of its exchange sectors, split and solved
    by the size policy of the module docstring.

    balanced, the form's Hermitian similar from _hermitian_balance, is assembled in its
    place when given. perm, a mode transposition that leaves the assembled form unchanged
    (_mode_exchange), lets a block split into its two exchange sectors. The split rule
    keeps a block above the limit whole unless the balanced form is real: per run, best
    of 9, one BLAS thread, two-mode blocks solved whole against split (ms): balanced
    (0.1, 0.2, 0.3), 613 states 46 / 27, 800 states 54 / 46; where Arnoldi would take the
    block otherwise: (-0.1, 0.2, 0.3), 450 states 45 / 70; (0.1i, 0.2i, 0.3), 450 states
    66 / 179; balanced (0.1+0.05i, 0.2-0.1i, 0.3), 800 states 85 / 122.
    """
    rows, cols, values, _ = assemble(form if balanced is None else balanced, trunc)
    limit = _DENSE_BLOCK_MAX if balanced is None else _HERMITIAN_BLOCK_MAX
    hermitian = balanced is not None
    # a block above the limit, which Arnoldi would solve, is split only where its sectors
    # go to real eigvalsh; dense eigvals or complex eigvalsh of its sectors cost more
    split_large = hermitian and values.dtype.kind == "f"
    spectra = []
    for whole, split in _blocks(trunc, perm):
        fits = split is not None and max(unit[2] for unit in split) <= limit
        units = split if fits and (whole[2] <= limit or split_large) else (whole,)
        spectra += [oracle_eigenvalues(_fold(rows, cols, values, unit, hermitian),
                                       None if unit[2] <= limit else count)
                    for unit in units if unit[2]]
    return np.sort(np.concatenate(spectra), kind="stable")


def predicted_levels(decomp: SpectralDecomposition, count: int) -> np.ndarray:
    """Lowest `count` energies sum_i frequencies[i] (n_i + 1/2) + offset of the diagonal form.

    Sorted by real part (imaginary tie-break); a count that is not a positive
    integer raises ValueError. The modes are merged one at a time, keeping
    the `count` lowest partial sums with each n_i <= count, so the work is
    about count^2 per mode instead of a (count + 1)^K table.
    Addition preserves the (real, imag) order, so every part of a sum among
    the lowest `count` is among the lowest `count` of its own set; only where
    rounding alone makes two real parts tie can the imaginary tie-break keep
    a different one of the tied levels than the full table would.
    """
    if not (_is_integer(count) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
    sums = np.zeros(1, dtype=complex)
    for w in decomp.frequencies:
        sums = np.sort((sums[:, None] + w * (np.arange(count + 1) + 0.5)).ravel(),
                       kind="stable")[:count]
    return np.sort(sums + decomp.offset, kind="stable")


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Oracle spectrum versus ladder predictions.

    eigenvalues is the first run's sorted oracle spectrum: every
    eigenvalue of a solve unit within the size limit of the module
    docstring, only the lowest levels + 1 of a larger one (the real
    two-mode model at nmax 40, solved by exchange sectors: all 1600
    levels). matched rows are (predicted, observed, |deviation|) for the
    lowest levels; converged reflects a second run at a larger cutoff.
    For a non-real classification the comparison is informational only.
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
    repeated on trunc.grown(); converged means every matched level moved by
    less than tol/10. The re-run stays within DIMENSION_CAP: a truncation whose
    re-run exceeds it raises ValueError before anything is assembled. Each run
    assembles the full truncation once and solves its solve units apart,
    split and sized by the module docstring's size policy, so the report's
    eigenvalues hold just the lowest levels + 1 of a unit above the limit.
    The number scaling (_hermitian_balance) and the mode transposition
    (_mode_exchange) are each found once for both runs. The balanced form
    has the same truncated spectrum, which says nothing about reality, so
    comparable is still the classification's alone.
    """
    if not (_is_integer(levels) and levels >= 1):
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if levels > trunc.dimension:
        raise ValueError(
            f"cannot match {levels} levels from a {trunc.dimension}-state truncation"
        )
    regrown = trunc.grown()
    perm = _mode_exchange(form)
    balanced = _hermitian_balance(form, perm)
    observed = _parity_eigenvalues(form, trunc, levels, balanced, perm)
    predicted = predicted_levels(decomp, levels)
    matched = tuple(
        (complex(p), complex(o), float(abs(p - o)))
        for p, o in zip(predicted, observed[:levels])
    )
    refined = _parity_eigenvalues(form, regrown, levels, balanced, perm)
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
    the truncation-corrupted corner for inspection. H is assemble's
    operator, the one the spectrum check solves. Each residual is the runs
    H O_i, -O_i H and -h[j,i] O_j, summed by position: O_i H sends each row
    of H's triplets to its image under O_i, H O_i each column to its
    preimage, which is its image under the conjugate O_(i+/-K) with the
    same weight. No dense matrix is formed: memory is O(terms x dimension).
    """
    rows, cols, values, dim = assemble(form, trunc)
    rep, (targets, weights), k = adjoint_rep(form), _ladder_maps(trunc), trunc.n_modes
    mask = trunc.interior_mask()
    interior, full = [], []
    for i in range(2 * k):
        conj = (i + k) % (2 * k)
        before, after = targets[conj][cols], targets[i][rows]  # H O_i, O_i H
        right, left = before >= 0, after >= 0
        terms = [(rows[right], before[right], values[right] * weights[conj][cols[right]]),
                 (after[left], cols[left], -weights[i][rows[left]] * values[left])]
        for j in np.flatnonzero(rep[:, i]):
            kept = np.flatnonzero(targets[j] >= 0)
            terms.append((targets[j][kept], kept, -rep[j, i] * weights[j][kept]))
        term_rows, term_cols, term_values = (np.concatenate(column) for column in zip(*terms))
        keys, slot = np.unique(term_rows * dim + term_cols, return_inverse=True)
        sums = np.abs(np.bincount(slot, term_values.real, keys.size)
                      + 1j * np.bincount(slot, term_values.imag, keys.size))
        full.append(float(np.max(sums, initial=0.0)))
        interior.append(float(np.max(sums[mask[keys // dim] & mask[keys % dim]], initial=0.0)))
    return AdjointActionReport(tuple(interior), tuple(full))


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Quasi-Hermiticity data for the metric rho = S^dag S.

    residual is the max-norm of rho H - H^dag rho on the interior, the
    cutoff - 2 lowest levels; smaller blocks can be read off residual_profile
    (index = block size), or checked whole by passing a smaller cutoff.
    The metric block is exact at every cutoff, so the residual is round-off
    alone; as an absolute max-norm it scales with rho's entries, which grow
    geometrically with the level for strongly squeezing maps (about 4x per
    level at alpha=0.3, beta=0.5, where the round-off reaches ~5e8 at
    interior 38). The small-block entries of residual_profile are the
    meaningful ones there. relative_residual divides residual by
    ||rho_I||_inf ||H_I||_inf on that interior block, so an exact metric
    reads at round-off (5.6e-17 at alpha=0.3, beta=0.5, interior 38, where
    the real map is checked in real arithmetic).
    min_metric_eigenvalue is the smallest eigenvalue of the interior metric
    block, the positive-definiteness witness (4.7e-16 relative to mpmath at
    alpha=0.3, beta=0.5, interior 58).
    """

    residual: float
    min_metric_eigenvalue: float
    interior_size: int
    residual_profile: tuple
    relative_residual: float = float("nan")


def _metric_factor(cmap: CanonicalMap, trunc: FockTruncation) -> np.ndarray:
    """Lower-triangular F with F F^dag = rho[:cutoff, :cutoff] exactly.

    In normal order rho = sqrt(E) exp(A a^dag^2) E^(a^dag a) exp(conj(A) a^2)
    (Truax, Phys. Rev. D 31, 1988 (1985)). S = exp(Q) has the 2x2 adjoint
    representation S^t = cmap.matrix.T = exp(2 G u) (G from
    swanson.generator_coeffs), and Q^dag has the conjugated coefficients
    with a and a^dag swapped, so exp(Q^dag) exp(Q) is represented by
    P conj(S^t)^-1 P S^t with P the swap. That matrix factors as
    [[1, 0], [-2A, 1]] diag(1/E, E) [[1, 2 conj(A)], [0, 1]], which fixes
    A and E. a^dag^2 is strictly lower triangular in the number basis, so
    expm of its truncated matrix is exactly the truncation of
    exp(A a^dag^2); F is that block with column k scaled by E^(k/2 + 1/4).
    A real map (real alpha and beta with 1 - 4 alpha beta > 0) gives a real
    A and a float64 F, so expm runs in real arithmetic; a complex map keeps
    complex arithmetic.
    """
    import scipy.linalg as sla

    cmap.require_canonical()
    st = cmap.matrix.T
    if not np.any(st.imag):
        st = st.real
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
    lower = sla.expm(a * _dense(*assemble(build_quadratic(cmap.basis, [(2, 2, 1.0)]), trunc)))
    return lower * e ** (0.5 * np.arange(trunc.cutoff) + 0.25)


@np.errstate(all="ignore")  # an overflowing metric (nmax 480 at (0.3, 0.5)) is refused below
def verify_metric(params: OneModeParams, cmap: CanonicalMap,
                  trunc: FockTruncation) -> MetricReport:
    """Build rho = S^dag S in normal order and test rho H = H^dag rho.

    S = exp(Q) is the operator that implements the canonical map. The
    truncated metric is exact at every cutoff (see _metric_factor), so no
    padding is needed. The residual is reported on the interior block,
    the cutoff - 2 levels where the truncated H is exact; a smaller block
    reads the same at a smaller cutoff, so pass that cutoff to check it.
    The positivity witness is 1 / ||F^-1||_2^2 for the interior block of
    the triangular factor F, whose inverse is read off F entry by entry.
    It stays accurate on these strongly graded blocks, where a triangular
    solve loses 8 digits at nmax 60 and an eigensolver on rho itself all
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)). For a
    real map and real parameters the whole check, the products and the SVD
    behind the 2-norm, runs in float64; otherwise in complex128.

    Raises ValueError when 1 - 4 alpha beta is not real: the frequency is then complex
    and no metric with rho H = H^dag rho exists. So does a cutoff below 3, whose interior
    block is empty, and a metric that overflows float64.
    """
    if trunc.n_modes != 1:
        raise ValueError("metric verification is defined for the one-mode model")
    disc = 1.0 - 4.0 * params.alpha * params.beta
    if abs(disc.imag) > _METRIC_REAL_TOL * max(1.0, abs(disc)):
        raise ValueError(
            f"1 - 4*alpha*beta = {disc:.6g} is not real; the frequency is complex "
            "and no quasi-Hermiticity metric exists"
        )
    if trunc.cutoff < 3:
        raise ValueError(f"the metric check needs a cutoff of at least 3, got {trunc.cutoff}: "
                         "below that no interior block is left")
    interior = trunc.cutoff - 2

    factor = _metric_factor(cmap, trunc)
    rho = factor @ factor.conj().T
    ham = _dense(*assemble(one_mode(params), trunc))
    resid = rho @ ham - ham.conj().T @ rho

    # max over resid[:cut, :cut] for every cut: row i and column i, each up to
    # the diagonal, join the block at cut = i + 1
    mag = np.abs(resid)
    edges = np.maximum(np.tril(mag).max(axis=1), np.triu(mag).max(axis=0))
    profile = tuple(np.maximum.accumulate(edges).tolist())
    # F = exp(A a^dag^2) D, D = diag(F): F^-1[n + 2k, n] = (-1)^k F[n + 2k, n] / (D[n + 2k] D[n])
    block, scale = np.s_[:interior, :interior], np.diag(factor)[:interior]
    odd_k = np.subtract.outer(np.arange(interior), np.arange(interior)) % 4 == 2
    inverse = np.where(odd_k, -factor[block], factor[block]) / np.outer(scale, scale)
    norms = np.linalg.norm(rho[block], np.inf) * np.linalg.norm(ham[block], np.inf)
    if not (np.isfinite([profile[interior - 1], norms]).all() and np.isfinite(inverse).all()):
        raise ValueError(f"the metric overflows float64 at cutoff {trunc.cutoff}")
    return MetricReport(
        residual=profile[interior - 1],
        min_metric_eigenvalue=float(np.linalg.norm(inverse, 2)) ** -2,
        interior_size=interior,
        residual_profile=profile,
        relative_residual=profile[interior - 1] / float(norms),
    )
