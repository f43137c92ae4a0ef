"""Property tests of the ladder decomposition, and of the adjoint action it rests on, over random
K-mode forms, K <= 6 (K <= 3 for the adjoint action), of its reality label over those and
over one-mode forms at the reality tolerance, and of the oracle's mode-exchange sectors over
random exchange-symmetric forms at K = 2-3.

A form is a direct sum of mode groups. Each group is idle (no terms, so it
adds zero-frequency pairs), a fresh random block, or a copy of the previous
block (so its frequencies repeat those of another group). Errors are bounded
by eps * cond([L R]), the conditioning of the stacked ladder basis.

Forms near exceptional points of order 3 or more are left out on purpose:
their eigenvalues split by more than the cluster width, and decompose then
either raises ValueError or returns ladders that are far from canonical.
That is an open defect, not a property these tests could state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from quadboson import (BosonBasis, FockTruncation, OneModeParams, QuadraticForm, TwoModeParams,
                       adjoint_rep, classify_reality, commutator_matrix, decompose, eigenpairs,
                       fock, one_mode, oracle_eigenvalues, two_mode, verify_adjoint_action)
from quadboson.spectral import REALITY_TOL
from form_helpers import ladder_blocks, random_symmetric, reconstruct_form

EPS = np.finfo(float).eps
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def grouped_forms(draw):
    n_modes = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    start, block = 0, None
    while start < n_modes:
        size = draw(st.integers(1, n_modes - start))
        kind = draw(st.sampled_from(["idle", "fresh", "copy"]))
        if kind == "fresh" or block is None or block.shape[0] != 2 * size:
            block = random_symmetric(rng, 2 * size)
        if kind != "idle":
            idx = np.r_[start:start + size, n_modes + start:n_modes + start + size]
            coeffs[np.ix_(idx, idx)] = block
        start += size
    return QuadraticForm(BosonBasis(n_modes), coeffs)


def ladder_cond(decomp):
    return np.linalg.cond(np.hstack(ladder_blocks(decomp)))


@PROPERTY_SETTINGS
@given(grouped_forms())
def test_diagonal_form_reconstructs_input(form):
    decomp = decompose(form)
    rebuilt = reconstruct_form(decomp, form.basis)
    bound = 64 * EPS * ladder_cond(decomp) * max(1.0, float(np.max(np.abs(form.coeffs))))
    assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < bound
    assert abs(rebuilt.offset - form.offset) < bound


@PROPERTY_SETTINGS
@given(grouped_forms())
def test_eigenvalues_pair_as_plus_minus(form):
    rep = adjoint_rep(form)
    values = np.array([op.eigenvalue for op in eigenpairs(rep)])
    bound = 64 * EPS * ladder_cond(decompose(form)) * max(1.0, float(np.linalg.norm(rep, np.inf)))
    assert np.max(np.abs(values + values[::-1])) < bound


@PROPERTY_SETTINGS
@given(grouped_forms())
def test_ladders_are_canonical(form):
    # [Z_low_i, Z_high_j] = delta_ij and every other commutator vanishes
    decomp = decompose(form)
    low, high = ladder_blocks(decomp)
    u = commutator_matrix(form.basis)
    bound = 64 * EPS * ladder_cond(decomp)
    assert np.max(np.abs(low.T @ u @ high - np.eye(form.basis.n_modes))) < bound
    assert np.max(np.abs(low.T @ u @ low)) < bound
    assert np.max(np.abs(high.T @ u @ high)) < bound


@st.composite
def threshold_forms(draw):
    """One-mode forms with frequency w, |w| < 1, whose imaginary part lies within 2 ulp of
    the reality tolerance, where rounding alone decides the label (1 - 4 alpha beta = w^2)."""
    w = complex(draw(st.floats(0.1, 0.99)),
                REALITY_TOL * (1 + draw(st.integers(-2, 2)) * EPS))
    alpha = draw(st.floats(0.05, 1.0))
    return one_mode(OneModeParams(alpha, (1 - w * w) / (4 * alpha)))


@PROPERTY_SETTINGS
@given(st.one_of(grouped_forms(), threshold_forms()))
def test_decomposition_reality_is_the_adjoint_label(form):
    # both read the one eigensolve's 2K eigenvalues by the same rule, never frequencies
    # re-derived from them, so away from an EP the two labels cannot differ
    assert decompose(form).reality is classify_reality(adjoint_rep(form))


@st.composite
def scaled_forms(draw):
    """Random K = 1-3 form with max|G| spread over 1e-3 to 1e3."""
    n_modes = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return QuadraticForm(BosonBasis(n_modes), scale * random_symmetric(rng, 2 * n_modes))


@PROPERTY_SETTINGS
@given(scaled_forms())
def test_adjoint_action_holds_on_the_interior(form):
    # [H, O_i] = sum_j h[j,i] O_j is exact before truncation, and the truncated
    # products are exact on states two levels below the cutoff
    cutoff = {1: 12, 2: 6, 3: 4}[form.basis.n_modes]
    report = verify_adjoint_action(form, FockTruncation(form.basis.n_modes, cutoff))
    assert max(report.interior_residuals) < 64 * EPS * np.max(np.abs(form.coeffs)) * cutoff ** 1.5


@st.composite
def exchange_symmetric_forms(draw):
    """(form, kind, truncation): a random K = 2-3 form unchanged by swapping modes 1 and 2.

    kind "real" has real coefficients made Hermitian by a number scaling that is the
    same in both swapped modes, so the oracle balances it; "complex" has complex
    ones that no scaling balances, so its blocks are solved by eigvals; "identical"
    is K copies of one oscillator, equally coupled, whose levels repeat.
    """
    n_modes = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["real", "complex", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cutoff = draw(st.integers(3, 9) if n_modes == 2 else st.integers(3, 5))
    k = n_modes
    swap = np.r_[1, 0, 2:k]
    swap = np.concatenate([swap, swap + k])
    bar = np.roll(np.arange(2 * k), k)
    if kind == "identical":
        omega, squeeze, ratio, coupling = rng.uniform(0.5, 1.5), *rng.uniform(0.0, 0.1, 3)
        g = np.zeros((2 * k, 2 * k))
        g[:k, :k] = squeeze * np.eye(k)
        g[k:, k:] = ratio * np.eye(k)
        g[:k, k:] = g[k:, :k] = coupling * (1 - np.eye(k)) + 0.5 * omega * np.eye(k)
        return QuadraticForm(BosonBasis(k), g), kind, FockTruncation(k, cutoff)
    m = random_symmetric(rng, 2 * k)
    if kind == "real":
        m = m.real
    m = 0.5 * (m + m[np.ix_(swap, swap)])
    if kind == "complex":
        return QuadraticForm(BosonBasis(k), m, complex(*rng.normal(size=2))), kind, \
            FockTruncation(k, cutoff)
    h = 0.5 * (m + m[np.ix_(bar, bar)])
    log_r = rng.uniform(-0.3, 0.3, k)
    log_r[1] = log_r[0]
    s = np.exp(np.concatenate([-log_r, log_r]))
    return QuadraticForm(BosonBasis(k), h / np.outer(s, s), float(rng.normal())), kind, \
        FockTruncation(k, cutoff)


def matched_distance(a, b):
    """Largest distance between two spectra paired by an optimal matching."""
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(np.max(dist[rows, cols]))


@PROPERTY_SETTINGS
@given(exchange_symmetric_forms())
def test_exchange_sectors_hold_the_parity_block_spectrum(case):
    # the sectors of each parity block together hold its full spectrum; a balanced
    # form's sectors are exactly Hermitian, and the oracle solves them in place of the block
    form, kind, trunc = case
    perm = fock._mode_exchange(form)
    assert perm is not None
    balanced = fock._hermitian_balance(form, perm)
    assert (balanced is None) == (kind == "complex")
    rows, cols, values, _ = fock.assemble(form if balanced is None else balanced, trunc)
    solved = []
    for unit, split in fock._blocks(trunc, perm):
        size = unit[2]
        whole = oracle_eigenvalues(fock._fold(rows, cols, values, unit, balanced is not None))
        parts = []
        for sector in split:
            block = fock._fold(rows, cols, values, sector, balanced is not None)
            matrix = fock._dense(*block)
            assert np.array_equal(matrix, matrix.conj().T) == (balanced is not None)
            parts.append(oracle_eigenvalues(block))
        union = np.concatenate(parts)
        assert union.size == size
        assert matched_distance(union, whole) <= 1e-12 * np.max(np.abs(whole))
        solved += parts
    spectrum = fock._parity_eigenvalues(form, trunc, 1, balanced, perm)
    assert np.array_equal(spectrum, np.sort(np.concatenate(solved), kind="stable"))


@pytest.mark.parametrize("params,cutoff,sectors_fit", [
    # balanced: blocks of 1250 states, sectors of 625 + 625 (even: 50 fixed |n,n>, 600 pairs)
    pytest.param((0.1, 0.2, 0.3), 50, False, id="balanced-cutoff-50"),
    # complex alpha, no balance: blocks of 545 and 544 states, sectors of 289 + 256, 272 + 272
    pytest.param((0.1 + 0.05j, 0.2, 0.3), 33, False, id="unbalanced-cutoff-33"),
    # sectors that fit, of blocks Arnoldi solves faster than full solves of the sectors:
    # no balance, 313 + 312 states in sectors of at most 169
    pytest.param((-0.1, 0.2, 0.3), 25, True, id="unbalanced-real-cutoff-25"),
    # balanced but complex, 800 + 800 states in sectors of at most 420
    pytest.param((0.1 + 0.05j, 0.2 - 0.1j, 0.3), 40, True, id="balanced-complex-cutoff-40"),
])
def test_block_above_the_full_solve_limit_is_solved_whole(monkeypatch, params, cutoff,
                                                          sectors_fit):
    # whole, by Arnoldi as without the exchange, where its sectors exceed the full-solve
    # limit, and where they fit but would go to dense eigvals or complex eigvalsh
    form, trunc = two_mode(TwoModeParams(*params)), FockTruncation(2, cutoff)
    perm = fock._mode_exchange(form)
    balanced = fock._hermitian_balance(form, perm)
    limit = fock._DENSE_BLOCK_MAX if balanced is None else fock._HERMITIAN_BLOCK_MAX
    sizes = [whole[2] for whole, _ in fock._blocks(trunc, perm)]
    assert perm == (1, 0) and min(sizes) > limit
    assert all((max(sector[2] for sector in split) <= limit) == sectors_fit
               for _, split in fock._blocks(trunc, perm))
    blocks, arnoldi = [], []
    solve, lowest = fock.oracle_eigenvalues, fock._lowest_by_arnoldi
    monkeypatch.setattr(fock, "oracle_eigenvalues",
                        lambda block, count=None: blocks.append((block[3], count))
                        or solve(block, count))
    monkeypatch.setattr(fock, "_lowest_by_arnoldi",
                        lambda matrix, k: arnoldi.append((matrix.shape[0], k))
                        or lowest(matrix, k))
    fock._parity_eigenvalues(form, trunc, 5, balanced, perm)
    assert blocks == [(size, 5) for size in sizes]
    assert arnoldi == [(size, 6) for size in sizes]
