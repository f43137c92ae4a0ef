"""Property tests of the ladder decomposition over random K-mode forms, K <= 6.

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
from hypothesis import given, settings, strategies as st

from quadboson import (BosonBasis, QuadraticForm, adjoint_rep, commutator_matrix, decompose,
                       eigenpairs)
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
