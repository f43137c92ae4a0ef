"""Random forms, stacked ladders, the diagonal-form rebuild and an mpmath generator reference
shared by the test modules."""

import numpy as np

from quadboson import BosonBasis, build_quadratic, commutator_matrix


def random_symmetric(rng, size):
    mat = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return 0.5 * (mat + mat.T)


def ladder_blocks(decomp):
    """Lowering and raising coefficient vectors stacked as columns, pair by pair."""
    low = np.column_stack([pair[0].coeffs for pair in decomp.pairs])
    high = np.column_stack([pair[1].coeffs for pair in decomp.pairs])
    return low, high


def reconstruct_form(decomp, basis: BosonBasis):
    """Rebuild the quadratic form from its diagonal ladder representation.

    Expands (freq/2) * (Z_low Z_high + Z_high Z_low) over every pair into
    raw product terms and renormalizes; on a faithful decomposition this
    reproduces the original coefficients and offset.
    """
    terms = []
    for low, high in decomp.pairs:
        freq = high.eigenvalue
        for k in range(basis.size):
            for l in range(basis.size):
                coeff = 0.5 * freq * (
                    low.coeffs[k] * high.coeffs[l] + high.coeffs[k] * low.coeffs[l]
                )
                terms.append((k + 1, l + 1, coeff))
    return build_quadratic(basis, terms)


def mpmath_generator(st, digits=100, diagonalize=False):
    """Coefficients -log(st) u / 2 of a one-mode map's generator from an mpmath logarithm.

    The logarithm is taken at `digits` digits by mpmath.logm, or with diagonalize by
    mpmath's eigendecomposition and the scalar principal logarithm: mpmath.logm takes
    about 80 ms per map at 100 digits, and for eigenvalues near -1 it returns a
    non-principal logarithm (at a rotation by 3.1, -i pi I plus the logarithm of minus
    the rotation). Its identity part, the share of a determinant off 1, is dropped, as
    the symmetric coefficients drop it.
    """
    import mpmath

    with mpmath.workdps(digits):
        m = mpmath.matrix(np.asarray(st, dtype=complex).tolist())
        if diagonalize:
            values, vectors = mpmath.eig(m)
            log = vectors * mpmath.diag([mpmath.log(v) for v in values]) * mpmath.inverse(vectors)
        else:
            log = mpmath.logm(m)
        log -= (log[0, 0] + log[1, 1]) / 2 * mpmath.eye(2)
        log = np.array(log.tolist(), dtype=complex)
    return -0.5 * log @ commutator_matrix(BosonBasis(1))
