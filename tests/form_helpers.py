"""Random forms and the diagonal-form rebuild shared by the test modules."""

from quadboson import BosonBasis, build_quadratic


def random_symmetric(rng, size):
    mat = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return 0.5 * (mat + mat.T)


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
