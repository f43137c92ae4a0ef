import numpy as np
import pytest
import scipy.linalg as sla

from quadboson import (
    BosonBasis,
    ExceptionalPointError,
    OneModeParams,
    TwoModeParams,
    adjoint_rep,
    bogoliubov_map,
    commutator_linear,
    commutator_matrix,
    decompose,
    eigenpairs,
    generator_coeffs,
    one_mode,
    one_mode_ladders,
    one_mode_lambdas,
    spectrum,
    transform_form,
    two_mode,
    two_mode_ep_locus,
    two_mode_ladders,
    two_mode_lambdas,
    CanonicalMap,
    NonCanonicalMapError,
)
from form_helpers import mpmath_generator

ROOT_04 = 0.6324555320336759  # sqrt(0.4)


def random_one_mode(rng, bound=1.5):
    return OneModeParams(
        complex(*rng.uniform(-bound, bound, 2)),
        complex(*rng.uniform(-bound, bound, 2)),
    )


class TestOneMode:
    def test_coefficients(self):
        form = one_mode(OneModeParams(0.3, 0.5))
        assert np.allclose(form.coeffs, [[0.3, 0.5], [0.5, 0.5]], atol=1e-15)
        assert form.offset == 0.0

    def test_adjoint_matrix(self):
        alpha, beta = 0.2 + 0.4j, -0.7
        rep = adjoint_rep(one_mode(OneModeParams(alpha, beta)))
        assert np.allclose(rep, [[-1.0, 2 * alpha], [-2 * beta, 1.0]], atol=1e-15)

    def test_harmonic_limit(self):
        form = one_mode(OneModeParams(0.0, 0.0))
        assert np.allclose(form.coeffs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


class TestOneModeLambdas:
    def test_reference_point(self):
        lo, hi = one_mode_lambdas(OneModeParams(0.3, 0.5))
        assert abs(lo + ROOT_04) < 1e-15
        assert abs(hi - ROOT_04) < 1e-15

    def test_harmonic(self):
        assert one_mode_lambdas(OneModeParams(0.0, 0.0)) == (-1.0, 1.0)

    def test_exceptional_point_collapses(self):
        lo, hi = one_mode_lambdas(OneModeParams(0.5, 0.5))
        assert lo == 0.0 and hi == 0.0

    def test_agrees_with_eigensolver(self, rng):
        for _ in range(300):
            params = random_one_mode(rng)
            lo, hi = one_mode_lambdas(params)
            try:
                ladders = eigenpairs(adjoint_rep(one_mode(params)))
            except ExceptionalPointError:
                continue
            assert abs(ladders[0].eigenvalue - lo) < 1e-10
            assert abs(ladders[1].eigenvalue - hi) < 1e-10


class TestOneModeLadders:
    def test_component_ratio(self):
        z1, z2 = one_mode_ladders(OneModeParams(0.3, 0.5))
        ratio = z1.coeffs[1] / z1.coeffs[0]
        assert abs(ratio - (1 - ROOT_04) / 0.6) < 1e-12
        assert abs(ratio - 0.6125741132772069) < 1e-12

    def test_fallback_at_alpha_zero(self):
        z1, z2 = one_mode_ladders(OneModeParams(0.0, 0.0))
        assert np.allclose(np.abs(z1.coeffs), [1.0, 0.0], atol=1e-14)
        assert np.allclose(np.abs(z2.coeffs), [0.0, 1.0], atol=1e-14)

    def test_commutator_is_one(self, rng):
        u = commutator_matrix(BosonBasis(1))
        for _ in range(100):
            params = random_one_mode(rng)
            if params.alpha == 0 or 1.0 - 4.0 * params.alpha * params.beta == 0:
                continue
            z1, z2 = one_mode_ladders(params)
            assert abs(commutator_linear(z1.coeffs, z2.coeffs, u) - 1.0) < 1e-10

    def test_eigenvector_property(self):
        params = OneModeParams(0.3 - 0.2j, 0.8)
        rep = adjoint_rep(one_mode(params))
        for op in one_mode_ladders(params):
            scale = np.linalg.norm(rep, np.inf) * max(1.0, np.max(np.abs(op.coeffs)))
            assert op.residual(rep) < 1e-12 * scale

    def test_exceptional_point_raises(self):
        with pytest.raises(ExceptionalPointError):
            one_mode_ladders(OneModeParams(0.5, 0.5))

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9, 1e-12])
    def test_eigenvector_property_at_small_alpha(self, alpha):
        # a closed form that divides by alpha loses digits as alpha -> 0
        params = OneModeParams(alpha, 0.5)
        rep = adjoint_rep(one_mode(params))
        for op in one_mode_ladders(params):
            scale = np.linalg.norm(rep, np.inf) * max(1.0, np.max(np.abs(op.coeffs)))
            assert op.residual(rep) < 1e-12 * scale


class TestBogoliubovMap:
    def test_reference_matrix(self):
        cmap = bogoliubov_map(OneModeParams(0.3, 0.5), 1.0)
        expected = [[1.0, -0.7905694150420949], [-0.3675444679663241, 1.2905694150420948]]
        assert np.allclose(cmap.matrix, expected, atol=1e-12)
        assert abs(np.linalg.det(cmap.matrix) - 1.0) < 1e-12

    def test_three_conditions(self, rng):
        for _ in range(100):
            params = random_one_mode(rng)
            disc = 1.0 - 4.0 * params.alpha * params.beta
            if params.beta == 0 or (disc.imag == 0 and disc.real <= 0):
                continue
            s11 = rng.uniform(0.2, 3.0)
            s = bogoliubov_map(params, s11).matrix
            alpha, beta = params.alpha, params.beta
            assert abs(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] - 1.0) < 1e-10
            assert abs(alpha * s[0, 0] ** 2 + beta * s[1, 0] ** 2 + s[0, 0] * s[1, 0]) < 1e-10
            assert abs(alpha * s[0, 1] ** 2 + beta * s[1, 1] ** 2 + s[0, 1] * s[1, 1]) < 1e-10
            assert bogoliubov_map(params, s11).defect() < 1e-10

    def test_transform_reaches_number_form(self):
        params = OneModeParams(0.3, 0.5)
        out = transform_form(one_mode(params), bogoliubov_map(params, 1.0))
        assert abs(out.coeffs[0, 0]) < 1e-12 and abs(out.coeffs[1, 1]) < 1e-12
        assert abs(out.coeffs[0, 1] - ROOT_04 / 2) < 1e-12

    def test_transform_structure_for_random_parameters(self, rng):
        for _ in range(60):
            params = random_one_mode(rng)
            disc = 1.0 - 4.0 * params.alpha * params.beta
            if params.beta == 0 or (disc.imag == 0 and disc.real <= 0):
                continue
            cmap = bogoliubov_map(params, rng.uniform(0.3, 2.0))
            out = transform_form(one_mode(params), cmap)
            assert abs(out.coeffs[0, 0]) < 1e-10
            assert abs(out.coeffs[1, 1]) < 1e-10
            assert abs(out.coeffs[0, 1] - np.sqrt(disc) / 2.0) < 1e-10

    def test_exceptional_point_raises(self):
        with pytest.raises(ExceptionalPointError, match="1/4"):
            bogoliubov_map(OneModeParams(0.5, 0.5), 1.0)
        with pytest.raises(ExceptionalPointError):
            bogoliubov_map(OneModeParams(0.25, 1.0), 1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.2 + 0.1j])
    def test_beta_zero_map_is_canonical(self, alpha):
        s = bogoliubov_map(OneModeParams(alpha, 0.0), 1.0).matrix
        assert abs(np.linalg.det(s) - 1.0) < 1e-12
        assert abs(alpha * s[0, 0] ** 2 + s[0, 0] * s[1, 0]) < 1e-12
        assert abs(alpha * s[0, 1] ** 2 + s[0, 1] * s[1, 1]) < 1e-12

    def test_gauge_validation(self):
        params = OneModeParams(0.3, 0.5)
        with pytest.raises(ValueError, match="positive real"):
            bogoliubov_map(params, -1.0)
        with pytest.raises(ValueError, match="positive real"):
            bogoliubov_map(params, 0.0)
        with pytest.raises(ValueError, match="positive real"):
            bogoliubov_map(params, 1.0 + 0.5j)

    def test_negative_real_branch_rejected(self):
        with pytest.raises(ValueError, match="negative real axis"):
            bogoliubov_map(OneModeParams(1.0, 1.0), 1.0)

    def test_spectrum_invariant_under_transform(self, rng):
        for _ in range(25):
            params = random_one_mode(rng)
            disc = 1.0 - 4.0 * params.alpha * params.beta
            if params.beta == 0 or (disc.imag == 0 and disc.real <= 0):
                continue
            form = one_mode(params)
            cmap = bogoliubov_map(params, rng.uniform(0.3, 2.0))
            before = decompose(form)
            after = decompose(transform_form(form, cmap))
            levels_a = sorted(
                (spectrum(before, [n]) for n in range(6)),
                key=lambda z: (z.real, z.imag),
            )
            levels_b = sorted(
                (spectrum(after, [n]) for n in range(6)),
                key=lambda z: (z.real, z.imag),
            )
            dev = max(abs(a - b) for a, b in zip(levels_a, levels_b))
            assert dev < 1e-10


class TestGenerator:
    def test_identity_map_gives_zero(self):
        q_rep = adjoint_rep(generator_coeffs(CanonicalMap(np.eye(2))))
        assert np.max(np.abs(q_rep)) == 0.0

    def test_exponential_roundtrip(self):
        cmap = bogoliubov_map(OneModeParams(0.3, 0.5), 1.0)
        q_rep = adjoint_rep(generator_coeffs(cmap))
        assert np.max(np.abs(sla.expm(q_rep) - cmap.matrix.T)) < 1e-10

    def test_exponential_roundtrip_for_random_maps(self, rng):
        # S^t = exp(2 G u): the generator's coefficients must rebuild the map they came from
        u = commutator_matrix(BosonBasis(1))
        checked = 0
        for _ in range(50):
            params = random_one_mode(rng)
            disc = 1.0 - 4.0 * params.alpha * params.beta
            if params.beta == 0 or (disc.imag == 0 and disc.real <= 0):
                continue
            cmap = bogoliubov_map(params, rng.uniform(0.3, 2.0))
            eig = np.linalg.eigvals(cmap.matrix)
            if np.any((np.abs(eig.imag) < 1e-12) & (eig.real <= 0)):
                continue
            st = cmap.matrix.T
            rebuilt = sla.expm(2.0 * generator_coeffs(cmap).coeffs @ u)
            assert np.max(np.abs(rebuilt - st)) <= 1e-12 * np.max(np.abs(st))
            checked += 1
        assert checked >= 40

    def test_negative_axis_eigenvalue_rejected(self):
        cmap = CanonicalMap(np.array([[-2.0, 0.0], [0.0, -0.5]]))
        assert cmap.defect() < 1e-15
        with pytest.raises(ValueError, match="s11 gauge"):
            adjoint_rep(generator_coeffs(cmap))

    def test_two_mode_map_refused(self):
        with pytest.raises(ValueError, match="one-mode"):
            generator_coeffs(CanonicalMap(np.eye(4)))

    def test_non_unit_determinant_refused(self):
        # for a 2x2 map S u S^t = det(S) u, so the canonical check is the determinant's
        with pytest.raises(NonCanonicalMapError):
            generator_coeffs(CanonicalMap(2.0 * np.eye(2)))


def relative_gap(cmap, expected):
    return np.max(np.abs(generator_coeffs(cmap).coeffs - expected)) / np.max(np.abs(expected))


class TestGeneratorClosedForm:
    """generator_coeffs against mpmath logarithms of at least 100 digits."""

    def test_random_maps(self, rng):
        # by mpmath's eigendecomposition: 200 calls of mpmath.logm take about 16 s
        gaps = []
        while len(gaps) < 200:
            try:
                cmap = bogoliubov_map(random_one_mode(rng), np.exp(rng.uniform(-3.0, 3.0)))
                generator_coeffs(cmap)
            except (ExceptionalPointError, ValueError):  # negative-axis disc or eigenvalue
                continue
            gaps.append(relative_gap(cmap, mpmath_generator(cmap.matrix.T, diagonalize=True)))
        assert max(gaps) <= 1e-13

    @pytest.mark.parametrize("s11", [1e-150, 1e-20, 1e20, 1e150])
    def test_extreme_gauges(self, s11):
        # scipy's logm lost every digit from s11 = 1e-20 down; the map's entries
        # span s11^2, so the reference needs about 2 |log10 s11| more digits
        cmap = bogoliubov_map(OneModeParams(0.3, 0.5), s11)
        digits = 100 + 2 * round(abs(np.log10(s11)))
        assert relative_gap(cmap, mpmath_generator(cmap.matrix.T, digits)) <= 1e-13

    def test_parabolic(self):
        for t in (1e-8, 0.7, 50.0):  # theta = 0: the series branch
            cmap = CanonicalMap(np.array([[1.0, t], [0.0, 1.0]]))
            assert relative_gap(cmap, mpmath_generator(cmap.matrix.T)) <= 1e-13

    def test_elliptic_near_minus_identity(self):
        # a float rotation's determinant is 1 only to round-off, which moves the
        # logarithm by about eps / (1 + cos phi); the second map is exactly unimodular
        phi, eps = 3.1, 2.0 ** -20
        rotation = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        for matrix in (rotation, np.array([[-1.0, 1.0], [-eps, -1.0 + eps]])):
            cmap = CanonicalMap(matrix)
            expected = mpmath_generator(cmap.matrix.T, diagonalize=True)
            assert relative_gap(cmap, expected) <= 1e-13


class TestTwoMode:
    def test_adjoint_matches_known_pattern(self):
        rep = adjoint_rep(two_mode(TwoModeParams(1.0, 2.0, 3.0)))
        expected = [
            [-1.0, -3.0, 2.0, 0.0],
            [-3.0, -1.0, 0.0, 2.0],
            [-4.0, 0.0, 1.0, 3.0],
            [0.0, -4.0, 3.0, 1.0],
        ]
        assert np.allclose(rep, expected, atol=1e-15)

    def test_constant_term_absorbed(self):
        assert two_mode(TwoModeParams(0.1, 0.2, 0.3)).offset == 0.0

    def test_gamma_zero_decouples(self):
        form = two_mode(TwoModeParams(0.2, 0.4, 0.0))
        single = one_mode(OneModeParams(0.2, 0.4)).coeffs
        g = form.coeffs
        for block in (g[np.ix_([0, 2], [0, 2])], g[np.ix_([1, 3], [1, 3])]):
            assert np.allclose(block, single, atol=1e-15)
        assert np.allclose(g[np.ix_([0, 2], [1, 3])], 0.0, atol=1e-15)

    def test_double_harmonic(self):
        decomp = decompose(two_mode(TwoModeParams(0.0, 0.0, 0.0)))
        assert np.allclose(decomp.frequencies, [1.0, 1.0], atol=1e-14)
        assert abs(decomp.ground_energy - 1.0) < 1e-14


class TestTwoModeLambdas:
    def test_reference_point(self):
        values = two_mode_lambdas(TwoModeParams(0.1, 0.2, 0.3))
        expected = (-1.2688577540449522, -0.6403124237432849,
                    0.6403124237432849, 1.2688577540449522)
        assert np.max(np.abs(np.array(values) - expected)) < 1e-15

    def test_gamma_zero_recovers_one_mode(self, rng):
        for _ in range(50):
            params = random_one_mode(rng)
            lo, hi = one_mode_lambdas(params)
            values = two_mode_lambdas(TwoModeParams(params.alpha, params.beta, 0.0))
            assert abs(values[0] - lo) < 1e-12 and abs(values[1] - lo) < 1e-12
            assert abs(values[2] - hi) < 1e-12 and abs(values[3] - hi) < 1e-12

    def test_uncoupled_harmonic_pair(self):
        values = two_mode_lambdas(TwoModeParams(0.0, 0.0, 0.3))
        assert np.allclose(values, [-1.3, -0.7, 0.7, 1.3], atol=1e-15)

    def test_agrees_with_eigensolver(self, rng):
        for _ in range(300):
            params = TwoModeParams(
                complex(*rng.uniform(-1.5, 1.5, 2)),
                complex(*rng.uniform(-1.5, 1.5, 2)),
                rng.uniform(-2.0, 2.0),
            )
            closed = np.array(two_mode_lambdas(params))
            closed = closed[np.lexsort((closed.imag, closed.real))]
            try:
                ladders = eigenpairs(adjoint_rep(two_mode(params)))
            except ExceptionalPointError:
                continue
            got = np.array([op.eigenvalue for op in ladders])
            got = got[np.lexsort((got.imag, got.real))]
            assert np.max(np.abs(got - closed)) < 1e-10


class TestTwoModeLadders:
    def test_conjugate_commutators(self):
        u = commutator_matrix(BosonBasis(2))
        z1, z2, z3, z4 = two_mode_ladders(TwoModeParams(0.1, 0.2, 0.3))
        assert abs(commutator_linear(z1.coeffs, z4.coeffs, u) - 1.0) < 1e-12
        assert abs(commutator_linear(z2.coeffs, z3.coeffs, u) - 1.0) < 1e-12

    def test_non_conjugate_pairs_commute(self):
        u = commutator_matrix(BosonBasis(2))
        z1, z2, z3, z4 = two_mode_ladders(TwoModeParams(0.1, 0.2, 0.3))
        assert abs(commutator_linear(z1.coeffs, z2.coeffs, u)) < 1e-12
        assert abs(commutator_linear(z1.coeffs, z3.coeffs, u)) < 1e-12
        assert abs(commutator_linear(z2.coeffs, z4.coeffs, u)) < 1e-12

    def test_eigenvector_property(self):
        params = TwoModeParams(0.1, 0.2, 0.3)
        rep = adjoint_rep(two_mode(params))
        for op in two_mode_ladders(params):
            scale = np.linalg.norm(rep, np.inf) * max(1.0, np.max(np.abs(op.coeffs)))
            assert op.residual(rep) < 1e-12 * scale

    def test_gamma_zero_symmetric_sector_matches_one_mode(self):
        alpha, beta = 0.15, 0.35
        z1, _, _, z4 = two_mode_ladders(TwoModeParams(alpha, beta, 0.0))
        one_z1, one_z2 = one_mode_ladders(OneModeParams(alpha, beta))
        # symmetric combination (a1 + a2) carries the one-mode component ratio
        assert abs(z1.coeffs[2] / z1.coeffs[0] - one_z1.coeffs[1] / one_z1.coeffs[0]) < 1e-12
        assert abs(z4.coeffs[2] / z4.coeffs[0] - one_z2.coeffs[1] / one_z2.coeffs[0]) < 1e-12

    def test_fallback_at_alpha_zero(self):
        u = commutator_matrix(BosonBasis(2))
        z1, z2, z3, z4 = two_mode_ladders(TwoModeParams(0.0, 0.3, 0.4))
        assert abs(commutator_linear(z1.coeffs, z4.coeffs, u) - 1.0) < 1e-10
        assert abs(commutator_linear(z2.coeffs, z3.coeffs, u) - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9, 1e-12])
    def test_eigenvector_property_at_small_alpha(self, alpha):
        params = TwoModeParams(alpha, 0.5, 0.3)
        rep = adjoint_rep(two_mode(params))
        for op in two_mode_ladders(params):
            scale = np.linalg.norm(rep, np.inf) * max(1.0, np.max(np.abs(op.coeffs)))
            assert op.residual(rep) < 1e-12 * scale

    @pytest.mark.parametrize("gamma", [-1.7, -0.4, 1.4])
    def test_alpha_zero_follows_lambdas_in_order(self, gamma):
        params = TwoModeParams(0.0, 0.3, gamma)
        ladders = two_mode_ladders(params)
        assert np.allclose([z.eigenvalue for z in ladders], two_mode_lambdas(params),
                           rtol=0.0, atol=1e-15)
        u = commutator_matrix(BosonBasis(2))
        comm = np.array([[commutator_linear(a.coeffs, b.coeffs, u) for b in ladders]
                         for a in ladders])
        assert abs(comm[0, 3] - 1.0) < 1e-12 and abs(comm[1, 2] - 1.0) < 1e-12
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert abs(comm[i, j]) < 1e-12

    def test_vanishing_frequency_raises(self):
        with pytest.raises(ExceptionalPointError):
            two_mode_ladders(TwoModeParams(0.25, 0.25, 0.5))


def test_closed_forms_at_random_points(rng):
    # eigenvector property and phase convention, on both sides of |gamma| = 1
    for _ in range(100):
        alpha, beta = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        gamma = rng.uniform(-2.0, 2.0)
        for form, ladders in (
            (one_mode(OneModeParams(alpha, beta)), one_mode_ladders(OneModeParams(alpha, beta))),
            (two_mode(TwoModeParams(alpha, beta, gamma)),
             two_mode_ladders(TwoModeParams(alpha, beta, gamma))),
        ):
            rep = adjoint_rep(form)
            for op in ladders:
                scale = np.linalg.norm(rep, np.inf) * max(1.0, np.max(np.abs(op.coeffs)))
                assert op.residual(rep) < 1e-12 * scale
                if op.role == "lowering":
                    assert abs(np.linalg.norm(op.coeffs) - 1.0) < 1e-15
                    assert op.coeffs[0].real > 0.0 and abs(op.coeffs[0].imag) < 1e-15


def test_closed_forms_need_no_eigensolver(monkeypatch):
    # a cross-check of decompose must not call the eigensolver it checks
    def refuse(*args, **kwargs):
        raise AssertionError("closed form called an eigensolver")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    one_mode_ladders(OneModeParams(0.0, 0.3))
    for gamma in (-1.7, -0.4, 0.0, 0.4, 1.4):
        two_mode_ladders(TwoModeParams(0.0, 0.3, gamma))


class TestEpLocus:
    def test_gamma_zero_matches_one_mode(self):
        assert two_mode_ep_locus(0.0) == (0.25, 0.25)

    def test_gamma_one(self):
        assert two_mode_ep_locus(1.0) == (1.0, 0.0)

    def test_gamma_half(self):
        assert two_mode_ep_locus(0.5) == (0.5625, 0.0625)


class TestTwoModeParams:
    def test_gamma_real_validation(self):
        with pytest.raises(ValueError, match="must be real"):
            TwoModeParams(0.1, 0.2, 0.3 + 0.1j)
