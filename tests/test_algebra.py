import types

import numpy as np
import pytest
import scipy.linalg as sla

import quadboson
from quadboson import (
    BosonBasis,
    CanonicalMap,
    NonCanonicalMapError,
    QuadraticForm,
    adjoint_rep,
    build_quadratic,
    commutator_linear,
    commutator_matrix,
    transform_form,
)
from form_helpers import random_symmetric


def random_canonical_map(rng, n_modes):
    # exp of a generator in adjoint form is canonical by construction
    basis = BosonBasis(n_modes)
    u = commutator_matrix(basis)
    gen = 0.3 * random_symmetric(rng, basis.size)
    return CanonicalMap(sla.expm(2.0 * gen @ u).T)


class TestCommutatorMatrix:
    def test_one_mode(self):
        u = commutator_matrix(BosonBasis(1))
        assert np.array_equal(u, [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_mode_block_form(self):
        u = commutator_matrix(BosonBasis(2))
        eye = np.eye(2)
        assert np.array_equal(u[:2, 2:], eye)
        assert np.array_equal(u[2:, :2], -eye)
        assert np.array_equal(u[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(u[2:, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 6])
    def test_orthogonal_skew_squares_to_minus_identity(self, n_modes):
        u = commutator_matrix(BosonBasis(n_modes))
        eye = np.eye(2 * n_modes)
        assert np.array_equal(u @ u.T, eye)
        assert np.array_equal(u.T, -u)
        assert np.array_equal(u @ u, -eye)


class TestBuildQuadratic:
    def test_one_mode_number_term(self):
        # a^dag a + alpha a^2 + beta a^dag^2 + 1/2, by hand:
        # a^dag a = (a^dag a + a a^dag)/2 - 1/2
        alpha, beta = 0.3, 0.5
        form = build_quadratic(
            BosonBasis(1), [(2, 1, 1.0), (1, 1, alpha), (2, 2, beta)], offset=0.5
        )
        assert np.allclose(form.coeffs, [[alpha, 0.5], [0.5, beta]], atol=1e-15)
        assert form.offset == 0.0

    def test_empty_terms(self):
        form = build_quadratic(BosonBasis(2), [])
        assert np.array_equal(form.coeffs, np.zeros((4, 4)))
        assert form.offset == 0.0

    def test_two_mode_coupled_terms(self):
        alpha, beta, gamma = 0.1, 0.2, 0.3
        form = build_quadratic(
            BosonBasis(2),
            [
                (3, 1, 1.0), (4, 2, 1.0),
                (1, 1, alpha), (2, 2, alpha),
                (3, 3, beta), (4, 4, beta),
                (1, 4, gamma), (3, 2, gamma),
            ],
            offset=1.0,
        )
        g = gamma / 2.0
        expected = [
            [alpha, 0.0, 0.5, g],
            [0.0, alpha, g, 0.5],
            [0.5, g, beta, 0.0],
            [g, 0.5, 0.0, beta],
        ]
        assert np.allclose(form.coeffs, expected, atol=1e-15)
        assert form.offset == 0.0

    def test_two_mode_adjoint_matches_known_pattern(self):
        # spot values make every entry of 2 G u distinguishable
        alpha, beta, gamma = 1.0, 2.0, 3.0
        form = build_quadratic(
            BosonBasis(2),
            [
                (3, 1, 1.0), (4, 2, 1.0),
                (1, 1, alpha), (2, 2, alpha),
                (3, 3, beta), (4, 4, beta),
                (1, 4, gamma), (3, 2, gamma),
            ],
            offset=1.0,
        )
        expected = [
            [-1.0, -gamma, 2 * alpha, 0.0],
            [-gamma, -1.0, 0.0, 2 * alpha],
            [-2 * beta, 0.0, 1.0, gamma],
            [0.0, -2 * beta, gamma, 1.0],
        ]
        assert np.allclose(adjoint_rep(form), expected, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            build_quadratic(BosonBasis(1), [(3, 1, 1.0)])
        with pytest.raises(IndexError):
            build_quadratic(BosonBasis(1), [(1, 0, 1.0)])

    def test_idempotent_on_symmetric_input(self, rng):
        mat = random_symmetric(rng, 4)
        form = QuadraticForm(BosonBasis(2), mat, offset=0.7 + 0.1j)
        terms = [
            (i + 1, j + 1, form.coeffs[i, j]) for i in range(4) for j in range(4)
        ]
        again = build_quadratic(BosonBasis(2), terms, offset=form.offset)
        assert np.allclose(again.coeffs, form.coeffs, atol=1e-14)
        assert abs(again.offset - form.offset) < 1e-14


class TestQuadraticForm:
    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticForm(BosonBasis(1), [[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            QuadraticForm(BosonBasis(1), np.zeros((3, 3)))

    @pytest.mark.parametrize("coeffs,offset", [
        ([[0.0, np.nan], [1.0, 0.0]], 0.0),  # nan > tol is False: the symmetry check passes it
        ([[np.nan, 0.5], [0.5, 0.0]], 0.0),
        ([[0.0, np.inf], [np.inf, 0.0]], 0.0),
        ([[0.0, 0.5], [0.5, 0.0]], np.nan),
        ([[0.0, 0.5], [0.5, 0.0]], complex(0.0, np.inf)),
    ])
    def test_rejects_non_finite(self, coeffs, offset):
        with pytest.raises(ValueError, match="must be finite"):
            QuadraticForm(BosonBasis(1), coeffs, offset=offset)

    def test_rejects_a_symmetrized_form_that_overflows(self):
        # every entry is finite, but 1e308 + 1e308 in 0.5 (G + G^t) is not
        with pytest.raises(ValueError, match="must be finite"):
            QuadraticForm(BosonBasis(1), [[1e308, 0.5], [0.5, 1e308]])
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticForm(BosonBasis(1), [[0.0, 1e308], [-1e308, 0.0]])
        # a form that is accepted has a finite adjoint matrix 2 G u
        form = QuadraticForm(BosonBasis(1), [[8e307, 0.5], [0.5, 8e307]])
        assert np.all(np.isfinite(adjoint_rep(form)))

    def test_basis_index_helpers(self):
        basis = BosonBasis(2)
        assert basis.size == 4

    @pytest.mark.parametrize("n_modes", [True, False])
    def test_basis_rejects_bool_mode_count(self, n_modes):
        with pytest.raises(ValueError, match="n_modes must be a positive integer"):
            BosonBasis(n_modes)


class TestAdjointRep:
    def test_one_mode_closed_form(self):
        alpha, beta = 0.3 + 0.1j, 0.5 - 0.2j
        form = QuadraticForm(BosonBasis(1), [[alpha, 0.5], [0.5, beta]])
        assert np.allclose(
            adjoint_rep(form), [[-1.0, 2 * alpha], [-2 * beta, 1.0]], atol=1e-15
        )

    def test_zero_form(self):
        form = QuadraticForm(BosonBasis(2), np.zeros((4, 4)))
        assert np.array_equal(adjoint_rep(form), np.zeros((4, 4)))

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_jacobi_symmetry_is_exact(self, rng, n_modes):
        basis = BosonBasis(n_modes)
        u = commutator_matrix(basis)
        for _ in range(25):
            form = QuadraticForm(basis, random_symmetric(rng, basis.size))
            uh = u @ adjoint_rep(form)
            assert np.array_equal(uh, uh.T)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_characteristic_polynomial_is_even(self, rng, n_modes):
        basis = BosonBasis(n_modes)
        for _ in range(25):
            form = QuadraticForm(basis, random_symmetric(rng, basis.size))
            coeffs = np.poly(adjoint_rep(form))
            # odd-degree coefficients sit at odd positions from the end
            scale = np.max(np.abs(coeffs))
            odd = coeffs[-2::-2]
            assert np.max(np.abs(odd)) < 1e-10 * scale


class TestCommutatorLinear:
    def test_canonical_pair(self):
        u = commutator_matrix(BosonBasis(1))
        assert commutator_linear([1.0, 0.0], [0.0, 1.0], u) == 1.0

    def test_antisymmetry_and_self(self, rng):
        u = commutator_matrix(BosonBasis(2))
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(commutator_linear(a, b, u) + commutator_linear(b, a, u)) < 1e-14
        assert abs(commutator_linear(a, a, u)) < 1e-14

    def test_swanson_normalization_product(self):
        # scales with product alpha / sqrt(1 - 4 alpha beta) commute to one
        alpha, beta = 0.3, 0.5
        root = np.sqrt(1 - 4 * alpha * beta)
        u = commutator_matrix(BosonBasis(1))
        z1 = np.array([1.0, (1 - root) / (2 * alpha)])
        z2 = np.array([1.0, (1 + root) / (2 * alpha)]) * (alpha / root)
        assert abs(commutator_linear(z1, z2, u) - 1.0) < 1e-14

    def test_dimension_mismatch(self):
        u = commutator_matrix(BosonBasis(2))
        with pytest.raises(ValueError, match="length 4"):
            commutator_linear([1.0, 0.0], [0.0, 1.0], u)


class TestTransformForm:
    def test_identity_map(self, rng):
        basis = BosonBasis(2)
        form = QuadraticForm(basis, random_symmetric(rng, 4), offset=0.25)
        out = transform_form(form, CanonicalMap(np.eye(4)))
        assert np.allclose(out.coeffs, form.coeffs, atol=1e-15)
        assert out.offset == form.offset

    def test_swanson_map_diagonalizes(self):
        from quadboson import OneModeParams, bogoliubov_map, one_mode

        params = OneModeParams(0.3, 0.5)
        out = transform_form(one_mode(params), bogoliubov_map(params, 1.0))
        half_root = np.sqrt(0.4) / 2.0
        assert np.allclose(
            out.coeffs, [[0.0, half_root], [half_root, 0.0]], atol=1e-12
        )
        assert abs(out.offset) < 1e-12

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_preserves_adjoint_spectrum(self, rng, n_modes):
        basis = BosonBasis(n_modes)
        for _ in range(10):
            form = QuadraticForm(basis, random_symmetric(rng, basis.size))
            cmap = random_canonical_map(rng, n_modes)
            before = np.sort_complex(np.linalg.eigvals(adjoint_rep(form)))
            after = np.sort_complex(np.linalg.eigvals(adjoint_rep(transform_form(form, cmap))))
            scale = max(1.0, np.max(np.abs(before)))
            assert np.max(np.abs(before - after)) < 1e-10 * scale

    def test_rejects_non_canonical_map(self, rng):
        basis = BosonBasis(1)
        form = QuadraticForm(basis, random_symmetric(rng, 2))
        bad = CanonicalMap(np.array([[2.0, 0.0], [0.0, 1.0]]))  # determinant 2
        assert bad.defect() > 0.5
        with pytest.raises(NonCanonicalMapError):
            transform_form(form, bad)

    def test_size_mismatch(self):
        form = QuadraticForm(BosonBasis(1), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            transform_form(form, CanonicalMap(np.eye(4)))


def test_all_names_every_public_attribute():
    # the import list and __all__ name the same things twice; keep them in step
    public = [name for name, value in vars(quadboson).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(quadboson.__all__) == sorted(public)
