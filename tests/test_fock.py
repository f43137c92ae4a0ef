import numpy as np
import pytest

from quadboson import (
    BosonBasis,
    CanonicalMap,
    FockTruncation,
    OneModeParams,
    QuadraticForm,
    Reality,
    TwoModeParams,
    assemble,
    bogoliubov_map,
    decompose,
    fock_matrices,
    one_mode,
    oracle_eigenvalues,
    predicted_levels,
    two_mode,
    verify_adjoint_action,
    verify_metric,
    verify_spectrum,
)

ROOT_04 = np.sqrt(0.4)


class TestFockMatrices:
    def test_single_mode_annihilator(self):
        a = fock_matrices(FockTruncation(1, 3))[0]
        expected = [[0.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)], [0.0, 0.0, 0.0]]
        assert np.allclose(a, expected, atol=1e-15)

    def test_creator_is_transpose(self):
        a, ad = fock_matrices(FockTruncation(1, 6))
        assert np.array_equal(ad, a.T)

    def test_truncated_commutator_corner(self):
        nmax = 7
        a, ad = fock_matrices(FockTruncation(1, nmax))
        comm = a @ ad - ad @ a
        expected = np.eye(nmax)
        expected[-1, -1] = 1 - nmax
        assert np.allclose(comm, expected, atol=1e-13)

    def test_two_mode_kron_ordering(self):
        trunc = FockTruncation(2, 4)
        ops = fock_matrices(trunc)
        single = fock_matrices(FockTruncation(1, 4))[0]
        eye = np.eye(4)
        assert np.array_equal(ops[0], np.kron(single, eye))
        assert np.array_equal(ops[1], np.kron(eye, single))
        assert np.array_equal(ops[2], ops[0].T)
        assert np.array_equal(ops[3], ops[1].T)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="feasible cutoff"):
            FockTruncation(2, 100)
        FockTruncation(2, 100, cap=10001)  # raised cap admits it

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(1, 1)


class TestAssemble:
    def test_harmonic_is_diagonal(self):
        form = one_mode(OneModeParams(0.0, 0.0))
        mat = assemble(form, FockTruncation(1, 10))
        interior = np.arange(9)
        assert np.allclose(np.diag(mat)[interior], interior + 0.5, atol=1e-14)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) == 0.0

    def test_swanson_couples_levels_two_apart(self):
        form = one_mode(OneModeParams(0.3, 0.5))
        mat = assemble(form, FockTruncation(1, 12))
        nz = np.argwhere(np.abs(mat) > 1e-14)
        assert set(np.unique(nz[:, 0] - nz[:, 1])) == {-2, 0, 2}

    def test_hermitian_iff_conjugate_parameters(self):
        herm = assemble(
            one_mode(OneModeParams(0.3 + 0.2j, 0.3 - 0.2j)), FockTruncation(1, 15)
        )
        assert np.max(np.abs(herm - herm.conj().T)) < 1e-13
        nonherm = assemble(one_mode(OneModeParams(0.3, 0.5)), FockTruncation(1, 15))
        assert np.max(np.abs(nonherm - nonherm.conj().T)) > 0.1

    def test_offset_enters_diagonal(self):
        basis = BosonBasis(1)
        form = QuadraticForm(basis, np.zeros((2, 2)), offset=2.5)
        mat = assemble(form, FockTruncation(1, 4))
        assert np.allclose(mat, 2.5 * np.eye(4), atol=1e-15)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="mode"):
            assemble(one_mode(OneModeParams(0.0, 0.0)), FockTruncation(2, 5))


class TestOracleEigenvalues:
    def test_diagonal_matrix(self):
        values = oracle_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0], atol=1e-15)

    def test_harmonic_oscillator_levels(self):
        mat = assemble(one_mode(OneModeParams(0.0, 0.0)), FockTruncation(1, 40))
        values = oracle_eigenvalues(mat)
        assert np.max(np.abs(values[:20] - (np.arange(20) + 0.5))) < 1e-12

    def test_adjoint_matrix_self_test(self):
        # the 2x2 adjoint matrix itself doubles as an eigensolver check
        alpha, beta = 0.3, 0.5
        mat = np.array([[-1.0, 2 * alpha], [-2 * beta, 1.0]])
        values = oracle_eigenvalues(mat)
        assert np.allclose(values, [-ROOT_04, ROOT_04], atol=1e-14)

    def test_sort_order(self):
        values = oracle_eigenvalues(np.diag([1.0 + 1.0j, 1.0 - 1.0j, 0.5]))
        assert values[0] == 0.5
        assert values[1] == 1.0 - 1.0j

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            oracle_eigenvalues(np.zeros((2, 3)))


class TestPredictedLevels:
    def test_two_mode_ordering(self):
        decomp = decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        wp, wm = decomp.frequencies
        levels = predicted_levels(decomp, 4)
        expected = sorted(
            (wp * (n1 + 0.5) + wm * (n2 + 0.5)).real
            for n1 in range(5) for n2 in range(5)
        )[:4]
        assert np.allclose(levels.real, expected, atol=1e-12)


class TestVerifySpectrum:
    def test_one_mode_reference(self):
        form = one_mode(OneModeParams(0.3, 0.5))
        decomp = decompose(form)
        report = verify_spectrum(form, decomp, 5, FockTruncation(1, 60), tol=1e-6)
        assert report.comparable and report.converged
        assert report.max_deviation < 1e-6
        predicted = np.array([row[0] for row in report.matched])
        assert np.allclose(predicted, ROOT_04 * (np.arange(5) + 0.5), atol=1e-12)
        assert report.passed

    def test_harmonic_is_exact(self):
        form = one_mode(OneModeParams(0.0, 0.0))
        report = verify_spectrum(form, decompose(form), 8, FockTruncation(1, 40), tol=1e-12)
        assert report.max_deviation < 1e-12
        assert report.passed

    def test_two_mode_small_truncation(self):
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        report = verify_spectrum(form, decompose(form), 3, FockTruncation(2, 12), tol=1e-4)
        assert report.passed
        assert report.max_deviation < 1e-4

    def test_ground_energy_matches_oracle(self):
        form = one_mode(OneModeParams(0.3, 0.5))
        decomp = decompose(form)
        values = oracle_eigenvalues(assemble(form, FockTruncation(1, 50)))
        assert abs(values[0] - decomp.ground_energy) < 1e-10

    def test_complex_spectrum_is_report_only(self):
        form = one_mode(OneModeParams(1.0, 1.0))
        decomp = decompose(form)
        assert decomp.reality is Reality.COMPLEX
        report = verify_spectrum(form, decomp, 3, FockTruncation(1, 24))
        assert not report.comparable
        assert not report.passed

    def test_hermitian_input_gives_real_levels(self):
        # conjugate parameters make the assembled matrix Hermitian; the
        # converged low levels must come out real
        form = one_mode(OneModeParams(0.2 + 0.3j, 0.2 - 0.3j))
        values = oracle_eigenvalues(assemble(form, FockTruncation(1, 40)))
        assert np.max(np.abs(values[:10].imag)) < 1e-9

    def test_doubling_of_uncoupled_pair(self):
        # gamma = 0 factorizes: the pair spectrum is all sums of two copies
        single = one_mode(OneModeParams(0.1, 0.2))
        ev1 = oracle_eigenvalues(assemble(single, FockTruncation(1, 14)))
        pair = two_mode(TwoModeParams(0.1, 0.2, 0.0))
        ev2 = oracle_eigenvalues(assemble(pair, FockTruncation(2, 14)))
        sums = np.array([a + b for a in ev1 for b in ev1])
        sums = sums[np.lexsort((sums.imag, sums.real))]
        assert np.max(np.abs(ev2[:8] - sums[:8])) < 1e-10

    def test_levels_validation(self):
        form = one_mode(OneModeParams(0.0, 0.0))
        with pytest.raises(ValueError):
            verify_spectrum(form, decompose(form), 0, FockTruncation(1, 10))


class TestVerifyAdjointAction:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.3, 0.5), (0.0, 0.0), (1.2 + 0.7j, -0.4), (-2.0, 3.0 - 1.0j)],
    )
    def test_interior_residual_is_roundoff(self, alpha, beta):
        # operator identity holds before truncation, whatever the parameters
        form = one_mode(OneModeParams(alpha, beta))
        report = verify_adjoint_action(form, FockTruncation(1, 30))
        assert report.max_interior < 1e-10

    def test_two_mode_interior_residual(self):
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        report = verify_adjoint_action(form, FockTruncation(2, 8))
        assert report.max_interior < 1e-10

    def test_full_residual_lives_in_corner(self):
        # identical check done by hand: all violation sits in rows/columns
        # touching the top two levels
        form = one_mode(OneModeParams(0.3, 0.5))
        trunc = FockTruncation(1, 20)
        report = verify_adjoint_action(form, trunc)
        assert max(report.full_residuals) > 1.0  # corner is corrupted
        assert report.max_interior < 1e-12

    def test_zero_form_is_exact(self):
        form = QuadraticForm(BosonBasis(1), np.zeros((2, 2)))
        report = verify_adjoint_action(form, FockTruncation(1, 10))
        assert max(report.full_residuals) == 0.0


class TestVerifyMetric:
    def test_weak_squeezing_deep_interior(self):
        params = OneModeParams(0.05, 0.05)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 30), interior=10)
        assert report.residual < 1e-8
        assert report.min_metric_eigenvalue > 0.0

    def test_metric_positive_definite_at_reference_point(self):
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 40))
        assert report.interior_size == 38
        assert report.min_metric_eigenvalue > 0.0
        # the metric block is exact, so the residual is round-off on rho's
        # entries, which grow geometrically with the level: larger blocks
        # carry a larger absolute residual
        assert report.residual_profile[2] < 1e-4
        assert report.residual_profile[2] < report.residual_profile[10]

    def test_hermitian_case(self):
        # alpha = beta real: the assembled operator is already Hermitian,
        # so the identity metric works and ours must stay positive
        params = OneModeParams(0.2, 0.2)
        ham = assemble(one_mode(params), FockTruncation(1, 30))
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-13
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 30), interior=10)
        assert report.residual < 1e-9
        assert report.min_metric_eigenvalue > 0.0

    def test_vacuum_element_exact_at_every_cutoff(self):
        # the 1x1 interior block is <0|rho|0> = ||S|0>||^2 = sqrt(8/3) here;
        # an exact metric has no truncation error however small the cutoff
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        for cutoff in range(3, 41):
            report = verify_metric(params, cmap, FockTruncation(1, cutoff), interior=1)
            assert abs(report.min_metric_eigenvalue - np.sqrt(8.0 / 3.0)) < 1e-12

    def test_rejects_map_without_normal_ordered_metric(self):
        # S = exp(b a^dag^2) sends |0> to a non-normalizable state for
        # |b| >= 1/2, so S^dag S has no normal-ordered form
        cmap = CanonicalMap(np.array([[1.0, -1.2], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="normal-ordered"):
            verify_metric(OneModeParams(0.1, 0.1), cmap, FockTruncation(1, 10))

    def test_rejects_parameters_without_a_metric(self):
        # 1 - 4 alpha beta = 0.74 - 0.08j: the frequency is complex, so no
        # rho with rho H = H^dag rho exists
        params = OneModeParams(0.2 + 0.1j, 0.3 - 0.05j)
        with pytest.raises(ValueError, match="not real"):
            verify_metric(params, bogoliubov_map(params, 1.0), FockTruncation(1, 40))
        # complex parameters with a real product keep a metric
        params = OneModeParams(0.3j, -0.5j)
        report = verify_metric(params, bogoliubov_map(params, 1.0), FockTruncation(1, 40))
        assert min(report.residual_profile[2:]) < 1e-6
        assert report.min_metric_eigenvalue > 0.0

    def test_interior_validation(self):
        params = OneModeParams(0.1, 0.1)
        cmap = bogoliubov_map(params, 1.0)
        with pytest.raises(ValueError, match="interior"):
            verify_metric(params, cmap, FockTruncation(1, 20), interior=0)
