import numpy as np
import pytest

from quadboson import (
    BosonBasis,
    ExceptionalPointError,
    LadderOperator,
    QuadraticForm,
    Reality,
    adjoint_rep,
    classify_reality,
    commutator_linear,
    commutator_matrix,
    decompose,
    detect_ep,
    eigenpairs,
    normalize_pairs,
    one_mode,
    OneModeParams,
    spectrum,
    two_mode,
    TwoModeParams,
)
from form_helpers import random_symmetric, reconstruct_form

ROOT_04 = np.sqrt(0.4)            # one-mode frequency at alpha=0.3, beta=0.5
ROOT_161 = np.sqrt(1.61)          # two-mode frequencies at alpha=0.1, beta=0.2,
ROOT_041 = np.sqrt(0.41)          # gamma=0.3


def swanson_rep(alpha, beta):
    return np.array([[-1.0, 2 * alpha], [-2 * beta, 1.0]], dtype=complex)


class TestEigenpairs:
    def test_one_mode_closed_form_values(self):
        ladders = eigenpairs(swanson_rep(0.3, 0.5))
        assert abs(ladders[0].eigenvalue + ROOT_04) < 1e-12
        assert abs(ladders[1].eigenvalue - ROOT_04) < 1e-12
        assert ladders[0].role == "lowering"
        assert ladders[1].role == "raising"

    def test_harmonic_oscillator_vectors(self):
        ladders = eigenpairs(swanson_rep(0.0, 0.0))
        assert abs(ladders[0].eigenvalue + 1.0) < 1e-14
        assert abs(ladders[1].eigenvalue - 1.0) < 1e-14
        assert np.allclose(np.abs(ladders[0].coeffs), [1.0, 0.0], atol=1e-14)
        assert np.allclose(np.abs(ladders[1].coeffs), [0.0, 1.0], atol=1e-14)

    def test_two_mode_closed_form_values(self):
        rep = adjoint_rep(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        values = [op.eigenvalue for op in eigenpairs(rep)]
        expected = [-ROOT_161, -ROOT_041, ROOT_041, ROOT_161]
        assert np.max(np.abs(np.array(values) - expected)) < 1e-12

    def test_pairing_layout_and_residuals(self, rng):
        basis = BosonBasis(3)
        rep = adjoint_rep(QuadraticForm(basis, random_symmetric(rng, 6)))
        ladders = eigenpairs(rep)
        scale = np.linalg.norm(rep, np.inf)
        for i in range(3):
            mate = ladders[len(ladders) - 1 - i]
            assert abs(ladders[i].eigenvalue + mate.eigenvalue) < 1e-8 * scale
        for op in ladders:
            assert op.residual(rep) < 1e-9 * scale
            assert abs(np.linalg.norm(op.coeffs) - 1.0) < 1e-12

    def test_eigenvalues_come_in_plus_minus_pairs(self, rng):
        for n_modes in (1, 2, 4):
            basis = BosonBasis(n_modes)
            for _ in range(20):
                rep = adjoint_rep(QuadraticForm(basis, random_symmetric(rng, basis.size)))
                values = np.linalg.eigvals(rep)
                fwd = values[np.lexsort((values.imag, values.real))]
                bwd = -values
                bwd = bwd[np.lexsort((bwd.imag, bwd.real))]
                scale = max(1.0, np.max(np.abs(values)))
                assert np.max(np.abs(fwd - bwd)) < 1e-10 * scale

    def test_defective_matrix_raises_with_report(self):
        with pytest.raises(ExceptionalPointError) as excinfo:
            eigenpairs(swanson_rep(0.5, 0.5))
        report = excinfo.value.report
        assert report is not None and report.defective
        assert report.algebraic_mult == 2
        assert report.geometric_mult == 1

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            eigenpairs(np.zeros((3, 3)))


class TestNormalizePairs:
    def test_one_mode_frequency_and_ground_energy(self):
        decomp = decompose(one_mode(OneModeParams(0.3, 0.5)))
        assert abs(decomp.frequencies[0] - ROOT_04) < 1e-12
        assert abs(decomp.ground_energy - ROOT_04 / 2) < 1e-12
        assert decomp.reality is Reality.ALL_REAL

    def test_harmonic_oscillator(self):
        decomp = decompose(one_mode(OneModeParams(0.0, 0.0)))
        assert abs(decomp.frequencies[0] - 1.0) < 1e-14
        assert abs(decomp.ground_energy - 0.5) < 1e-14

    def test_two_mode_frequencies_descending(self):
        decomp = decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        assert np.allclose(decomp.frequencies, [ROOT_161, ROOT_041], atol=1e-12)
        assert abs(decomp.ground_energy - (ROOT_161 + ROOT_041) / 2) < 1e-12

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_commutator_normalization(self, rng, n_modes):
        basis = BosonBasis(n_modes)
        u = commutator_matrix(basis)
        for _ in range(10):
            form = QuadraticForm(basis, random_symmetric(rng, basis.size))
            decomp = decompose(form)
            ops = [op for pair in decomp.pairs for op in pair]
            for low, high in decomp.pairs:
                assert abs(commutator_linear(low.coeffs, high.coeffs, u) - 1.0) < 1e-9
            for a in ops:
                for b in ops:
                    if abs(a.eigenvalue + b.eigenvalue) > 1e-6:
                        assert abs(commutator_linear(a.coeffs, b.coeffs, u)) < 1e-9

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_diagonal_form_reconstructs_input(self, rng, n_modes):
        basis = BosonBasis(n_modes)
        for _ in range(10):
            form = QuadraticForm(basis, random_symmetric(rng, basis.size))
            rebuilt = reconstruct_form(decompose(form), basis)
            assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < 1e-8
            assert abs(rebuilt.offset - form.offset) < 1e-8

    def test_degenerate_harmonic_pair(self):
        # two identical uncoupled oscillators: eigenvalues coincide but the
        # matrix stays diagonalizable; joint normalization must fix the
        # cross terms so the diagonal form still reconstructs the operator
        form = two_mode(TwoModeParams(0.0, 0.0, 0.0))
        decomp = decompose(form)
        assert np.allclose(decomp.frequencies, [1.0, 1.0], atol=1e-12)
        assert abs(decomp.ground_energy - 1.0) < 1e-12
        rebuilt = reconstruct_form(decomp, form.basis)
        assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < 1e-10
        u = commutator_matrix(form.basis)
        (l1, h1), (l2, h2) = decomp.pairs
        assert abs(commutator_linear(l1.coeffs, h2.coeffs, u)) < 1e-10
        assert abs(commutator_linear(l2.coeffs, h1.coeffs, u)) < 1e-10

    def test_zero_form(self):
        basis = BosonBasis(2)
        form = QuadraticForm(basis, np.zeros((4, 4)))
        decomp = decompose(form)
        assert np.allclose(decomp.frequencies, 0.0)
        assert decomp.ground_energy == 0.0
        rebuilt = reconstruct_form(decomp, basis)
        assert np.max(np.abs(rebuilt.coeffs)) == 0.0

    def test_vanishing_pair_commutator_raises(self):
        # hand-built near-parallel pair: commutator below the floor
        u = commutator_matrix(BosonBasis(1))
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        w = v + np.array([1e-15, -1e-15])
        ladders = [
            LadderOperator(-0.5, v, "lowering"),
            LadderOperator(0.5, w, "raising"),
        ]
        with pytest.raises(ExceptionalPointError):
            normalize_pairs(ladders, u)


class TestSpectrum:
    def test_one_mode_level_three(self):
        decomp = decompose(one_mode(OneModeParams(0.3, 0.5)))
        assert abs(spectrum(decomp, [3]) - ROOT_04 * 3.5) < 1e-12

    def test_ground_state(self):
        decomp = decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        assert spectrum(decomp, [0, 0]) == decomp.ground_energy

    def test_two_mode_mixed_occupation(self):
        decomp = decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        expected = ROOT_161 * 1.5 + ROOT_041 * 0.5
        assert abs(spectrum(decomp, [1, 0]) - expected) < 1e-12

    def test_input_validation(self):
        decomp = decompose(one_mode(OneModeParams(0.3, 0.5)))
        with pytest.raises(ValueError):
            spectrum(decomp, [1, 2])
        with pytest.raises(ValueError):
            spectrum(decomp, [-1])
        with pytest.raises(ValueError):
            spectrum(decomp, [0.5])


class TestClassifyReality:
    def test_all_real_point(self):
        assert classify_reality(swanson_rep(0.3, 0.5)) is Reality.ALL_REAL

    def test_complex_point(self):
        assert classify_reality(swanson_rep(1.0, 1.0)) is Reality.COMPLEX

    def test_exceptional_point(self):
        assert classify_reality(swanson_rep(0.5, 0.5)) is Reality.EXCEPTIONAL_POINT

    def test_matches_discriminant_branch(self, rng):
        # one-mode family: real spectrum exactly when sqrt(1-4ab) is real
        for _ in range(1000):
            alpha = complex(*rng.uniform(-1.5, 1.5, 2))
            beta = complex(*rng.uniform(-1.5, 1.5, 2))
            root = np.sqrt(complex(1.0 - 4.0 * alpha * beta))
            got = classify_reality(swanson_rep(alpha, beta))
            if got is Reality.EXCEPTIONAL_POINT:
                continue
            expected = (
                Reality.ALL_REAL
                if abs(root.imag) < 1e-9 * max(1.0, abs(root))
                else Reality.COMPLEX
            )
            assert got is expected


class TestDetectEP:
    def test_one_mode_exceptional_point(self):
        report = detect_ep(swanson_rep(0.5, 0.5))
        assert report.defective
        assert abs(report.degenerate_lambda) < 1e-8
        assert report.algebraic_mult == 2
        assert report.geometric_mult == 1

    def test_regular_point_not_defective(self):
        report = detect_ep(swanson_rep(0.3, 0.5))
        assert not report.defective
        assert all(c.algebraic == 1 for c in report.clusters)

    def test_exact_ep_split_by_rounding_is_refused(self):
        # (alpha, beta, gamma) = (0, 0.5, 1) is an exact order-2 EP; eig splits
        # its zero eigenvalue to about +/-1.6e-8, which must stay one cluster
        with pytest.raises(ExceptionalPointError) as excinfo:
            decompose(two_mode(TwoModeParams(0.0, 0.5, 1.0)))
        report = excinfo.value.report
        assert report.algebraic_mult == 2 and report.geometric_mult == 1

    def test_tiny_split_with_full_eigenbasis_is_regular(self):
        # uncoupled oscillators, one with frequency 1e-8: the +/-1e-8 pair
        # falls in one cluster but keeps two eigenvectors
        report = detect_ep(adjoint_rep(two_mode(TwoModeParams(0.0, 0.0, 1.0 - 1e-8))))
        assert not report.defective
        assert [(c.algebraic, c.geometric) for c in report.clusters] == [(1, 1), (2, 2), (1, 1)]

    def test_two_mode_partial_degeneracy(self):
        # alpha*beta = (gamma-1)^2/4 kills one frequency only
        rep = adjoint_rep(two_mode(TwoModeParams(0.25, 0.25, 0.5)))
        report = detect_ep(rep)
        assert report.defective
        zero = [c for c in report.clusters if abs(c.value) < 1e-6]
        assert len(zero) == 1
        assert zero[0].algebraic == 2 and zero[0].geometric == 1
        simple = [c for c in report.clusters if abs(c.value) > 1e-6]
        assert sorted(round(c.value.real, 6) for c in simple) == [
            -round(np.sqrt(2.0), 6),
            round(np.sqrt(2.0), 6),
        ]
        assert all(not c.defective for c in simple)
