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
from quadboson import spectral
from form_helpers import ladder_blocks, random_symmetric, reconstruct_form

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
        assert [(c.algebraic, c.geometric) for c in report.clusters if c.defective] == [(2, 1)]

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            eigenpairs(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            eigenpairs(np.float64(1.0))


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

    @pytest.mark.parametrize("n_modes", range(2, 9))
    def test_all_pairs_normalized_jointly(self, rng, n_modes):
        # one Gram matrix over all K pairs: cross commutators vanish between
        # pairs of different frequency too, so the stacked ladders are
        # canonical at round-off
        basis = BosonBasis(n_modes)
        u = commutator_matrix(basis)
        for _ in range(25):
            decomp = decompose(QuadraticForm(basis, random_symmetric(rng, basis.size)))
            low, high = ladder_blocks(decomp)
            assert np.max(np.abs(low.T @ u @ high - np.eye(n_modes))) < 16 * np.finfo(float).eps

    def test_normalization_does_not_recluster(self, monkeypatch):
        # the eigensolve clusters the spectrum once; normalize_pairs reads
        # only the +/- layout, degenerate and zero groups included
        forms = [two_mode(TwoModeParams(0.0, 0.0, 0.0)),
                 QuadraticForm(BosonBasis(2), np.zeros((4, 4)))]
        ladders = [eigenpairs(adjoint_rep(form)) for form in forms]

        def no_clustering(*args):
            raise AssertionError("normalize_pairs clustered the spectrum again")

        monkeypatch.setattr(spectral, "_cluster_indices", no_clustering)
        for form, ops in zip(forms, ladders):
            decomp = normalize_pairs(ops)
            rebuilt = reconstruct_form(decomp, form.basis)
            assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < 1e-12

    def test_zero_modes_beside_a_squeezed_mode(self):
        # modes 1 and 2 carry no terms (a zero-frequency block of two pairs);
        # mode 3 is the squeezed one-mode oscillator at (0.3, 0.5)
        basis = BosonBasis(3)
        coeffs = np.zeros((6, 6), dtype=complex)
        coeffs[np.ix_([2, 5], [2, 5])] = one_mode(OneModeParams(0.3, 0.5)).coeffs
        form = QuadraticForm(basis, coeffs)
        decomp = decompose(form)
        assert np.allclose(decomp.frequencies, [ROOT_04, 0.0, 0.0], atol=1e-12)
        u = commutator_matrix(basis)
        low, high = ladder_blocks(decomp)
        assert np.max(np.abs(low.T @ u @ high - np.eye(3))) < 1e-14
        assert np.max(np.abs(low.T @ u @ low)) < 1e-14
        assert np.max(np.abs(high.T @ u @ high)) < 1e-14
        rebuilt = reconstruct_form(decomp, basis)
        assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < 1e-14
        assert abs(rebuilt.offset - form.offset) < 1e-14

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
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        w = v + np.array([1e-15, -1e-15])
        ladders = [
            LadderOperator(-0.5, v, "lowering"),
            LadderOperator(0.5, w, "raising"),
        ]
        with pytest.raises(ExceptionalPointError):
            normalize_pairs(ladders)

    def test_refuses_a_layout_that_is_not_2k_by_2k(self):
        # the commutator matrix comes from the ladder count, so the count and every
        # coefficient vector must agree on 2K
        low, high = eigenpairs(swanson_rep(0.3, 0.5))
        two_mode_ops = eigenpairs(adjoint_rep(two_mode(TwoModeParams(0.1, 0.2, 0.3))))
        for ladders in ([], [low], [low, high, low], [two_mode_ops[0], two_mode_ops[-1]],
                        [low, high, *two_mode_ops[1:3]]):
            with pytest.raises(ValueError, match="2K ladder operators of 2K coefficients"):
                normalize_pairs(ladders)

    def test_offset_is_keyword_only(self):
        # a commutator matrix passed where it used to go must not land in offset
        ladders = eigenpairs(swanson_rep(0.3, 0.5))
        with pytest.raises(TypeError):
            normalize_pairs(ladders, commutator_matrix(BosonBasis(1)))
        decomp = normalize_pairs(ladders, offset=0.25)
        assert abs(decomp.ground_energy - (ROOT_04 / 2 + 0.25)) < 1e-12


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
        bad = [c for c in report.clusters if c.defective]
        assert [(c.algebraic, c.geometric) for c in bad] == [(2, 1)]
        assert abs(bad[0].value) < 1e-8

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
        assert [(c.algebraic, c.geometric) for c in report.clusters if c.defective] == [(2, 1)]

    def test_order_four_ep_pairing_miss_is_refused(self):
        # h^4 = 0 exactly: eig splits the zero eigenvalue by ~eps^(1/4) |h|, past
        # the cluster width, and the values then miss their +/- mates
        coeffs = np.array([[1, 0, -1, 1], [0, 0, 0.5, 0], [-1, 0.5, 2, 1], [1, 0, 1, 1]])
        form = QuadraticForm(BosonBasis(2), coeffs)
        assert not np.any(np.linalg.matrix_power(adjoint_rep(form), 4))
        with pytest.raises(ExceptionalPointError, match="residual") as excinfo:
            decompose(form)
        assert excinfo.value.report is not None

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


def connected_groups(values, tol):
    """Connected components of the boolean |v_i - v_j| < tol matrix, closed transitively
    (Warshall), ordered by smallest member with members ascending."""
    diff = values[:, None] - values[None, :]
    near = np.hypot(diff.real, diff.imag) < tol  # hypot matches the scalar abs bit for bit
    for k in range(len(values)):
        near |= near[:, k:k + 1] & near[k:k + 1, :]
    groups, seen = [], set()
    for i in range(len(values)):
        if i not in seen:
            groups.append(np.flatnonzero(near[i]).tolist())
            seen.update(groups[-1])
    return groups


class TestClusterIndices:
    def test_chain_of_near_neighbours_is_one_group(self):
        # 0 ~ 3 ~ 2 within tol, but |v_0 - v_2| = 1.2 tol
        tol = 1e-6
        values = np.array([0.0, 5.0, 1.2 * tol, 0.6 * tol], dtype=complex)
        assert abs(values[0] - values[2]) > tol
        assert spectral._cluster_indices(values, tol) == [[0, 2, 3], [1]]

    def test_random_spectra_match_transitive_closure(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(2, 33))
            values = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.integers(0, 2)
            for _ in range(int(rng.integers(0, n))):  # near-duplicates, some chained
                i, j = rng.integers(0, n, size=2)
                offset = 10.0 ** rng.uniform(-9, -6) * np.exp(2j * np.pi * rng.uniform())
                values[j] = values[i] + offset
            tol = spectral.CLUSTER_TOL * rng.uniform(1, 10)
            groups = spectral._cluster_indices(values, tol)
            assert groups == connected_groups(values, tol)
            assert [g[0] for g in groups] == sorted(g[0] for g in groups)
            assert all(g == sorted(g) for g in groups)
