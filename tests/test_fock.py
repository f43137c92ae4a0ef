import functools
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array

from quadboson import (
    BosonBasis,
    CanonicalMap,
    FockTruncation,
    OneModeParams,
    QuadraticForm,
    Reality,
    SpectralDecomposition,
    TwoModeParams,
    adjoint_rep,
    assemble,
    bogoliubov_map,
    decompose,
    one_mode,
    oracle_eigenvalues,
    predicted_levels,
    two_mode,
    verify_adjoint_action,
    verify_metric,
    verify_spectrum,
)
from quadboson import fock
from form_helpers import random_symmetric

ROOT_04 = np.sqrt(0.4)
EPS = np.finfo(float).eps


def seeded_form(rng, n_modes, real):
    """Random symmetric form; complex coefficients and offset unless real."""
    g = random_symmetric(rng, 2 * n_modes)
    if real:
        return QuadraticForm(BosonBasis(n_modes), g.real, offset=float(rng.normal()))
    return QuadraticForm(BosonBasis(n_modes), g, offset=complex(*rng.normal(size=2)))


def assemble_dense(form, trunc):
    """The assembled operator as a dense matrix, its triplets summed by one toarray()."""
    rows, cols, values, dim = assemble(form, trunc)
    return coo_array((values, (rows, cols)), shape=(dim, dim)).toarray()


def embedded_ladders(n_modes, cutoff):
    """Independent reference for (a_1..a_K, a_1^dag..a_K^dag): the one-mode a embedded
    by np.kron, mode 1 leftmost."""
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    lowering = []
    for mode in range(n_modes):
        factors = [np.eye(cutoff)] * n_modes
        factors[mode] = a
        lowering.append(functools.reduce(np.kron, factors))
    return lowering + [op.T for op in lowering]


def scattered_ladders(trunc):
    """The library's own one-operator index maps, each scattered into a dense matrix."""
    maps = fock._ladder_maps(trunc)
    return [fock._dense(*fock._product(maps, [i]), trunc.dimension)
            for i in range(2 * trunc.n_modes)]


def triplets(matrix):
    """COO triplets (rows, cols, values, size) of a dense square matrix's nonzero entries."""
    matrix = np.asarray(matrix)
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols], matrix.shape[0]


class TestFockMatrices:
    def test_single_mode_annihilator(self):
        a = scattered_ladders(FockTruncation(1, 3))[0]
        expected = [[0.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)], [0.0, 0.0, 0.0]]
        assert np.allclose(a, expected, atol=1e-15)

    def test_creator_is_transpose(self):
        a, ad = scattered_ladders(FockTruncation(1, 6))
        assert np.array_equal(ad, a.T)

    def test_truncated_commutator_corner(self):
        nmax = 7
        a, ad = scattered_ladders(FockTruncation(1, nmax))
        comm = a @ ad - ad @ a
        expected = np.eye(nmax)
        expected[-1, -1] = 1 - nmax
        assert np.allclose(comm, expected, atol=1e-13)

    def test_two_mode_kron_ordering(self):
        trunc = FockTruncation(2, 4)
        ops = scattered_ladders(trunc)
        single = scattered_ladders(FockTruncation(1, 4))[0]
        eye = np.eye(4)
        assert np.array_equal(ops[0], np.kron(single, eye))
        assert np.array_equal(ops[1], np.kron(eye, single))
        assert np.array_equal(ops[2], ops[0].T)
        assert np.array_equal(ops[3], ops[1].T)

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_matches_kronecker_reference(self, n_modes, cutoff):
        ops = scattered_ladders(FockTruncation(n_modes, cutoff))
        reference = embedded_ladders(n_modes, cutoff)
        assert len(ops) == len(reference) == 2 * n_modes
        for op, embedded in zip(ops, reference):
            assert np.array_equal(op, embedded)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="feasible cutoff"):
            FockTruncation(2, 100)
        FockTruncation(2, 100, cap=10001)  # raised cap admits it
        # 4096 ** (1/3) evaluates to 15.999999999999998; the exact root is 16
        with pytest.raises(ValueError, match="feasible cutoff for 3 mode.s. is 16$"):
            FockTruncation(3, 17)
        FockTruncation(3, 16)
        # cutoffs start at 2, so a cap below 2 ** n_modes admits none
        with pytest.raises(ValueError, match="no starting cutoff .* run .cutoff 2. needs cap 4$"):
            FockTruncation(2, 2, cap=3)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(1, 1)

    @pytest.mark.parametrize("n_modes,cutoff", [(2, 3.5), (1.5, 4), (True, 4), (1, False),
                                                (np.float64(2.0), 4)])
    def test_rejects_non_integer_sizes(self, n_modes, cutoff):
        with pytest.raises(ValueError, match="must be an integer"):
            FockTruncation(n_modes, cutoff)

    def test_accepts_numpy_integer_sizes(self):
        assert FockTruncation(np.int64(2), np.int32(3)).dimension == 9
        assert FockTruncation(2, 3, cap=np.int64(9)).cap == 9

    @pytest.mark.parametrize("cap,message", [(None, "cap must be an integer"),
                                             (4.5, "cap must be an integer"),
                                             (True, "cap must be an integer"),
                                             (0, "cap must be at least 1"),
                                             (-1, "cap must be at least 1")])
    def test_rejects_bad_cap(self, cap, message):
        with pytest.raises(ValueError, match=message):
            FockTruncation(2, 3, cap=cap)


class TestAssemble:
    def test_harmonic_is_diagonal(self):
        form = one_mode(OneModeParams(0.0, 0.0))
        mat = assemble_dense(form, FockTruncation(1, 10))
        interior = np.arange(9)
        assert np.allclose(np.diag(mat)[interior], interior + 0.5, atol=1e-14)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) == 0.0

    def test_swanson_couples_levels_two_apart(self):
        form = one_mode(OneModeParams(0.3, 0.5))
        mat = assemble_dense(form, FockTruncation(1, 12))
        nz = np.argwhere(np.abs(mat) > 1e-14)
        assert set(np.unique(nz[:, 0] - nz[:, 1])) == {-2, 0, 2}

    def test_hermitian_iff_conjugate_parameters(self):
        herm = assemble_dense(
            one_mode(OneModeParams(0.3 + 0.2j, 0.3 - 0.2j)), FockTruncation(1, 15)
        )
        assert np.max(np.abs(herm - herm.conj().T)) < 1e-13
        nonherm = assemble_dense(one_mode(OneModeParams(0.3, 0.5)), FockTruncation(1, 15))
        assert np.max(np.abs(nonherm - nonherm.conj().T)) > 0.1

    def test_offset_enters_diagonal(self):
        basis = BosonBasis(1)
        form = QuadraticForm(basis, np.zeros((2, 2)), offset=2.5)
        mat = assemble_dense(form, FockTruncation(1, 4))
        assert np.allclose(mat, 2.5 * np.eye(4), atol=1e-15)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="mode"):
            assemble(one_mode(OneModeParams(0.0, 0.0)), FockTruncation(2, 5))

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_matches_products_of_embedded_operators(self, rng, n_modes, cutoff):
        # reference: sum_ij G[i,j] M_i M_j + offset * I from the full embedded
        # operators, in the same summation order; the result must agree bit for bit
        size = 2 * n_modes
        for _ in range(3):
            g = random_symmetric(rng, size)
            zero = rng.random((size, size)) < 0.3
            zero[0, -1] = True
            g[zero | zero.T] = 0.0
            form = QuadraticForm(BosonBasis(n_modes), g, offset=complex(*rng.normal(size=2)))
            trunc = FockTruncation(n_modes, cutoff)
            ops = embedded_ladders(n_modes, cutoff)
            expected = np.zeros((trunc.dimension, trunc.dimension), dtype=complex)
            for i in range(size):
                for j in range(size):
                    if form.coeffs[i, j] != 0:
                        expected += form.coeffs[i, j] * (ops[i] @ ops[j])
            expected += form.offset * np.eye(trunc.dimension)
            assert np.array_equal(assemble_dense(form, trunc), expected)

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_odd_mask_marks_odd_total_number(self, n_modes, cutoff):
        occupations = itertools.product(range(cutoff), repeat=n_modes)  # mode 1 leftmost
        expected = [sum(occ) % 2 == 1 for occ in occupations]
        assert FockTruncation(n_modes, cutoff).odd_mask().tolist() == expected

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_interior_mask_marks_every_mode_below_cutoff_minus_2(self, n_modes, cutoff):
        occupations = list(itertools.product(range(cutoff), repeat=n_modes))  # mode 1 leftmost
        trunc = FockTruncation(n_modes, cutoff)
        assert trunc.occupations().tolist() == [list(occ) for occ in occupations]
        expected = [max(occ) < cutoff - 2 for occ in occupations]
        assert trunc.interior_mask().tolist() == expected

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_no_entries_between_parity_sectors(self, rng, n_modes, cutoff, real):
        trunc = FockTruncation(n_modes, cutoff)
        odd = trunc.odd_mask()
        for _ in range(3):
            mat = assemble_dense(seeded_form(rng, n_modes, real), trunc)
            assert np.count_nonzero(mat[np.ix_(odd, ~odd)]) == 0
            assert np.count_nonzero(mat[np.ix_(~odd, odd)]) == 0
            assert np.count_nonzero(mat[np.ix_(odd, odd)]) > 0

    def test_real_form_gives_real_matrix(self):
        trunc = FockTruncation(1, 8)
        real = one_mode(OneModeParams(0.3, 0.5))
        assert assemble(real, trunc)[2].dtype == np.float64
        assert assemble(one_mode(OneModeParams(0.3 + 0.1j, 0.5)), trunc)[2].dtype == np.complex128
        shifted = QuadraticForm(real.basis, real.coeffs, offset=0.5j)
        assert assemble(shifted, trunc)[2].dtype == np.complex128
        # an imaginary offset too small to change any real part forces the
        # complex path; the real matrix must be its real part, bit for bit
        complex_copy = QuadraticForm(real.basis, real.coeffs, offset=1e-300j)
        real_matrix = assemble_dense(real, trunc)
        assert np.array_equal(real_matrix, assemble_dense(complex_copy, trunc).real)

    def test_assembly_allocates_no_dense_temporaries(self, rng):
        # each term is an index map of a few vectors and the triplets are those
        # maps joined once (2.1x their size at the peak here); the dense complex
        # matrix alone would take 16 times the triplets
        form = seeded_form(rng, 3, real=False)
        tracemalloc.start()
        try:
            rows, cols, values, _ = assemble(form, FockTruncation(3, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (rows.nbytes + cols.nbytes + values.nbytes)

    def test_triplets_in_term_order(self):
        # one run of entries per nonzero coefficient in np.nonzero order, then
        # the offset on the diagonal
        form = QuadraticForm(BosonBasis(1), np.array([[0.0, 0.5], [0.5, 2.0]]), offset=0.25)
        rows, cols, values, dim = assemble(form, FockTruncation(1, 4))
        assert dim == 4
        maps = fock._ladder_maps(FockTruncation(1, 4))
        runs = [fock._product(maps, pair) for pair in ((0, 1), (1, 0), (1, 1))]
        expected_rows = np.concatenate([run[0] for run in runs] + [np.arange(4)])
        expected_cols = np.concatenate([run[1] for run in runs] + [np.arange(4)])
        expected_values = np.concatenate([0.5 * runs[0][2], 0.5 * runs[1][2],
                                          2.0 * runs[2][2], np.full(4, 0.25)])
        assert rows.tolist() == expected_rows.tolist()
        assert cols.tolist() == expected_cols.tolist()
        assert values.dtype == np.float64 and np.array_equal(values, expected_values)


def reference_product(trunc, indices):
    """Truncated O_i O_j .. as an index map, walked state by state on the occupation table."""
    occ = trunc.occupations()
    cols = np.arange(trunc.dimension)
    weights = np.ones(trunc.dimension)
    for i in reversed(indices):
        mode = i % trunc.n_modes
        moved = occ[:, mode] + (1 if i >= trunc.n_modes else -1)
        weights = weights * np.sqrt(np.maximum(occ[:, mode], moved))
        inside = (moved >= 0) & (moved < trunc.cutoff)
        occ, cols, weights = occ[inside], cols[inside], weights[inside]
        occ[:, mode] = moved[inside]
    rows = np.ravel_multi_index(occ.T, (trunc.cutoff,) * trunc.n_modes)
    return rows, cols, weights


def reference_dense(form, trunc):
    """sum_ij G[i,j] M_i M_j + offset * I scattered term by term from reference_product."""
    g, offset = form.coeffs, form.offset
    if not np.any(g.imag) and offset.imag == 0:
        g, offset = g.real, offset.real
    out = np.zeros((trunc.dimension, trunc.dimension), dtype=g.dtype)
    for i, j in zip(*np.nonzero(g)):
        rows, cols, weights = reference_product(trunc, (i, j))
        out[rows, cols] += g[i, j] * weights
    if offset != 0:
        out[np.diag_indices(trunc.dimension)] += offset
    return out


class TestIndexMaps:
    """Maps composed from the single-operator maps against the occupation-table walk."""

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4), (4, 3)])
    def test_products_match_occupation_walk(self, n_modes, cutoff):
        trunc = FockTruncation(n_modes, cutoff)
        maps = fock._ladder_maps(trunc)
        ops = range(2 * n_modes)
        products = [[i] for i in ops] + [[i, j] for i in ops for j in ops]
        # three raisings leave the table from every state at cutoff 3
        products += [list(triple) for triple in itertools.product(ops, repeat=3)]
        dropped = 0
        for indices in products:
            expected = reference_product(trunc, indices)
            got = fock._product(maps, indices)
            for want, have in zip(expected, got):
                assert have.dtype == want.dtype and np.array_equal(have, want), indices
            dropped += trunc.dimension - got[0].size
        assert dropped > 0


class TestOracleEigenvalues:
    def test_diagonal_matrix(self):
        values = oracle_eigenvalues(triplets(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(values, [1.0, 2.0, 3.0], atol=1e-15)

    def test_harmonic_oscillator_levels(self):
        values = oracle_eigenvalues(assemble(one_mode(OneModeParams(0.0, 0.0)),
                                             FockTruncation(1, 40)))
        assert np.max(np.abs(values[:20] - (np.arange(20) + 0.5))) < 1e-12

    def test_adjoint_matrix_self_test(self):
        # the 2x2 adjoint matrix itself doubles as an eigensolver check
        alpha, beta = 0.3, 0.5
        mat = np.array([[-1.0, 2 * alpha], [-2 * beta, 1.0]])
        values = oracle_eigenvalues(triplets(mat))
        assert np.allclose(values, [-ROOT_04, ROOT_04], atol=1e-14)

    def test_sort_order(self):
        values = oracle_eigenvalues(triplets(np.diag([1.0 + 1.0j, 1.0 - 1.0j, 0.5])))
        assert values[0] == 0.5
        assert values[1] == 1.0 - 1.0j

    @pytest.mark.parametrize("rows,cols", [([0, 2], [0, 1]), ([0, 1], [1, 2]),
                                           ([0, -1], [0, 1]), ([0, 1], [-1, 1])],
                             ids=["row-past-size", "col-past-size", "negative-row", "negative-col"])
    def test_rejects_entries_outside_size(self, rows, cols):
        with pytest.raises(ValueError, match="outside the 2-state operator"):
            oracle_eigenvalues((np.array(rows), np.array(cols), np.ones(2), 2))

    @pytest.mark.parametrize("cutoff", [100, 600], ids=["dense", "arnoldi"])
    @pytest.mark.parametrize("count", [-1, 0, 2.5, True])
    def test_rejects_count_that_is_not_a_positive_integer(self, cutoff, count):
        # either side of _DENSE_BLOCK_MAX, a bad count used to return every
        # eigenvalue or reach ARPACK, which named no argument of this function
        operator = assemble(one_mode(OneModeParams(0.1, 0.2)), FockTruncation(1, cutoff))
        with pytest.raises(ValueError, match="count must be None or a positive integer"):
            oracle_eigenvalues(operator, count)

    @pytest.mark.parametrize("cutoff,size", [(100, 100), (600, 3)], ids=["dense", "arnoldi"])
    def test_accepts_numpy_integer_count(self, cutoff, size):
        operator = assemble(one_mode(OneModeParams(0.1, 0.2)), FockTruncation(1, cutoff))
        assert oracle_eigenvalues(operator, np.int64(2)).size == size

    def test_repeated_positions_sum(self):
        # assemble's triplets may repeat a position, whose entries sum
        operator = np.array([0, 1, 1, 0]), np.array([0, 1, 1, 0]), np.array([1.0, 2, 3, 4]), 2
        assert oracle_eigenvalues(operator).tolist() == [5.0, 5.0]
        empty = (np.zeros(0, int), np.zeros(0, int), np.zeros(0), 3)
        assert oracle_eigenvalues(empty).tolist() == [0.0, 0.0, 0.0]

    def test_real_input_gives_complex_output(self):
        values = oracle_eigenvalues(triplets([[2.0, 0.0], [0.0, 1.0]]))
        assert values.dtype == np.complex128
        assert values.tolist() == [1.0, 2.0]
        # real arithmetic returns a conjugate pair with equal real parts, so
        # the imaginary part orders it
        values = oracle_eigenvalues(triplets([[0.0, -1.0], [1.0, 0.0]]))
        assert values.dtype == np.complex128
        assert np.allclose(values, [-1j, 1j], atol=1e-15)


def oscillators(omega, squeeze, coupling):
    """One mode per frequency, with equal squeezing and equal exchange couplings."""
    k = len(omega)
    g = np.zeros((2 * k, 2 * k))
    for i in range(k):
        g[i, i + k] = g[i + k, i] = 0.5 * omega[i]
        g[i, i], g[i + k, i + k] = squeeze, 0.5 * squeeze
    for i, j in itertools.combinations(range(k), 2):
        g[i, j + k] = g[j + k, i] = g[j, i + k] = g[i + k, j] = coupling
    return QuadraticForm(BosonBasis(k), g)


def unbalanced_three_mode():
    """The benchmark's three-mode shape: distinct squeezing ratios, symmetric exchange."""
    form = oscillators((0.9, 1.0, 1.1), 0.01, 0.02)
    g = form.coeffs.real.copy()
    g[3:, 3:] = np.diag([0.002, 0.012, 0.005])
    return QuadraticForm(BosonBasis(3), g)


def counted_dense_solves(monkeypatch):
    """(routine, shape, dtype name) of each matrix later passed to np.linalg.eigvals or
    np.linalg.eigvalsh, appended as they come."""
    calls = []
    for name in ("eigvals", "eigvalsh"):
        def counted(matrix, _name=name, _solve=getattr(np.linalg, name)):
            calls.append((_name, matrix.shape, matrix.dtype.name))
            return _solve(matrix)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def fresh_interpreter(probe):
    """Standard output of `probe` run by a new interpreter that imports this quadboson."""
    import quadboson

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quadboson.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


class TestScipyImports:
    def test_numpy_only_paths_leave_scipy_unloaded(self):
        # scipy is imported only inside the oracle's Arnoldi solve, the metric
        # check and the map generator; importing it costs about as much as the
        # rest of `import quadboson`, and the spectral and sweep paths need none of it
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
        configs = [os.path.join(data, f"sweep_{model}.json") for model in ("one_mode", "two_mode")]
        probe = (
            "import contextlib, io, sys\n"
            "import quadboson as qb\n"
            "from quadboson import cli\n"
            "params = qb.OneModeParams(0.3, 0.5)\n"
            "form = qb.two_mode(qb.TwoModeParams(0.1, 0.2, 0.3))\n"
            "qb.decompose(form), qb.detect_ep(qb.adjoint_rep(form))\n"
            "qb.classify_reality(qb.adjoint_rep(form))\n"
            "qb.transform_form(qb.one_mode(params), qb.bogoliubov_map(params, 1.0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main([command, '--config', path]) for path in {configs!r}\n"
            "             for command in ('analyze', 'sweep')]\n"
            "print(codes, [name for name in sys.modules if name.split('.')[0] == 'scipy'])"
        )
        assert fresh_interpreter(probe) == "[0, 0, 0, 0] []"


def parity_blocks(form, trunc):
    """COO triplets of the even and odd blocks, cut from the dense operator with np.ix_."""
    matrix = assemble_dense(form, trunc)
    odd = trunc.odd_mask()
    return [triplets(matrix[np.ix_(mask, mask)]) for mask in (~odd, odd)]


class TestArnoldiBlocks:
    """Blocks above fock._DENSE_BLOCK_MAX states asked for their lowest levels only."""

    def test_lowest_levels_match_dense(self, rng):
        # random forms may stall and fall back to the dense solve; the
        # physical ones must be solved by Arnoldi
        cases = [
            (seeded_form(rng, 2, True), FockTruncation(2, 24), False),
            (seeded_form(rng, 2, False), FockTruncation(2, 24), False),
            (seeded_form(rng, 3, True), FockTruncation(3, 9), False),
            (seeded_form(rng, 3, False), FockTruncation(3, 9), False),
            # a complex-conjugate pair of frequencies: w- = sqrt(0.81 - 1.6)
            (two_mode(TwoModeParams(0.5, 0.8, 0.1)), FockTruncation(2, 26), True),
            (one_mode(OneModeParams(0.3, 0.5)), FockTruncation(1, 600), True),
        ]
        for i, (form, trunc, physical) in enumerate(cases):
            block = parity_blocks(form, trunc)[1]
            assert block[3] > fock._DENSE_BLOCK_MAX
            dense = oracle_eigenvalues(block)
            for count in (1 + i % 3, 4 + i % 3):  # every count 1..6, each on two blocks
                lowest = oracle_eigenvalues(block, count)
                assert lowest.size == count + 1 or not physical
                scale = np.maximum(1.0, np.abs(dense[:count]))
                assert np.all(np.abs(lowest[:count] - dense[:count]) <= 1e-10 * scale)

    def test_repeats_bit_for_bit(self, rng):
        # within one process only: across interpreters heap alignment can move
        # the results at round-off
        block = parity_blocks(seeded_form(rng, 3, False), FockTruncation(3, 9))[1]
        assert np.array_equal(oracle_eigenvalues(block, 4), oracle_eigenvalues(block, 4))

    @pytest.mark.parametrize("n_modes,squeeze,cutoff,parity,count", [
        pytest.param(3, 0.1, 10, 1, 6, id="0.1-10-1-6"),
        pytest.param(3, 0.0, 9, 0, 7, id="0.0-9-0-7"),
        # four identical modes, 313 and 312 states: levels repeat 4-fold
        pytest.param(4, 0.0, 5, 0, 4, id="4-modes-0.0-5-0-4"),
        pytest.param(4, 0.0, 5, 1, 8, id="4-modes-0.0-5-1-8"),
    ])
    def test_repeated_level_keeps_every_copy(self, n_modes, squeeze, cutoff, parity, count):
        # identical modes: the low levels repeat, and one Arnoldi run from
        # one start vector returns too few copies of some of them
        block = parity_blocks(oscillators((1.0,) * n_modes, squeeze, 0.0),
                              FockTruncation(n_modes, cutoff))[parity]
        assert block[3] > fock._DENSE_BLOCK_MAX
        dense = oracle_eigenvalues(block)
        assert abs(dense[count - 1] - dense[count - 2]) < 1e-12  # a repeat inside the lowest
        lowest = oracle_eigenvalues(block, count)
        assert np.max(np.abs(lowest[:count] - dense[:count])) < 1e-10

    def test_repeated_level_check_accepts_every_copy_found(self, monkeypatch):
        # the lowest odd level repeats 3-fold and the first run finds all three
        # copies; a check restarted from that run's own start vector minus the
        # found directions must grow the top level's other copies out of
        # round-off, runs out of restarts and sends this correct answer to
        # the dense solve
        block = parity_blocks(oscillators((1.0, 1.0, 1.0), 0.03, 0.0), FockTruncation(3, 9))[1]
        assert block[3] == 364
        dense = np.sort_complex(np.linalg.eigvals(fock._dense(*block)))
        assert abs(dense[2] - dense[0]) < 1e-12
        calls = counted_dense_solves(monkeypatch)
        lowest = oracle_eigenvalues(block, 3)
        assert calls == []
        assert np.max(np.abs(lowest[:3] - dense[:3])) < 1e-10

    def test_small_blocks_leave_sparse_unloaded(self):
        # every block of a one-mode check (40 states at most here) is scattered
        # densely by numpy, and so is the metric check's operator
        probe = (
            "import sys, quadboson as qb\n"
            "params = qb.OneModeParams(0.3, 0.5)\n"
            "form = qb.one_mode(params)\n"
            "report = qb.verify_spectrum(form, qb.decompose(form), 5, qb.FockTruncation(1, 60))\n"
            "cmap = qb.bogoliubov_map(params, 1.0)\n"
            "qb.verify_metric(params, cmap, qb.FockTruncation(1, 10))\n"
            "print(report.passed, 'scipy.sparse' in sys.modules)"
        )
        assert fresh_interpreter(probe) == "True False"

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n_modes,cutoff", [(1, 40), (2, 9), (2, 24), (3, 6), (4, 4), (4, 5)])
    def test_blocks_match_dense_scatter(self, rng, monkeypatch, n_modes, cutoff, real):
        # the blocks the oracle solves, against the full matrix scattered term
        # by term and cut with np.ix_; at K=4 more than 8 terms meet on the
        # diagonal, where a pairwise-summed reduction would differ in the last bit
        trunc = FockTruncation(n_modes, cutoff)
        form = seeded_form(rng, n_modes, real)
        balanced = fock._hermitian_balance(form)
        # only the real one-mode form here has alpha beta > 0; the oracle solves its balanced form
        assert (balanced is not None) == (n_modes == 1 and real)
        reference = reference_dense(form if balanced is None else balanced, trunc)
        if balanced is not None:
            # that scatter is D M D^-1 of the original one M, D = r^(a^dag a), r^4 = alpha / beta
            alpha, beta = form.coeffs[0, 0].real, form.coeffs[1, 1].real
            d = (alpha / beta) ** (np.arange(cutoff) / 4.0)
            similar = d[:, None] * reference_dense(form, trunc) / d
            assert np.max(np.abs(reference - similar)) <= 1e-14 * np.max(np.abs(reference))
        odd = trunc.odd_mask()
        blocks, matrices, solve = [], [], fock.oracle_eigenvalues
        monkeypatch.setattr(fock, "oracle_eigenvalues",
                            lambda block, count: blocks.append(block) or solve(block, count))
        monkeypatch.setattr(fock, "_lowest_by_arnoldi",
                            lambda matrix, k: matrices.append(matrix) or np.zeros(k, complex))
        fock._parity_eigenvalues(form, trunc, 3, balanced)
        assert len(blocks) == 2
        large = []
        threshold = fock._DENSE_BLOCK_MAX if balanced is None else fock._HERMITIAN_BLOCK_MAX
        for mask, block in zip((~odd, odd), blocks):
            expected = reference[np.ix_(mask, mask)]
            assert block[3] == expected.shape[0]
            dense = fock._dense(*block)
            assert dense.dtype == expected.dtype and np.array_equal(dense, expected)
            if expected.shape[0] > threshold:
                large.append(expected)
        # only a block above the threshold is built as CSR, and it holds the same matrix
        assert len(matrices) == len(large)
        for matrix, expected in zip(matrices, large):
            assert matrix.format == "csr" and matrix.dtype == expected.dtype
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(matrix.toarray() - expected)) <= 1e-14 * scale

    def test_threshold_and_exact_zero_level(self):
        # 256 states are solved in full; 257 give count + 1 levels, among them
        # an exactly zero one, which ARPACK passes over unless the block is lifted
        levels = np.arange(fock._DENSE_BLOCK_MAX + 1, dtype=float)[::-1]
        assert oracle_eigenvalues(triplets(np.diag(levels[1:])), 3).size == fock._DENSE_BLOCK_MAX
        assert np.allclose(oracle_eigenvalues(triplets(np.diag(levels)), 3), [0, 1, 2, 3],
                           atol=1e-12)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        import scipy.sparse.linalg

        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.array([]), np.array([]))

        block = parity_blocks(two_mode(TwoModeParams(0.1, 0.2, 0.3)), FockTruncation(2, 25))[1]
        dense = oracle_eigenvalues(block)
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
        assert np.array_equal(oracle_eigenvalues(block, 5), dense)

    def test_three_mode_rerun_skips_dense_solves(self, monkeypatch):
        # the benchmark's three-mode shape, unequal squeezing ratios across
        # exchange couplings, which no number scaling balances: 125 states
        # (63 + 62), re-run at cutoff 10 with two 500-state blocks
        form = unbalanced_three_mode()
        assert fock._hermitian_balance(form) is None
        decomp = decompose(form)
        calls = counted_dense_solves(monkeypatch)
        report = verify_spectrum(form, decomp, 4, FockTruncation(3, 5), tol=1e-4)
        assert calls == [("eigvals", (63, 63), "float64"), ("eigvals", (62, 62), "float64")]
        assert report.eigenvalues.size == 125
        assert report.passed

    def test_balanced_three_mode_rerun_is_solved_in_full(self, monkeypatch):
        # equal squeezing ratios: one r balances every mode and leaves the
        # exchange couplings alone, so the 500-state re-run blocks are Hermitian
        form = oscillators((0.9, 1.0, 1.1), 0.01, 0.02)
        assert fock._hermitian_balance(form) is not None
        decomp = decompose(form)
        calls = counted_dense_solves(monkeypatch)
        report = verify_spectrum(form, decomp, 4, FockTruncation(3, 5), tol=1e-4)
        assert calls == [("eigvalsh", shape, "float64")
                         for shape in ((63, 63), (62, 62), (500, 500), (500, 500))]
        assert report.eigenvalues.size == 125
        assert report.passed

    def test_rerun_at_cap_stays_small(self):
        # re-run at cutoff 16, 4096 states: two 2048-state CSR blocks, where a
        # dense operator alone would take 128 MB
        form = oscillators((0.9, 1.0, 1.1), 0.01, 0.02)
        decomp = decompose(form)
        tracemalloc.start()
        try:
            report = verify_spectrum(form, decomp, 4, FockTruncation(3, 11), tol=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 16 * 2 ** 20


def balanceable_form(rng, n_modes, kind):
    """(form, H): H random and Hermitian in the number basis, H[bar, bar] = conj(H) with bar
    swapping a_i and a_i^dag, and form its similar D^-1 H D, D = prod r_i^(a_i^dag a_i).

    kind "real" gives real coefficients (alpha beta > 0 in each mode), "complex" complex
    ones (conj(alpha) / beta > 0), "hermitian" the complex H itself (every r = 1).
    """
    bar = np.roll(np.arange(2 * n_modes), n_modes)
    m = random_symmetric(rng, 2 * n_modes)
    if kind == "real":
        m = m.real
    h = 0.5 * (m + m[np.ix_(bar, bar)].conj())
    log_r = np.zeros(n_modes) if kind == "hermitian" else rng.uniform(-0.3, 0.3, n_modes)
    s = np.exp(np.concatenate([-log_r, log_r]))  # D a_i D^-1 = a_i / r_i
    return QuadraticForm(BosonBasis(n_modes), h / np.outer(s, s), float(rng.normal())), h


class TestHermitianBalance:
    @pytest.mark.parametrize("kind", ["real", "complex", "hermitian"])
    @pytest.mark.parametrize("n_modes,cutoff", [(1, 12), (2, 6), (3, 4)])
    def test_balanced_operator_is_hermitian_with_the_same_spectrum(self, rng, n_modes, cutoff,
                                                                    kind):
        trunc = FockTruncation(n_modes, cutoff)
        for _ in range(3):
            form, hermitian = balanceable_form(rng, n_modes, kind)
            balanced = fock._hermitian_balance(form)
            assert balanced is not None
            assert np.max(np.abs(balanced.coeffs - hermitian)) <= 1e-14 * np.max(np.abs(hermitian))
            assert balanced.offset == form.offset
            matrix = fock._dense(*assemble(balanced, trunc))
            assert np.array_equal(matrix, matrix.conj().T)
            levels = np.linalg.eigvalsh(matrix)
            # every r lies in [e^-0.3, e^0.3], so D is conditioned below e^(0.6 K (cutoff - 1))
            original = np.linalg.eigvals(fock._dense(*assemble(form, trunc)))
            original = original[np.argsort(original.real)]
            assert np.max(np.abs(original - levels)) <= 1e-12 * np.max(np.abs(levels))

    @pytest.mark.parametrize("form", [
        pytest.param(one_mode(OneModeParams(-0.3, 0.5)), id="alpha-beta-negative"),
        pytest.param(one_mode(OneModeParams(0.0, 0.5)), id="alpha-zero"),
        pytest.param(QuadraticForm(BosonBasis(1), [[0.3, 0.5], [0.5, 0.5]], offset=0.1j),
                     id="complex-offset"),
        pytest.param(one_mode(OneModeParams(0.3, 0.5j)), id="complex-alpha-beta"),
        pytest.param(unbalanced_three_mode(), id="exchange-across-unequal-ratios"),
    ])
    def test_no_balance(self, form):
        assert fock._hermitian_balance(form) is None


class TestPredictedLevels:
    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_count_must_be_a_positive_integer(self, count):
        decomp = decompose(one_mode(OneModeParams(0.1, 0.2)))
        with pytest.raises(ValueError, match="count must be a positive integer"):
            predicted_levels(decomp, count)

    def test_two_mode_ordering(self):
        decomp = decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
        wp, wm = decomp.frequencies
        levels = predicted_levels(decomp, 4)
        expected = sorted(
            (wp * (n1 + 0.5) + wm * (n2 + 0.5)).real
            for n1 in range(5) for n2 in range(5)
        )[:4]
        assert np.allclose(levels.real, expected, atol=1e-12)

    @pytest.mark.parametrize("n_modes,count", [(1, 6), (2, 5), (3, 4), (4, 3)])
    def test_matches_per_occupation_spectrum(self, rng, n_modes, count):
        # complex forms, whose levels have distinct real parts, and identical
        # modes, whose real ties hold equal levels: in both the order does not
        # hang on round-off (it does for frequencies with zero real part)
        forms = [seeded_form(rng, n_modes, False) for _ in range(3)]
        forms.append(oscillators((1.0,) * n_modes, 0.1, 0.0))
        for form in forms:
            decomp = decompose(form)
            energies = np.array([decomp.spectrum(occ) for occ in
                                 itertools.product(range(count + 1), repeat=n_modes)])
            expected = energies[np.lexsort((energies.imag, energies.real))][:count]
            levels = predicted_levels(decomp, count)
            assert levels.dtype == np.complex128 and levels.shape == (count,)
            assert np.all(np.abs(levels - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("n_modes,count", [(1, 30), (2, 12), (3, 7), (4, 5)])
    def test_matches_full_occupation_table(self, rng, n_modes, count):
        # reference: every occupation tuple with each n_i <= count, summed mode by
        # mode and sorted. Tied levels come from identical modes and integer
        # frequencies, which are exact in floating point (with decimal ones such
        # as 0.1 rounding alone can tie real parts; see predicted_levels)
        occ = np.array(list(itertools.product(range(count + 1), repeat=n_modes)))
        cases = [
            (freqs, offset)
            for freqs in (
                rng.uniform(0.1, 2.0, n_modes) + 0j,
                rng.uniform(-1.0, 2.0, n_modes) + 1j * rng.uniform(-1.0, 1.0, n_modes),
                np.full(n_modes, 1.0 + 0j),
                np.full(n_modes, 0.5 - 0.25j),
                rng.integers(-2, 3, n_modes) + 0.5j * rng.integers(-2, 3, n_modes),
            )
            for offset in (0.0, complex(*rng.normal(size=2)))
        ]
        if n_modes == 2:  # adding this offset to the sorted sums reorders two of them
            cases.append((np.array([0.1 + 0.2j, 0.2 - 0.2j]), 0.4 + 1j))
        for freqs, offset in cases:
            decomp = SpectralDecomposition((), freqs, 0j, Reality.COMPLEX, False, offset)
            table = offset + sum(w * (occ[:, i] + 0.5) for i, w in enumerate(freqs))
            expected = np.sort(table, kind="stable")[:count]
            assert np.array_equal(predicted_levels(decomp, count), expected)

    def test_many_levels_of_three_modes_stay_small(self, monkeypatch):
        # the full table would hold 1001^3 occupation triples (24 GB); the merge
        # sorts about count^2 sums per mode
        def no_table(*args, **kwargs):
            raise AssertionError("predicted_levels built the full occupation table")

        monkeypatch.setattr(np, "indices", no_table)
        freqs = np.array([1.0, 1.0, 2.0]) + 0j
        decomp = SpectralDecomposition((), freqs, 0j, Reality.ALL_REAL, False, 0j)
        tracemalloc.start()
        levels = predicted_levels(decomp, 1000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert levels.shape == (1000,)
        # the energies n_1 + n_2 + 2 n_3 + 2 are integers, exact in floating point;
        # total t is reached by t - 2 n_3 + 1 tuples for each n_3 <= t / 2
        totals = np.arange(40)
        counts = [sum(t - 2 * n3 + 1 for n3 in range(t // 2 + 1)) for t in totals]
        expected = np.repeat(totals + 2.0, counts)[:1000]
        assert np.array_equal(levels, expected.astype(complex))
        assert peak < 64 * 2 ** 20


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

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_levels_validation(self, tol):
        form = one_mode(OneModeParams(0.3, 0.5))
        decomp = decompose(form)
        for levels in (0, 2.5, True):
            with pytest.raises(ValueError, match="levels must be a positive integer"):
                verify_spectrum(form, decomp, levels, FockTruncation(1, 10))
        # at nmax 12 the levels miss by 0.35: an infinite tol would pass them
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_spectrum(form, decomp, 3, FockTruncation(1, 12), tol=tol)

    def test_rerun_respects_cap(self, monkeypatch):
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        trunc = FockTruncation(2, 10, cap=100)
        assert trunc.grown(0).cap == 100
        calls = []
        monkeypatch.setattr(fock, "assemble", lambda *args: calls.append(args))
        # the re-run at cutoff 15 needs 225 states; a start at 5 re-runs at 10
        with pytest.raises(ValueError, match="with that re-run is 5$"):
            verify_spectrum(form, decompose(form), 3, trunc)
        assert calls == []

    def test_rerun_over_cap_names_the_cap_it_needs(self):
        # no cutoff >= 2 has a re-run under these caps
        with pytest.raises(ValueError, match="no starting cutoff .* needs cap 22$"):
            FockTruncation(1, 10, cap=20).grown(20)
        with pytest.raises(ValueError, match="no starting cutoff .* needs cap 49$"):
            FockTruncation(2, 3, cap=20).grown(5)
        FockTruncation(2, 2, cap=49).grown(5)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n_modes,cutoff", [(1, 12), (2, 6), (3, 4)])
    def test_spectrum_matches_full_complex_solve(self, rng, n_modes, cutoff, real):
        trunc = FockTruncation(n_modes, cutoff)
        for _ in range(2):
            form = seeded_form(rng, n_modes, real)
            values = verify_spectrum(form, decompose(form), 1, trunc).eigenvalues
            assert np.all(np.diff(values.real) >= 0.0)
            full = np.linalg.eigvals(assemble_dense(form, trunc).astype(complex))
            # conjugate pairs of a real matrix may tie on the real part and
            # swap places, so pair the two spectra by an optimal matching
            dist = np.abs(values[:, None] - full[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert np.max(dist[rows, cols]) <= 1e-10 * np.max(np.abs(full))

    def test_one_real_solve_per_parity_block(self, monkeypatch):
        # alpha beta > 0: the balanced form's blocks are real symmetric
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        decomp = decompose(form)
        calls = counted_dense_solves(monkeypatch)
        # 49 states (25 even, 24 odd), re-run at cutoff 12: 144 states (72 + 72)
        report = verify_spectrum(form, decomp, 3, FockTruncation(2, 7), tol=1e-2)
        assert calls == [("eigvalsh", shape, "float64")
                         for shape in ((25, 25), (24, 24), (72, 72), (72, 72))]
        assert report.eigenvalues.size == 49


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

    def test_residuals_match_dense_products(self, rng):
        # reference: the commutator from two dense full-size products
        form = seeded_form(rng, 2, real=False)
        trunc = FockTruncation(2, 7)
        ops = embedded_ladders(2, 7)
        ham = assemble_dense(form, trunc)
        rep = adjoint_rep(form)
        mask = trunc.interior_mask()
        interior, full = [], []
        for i, op in enumerate(ops):
            resid = ham @ op - op @ ham
            for j in range(len(ops)):
                if rep[j, i] != 0:
                    resid = resid - rep[j, i] * ops[j]
            full.append(float(np.max(np.abs(resid))))
            interior.append(float(np.max(np.abs(resid[np.ix_(mask, mask)]))))
        report = verify_adjoint_action(form, trunc)
        # the interior is round-off in either summation order, not the same bits
        np.testing.assert_allclose(report.full_residuals, full, rtol=1e-13)
        bound = 64 * EPS * np.max(np.abs(form.coeffs)) * trunc.cutoff ** 1.5
        assert max(interior) < bound and report.max_interior < bound

    def test_zero_form_is_exact(self):
        form = QuadraticForm(BosonBasis(1), np.zeros((2, 2)))
        report = verify_adjoint_action(form, FockTruncation(1, 10))
        assert max(report.full_residuals) == 0.0

    def test_mode_mismatch_raises(self):
        with pytest.raises(ValueError, match="mode"):
            verify_adjoint_action(one_mode(OneModeParams(0.3, 0.5)), FockTruncation(2, 5))

    def test_memory_stays_small_at_the_cap(self):
        # 4096 states: one dense complex residual alone would take 256 MiB
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        tracemalloc.start()
        report = verify_adjoint_action(form, FockTruncation(2, 64))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert report.max_interior < 1e-10
        assert peak < 50e6


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
        ham = assemble_dense(one_mode(params), FockTruncation(1, 30))
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

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (0.3j, -0.5j)], ids=["real", "imaginary"])
    def test_relative_residual_separates_exact_from_wrong_metric(self, alpha, beta):
        # the absolute residual reads 1e9 here although the metric is exact;
        # scaled by the block norms it is round-off, and a map for a nearby
        # point leaves a residual many orders larger
        params = OneModeParams(alpha, beta)
        trunc = FockTruncation(1, 40)
        exact = verify_metric(params, bogoliubov_map(params, 1.0), trunc)
        assert exact.relative_residual < 16 * np.finfo(float).eps
        nearby = bogoliubov_map(OneModeParams(alpha, 0.9 * beta), 1.0)
        assert verify_metric(params, nearby, trunc).relative_residual > 1e-6

    def test_residual_profile_is_the_max_over_each_leading_block(self):
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        trunc = FockTruncation(1, 40)
        factor = fock._metric_factor(cmap, trunc)
        rho = factor @ factor.conj().T
        ham = assemble_dense(one_mode(params), trunc)
        resid = np.abs(rho @ ham - ham.conj().T @ rho)
        expected = tuple(float(np.max(resid[:cut, :cut])) for cut in range(1, 41))
        assert verify_metric(params, cmap, trunc).residual_profile == expected

    def test_interior_validation(self):
        params = OneModeParams(0.1, 0.1)
        cmap = bogoliubov_map(params, 1.0)
        with pytest.raises(ValueError, match="interior"):
            verify_metric(params, cmap, FockTruncation(1, 20), interior=0)

    @pytest.mark.parametrize("interior", [2.5, True, np.float64(3.0), "3"])
    def test_interior_must_be_an_integer(self, interior):
        params = OneModeParams(0.1, 0.1)
        cmap = bogoliubov_map(params, 1.0)
        with pytest.raises(ValueError, match="interior must be an integer"):
            verify_metric(params, cmap, FockTruncation(1, 20), interior=interior)
