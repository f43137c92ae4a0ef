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
    build_quadratic,
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


def normal_order(form):
    """The form's (G, offset) in the order assemble builds it: each a_i a_j^dag term (i
    lowering, j raising) rewritten as a_j^dag a_i, plus its coefficient where j raises mode i
    (the trace of G's upper right block, summed as np.trace sums it)."""
    k = form.basis.n_modes
    g = form.coeffs.copy()
    for i, j in itertools.product(range(k), range(k, 2 * k)):
        g[j, i] += g[i, j]
        g[i, j] = 0.0
    return g, form.offset + np.trace(form.coeffs[:k, k:])


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
    return [fock._dense(target[target >= 0], np.flatnonzero(target >= 0), weight[target >= 0],
                        trunc.dimension) for target, weight in zip(*fock._ladder_maps(trunc))]


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

    def test_dimension_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="feasible cutoff"):
            FockTruncation(2, 100)
        # 4096 ** (1/3) evaluates to 15.999999999999998; the exact largest cutoff is 16
        with pytest.raises(ValueError, match="feasible cutoff for 3 mode.s. is 16$"):
            FockTruncation(3, 17)
        FockTruncation(3, 16)
        # cutoffs start at 2, so 13 modes (8192 states at cutoff 2) admit none
        with pytest.raises(ValueError, match="exceeds cap 4096; no starting cutoff for 13 mode.s. "
                                             "fits$"):
            FockTruncation(13, 2)
        monkeypatch.setattr(fock, "DIMENSION_CAP", 10001)
        FockTruncation(2, 100)  # a raised cap admits it
        monkeypatch.setattr(fock, "DIMENSION_CAP", 3)
        with pytest.raises(ValueError, match="cap 3; no starting cutoff for 2 mode.s. fits$"):
            FockTruncation(2, 2)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(1, 1)

    def test_mode_count_validation(self):
        with pytest.raises(ValueError, match="n_modes must be positive, got 0"):
            FockTruncation(0, 5)

    @pytest.mark.parametrize("n_modes,cutoff", [(2, 3.5), (1.5, 4), (True, 4), (1, False),
                                                (np.float64(2.0), 4)])
    def test_rejects_non_integer_sizes(self, n_modes, cutoff):
        with pytest.raises(ValueError, match="must be an integer"):
            FockTruncation(n_modes, cutoff)

    def test_accepts_numpy_integer_sizes(self):
        assert FockTruncation(np.int64(2), np.int32(3)).dimension == 9
        assert FockTruncation(np.int64(2), np.int64(3)).grown() == FockTruncation(2, 8)

    def test_numpy_integer_sizes_do_not_wrap_around(self):
        # np.int64(2) ** np.int64(64) wraps to 0, which would pass the cap
        with pytest.raises(ValueError, match="no starting cutoff for 64 mode.s. fits$"):
            FockTruncation(np.int64(64), np.int64(2))
        with pytest.raises(ValueError, match="dimension 27000000000000000000 exceeds cap 4096"):
            FockTruncation(np.int64(3), np.int64(3_000_000))


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
        # reference: sum_ij G[i,j] M_i M_j + offset * I in normal order from the full
        # embedded operators, in the same summation order; the result must agree bit for bit
        size = 2 * n_modes
        for _ in range(3):
            g = random_symmetric(rng, size)
            zero = rng.random((size, size)) < 0.3
            zero[0, -1] = True
            g[zero | zero.T] = 0.0
            form = QuadraticForm(BosonBasis(n_modes), g, offset=complex(*rng.normal(size=2)))
            trunc = FockTruncation(n_modes, cutoff)
            ops = embedded_ladders(n_modes, cutoff)
            g, offset = normal_order(form)
            expected = np.zeros((trunc.dimension, trunc.dimension), dtype=complex)
            for i in range(size):
                for j in range(size):
                    if g[i, j] != 0:
                        expected += g[i, j] * (ops[i] @ ops[j])
            expected += offset * np.eye(trunc.dimension)
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
        # the offset on the diagonal; in normal order 0.5 a a^dag + 0.5 a^dag a is
        # a^dag a + 0.5
        form = QuadraticForm(BosonBasis(1), np.array([[0.0, 0.5], [0.5, 2.0]]), offset=0.25)
        rows, cols, values, dim = assemble(form, FockTruncation(1, 4))
        assert dim == 4
        runs = [fock._pair(FockTruncation(1, 4), *pair) for pair in ((1, 0), (1, 1))]
        expected_rows = np.concatenate([run[0] for run in runs] + [np.arange(4)])
        expected_cols = np.concatenate([run[1] for run in runs] + [np.arange(4)])
        expected_values = np.concatenate([1.0 * runs[0][2], 2.0 * runs[1][2], np.full(4, 0.75)])
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
    """sum_ij G[i,j] M_i M_j + offset * I in normal order, scattered term by term from
    reference_product."""
    g, offset = normal_order(form)
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
    """The single-operator maps and the pair maps composed from them against the
    occupation-table walk."""

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4), (4, 3)])
    def test_products_match_occupation_walk(self, n_modes, cutoff):
        trunc = FockTruncation(n_modes, cutoff)
        ops = range(2 * n_modes)
        for i, (target, weight) in enumerate(zip(*fock._ladder_maps(trunc))):
            kept = np.flatnonzero(target >= 0)
            for want, have in zip(reference_product(trunc, [i]),
                                  (target[kept], kept, weight[kept])):
                assert have.dtype == want.dtype and np.array_equal(have, want), i
        for i, j in itertools.product(ops, ops):
            for want, have in zip(reference_product(trunc, [i, j]), fock._pair(trunc, i, j)):
                assert have.dtype == want.dtype and np.array_equal(have, want), (i, j)
        # two raisings of mode 1 leave the table from its top two levels
        assert fock._pair(trunc, n_modes, n_modes)[0].size < trunc.dimension

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4), (4, 3)])
    def test_rank_inverts_the_occupation_table(self, n_modes, cutoff):
        trunc = FockTruncation(n_modes, cutoff)
        occ = trunc.occupations()
        assert trunc.rank(occ).tolist() == list(range(trunc.dimension))
        assert trunc.rank(np.stack([occ, occ[::-1]])).tolist() == [
            list(range(trunc.dimension)), list(range(trunc.dimension))[::-1]]
        # every state pushed out of the box in one mode, below 0 or to the cutoff
        for mode in range(n_modes):
            for level in (-1, cutoff):
                outside = occ.copy()
                outside[:, mode] = level
                assert trunc.rank(outside).tolist() == [-1] * trunc.dimension


def leaves(tables):
    """Every array and size in a cached table, nested tuples walked, a None coefficient
    skipped."""
    for item in tables:
        if isinstance(item, tuple):
            yield from leaves(item)
        elif item is not None:
            yield item


class TestTableCache:
    """The truncation-only index tables, built once per truncation and shared read-only."""

    @staticmethod
    def tables():
        # read when a test runs, so that a renamed table fails these tests, not collection
        return fock._ladder_maps, fock._blocks

    def test_second_call_shares_read_only_arrays(self):
        trunc = FockTruncation(2, 5)
        for table in self.tables():
            first, second = list(leaves(table(trunc))), list(leaves(table(trunc)))
            arrays = [(a, b) for a, b in zip(first, second) if isinstance(a, np.ndarray)]
            assert len(first) == len(second) and arrays
            for a, b in arrays:
                assert a is b and not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 6), (3, 4)])
    def test_cached_tables_equal_fresh_ones(self, n_modes, cutoff):
        trunc = FockTruncation(n_modes, cutoff)
        for table in self.tables():
            cached, fresh = list(leaves(table(trunc))), list(leaves(table.__wrapped__(trunc)))
            assert len(cached) == len(fresh)
            for a, b in zip(cached, fresh):
                assert type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype
                assert np.array_equal(a, b)

    def test_cold_and_warm_cache_assemble_bit_identical(self, rng):
        form, trunc = seeded_form(rng, 2, False), FockTruncation(2, 7)
        runs = []
        for clear in (True, False):
            if clear:
                for table in self.tables() + (fock._pair,):
                    table.cache_clear()
            runs.append(assemble(form, trunc)[:3] + (fock._parity_eigenvalues(form, trunc, 4),))
        for cold, warm in zip(*runs):
            assert cold.dtype == warm.dtype and cold.tobytes() == warm.tobytes()

    def test_cache_retains_under_8_mb_at_the_cap(self):
        # 9 truncations of 3000 to 4096 states, K = 1 to 6: the first is evicted; the 8
        # entries of both tables retain 3.7 MB, most of it the maps of the many-mode ones
        truncs = [FockTruncation(k, c) for k, c in
                  [(1, 4096), (1, 4000), (2, 64), (2, 63), (3, 16), (3, 15), (4, 8), (5, 5), (6, 4)]]
        tables = self.tables()
        for table in tables:
            table.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for trunc in truncs:
                for table in tables:
                    table(trunc)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = [table.cache_info() for table in tables]
        for table in tables:
            table.cache_clear()
        assert all(i.maxsize == i.currsize == 8 for i in info)
        assert retained < 8e6

    def test_pair_table_filled_once_read_only_and_equal_to_fresh_products(self, rng):
        form, trunc = seeded_form(rng, 2, False), FockTruncation(2, 6)
        # a dense form needs every pair once, but a lowering operator left of a raising one
        pairs = [(i, j) for i in range(4) for j in range(4) if not i < 2 <= j]
        fock._pair.cache_clear()
        first = assemble(form, trunc)
        stored = {pair: fock._pair(trunc, *pair) for pair in pairs}
        second = assemble(form, trunc)
        info = fock._pair.cache_info()
        assert info.misses == info.currsize == len(pairs) == 12
        for (i, j), products in stored.items():
            assert all(a is b for a, b in zip(products, fock._pair(trunc, i, j)))
            for have, want in zip(products, fock._pair.__wrapped__(trunc, i, j)):
                assert not have.flags.writeable and have.dtype == want.dtype
                assert np.array_equal(have, want)
            with pytest.raises(ValueError, match="read-only"):
                products[0][0] = products[0][0]
        assert fock._pair.cache_info().misses == len(pairs)
        for a, b in zip(first, second):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_pair_table_retains_under_15_mb_at_the_cap(self, rng):
        # dense forms on 9 truncations of 3000 to 4096 states, K = 1 to 6, need 3K^2 pairs
        # each (normal order needs no a_i a_j^dag), 315 in all: the last 128 are kept, K = 6
        # with 108 and 20 of K = 5, which retain about 7 MB of int64 rows and cols and
        # float64 weights
        truncs = [FockTruncation(k, c) for k, c in
                  [(1, 4096), (1, 4000), (2, 64), (2, 63), (3, 16), (3, 15), (4, 8), (5, 5), (6, 4)]]
        forms = [QuadraticForm(BosonBasis(t.n_modes), random_symmetric(rng, 2 * t.n_modes))
                 for t in truncs]
        fock._pair.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for form, trunc in zip(forms, truncs):
                assemble(form, trunc)
            fock._ladder_maps.cache_clear()  # leaves the pair maps alone in what is retained
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = fock._pair.cache_info()
        fock._pair.cache_clear()
        assert info.maxsize == info.currsize == 128 and info.misses == 315
        assert retained < 15e6

    def test_second_pass_over_seven_truncations_builds_no_pair_map(self, rng):
        # the truncations and term patterns of one oracle benchmark pass: one-mode spectrum
        # checks at nmax 60 and their re-run at 80, the metric check at 40 with its a^dag^2,
        # the two-mode model at 20 and 25, and a weakly coupled three-mode form at 5 and 10
        three = np.zeros((6, 6))
        for i in range(3):
            three[i, i], three[i + 3, i + 3] = rng.uniform(0.0, 0.02, 2)
            for j in range(3):
                three[i, j + 3] = three[j + 3, i] = 0.5 if i == j else rng.uniform(-0.03, 0.03)
        one = one_mode(OneModeParams(0.2, 0.1))
        a_dag_squared = build_quadratic(BosonBasis(1), [(2, 2, 1.0)])
        runs = [(one, FockTruncation(1, 60)), (one, FockTruncation(1, 80)),
                (one, FockTruncation(1, 40)), (a_dag_squared, FockTruncation(1, 40))]
        runs += [(two_mode(TwoModeParams(0.1, 0.2, 0.3)), FockTruncation(2, cutoff))
                 for cutoff in (20, 25)]
        runs += [(QuadraticForm(BosonBasis(3), three), FockTruncation(3, cutoff))
                 for cutoff in (5, 10)]
        fock._pair.cache_clear()
        misses = []
        for _ in range(2):
            for form, trunc in runs:
                assemble(form, trunc)
            misses.append(fock._pair.cache_info().misses)
        assert misses == [55, 55]


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
        # scipy is imported only inside the oracle's Arnoldi solve and the metric
        # check; importing it costs about as much as the rest of `import quadboson`,
        # and the spectral, sweep and generator paths (transform without --oracle)
        # need none of it, nor does the oracle on either paper model: every unit
        # of those runs, the two-mode re-run at cutoff 35 included, fits a full solve
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
        configs = [os.path.join(data, f"sweep_{model}.json") for model in ("one_mode", "two_mode")]
        oracles = [os.path.join(data, f"oracle_{model}.json") for model in ("one_mode", "two_mode")]
        probe = (
            "import contextlib, io, sys\n"
            "import quadboson as qb\n"
            "from quadboson import cli\n"
            "params = qb.OneModeParams(0.3, 0.5)\n"
            "form = qb.two_mode(qb.TwoModeParams(0.1, 0.2, 0.3))\n"
            "qb.decompose(form), qb.detect_ep(qb.adjoint_rep(form))\n"
            "qb.classify_reality(qb.adjoint_rep(form))\n"
            "qb.transform_form(qb.one_mode(params), qb.bogoliubov_map(params, 1.0))\n"
            "qb.generator_coeffs(qb.bogoliubov_map(params, 1.0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main([command, '--config', path]) for path in {configs!r}\n"
            "             for command in ('analyze', 'sweep')]\n"
            f"    codes.append(cli.main(['transform', '--config', {configs[0]!r}]))\n"
            f"    codes += [cli.main(['oracle', '--config', path]) for path in {oracles!r}]\n"
            "print(codes, [name for name in sys.modules if name.split('.')[0] == 'scipy'])"
        )
        assert fresh_interpreter(probe) == "[0, 0, 0, 0, 0, 0, 0] []"


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


def exchanged(coeffs, perm):
    """coeffs with the modes reordered by perm on both halves of the basis."""
    k = len(perm)
    index = np.concatenate([perm, np.asarray(perm) + k])
    return coeffs[np.ix_(index, index)]


def cyclic_three_mode():
    """Three identical modes coupled around a ring, a_i a_(i+1)^dag and its reverse
    weighted apart: unchanged by the cyclic shift, by no transposition."""
    g = np.zeros((6, 6))
    for i in range(3):
        g[i, i + 3] = g[i + 3, i] = 0.5
        j = (i + 1) % 3
        g[i, j + 3] = g[j + 3, i] = 0.03   # a_i a_j^dag
        g[j, i + 3] = g[i + 3, j] = 0.01   # a_j a_i^dag
    return QuadraticForm(BosonBasis(3), g)


def sector_vectors(trunc, perm, parity, sign):
    """The sector's basis vectors as dense columns, from its _blocks unit's slot and coef."""
    slot, coef, size = fock._blocks(trunc, perm)[parity][1][sign]
    vectors = np.zeros((trunc.dimension, size))
    member = np.flatnonzero(slot >= 0)
    vectors[member, slot[member]] = coef[member]
    return vectors


class TestModeExchange:
    @pytest.mark.parametrize("form,perm", [
        pytest.param(two_mode(TwoModeParams(0.1, 0.2, 0.3)), (1, 0), id="two-mode"),
        pytest.param(oscillators((1.0, 0.8, 0.8), 0.01, 0.02), (0, 2, 1), id="modes-2-3"),
        pytest.param(oscillators((1.0, 1.0, 1.0), 0.01, 0.02), (1, 0, 2), id="first-of-three"),
        pytest.param(one_mode(OneModeParams(0.3, 0.5)), None, id="one-mode"),
        pytest.param(oscillators((0.9, 1.1), 0.01, 0.02), None, id="distinct-frequencies"),
        pytest.param(unbalanced_three_mode(), None, id="distinct-squeezing"),
        pytest.param(cyclic_three_mode(), None, id="cyclic-only"),
    ])
    def test_finds_the_first_exact_transposition(self, form, perm):
        assert fock._mode_exchange(form) == perm
        if perm is not None:
            assert np.array_equal(exchanged(form.coeffs, perm), form.coeffs)

    def test_cyclic_form_is_unchanged_by_the_shift(self):
        form = cyclic_three_mode()
        assert np.array_equal(exchanged(form.coeffs, (1, 2, 0)), form.coeffs)

    def test_balanced_form_keeps_the_exchange_exactly(self):
        # bench-like two-mode points: least squares alone sets the two modes' scales
        # apart in the last bit at some of them, which breaks the symmetry
        lost = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            form = two_mode(TwoModeParams(*rng.uniform(0.0, 0.25, 2), rng.uniform(-0.3, 0.3)))
            perm = fock._mode_exchange(form)
            balanced = fock._hermitian_balance(form, perm)
            assert np.array_equal(exchanged(balanced.coeffs, perm), balanced.coeffs)
            plain = fock._hermitian_balance(form).coeffs
            lost += not np.array_equal(exchanged(plain, perm), plain)
            assert np.max(np.abs(plain - balanced.coeffs)) <= 1e-14 * np.max(np.abs(plain))
        assert lost > 0

    @pytest.mark.parametrize("n_modes,cutoff,perm", [
        (2, 2, (1, 0)), (2, 7, (1, 0)), (3, 4, (0, 2, 1)), (3, 5, (2, 1, 0)),
    ])
    def test_sectors_split_each_parity_block_orthogonally(self, n_modes, cutoff, perm):
        # [V+ V-] is an orthogonal basis of the parity block, V+ even and V- odd under P
        trunc = FockTruncation(n_modes, cutoff)
        occ = trunc.occupations()
        swap = np.zeros((trunc.dimension,) * 2)
        swap[np.ravel_multi_index(occ[:, list(perm)].T, (cutoff,) * n_modes),
             np.arange(trunc.dimension)] = 1.0
        odd = trunc.odd_mask()
        for parity, ((slot, coef, size), _) in enumerate(fock._blocks(trunc, perm)):
            # the whole block: its own states in basis order, whatever the transposition
            mask = odd if parity else ~odd
            assert coef is None and size == mask.sum()
            assert np.array_equal(slot, np.where(mask, np.cumsum(mask) - 1, -1))
            plus, minus = (sector_vectors(trunc, perm, parity, sign) for sign in (0, 1))
            basis = np.hstack([plus, minus])
            assert basis.shape == (trunc.dimension, size)
            assert not np.any(basis[~mask])
            assert np.allclose(basis.T @ basis, np.eye(size), rtol=0, atol=1e-15)
            assert np.array_equal(swap @ plus, plus) and np.array_equal(swap @ minus, -minus)

    def test_hermitian_fold_is_exact_whatever_the_entry_order(self):
        # cutoff 2: the even + sector holds the fixed states |0,0> and |1,1>; the entries of
        # a Hermitian operator at (0, 3) and (3, 0) come in opposite orders, and
        # (1 + 1) + 3e-16 rounds up where (3e-16 + 1) + 1 rounds to even
        trunc, small = FockTruncation(2, 2), 3e-16
        rows, cols = np.array([0, 0, 0, 3, 3, 3]), np.array([3, 3, 3, 0, 0, 0])
        values = np.array([1.0, 1.0, small, small, 1.0, 1.0])
        whole, (sector, _) = fock._blocks(trunc, (1, 0))[0]
        assert sector[2] == 2
        unmirrored = fock._dense(*fock._fold(rows, cols, values, sector, False))
        assert unmirrored[0, 1] != unmirrored[1, 0]
        folded = fock._dense(*fock._fold(rows, cols, values, sector, True))
        assert np.array_equal(folded, folded.T) and folded[0, 1] == unmirrored[0, 1]
        # a whole block is gathered as it comes, never mirrored: the two states are its
        # first and last, and their entries sum in the order given
        block = fock._dense(*fock._fold(rows, cols, values, whole, True))
        assert whole[2] == 2 and np.array_equal(block, unmirrored)

    def test_sector_tables_cached_and_read_only(self):
        trunc = FockTruncation(2, 6)
        first, second = fock._blocks(trunc, (1, 0)), fock._blocks(trunc, (1, 0))
        fresh = fock._blocks.__wrapped__(trunc, (1, 0))
        arrays = [(a, b, c) for a, b, c in zip(leaves(first), leaves(second), leaves(fresh))
                  if isinstance(a, np.ndarray)]
        # per parity block: the whole block's slot, each sector's slot and coef
        assert len(arrays) == 10
        for a, b, c in arrays:
            assert a is b and not a.flags.writeable and np.array_equal(a, c)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    def test_sector_cache_retains_under_2_mb_at_the_cap(self):
        # 9 truncations of 3000 to 4096 states, K = 2 to 6, each with a transposition: the
        # first is evicted. The 8 entries, whole blocks and sectors together, retain 1.90 MB:
        # 64 bytes per state, six int64 slots and two float64 coefficients
        truncs = [FockTruncation(k, c) for k, c in
                  [(2, 64), (2, 63), (3, 16), (3, 15), (4, 8), (5, 5), (6, 4), (2, 62), (3, 14)]]
        fock._blocks.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for trunc in truncs:
                fock._blocks(trunc, (1, 0) + tuple(range(2, trunc.n_modes)))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = fock._blocks.cache_info()
        fock._blocks.cache_clear()
        assert info.maxsize == info.currsize == 8
        assert retained < 2e6


def reference_parity_eigenvalues(form, trunc, count, balanced=None, perm=None):
    """_parity_eigenvalues with an independent fold: a whole parity block cut out by its
    mask and running position, a sector's triplets filtered before its slots are
    gathered, under the same split rule and routing rule (the module's size policy)."""
    rows, cols, values, _ = assemble(form if balanced is None else balanced, trunc)
    limit = fock._DENSE_BLOCK_MAX if balanced is None else fock._HERMITIAN_BLOCK_MAX
    split_large = balanced is not None and values.dtype.kind == "f"
    odd, spectra = trunc.odd_mask(), []
    for mask, (_, split) in zip((~odd, odd), fock._blocks(trunc, perm)):
        size = int(mask.sum())
        if (split is not None and max(sector[2] for sector in split) <= limit
                and (size <= limit or split_large)):
            for slot, coef, n in (sector for sector in split if sector[2]):
                keep = (slot[rows] >= 0) & (slot[cols] >= 0)
                r, c = rows[keep], cols[keep]
                i, j, v = slot[r], slot[c], values[keep] * (coef[r] * coef[c])
                if balanced is not None:
                    upper, strict = i <= j, i < j
                    i, j, v = (np.concatenate([i[upper], j[strict]]),
                               np.concatenate([j[upper], i[strict]]),
                               np.concatenate([v[upper], v[strict].conj()]))
                spectra.append(fock.oracle_eigenvalues((i, j, v, n), None))
            continue
        position, keep = np.cumsum(mask) - 1, mask[rows]
        block = position[rows[keep]], position[cols[keep]], values[keep], size
        spectra.append(fock.oracle_eigenvalues(block, None if size <= limit else count))
    return np.sort(np.concatenate(spectra), kind="stable")


class TestSolveUnits:
    """Whole parity blocks and exchange sectors, folded and routed by one rule."""

    @pytest.mark.parametrize("exchange", [True, False], ids=["exchange", "no-exchange"])
    @pytest.mark.parametrize("form,cutoff", [
        # balanced: split into sectors, and at 33 blocks above 512 split as the form is real
        pytest.param(two_mode(TwoModeParams(0.1, 0.2, 0.3)), 16, id="balanced-16"),
        pytest.param(two_mode(TwoModeParams(0.1, 0.2, 0.3)), 33, id="balanced-33"),
        pytest.param(one_mode(OneModeParams(0.3, 0.5)), 60, id="balanced-one-mode"),
        # unbalanced: split at 16, whole 313- and 312-state blocks by Arnoldi at 25
        pytest.param(two_mode(TwoModeParams(-0.1, 0.2, 0.3)), 16, id="unbalanced-16"),
        pytest.param(two_mode(TwoModeParams(-0.1, 0.2, 0.3)), 25, id="unbalanced-25"),
        pytest.param(unbalanced_three_mode(), 5, id="unbalanced-three-mode"),
        # complex coefficients: unbalanced, and balanced
        pytest.param(two_mode(TwoModeParams(0.2j, 0.2, 0.3)), 16, id="complex-16"),
        pytest.param(two_mode(TwoModeParams(0.1 + 0.05j, 0.2 - 0.1j, 0.3)), 20,
                     id="complex-balanced-20"),
        pytest.param(one_mode(OneModeParams(0.3 + 0.1j, 0.5)), 40, id="complex-one-mode"),
    ])
    def test_bit_identical_to_the_reference_fold(self, monkeypatch, form, cutoff, exchange):
        # within one process: Arnoldi repeats bit for bit there (TestArnoldiBlocks)
        trunc = FockTruncation(form.basis.n_modes, cutoff)
        perm = fock._mode_exchange(form) if exchange else None
        balanced = fock._hermitian_balance(form, perm)
        solved, solve = [], fock.oracle_eigenvalues
        monkeypatch.setattr(fock, "oracle_eigenvalues",
                            lambda block, count: solved.append((block[3], count))
                            or solve(block, count))
        spectrum = fock._parity_eigenvalues(form, trunc, 5, balanced, perm)
        calls = solved[:]
        solved.clear()
        reference = reference_parity_eigenvalues(form, trunc, 5, balanced, perm)
        assert calls == solved
        assert spectrum.dtype == reference.dtype and spectrum.tobytes() == reference.tobytes()

    def test_whole_blocks_of_a_symmetric_form_match_dense(self, monkeypatch):
        # the exchange but no balance: the 313- and 312-state blocks stay whole and go to
        # real Arnoldi, unstubbed; a whole block slotted by the transposition's orbit
        # representatives, not its own running index, moves levels by up to 3.3 at cutoff 40
        form, trunc = two_mode(TwoModeParams(-0.1, 0.2, 0.3)), FockTruncation(2, 25)
        perm = fock._mode_exchange(form)
        assert perm == (1, 0) and fock._hermitian_balance(form, perm) is None
        solved, found = [], []
        solve, arnoldi = fock.oracle_eigenvalues, fock._lowest_by_arnoldi
        monkeypatch.setattr(fock, "oracle_eigenvalues",
                            lambda block, count: solved.append((block[3], count))
                            or solve(block, count))
        monkeypatch.setattr(fock, "_lowest_by_arnoldi",
                            lambda matrix, k: found.append((matrix.dtype, arnoldi(matrix, k)))
                            or found[-1][1])
        lowest = fock._parity_eigenvalues(form, trunc, 6, None, perm)
        assert solved == [(313, 6), (312, 6)]
        assert [dtype for dtype, _ in found] == [np.float64] * 2
        assert all(values is not None for _, values in found)  # no dense fallback
        dense = np.sort(np.linalg.eigvals(assemble_dense(form, trunc)), kind="stable")
        scale = np.maximum(1.0, np.abs(dense[:6]))
        assert np.all(np.abs(lowest[:6] - dense[:6]) <= 1e-10 * scale)


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

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1e-320), (1e-320, 0.5)])
    def test_subnormal_coefficient_is_solved_without_a_warning(self, alpha, beta):
        # a complex division by the subnormal mirror entry is 0/0; the balance is then
        # just not found, and pytest's error::RuntimeWarning filter holds the rest
        form = one_mode(OneModeParams(alpha, beta))
        assert fock._hermitian_balance(form) is None
        report = verify_spectrum(form, decompose(form), 5, FockTruncation(1, 12))
        assert report.passed and report.max_deviation < 1e-13

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
        monkeypatch.setattr(fock, "DIMENSION_CAP", 100)
        trunc = FockTruncation(2, 10)
        calls = []
        monkeypatch.setattr(fock, "assemble", lambda *args: calls.append(args))
        # the re-run at cutoff 15 needs 225 states; a start at 5 re-runs at 10
        with pytest.raises(ValueError, match="exceeds cap 100; .* with that re-run is 5$"):
            verify_spectrum(form, decompose(form), 3, trunc)
        assert calls == []
        assert FockTruncation(2, 5).grown() == FockTruncation(2, 10)

    def test_rerun_over_cap_fits_no_starting_cutoff(self, monkeypatch):
        # the smallest re-runs, from cutoff 2, hold 22 states for one mode and 49 for two;
        # at the real cap, five modes re-run from cutoff 2 at 7 ** 5 = 16807 states
        with pytest.raises(ValueError, match="no starting cutoff for 5 mode.s. fits$"):
            FockTruncation(5, 2).grown()
        monkeypatch.setattr(fock, "DIMENSION_CAP", 21)
        with pytest.raises(ValueError, match="no starting cutoff for 1 mode.s. fits$"):
            FockTruncation(1, 2).grown()
        monkeypatch.setattr(fock, "DIMENSION_CAP", 48)
        with pytest.raises(ValueError, match="no starting cutoff for 2 mode.s. fits$"):
            FockTruncation(2, 2).grown()
        monkeypatch.setattr(fock, "DIMENSION_CAP", 49)
        assert FockTruncation(2, 2).grown() == FockTruncation(2, 7)

    @pytest.mark.parametrize("n_modes,cutoff,regrown", [(1, 10, 30), (2, 10, 15), (3, 4, 9)])
    def test_rerun_grows_one_mode_by_20_and_more_modes_by_5(self, monkeypatch, n_modes, cutoff,
                                                            regrown):
        # a re-run that fills the cap exactly is allowed
        monkeypatch.setattr(fock, "DIMENSION_CAP", regrown ** n_modes)
        assert FockTruncation(n_modes, cutoff).grown() == FockTruncation(n_modes, regrown)

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

    def test_one_real_solve_per_exchange_sector(self, monkeypatch):
        # alpha beta > 0: the balanced form's blocks are real symmetric, and swapping the
        # two modes leaves it unchanged; each parity block splits into the + and - sectors
        form = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        assert fock._mode_exchange(form) == (1, 0)
        decomp = decompose(form)
        calls = counted_dense_solves(monkeypatch)
        # 49 states: even 25 = 7 fixed |n,n> + 9 pairs (16 + 9), odd 24 = 12 pairs (12 + 12);
        # re-run at cutoff 12, 144 states: even 72 = 12 + 30 pairs (42 + 30), odd 36 + 36
        report = verify_spectrum(form, decomp, 3, FockTruncation(2, 7), tol=1e-2)
        assert calls == [("eigvalsh", (n, n), "float64")
                         for n in (16, 9, 12, 12, 42, 30, 36, 36)]
        assert report.eigenvalues.size == 49

    @pytest.mark.parametrize("form,levels,trunc,tol,solves", [
        # balanced: 25 + 24 states, re-run 72 + 72, each block by eigvalsh
        pytest.param(oscillators((0.9, 1.1), 0.01, 0.02), 3, FockTruncation(2, 7), 1e-2,
                     [("eigvalsh", (n, n), "float64") for n in (25, 24, 72, 72)],
                     id="two-mode-balanced"),
        # 63 + 62 states by eigvals, the 500-state re-run blocks by Arnoldi
        pytest.param(unbalanced_three_mode(), 4, FockTruncation(3, 5), 1e-4,
                     [("eigvals", (n, n), "float64") for n in (63, 62)],
                     id="three-mode-unbalanced"),
    ])
    def test_no_exchange_symmetry_takes_the_unsplit_path(self, monkeypatch, form, levels, trunc,
                                                         tol, solves):
        # distinct mode frequencies: no transposition leaves the form unchanged, so the
        # spectrum and the solves are those of one solve per parity block, bit for bit
        assert fock._mode_exchange(form) is None
        balanced = fock._hermitian_balance(form)
        calls = counted_dense_solves(monkeypatch)
        unsplit = fock._parity_eigenvalues(form, trunc, levels, balanced)
        fock._parity_eigenvalues(form, trunc.grown(), levels, balanced)
        assert calls == solves
        calls.clear()
        report = verify_spectrum(form, decompose(form), levels, trunc, tol=tol)
        assert np.array_equal(report.eigenvalues, unsplit)
        assert calls == solves
        assert report.passed


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


def mpmath_witness(cmap, interior):
    """1 / ||F^-1||_2^2 on the interior block, from 30-digit singular values of the closed-form
    inverse factor <m| F^-1 |n> = E^-(m/2 + 1/4) <m| exp(-A a^dag^2) |n>, with A and E read off
    the map's 2x2 representation at the same precision; even and odd levels apart."""
    import mpmath as mp

    with mp.workdps(30):
        st = mp.matrix(cmap.matrix.T.tolist())
        swap = mp.matrix([[0, 1], [1, 0]])
        rep = swap * mp.inverse(st.conjugate()) * swap * st
        e = 1 / mp.re(rep[0, 0])
        a = -e * rep[1, 0] / 2
        largest = 0
        for parity in (0, 1):
            levels = range(parity, interior, 2)
            inverse = mp.matrix(len(levels))
            for col, n in enumerate(levels):
                for row in range(col, len(levels)):
                    m, k = levels[row], row - col
                    inverse[row, col] = ((-a) ** k / mp.factorial(k)
                                         * mp.sqrt(mp.factorial(m) / mp.factorial(n))
                                         * e ** -(mp.mpf(m) / 2 + mp.mpf(1) / 4))
            largest = max(largest, max(mp.svd_c(inverse, compute_uv=False)))
        return float(1 / largest ** 2)


class TestVerifyMetric:
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (0.2 + 0.1j, 0.3 - 0.15j)],
                             ids=["real-map", "complex-map"])
    def test_witness_matches_mpmath_at_nmax_60(self, alpha, beta):
        # the interior block of F is strongly graded there: a triangular solve for F^-1
        # lost 8 digits of the real map's witness (0.4729622015 against 0.47296218366730)
        params = OneModeParams(alpha, beta)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 60))
        reference = mpmath_witness(cmap, report.interior_size)
        if alpha == 0.3:
            assert abs(reference - 0.47296218366730) < 1e-13
        assert abs(report.min_metric_eigenvalue - reference) <= 1e-12 * reference

    def test_weak_squeezing_deep_interior(self):
        params = OneModeParams(0.05, 0.05)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 12))
        assert report.interior_size == 10
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
        report = verify_metric(params, cmap, FockTruncation(1, 12))
        assert report.residual < 1e-9
        assert report.min_metric_eigenvalue > 0.0

    def test_vacuum_element_exact_at_every_cutoff(self):
        # <0|rho|0> = ||S|0>||^2 = sqrt(8/3) here, |F[0, 0]|^2 for the lower-triangular
        # factor and the whole 1x1 interior at cutoff 3; an exact metric has no
        # truncation error however small the cutoff
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 3))
        assert report.interior_size == 1
        assert abs(report.min_metric_eigenvalue - np.sqrt(8.0 / 3.0)) < 1e-12
        for cutoff in range(3, 41):
            vacuum = abs(fock._metric_factor(cmap, FockTruncation(1, cutoff))[0, 0]) ** 2
            assert abs(vacuum - np.sqrt(8.0 / 3.0)) < 1e-12

    def test_rejects_map_without_normal_ordered_metric(self):
        # S = exp(b a^dag^2) sends |0> to a non-normalizable state for
        # |b| >= 1/2, so S^dag S has no normal-ordered form
        cmap = CanonicalMap(np.array([[1.0, -1.2], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="normal-ordered"):
            verify_metric(OneModeParams(0.1, 0.1), cmap, FockTruncation(1, 10))

    def test_rejects_a_two_mode_truncation(self):
        params = OneModeParams(0.3, 0.5)
        with pytest.raises(ValueError, match="defined for the one-mode model"):
            verify_metric(params, bogoliubov_map(params, 1.0), FockTruncation(2, 10))

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

    @pytest.mark.parametrize("alpha,beta,dtype", [
        (0.3, 0.5, np.float64),
        # 1 - 4 alpha beta = 0.7 is real, the map is not
        (0.2 + 0.1j, 0.3 - 0.15j, np.complex128),
    ], ids=["real-map", "complex-map"])
    def test_expm_runs_in_the_map_arithmetic(self, monkeypatch, alpha, beta, dtype):
        import scipy.linalg

        dtypes, expm = [], scipy.linalg.expm

        def recording(matrix):
            dtypes.append(matrix.dtype)
            return expm(matrix)

        monkeypatch.setattr(scipy.linalg, "expm", recording)
        params = OneModeParams(alpha, beta)
        report = verify_metric(params, bogoliubov_map(params, 1.0), FockTruncation(1, 40))
        assert dtypes == [dtype]
        assert report.relative_residual < 16 * EPS and report.min_metric_eigenvalue > 0.0

    @pytest.mark.parametrize("cutoff", [40, 60])
    def test_real_path_matches_a_complex_build(self, cutoff):
        # the same map sent down the complex path by an imaginary part of 1e-300, which
        # moves no real part. Factor entries agree to 2.4e-14 relative; the witness to
        # 4.6e-16 at cutoff 40 and 1.3e-15 at 60, and both match mpmath
        # (test_witness_matches_mpmath_at_nmax_60)
        params, trunc = OneModeParams(0.3, 0.5), FockTruncation(1, cutoff)
        real_map = bogoliubov_map(params, 1.0)
        complex_map = CanonicalMap(real_map.matrix + 1e-300j)
        real, complex_ = (verify_metric(params, cmap, trunc) for cmap in (real_map, complex_map))
        factor, reference = (fock._metric_factor(cmap, trunc) for cmap in (real_map, complex_map))
        assert factor.dtype == np.float64 and reference.dtype == np.complex128
        nonzero = reference != 0
        assert np.array_equal(factor != 0, nonzero)
        assert np.max(np.abs(factor - reference)[nonzero] / np.abs(reference[nonzero])) < 1e-12
        assert real.interior_size == complex_.interior_size == cutoff - 2
        assert max(real.relative_residual, complex_.relative_residual) < 16 * EPS
        witness = complex_.min_metric_eigenvalue
        assert abs(real.min_metric_eigenvalue - witness) < 1e-13 * witness

    def test_refuses_a_metric_that_overflows_float64(self):
        # rho's entries grow about 4x per level at (0.3, 0.5): at nmax 460 the check is
        # finite and exact to round-off; at 480 rho H overflows, which read as nan
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 460))
        assert np.isfinite([report.residual, report.min_metric_eigenvalue]).all()
        assert report.relative_residual < 16 * EPS and report.min_metric_eigenvalue > 0.0
        for cutoff in (480, 1000):  # at 1000 the factor itself overflows
            with pytest.raises(ValueError, match=f"metric overflows float64 at cutoff {cutoff}$"):
                verify_metric(params, cmap, FockTruncation(1, cutoff))

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
