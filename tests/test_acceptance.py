"""Acceptance suite: one test per release criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from quadboson import (
    BosonBasis,
    ExceptionalPointError,
    FockTruncation,
    OneModeParams,
    QuadraticForm,
    Reality,
    TwoModeParams,
    adjoint_rep,
    bogoliubov_map,
    classify_reality,
    commutator_linear,
    commutator_matrix,
    decompose,
    detect_ep,
    eigenpairs,
    one_mode,
    transform_form,
    two_mode,
    verify_metric,
    verify_spectrum,
)
from form_helpers import random_symmetric, reconstruct_form


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - started:.2f}s)")


def random_complex(rng, bound):
    return complex(*rng.uniform(-bound, bound, 2))


def test_criterion_1_one_mode_closed_forms():
    rng = np.random.default_rng(101)
    with criterion("1 one-mode closed forms (1000 samples, 1e-10, <1s)"):
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            alpha, beta = random_complex(rng, 2.0), random_complex(rng, 2.0)
            root = np.sqrt(complex(1.0 - 4.0 * alpha * beta))
            ladders = eigenpairs(adjoint_rep(one_mode(OneModeParams(alpha, beta))))
            worst = max(
                worst,
                abs(ladders[0].eigenvalue + root),
                abs(ladders[1].eigenvalue - root),
            )
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"worst deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_two_mode_closed_forms():
    rng = np.random.default_rng(202)
    with criterion("2 two-mode closed forms (1000 samples, 1e-10, <1s)"):
        start = time.perf_counter()
        worst = 0.0
        for sample in range(1000):
            alpha, beta = random_complex(rng, 2.0), random_complex(rng, 2.0)
            gamma = 0.0 if sample % 5 == 0 else rng.uniform(-2.0, 2.0)
            ab4 = 4.0 * alpha * beta
            wp = np.sqrt(complex((gamma + 1.0) ** 2 - ab4))
            wm = np.sqrt(complex((gamma - 1.0) ** 2 - ab4))
            expected = np.array([-wp, -wm, wm, wp])
            expected = expected[np.lexsort((expected.imag, expected.real))]
            params = TwoModeParams(alpha, beta, gamma)
            ladders = eigenpairs(adjoint_rep(two_mode(params)))
            got = np.array([op.eigenvalue for op in ladders])
            got = got[np.lexsort((got.imag, got.real))]
            worst = max(worst, float(np.max(np.abs(got - expected))))
            if gamma == 0.0:
                # coupling off reproduces the one-mode reality condition
                one_root = np.sqrt(complex(1.0 - ab4))
                worst = max(worst, abs(wp - one_root), abs(wm - one_root))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"worst deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_structural_identities():
    rng = np.random.default_rng(303)
    with criterion("3 structural identities (1000 random G, K=1..4)"):
        for n_modes in (1, 2, 3, 4):
            basis = BosonBasis(n_modes)
            u = commutator_matrix(basis)
            for _ in range(250):
                form = QuadraticForm(basis, random_symmetric(rng, basis.size))
                rep = adjoint_rep(form)

                uh = u @ rep
                assert np.array_equal(uh, uh.T)

                coeffs = np.poly(rep)
                odd = coeffs[-2::-2]
                assert np.max(np.abs(odd)) < 1e-10 * np.max(np.abs(coeffs))

                values = np.linalg.eigvals(rep)
                fwd = values[np.lexsort((values.imag, values.real))]
                neg = -values
                bwd = neg[np.lexsort((neg.imag, neg.real))]
                scale = max(1.0, float(np.max(np.abs(values))))
                assert np.max(np.abs(fwd - bwd)) < 1e-10 * scale


def test_criterion_4_ladder_algebra():
    rng = np.random.default_rng(404)
    with criterion("4 ladder algebra (unit pairs 1e-9, reconstruction 1e-8)"):
        for n_modes in (1, 2, 3, 4):
            basis = BosonBasis(n_modes)
            u = commutator_matrix(basis)
            for _ in range(50):
                form = QuadraticForm(basis, random_symmetric(rng, basis.size))
                decomp = decompose(form)
                ops = [op for pair in decomp.pairs for op in pair]
                for low, high in decomp.pairs:
                    comm = commutator_linear(low.coeffs, high.coeffs, u)
                    assert abs(comm - 1.0) < 1e-9
                for a in ops:
                    for b in ops:
                        if abs(a.eigenvalue + b.eigenvalue) > 1e-6:
                            comm = commutator_linear(a.coeffs, b.coeffs, u)
                            assert abs(comm) < 1e-9
                rebuilt = reconstruct_form(decomp, basis)
                assert np.max(np.abs(rebuilt.coeffs - form.coeffs)) < 1e-8
                assert abs(rebuilt.offset - form.offset) < 1e-8


def test_criterion_5_exceptional_point_detection():
    with criterion("5 EP detection (one- and two-mode loci, <0.1s)"):
        start = time.perf_counter()

        report = detect_ep(adjoint_rep(one_mode(OneModeParams(0.5, 0.5))))
        assert report.defective
        assert report.algebraic_mult == 2
        assert report.geometric_mult == 1

        report = detect_ep(adjoint_rep(two_mode(TwoModeParams(0.25, 0.25, 0.5))))
        assert report.defective
        zero = [c for c in report.clusters if abs(c.value) < 1e-6]
        assert len(zero) == 1 and zero[0].defective
        assert zero[0].algebraic == 2 and zero[0].geometric == 1
        simple = [c for c in report.clusters if abs(c.value) > 1e-6]
        assert len(simple) == 2
        assert all(c.algebraic == 1 and not c.defective for c in simple)
        root2 = np.sqrt(2.0)
        assert sorted(c.value.real for c in simple) == pytest.approx([-root2, root2])

        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_6_oracle_spectrum_match():
    with criterion("6 oracle spectrum match (1e-6 / 1e-4, converged, <30s)"):
        start = time.perf_counter()

        form = one_mode(OneModeParams(0.3, 0.5))
        report = verify_spectrum(form, decompose(form), 5, FockTruncation(1, 60),
                                 tol=1e-6)
        root = np.sqrt(0.4)
        predicted = np.array([row[0] for row in report.matched])
        assert np.allclose(predicted, root * (np.arange(5) + 0.5), atol=1e-12)
        assert report.max_deviation < 1e-6
        assert report.converged and report.comparable

        pair = two_mode(TwoModeParams(0.1, 0.2, 0.3))
        report = verify_spectrum(pair, decompose(pair), 4, FockTruncation(2, 20),
                                 tol=1e-4)
        assert report.max_deviation < 1e-4
        assert report.converged and report.comparable

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_canonical_transform():
    with criterion("7 canonical transform (residuals 1e-12, EP breakdown)"):
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        s = cmap.matrix
        alpha, beta = params.alpha, params.beta
        assert abs(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] - 1.0) < 1e-12
        assert abs(alpha * s[0, 0] ** 2 + beta * s[1, 0] ** 2 + s[0, 0] * s[1, 0]) < 1e-12
        assert abs(alpha * s[0, 1] ** 2 + beta * s[1, 1] ** 2 + s[0, 1] * s[1, 1]) < 1e-12
        assert abs(np.linalg.det(s) - 1.0) < 1e-12

        out = transform_form(one_mode(params), cmap)
        half_root = np.sqrt(0.4) / 2.0
        assert abs(out.coeffs[0, 1] - half_root) < 1e-10
        assert abs(out.coeffs[0, 0]) < 1e-10 and abs(out.coeffs[1, 1]) < 1e-10

        with pytest.raises(ExceptionalPointError):
            bogoliubov_map(OneModeParams(0.5, 0.5), 1.0)
        with pytest.raises(ExceptionalPointError):
            bogoliubov_map(OneModeParams(0.25, 1.0), 1.0)


def test_criterion_8_metric_property():
    with criterion("8 metric property (residual <1e-6 at nmax=40, rho > 0, <10s)"):
        start = time.perf_counter()
        params = OneModeParams(0.3, 0.5)
        cmap = bogoliubov_map(params, 1.0)
        report = verify_metric(params, cmap, FockTruncation(1, 40))

        assert report.min_metric_eigenvalue > 0.0

        best = min(report.residual_profile[2:])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert best < 1e-6, (
            "quasi-Hermiticity residual floor "
            f"{best:.3e} at nmax=40 (profile head: "
            + ", ".join(f"{r:.2e}" for r in report.residual_profile[:8]) + ")"
        )


def test_criterion_9_reality_classification_sweep():
    with criterion("9 reality sweep (101x101 grid, boundary alpha*beta=1/4, <10s)"):
        start = time.perf_counter()
        grid = np.linspace(0.0, 1.0, 101)
        for alpha in grid:
            for beta in grid:
                rep = np.array([[-1.0, 2 * alpha], [-2 * beta, 1.0]], dtype=complex)
                label = classify_reality(rep)
                product = alpha * beta
                if label is Reality.ALL_REAL:
                    assert product <= 0.25 + 1e-9, (alpha, beta)
                elif label is Reality.COMPLEX:
                    assert product >= 0.25 - 1e-9, (alpha, beta)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
