"""Self-tests of the benchmark: its checks, its inputs and its tracer.

Run with `python3 -m pytest bench -q` from the root of the checkout.
"""

import contextlib
import inspect
import io
import json

import numpy as np
import numpy.linalg
import pytest
import scipy.linalg

import checks
import quadboson as qb
import spans
import workloads
from quadboson import FockTruncation, OneModeParams, OracleReport, cli, fock


def _small_sweep(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "grid.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    return cli.load_config(str(path)), out.read_text()


@pytest.fixture
def one_mode_grid(tmp_path):
    return _small_sweep(tmp_path, {"model": "one_mode", "sweep": [
        {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 5},
        {"parameter": "beta_re", "start": 0.0, "stop": 1.0, "steps": 5}]})


def _edit_row(text, row, column, value):
    lines = text.splitlines()
    cells = lines[3 + row].split(",")
    cells[column] = value
    lines[3 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestSweepCheck:
    def test_program_output_passes(self, one_mode_grid):
        config, text = one_mode_grid
        assert not workloads.Sweep._check(config, text).any()

    def test_rejects_perturbed_eigenvalue(self, one_mode_grid):
        config, text = one_mode_grid
        header = text.splitlines()[2].split(",")
        value = float(text.splitlines()[3 + 7].split(",")[header.index("lambda2_re")])
        bad = _edit_row(text, 7, header.index("lambda2_re"), repr(value + 1e-9))
        assert workloads.Sweep._check(config, bad).tolist() == [i == 7 for i in range(25)]

    def test_rejects_flipped_reality_label(self, one_mode_grid):
        config, text = one_mode_grid
        header = text.splitlines()[2].split(",")
        assert text.splitlines()[3].split(",")[header.index("reality")] == "AllReal"
        bad = _edit_row(text, 0, header.index("reality"), "Complex")
        assert workloads.Sweep._check(config, bad).tolist() == [i == 0 for i in range(25)]

    def test_rejects_split_pair_read_as_real_at_closed_form_ep(self):
        # a nilpotent sector block must read ExceptionalPoint even when the
        # eigenvalues split by ~1e-8 and match the closed form within sqrt(eps)
        values = np.array([[-2.0, -1.6e-8, 1.6e-8, 2.0]], dtype=complex)
        params = {"alpha_re": np.zeros(1), "alpha_im": np.zeros(1), "beta_re": np.full(1, 0.5),
                  "beta_im": np.zeros(1), "gamma": np.ones(1)}
        real = checks.check_sweep_rows("two_mode", params, values, np.array(["AllReal"]),
                                       np.array([0]))
        ep = checks.check_sweep_rows("two_mode", params, values,
                                     np.array(["ExceptionalPoint"]), np.array([1]))
        assert real.tolist() == [True] and ep.tolist() == [False]

    def test_rejects_changed_bytes_across_repeats(self, tmp_path):
        sweep = workloads.Sweep(0, tmp_path)
        path, config = sweep.configs["two_mode_grid"]
        text = tmp_path / "first.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--config", str(path), "--out", str(text)])
        first = text.read_text()
        verdict = sweep._judge("two_mode_grid", config, first)
        assert sweep._judge("two_mode_grid", config, first) is verdict
        lines = first.splitlines()
        lines[10] += "0"  # row 7: a digit more in min_gap, labels and eigenvalues intact
        changed = sweep._judge("two_mode_grid", config, "\n".join(lines) + "\n")
        assert changed[7] and not verdict[7] and changed.sum() == verdict.sum() + 1


class TestDecomposeCheck:
    def test_accepts_and_rejects(self):
        form = workloads.random_form(np.random.default_rng(3), 3)
        decomp = qb.decompose(form)
        report = qb.detect_ep(qb.adjoint_rep(form))
        assert checks.check_decompose_outcome(form, decomp, report, expect_ep=False)
        # a decomposition where an exceptional point was expected is a failure
        assert not checks.check_decompose_outcome(form, decomp, report, expect_ep=True)
        low, high = decomp.pairs[0]
        scaled = qb.LadderOperator(high.eigenvalue, 1.001 * high.coeffs, high.role)
        broken = qb.SpectralDecomposition(((low, scaled),) + decomp.pairs[1:], decomp.frequencies,
                                          decomp.ground_energy, decomp.reality, False,
                                          decomp.offset)
        assert not checks.check_decompose_outcome(form, broken, report, expect_ep=False)

    def test_exceptional_point_must_raise(self):
        form = qb.one_mode(OneModeParams(0.5, 0.5))
        report = qb.detect_ep(qb.adjoint_rep(form))
        with pytest.raises(qb.ExceptionalPointError) as info:
            qb.decompose(form)
        assert checks.check_decompose_outcome(form, info.value, report, expect_ep=True)


class TestOracleCheck:
    def _report(self, converged, deviation, comparable=True):
        return OracleReport(eigenvalues=np.zeros(3), matched=((1.0, 1.0 + deviation, deviation),),
                            converged=converged, comparable=comparable, tol=1e-6)

    def test_rejects_unconverged_or_failed_report(self):
        assert checks.check_oracle_report(self._report(True, 1e-9))
        assert not checks.check_oracle_report(self._report(False, 1e-9))
        assert not checks.check_oracle_report(self._report(True, 1e-5))
        assert not checks.check_oracle_report(self._report(True, 1e-9, comparable=False))

    def test_metric_bound_is_criterion_8(self):
        good = fock.MetricReport(1e-9, 0.1, 38, (1.0, 1.0, 1e-9, 2e-7))
        assert checks.check_metric_report(good)
        assert not checks.check_metric_report(fock.MetricReport(1e-9, 0.1, 38, (0, 0, 2e-6)))
        assert not checks.check_metric_report(fock.MetricReport(1e-9, -1e-3, 38, (0, 0, 1e-9)))


def test_crashing_operation_counts_as_failed(tmp_path):
    workload = workloads.Oracle(1, tmp_path)
    case = workload.spectrum_cases[0]
    workload.spectrum_cases = [workloads.SpectrumCase(case.name, case.form, 10 ** 6, case.trunc,
                                                      case.tol)]
    workload.metric_cases = []
    workload.ep_forms = []
    (op,) = workload.run_pass(lambda name: contextlib.nullcontext())
    assert op.failed == 1 and op.error.startswith("ValueError")


def test_fastest_pass_takes_each_calls_fastest_timing():
    import run
    first = [workloads.Op("a", 2.0, 1, 0), workloads.Op("b", 1.0, 1, 0)]
    second = [workloads.Op("a", 1.0, 1, 0), workloads.Op("b", 3.0, 1, 1)]
    assert run.fastest_pass([first, second]) == [second[0], first[1]]
    with pytest.raises(ValueError):
        run.fastest_pass([first, first[:1]])


class TestInputs:
    @pytest.mark.parametrize("name", ["decompose", "oracle"])
    def test_same_seed_same_inputs(self, name, tmp_path):
        def coeffs(workload):
            if name == "decompose":
                return [form.coeffs for _, form, _ in workload.forms]
            return ([case.form.coeffs for case in workload.spectrum_cases]
                    + [np.array([p.alpha, p.beta]) for _, p in workload.metric_cases])

        first = coeffs(workloads.WORKLOADS[name](11, tmp_path))
        again = coeffs(workloads.WORKLOADS[name](11, tmp_path))
        other = coeffs(workloads.WORKLOADS[name](12, tmp_path))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_sweep_configs_do_not_depend_on_seed(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        workloads.Sweep(1, tmp_path / "a")
        workloads.Sweep(2, tmp_path / "b")
        for name in workloads.SWEEP_CONFIGS:
            assert (tmp_path / "a" / f"{name}.json").read_bytes() == \
                (tmp_path / "b" / f"{name}.json").read_bytes()


def _public_functions():
    found = {}
    for module in list(spans.LAYERS.values()) + [qb]:
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                found[(module.__name__, name)] = obj
    for module, names in spans.LAPACK:
        for name in names:
            found[(module.__name__, name)] = getattr(module, name)
    return found


class TestTracer:
    def test_wrappers_removed_and_self_times_add_up(self, tmp_path):
        before = _public_functions()
        workload = workloads.Decompose(5, tmp_path)
        workload.forms = workload.forms[::25]
        tracer = spans.Tracer()
        with tracer:
            assert qb.decompose is not before[("quadboson", "decompose")]
            assert numpy.linalg.eig is not before[("numpy.linalg", "eig")]
            ops = workload.run_pass(tracer.span)
        after = _public_functions()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
        assert not tracer.leftovers()
        assert tracer.self_sum_error() < 1e-9
        roots = [s for s in tracer.spans if s.parent < 0]
        assert len(roots) == len(ops)
        metrics = tracer.pass_metrics(0, len(ops))
        assert metrics["spectral.eig_calls_per_point"] == 2.0
        assert metrics["spectral.decompose.calls"] == len(ops)

    def test_oracle_layer_counts(self, tmp_path):
        form = qb.one_mode(OneModeParams(0.2, 0.1))
        tracer = spans.Tracer()
        with tracer, tracer.span("bench.case"):
            qb.verify_spectrum(form, qb.decompose(form), 3, FockTruncation(1, 12))
            qb.verify_metric(OneModeParams(0.2, 0.1),
                             qb.bogoliubov_map(OneModeParams(0.2, 0.1), 1.0), FockTruncation(1, 8))
        assert scipy.linalg.expm.__module__.startswith("scipy")
        m = tracer.pass_metrics(0, 2)
        assert m["fock.oracle_dim"] == 12 and m["fock.regrow_dim"] == 32
        assert m["fock.predicted_levels.occupations"] == 4
        assert m["fock.assemble.calls"] == 4
        assert m["fock.assemble.bytes_computed"] == 16 * (12 ** 2 + 32 ** 2 + 2 * 8 ** 2)
        assert m["fock.expm.s"] > 0.0
