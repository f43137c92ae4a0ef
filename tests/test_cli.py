import json
from pathlib import Path

import numpy as np
import pytest

from quadboson import TwoModeParams, decompose, two_mode
from quadboson.cli import main

DATA = Path(__file__).parent / "data"

ONE_MODE = {"model": "one_mode", "alpha": [0.3, 0.0], "beta": [0.5, 0.0]}
TWO_MODE = {"model": "two_mode", "alpha": [0.1, 0.0], "beta": [0.2, 0.0], "gamma": 0.3}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


class TestAnalyze:
    def test_one_mode_all_real(self, tmp_path, capsys):
        code = main(["analyze", "--config", write_config(tmp_path, ONE_MODE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reality: AllReal" in out
        assert "0.632455532" in out
        assert "ground energy: 0.316227766" in out
        assert "lowering Z1" in out and "raising  Z1'" in out

    def test_exceptional_point_exit_code(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 2
        assert "reality: ExceptionalPoint" in out
        assert "algebraic 2, geometric 1" in out
        assert "eigenvalues:" in out  # analysis still printed

    def test_two_mode_frequencies(self, tmp_path, capsys):
        code = main(["analyze", "--config", write_config(tmp_path, TWO_MODE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.26885775" in out and "0.640312424" in out

    def test_complex_classification(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [1.0, 0.0], "beta": [1.0, 0.0]}
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reality: Complex" in out

    def test_custom_matrix_matches_builtin(self, tmp_path, capsys):
        main(["analyze", "--config", write_config(tmp_path, ONE_MODE, "a.json")])
        builtin = capsys.readouterr().out
        custom = {
            "model": "custom",
            "matrix": [
                [[0.3, 0.0], [0.5, 0.0]],
                [[0.5, 0.0], [0.5, 0.0]],
            ],
            "offset": [0.0, 0.0],
        }
        main(["analyze", "--config", write_config(tmp_path, custom, "b.json")])
        custom_out = capsys.readouterr().out
        strip = lambda text: text.splitlines()[1:]  # model line differs
        assert strip(builtin) == strip(custom_out)

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"model": "one_mode",\n  "alpha": [0.3,]\n}')
        code = main(["analyze", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_unknown_field_diagnostic(self, tmp_path, capsys):
        config = dict(ONE_MODE, omega=2.0)
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "omega" in err

    def test_asymmetric_custom_matrix_rejected(self, tmp_path, capsys):
        config = {
            "model": "custom",
            "matrix": [
                [[0.0, 0.0], [1.0, 0.0]],
                [[0.5, 0.0], [0.0, 0.0]],
            ],
        }
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "symmetric" in err


class TestSweep:
    def test_reality_flip_across_ep(self, tmp_path, capsys):
        config = dict(
            ONE_MODE,
            sweep=[{"parameter": "alpha_re", "start": 0.3, "stop": 0.7, "steps": 5}],
        )
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        reality = [r[-3] for r in rows]
        # beta = 0.5: product crosses 1/4 at alpha = 0.5 (grid midpoint)
        assert reality[0] == "AllReal" and reality[1] == "AllReal"
        assert reality[2] == "ExceptionalPoint"
        assert reality[3] == "Complex" and reality[4] == "Complex"
        assert rows[2][-2] == "1"  # defective flag on the EP row

    def test_two_mode_gamma_scan_hits_both_ep_rows(self, tmp_path, capsys):
        config = {
            "model": "two_mode", "alpha": [0.25, 0.0], "beta": [0.25, 0.0],
            "gamma": 0.0,
            "sweep": [{"parameter": "gamma", "start": 0.0, "stop": 2.0, "steps": 9}],
        }
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        by_gamma = {float(r[0]): r[-3] for r in rows}
        assert by_gamma[0.5] == "ExceptionalPoint"
        assert by_gamma[1.5] == "ExceptionalPoint"
        assert by_gamma[1.0] == "Complex"   # between the radicand zeros
        assert by_gamma[0.0] == "AllReal"
        assert by_gamma[2.0] == "AllReal"

    def test_deterministic_output_bytes(self, tmp_path):
        config = dict(
            ONE_MODE,
            sweep=[
                {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 7},
                {"parameter": "beta_re", "start": 0.0, "stop": 1.0, "steps": 5},
            ],
        )
        path = write_config(tmp_path, config)
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", ["sweep_one_mode", "sweep_two_mode"])
    def test_matches_golden_csv(self, tmp_path, name):
        # The one-mode grid crosses alpha*beta = 1/4 with the EP (0.5, 0.5) on a
        # node; the two-mode grid meets both loci alpha*beta = (gamma +/- 1)^2/4.
        # The files pin every byte, so a refactor of the spectral path must
        # reproduce eigenvalues, labels and gaps exactly (17 significant digits
        # depend on the LAPACK build; regenerate with `quadboson sweep` if it
        # changes).
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()

    def test_metadata_and_header(self, tmp_path, capsys):
        config = dict(
            ONE_MODE,
            sweep=[{"parameter": "beta_im", "start": 0.0, "stop": 0.2, "steps": 3}],
        )
        main(["sweep", "--config", write_config(tmp_path, config)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# tool: quadboson ")
        assert lines[1].startswith("# config-sha256: ")
        assert lines[2] == (
            "beta_im,lambda1_re,lambda1_im,lambda2_re,lambda2_im,"
            "reality,defective,min_gap"
        )
        assert len(lines) == 6

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        config = dict(
            ONE_MODE,
            sweep=[{"parameter": "alpha_re", "start": 0.1, "stop": 0.1, "steps": 1}],
        )
        main(["sweep", "--config", write_config(tmp_path, config)])
        row = capsys.readouterr().out.splitlines()[3]
        first = row.split(",")[0]
        assert float(first) == 0.1
        assert len(first) >= 17  # round-trip formatting, not display rounding

    def test_missing_axes_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path, ONE_MODE)])
        assert code == 1
        assert "sweep" in capsys.readouterr().err

    def test_zero_steps_rejected(self, tmp_path, capsys):
        config = dict(
            ONE_MODE,
            sweep=[{"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 0}],
        )
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1

    def test_unsweepable_parameter_rejected(self, tmp_path, capsys):
        config = dict(
            ONE_MODE,
            sweep=[{"parameter": "gamma", "start": 0.0, "stop": 1.0, "steps": 3}],
        )
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert "gamma" in capsys.readouterr().err


class TestOracle:
    def test_one_mode_pass(self, tmp_path, capsys):
        config = dict(ONE_MODE, oracle={"nmax": 40, "levels": 3, "tol": 1e-6})
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: pass" in out
        assert "converged: true" in out

    def test_harmonic_tight_tolerance(self, tmp_path, capsys):
        config = {
            "model": "one_mode", "alpha": [0.0, 0.0], "beta": [0.0, 0.0],
            "oracle": {"nmax": 30, "levels": 5, "tol": 1e-12},
        }
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        assert code == 0
        assert "result: pass" in capsys.readouterr().out

    def test_complex_requires_override(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [1.0, 0.0], "beta": [1.0, 0.0]}
        path = write_config(tmp_path, config)
        assert main(["oracle", "--config", path]) == 1
        capsys.readouterr()
        code = main(["oracle", "--config", path, "--allow-complex", "--nmax", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "informational" in out
        assert "i" in out.split("predicted vs oracle")[1]  # complex level listed

    def test_exceptional_point_exit(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        assert code == 2

    def test_cap_exceeded_suggests_cutoff(self, tmp_path, capsys):
        config = dict(TWO_MODE, oracle={"nmax": 90, "levels": 3, "tol": 1e-4})
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "feasible cutoff" in err

    def test_cli_overrides(self, tmp_path, capsys):
        config = dict(ONE_MODE, oracle={"nmax": 40, "levels": 5, "tol": 1e-6})
        code = main([
            "oracle", "--config", write_config(tmp_path, config),
            "--nmax", "30", "--levels", "2", "--tol", "1e-5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "nmax: 30" in out and "levels: 2" in out


class TestTransform:
    def test_reference_map_report(self, tmp_path, capsys):
        code = main(["transform", "--config", write_config(tmp_path, ONE_MODE),
                     "--s11", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-0.790569415" in out and "-0.367544468" in out
        assert "determinant: 1" in out
        assert "0.316227766" in out  # transformed off-diagonal
        assert "generator coefficients" in out

    def test_breaks_down_at_ep(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}
        code = main(["transform", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 2
        assert "1/4" in out

    def test_rejects_nonpositive_gauge(self, tmp_path, capsys):
        path = write_config(tmp_path, ONE_MODE)
        assert main(["transform", "--config", path, "--s11", "-2.0"]) == 1
        assert "positive real" in capsys.readouterr().err

    def test_requires_one_mode(self, tmp_path, capsys):
        code = main(["transform", "--config", write_config(tmp_path, TWO_MODE)])
        assert code == 1

    def test_metric_oracle_flag(self, tmp_path, capsys):
        config = {
            "model": "one_mode", "alpha": [0.05, 0.0], "beta": [0.05, 0.0],
            "oracle": {"nmax": 24, "levels": 3, "tol": 1e-6},
        }
        code = main(["transform", "--config", write_config(tmp_path, config),
                     "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quasi-hermiticity residual" in out
        assert "min metric eigenvalue" in out

    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent/cfg.json"]) == 1


def test_one_eigensolve_per_adjoint_matrix(tmp_path, monkeypatch):
    # EP detection, reality classification and ladder extraction all read
    # the same eigendecomposition.
    calls = []
    for name in ("eig", "eigvals"):
        def counted(*args, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
    assert len(calls) == 1
    for config in (TWO_MODE, {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}):
        calls.clear()
        main(["analyze", "--config", write_config(tmp_path, config)])
        assert len(calls) == 1
    calls.clear()
    config = dict(TWO_MODE, sweep=[{"parameter": "gamma", "start": 0.0, "stop": 1.0, "steps": 7}])
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 0
    assert len(calls) == 7
