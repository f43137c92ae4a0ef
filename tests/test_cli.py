import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadboson import (ExceptionalPointError, OneModeParams, TwoModeParams, bogoliubov_map, cli,
                       decompose, two_mode)
from quadboson.cli import main
from form_helpers import mpmath_generator

DATA = Path(__file__).parent / "data"

ONE_MODE = {"model": "one_mode", "alpha": [0.3, 0.0], "beta": [0.5, 0.0]}
TWO_MODE = {"model": "two_mode", "alpha": [0.1, 0.0], "beta": [0.2, 0.0], "gamma": 0.3}
# Im lambda sits at the reality tolerance 1e-9 to within its last bits
THRESHOLD = {"model": "one_mode", "alpha": 0.2461254647723413,
             "beta": [0.036655623219178105, 1.9944917976954706e-09]}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


# Config in tests/data -> exit code of `analyze`, whose stdout is pinned in analyze_<config>.txt.
# They reach each cluster path: simple pairs (the two oracle configs), the one-mode EP,
# two 2-fold clusters (gamma = 0), one 4-fold zero cluster, and complex parameters.
ANALYZE_GOLDENS = {"oracle_one_mode": 0, "oracle_two_mode": 0, "one_mode_ep": 2,
                   "two_mode_degenerate": 0, "custom_zero": 0, "two_mode_complex": 0}


class TestAnalyze:
    @pytest.mark.parametrize("name,code", ANALYZE_GOLDENS.items())
    def test_matches_golden_report(self, capsys, name, code):
        assert main(["analyze", "--config", str(DATA / f"{name}.json")]) == code
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (DATA / f"analyze_{name}.txt").read_bytes()

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

    def test_order_four_ep_pairing_miss_exits_2(self, tmp_path, capsys):
        # an order-4 EP (h^4 = 0) whose eigenvalues miss their +/- mates
        config = {"model": "custom",
                  "matrix": [[1, 0, -1, 1], [0, 0, 0.5, 0], [-1, 0.5, 2, 1], [1, 0, 1, 1]]}
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert out.splitlines()[-1].startswith("exceptional point: eigenvalues do not split")
        assert "residual" in out

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

    def test_vanishing_commutator_in_the_zero_cluster_exits_2(self, tmp_path, capsys):
        # H = 5e-11 a^2 is an EP for any nonzero coefficient, but its adjoint matrix lies
        # within the cluster width of zero and so reads as a regular 2-fold zero cluster;
        # the null-space pairing finds no commuting partner and refuses
        config = {"model": "custom", "matrix": [[5e-11, 0], [0, 0]]}
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert out.splitlines()[-1].startswith(
            "exceptional point: vanishing pair commutator in the zero-eigenvalue cluster")

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

    def test_duplicate_axis_rejected(self, tmp_path, capsys):
        # a second alpha_re axis would overwrite the first in every row
        config = dict(ONE_MODE, sweep=[
            {"parameter": "alpha_re", "start": 0.0, "stop": 0.2, "steps": 3},
            {"parameter": "alpha_re", "start": 0.5, "stop": 0.7, "steps": 2},
        ])
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "field 'sweep[1].parameter'" in err and "already swept" in err

    @pytest.mark.parametrize("steps", [[10**400], [10**299], [1001, 1000]],
                             ids=["401 digits", "300 digits", "1001x1000"])
    def test_grid_size_bounded(self, tmp_path, capsys, monkeypatch, steps):
        def run_grid(*args):
            raise AssertionError("an oversized grid reached the sweep")

        monkeypatch.setattr(cli, "cmd_sweep", run_grid)
        names = ("alpha_re", "beta_re")
        config = dict(ONE_MODE, sweep=[dict(AXIS, parameter=name, steps=n)
                                       for name, n in zip(names, steps)])
        code = main(["sweep", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "field 'sweep" in err

    def test_memory_bounded_by_chunk(self, tmp_path, monkeypatch):
        # an 80x80 grid is 6400 points, 6.25 chunks of 2**10; under tracemalloc a
        # chunk costs about 0.7 kB per point, so one chunk at a time stays below
        # 48 MB scaled from 2**14 points to 2**10, and the grid held whole exceeds it
        config = {"model": "two_mode", "beta": [0.5, 0.0], "sweep": [
            {"parameter": "gamma", "start": -2.0, "stop": 2.0, "steps": 80},
            {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 80}]}
        path = write_config(tmp_path, config)

        def peak(chunk):
            monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
            out = tmp_path / f"grid-{chunk}.csv"
            tracemalloc.start()
            try:
                assert main(["sweep", "--config", path, "--out", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out.read_text(encoding="utf-8").splitlines()) == 3 + 80 * 80
            return peak

        bound = 48e6 * 2**10 / 2**14
        chunked, whole = peak(2**10), peak(80 * 80)
        assert chunked < bound < whole, f"peaks {chunked / 1e6:.2f} and {whole / 1e6:.2f} MB"

    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # `quadboson sweep | head`: the pipe closes while later chunks are still due
        config = dict(ONE_MODE, sweep=[dict(AXIS, steps=200),
                                       dict(AXIS, parameter="beta_re", steps=100)])
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadboson.cli", "sweep", "--config",
             write_config(tmp_path, config)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.readline().startswith(b"# tool: quadboson")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""

    def test_two_mode_sweep_piped_into_head_exits_quietly(self, tmp_path):
        # a 300x300 grid spans several chunks and far more than a pipe holds, so the sweep
        # is still writing when head exits: main ends it with status 0 and no stderr
        config = dict(TWO_MODE, sweep=[dict(AXIS, steps=300),
                                       dict(AXIS, parameter="gamma", steps=300)])
        command = (f"set -o pipefail; {shlex.quote(sys.executable)} -m quadboson.cli sweep "
                   f"--config {shlex.quote(write_config(tmp_path, config))} | head -n 4")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(["bash", "-c", command], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 4 and lines[0].startswith("# tool: quadboson")
        assert proc.returncode == 0 and proc.stderr == b""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_grid_refused_before_output(self, tmp_path, capsys):
        # gamma's linspace steps overflow, and alpha_re's corner would give infinite
        # entries; both are found from the axes before the file is opened
        config = {"model": "two_mode", "beta": [0.5, 0.0], "sweep": [
            {"parameter": "alpha_re", "start": 0.0, "stop": 1e308, "steps": 3},
            {"parameter": "gamma", "start": -1e308, "stop": 1e308, "steps": 3}]}
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--config", write_config(tmp_path, config), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 1 and stdout == "" and not out.exists()
        assert err.splitlines() == ["error: field 'sweep': the grid or its adjoint matrices overflow"]


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

    def test_label_at_the_reality_tolerance_is_the_analyze_label(self, tmp_path, capsys):
        # Im lambda = 1e-9 to the last bits: the oracle refuses by the label analyze prints,
        # both read off the same eigenvalues, not off frequencies re-derived from them
        path = write_config(tmp_path, THRESHOLD)
        assert main(["analyze", "--config", path]) == 0
        assert "reality: Complex" in capsys.readouterr().out.splitlines()
        assert main(["oracle", "--config", path]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("spectrum classified Complex;") and err == ""

    def test_exceptional_point_exit(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out.startswith("exceptional point:") and err == ""

    def test_cap_exceeded_suggests_cutoff(self, tmp_path, capsys):
        config = dict(TWO_MODE, oracle={"nmax": 90, "levels": 3, "tol": 1e-4})
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "feasible cutoff" in err

    def test_rerun_over_cap_is_refused(self, tmp_path, capsys):
        # nmax 64 fits the 4096 cap, its convergence re-run at 69 does not
        config = dict(TWO_MODE, oracle={"nmax": 64, "levels": 3, "tol": 1e-4})
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.rstrip().endswith("is 59")

    def test_two_mode_config_solves_every_block_by_exchange_sectors(self, monkeypatch, capsys):
        # the checked-in config CI runs: nmax 30 (450 + 450 states) and its re-run at 35
        # (613 + 612) split into sectors of at most 512 states, each solved in full: even
        # blocks hold the cutoff fixed states |n,n>, (450 - 30) / 2 = 210 pairs at nmax 30
        from quadboson import fock

        solved, solve = [], fock.oracle_eigenvalues
        monkeypatch.setattr(fock, "oracle_eigenvalues",
                            lambda block, count=None: solved.append((block[3], count))
                            or solve(block, count))
        code = main(["oracle", "--config", str(DATA / "oracle_two_mode.json")])
        out = capsys.readouterr().out
        assert code == 0 and out.rstrip().endswith("result: pass")
        assert [size for size, _ in solved] == [240, 210, 225, 225, 324, 289, 306, 306]
        assert all(count is None for _, count in solved)

    def test_one_mode_config_solves_each_parity_block_whole(self, monkeypatch, capsys):
        # the checked-in reference point (0.3, 0.5) CI runs: nmax 60 (30 + 30 states) and
        # its re-run at 80 (40 + 40), each balanced block solved whole and in full
        from quadboson import fock

        solved, solve = [], fock.oracle_eigenvalues
        monkeypatch.setattr(fock, "oracle_eigenvalues",
                            lambda block, count=None: solved.append((block[3], count))
                            or solve(block, count))
        code = main(["oracle", "--config", str(DATA / "oracle_one_mode.json")])
        out = capsys.readouterr().out
        assert code == 0 and out.rstrip().endswith("result: pass")
        assert solved == [(30, None), (30, None), (40, None), (40, None)]

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha,beta", [(1e200, 0.0), (0.0, 1e300)])
    def test_exact_map_reads_zero_condition_residuals(self, tmp_path, capsys, alpha, beta):
        # S and S^t G S are exact here; expanding the conditions by hand overflowed to nan
        config = {"model": "one_mode", "alpha": alpha, "beta": beta}
        assert main(["transform", "--config", write_config(tmp_path, config)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "map condition residuals: 0, 0, 0" in out.splitlines()

    @pytest.mark.parametrize("config", [ONE_MODE, dict(ONE_MODE, alpha=[0.2, 0.1],
                                                       beta=[0.3, -0.15])])
    def test_condition_residuals_read_the_printed_values(self, tmp_path, capsys, config):
        # |det S - 1| and the a^2 and a^dag^2 coefficients of the transformed form shown below
        assert main(["transform", "--config", write_config(tmp_path, config)]) == 0
        lines = capsys.readouterr().out.splitlines()

        def value(text):
            return complex(text.replace("i", "j"))

        (det,) = [value(l.split(": ")[1]) for l in lines if l.startswith("determinant: ")]
        (residuals,) = [[float(x) for x in l.split(": ")[1].split(", ")]
                        for l in lines if l.startswith("map condition residuals: ")]
        at = lines.index("transformed coefficients:")
        rows = [[value(z) for z in line.strip(" []").split(", ")] for line in lines[at + 1:at + 3]]
        expected = [abs(det - 1), abs(rows[0][0]), abs(rows[1][1])]
        assert residuals == pytest.approx(expected, rel=1e-8, abs=0)

    def test_breaks_down_at_ep(self, tmp_path, capsys):
        config = {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}
        code = main(["transform", "--config", write_config(tmp_path, config)])
        out, err = capsys.readouterr()
        assert code == 2
        assert "1/4" in out and err == ""

    def test_rejects_nonpositive_gauge(self, tmp_path, capsys):
        path = write_config(tmp_path, ONE_MODE)
        assert main(["transform", "--config", path, "--s11", "-2.0"]) == 1
        assert "positive real" in capsys.readouterr().err
        assert main(["transform", "--config", path, "--s11", "nan"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "positive real" in err

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

    def test_oracle_prints_relative_residual(self, tmp_path, capsys):
        # at (0.3, 0.5) the absolute residual reads about 1e9 for an exact
        # metric; the line after it scales that by ||rho|| ||H|| on the block
        code = main(["transform", "--config", write_config(tmp_path, ONE_MODE), "--oracle"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        at = [i for i, l in enumerate(lines) if l.startswith("quasi-hermiticity residual:")]
        label, value = lines[at[0] + 1].split(": ")
        assert label == "relative quasi-hermiticity residual"
        assert float(value) < 16 * np.finfo(float).eps

    def test_beta_zero_with_oracle(self, tmp_path, capsys):
        # beta = 0 lies inside the domain of the closed-form map
        config = {"model": "one_mode", "alpha": [0.3, 0.0], "beta": [0.0, 0.0]}
        code = main(["transform", "--config", write_config(tmp_path, config), "--oracle"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert "[-0.3+0i, 1+0i]" in out and "min metric eigenvalue" in out

    @pytest.mark.filterwarnings("error")
    def test_extreme_gauge_generator_matches_mpmath(self, tmp_path, capsys):
        # scipy's logm lost this generator's accuracy, and it was refused; the
        # closed-form logarithm keeps it, with no warning
        code = main(["transform", "--config", write_config(tmp_path, ONE_MODE),
                     "--s11", "1e-100"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        lines = out.splitlines()
        at = lines.index("generator coefficients:")
        printed = np.array([[complex(z.replace("i", "j")) for z in line.strip(" []").split(", ")]
                            for line in lines[at + 1:at + 3]])
        cmap = bogoliubov_map(OneModeParams(0.3, 0.5), 1e-100)
        expected = mpmath_generator(cmap.matrix.T, digits=300)
        assert np.max(np.abs(printed - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent/cfg.json"]) == 1


CUSTOM = {
    "model": "custom",
    "matrix": [[[0.3, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    "offset": [0.0, 0.0],
}
AXIS = {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "steps": 3}
OVERFLOWING = {"model": "two_mode", "alpha": [1e308, 0.0], "beta": [0.5, 0.0], "gamma": 1e308}
OVERFLOWING_CUSTOM = {"model": "custom", "matrix": [[1e308, 0.5], [0.5, 1e308]]}
# a form QuadraticForm accepts: its adjoint matrix holds 1.6e308, its spectrum's scale overflows
OVERFLOWING_SPECTRUM = {"model": "custom", "matrix": [[8e307, 0.5], [0.5, 8e307]]}
# symmetric part 0, asymmetry 2e308: a finite matrix whose G - G^t overflows
OVERFLOWING_ASYMMETRIC = {"model": "custom", "matrix": [[0, 1e308], [-1e308, 0]]}
BOOLEAN_FIELDS = [
    ("alpha", dict(ONE_MODE, alpha=True)),
    ("beta", dict(ONE_MODE, beta=[0.5, True])),
    ("gamma", dict(TWO_MODE, gamma=True)),
    ("offset", dict(CUSTOM, offset=True)),
    ("matrix", dict(CUSTOM, matrix=[[True, [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]])),
    ("oracle.nmax", dict(ONE_MODE, oracle={"nmax": True})),
    ("oracle.levels", dict(ONE_MODE, oracle={"levels": True})),
    ("oracle.tol", dict(ONE_MODE, oracle={"tol": True})),
    ("sweep[0].steps", dict(ONE_MODE, sweep=[dict(AXIS, steps=True)])),
    ("sweep[0].start", dict(ONE_MODE, sweep=[dict(AXIS, start=True)])),
    ("sweep[0].stop", dict(ONE_MODE, sweep=[dict(AXIS, stop=True)])),
]


@pytest.mark.parametrize("field,config", BOOLEAN_FIELDS, ids=[f for f, _ in BOOLEAN_FIELDS])
def test_json_boolean_is_not_a_number(tmp_path, capsys, field, config):
    # Python's bool is an int, so true must be refused explicitly, not read as 1
    code = main(["analyze", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert f"field '{field}'" in capsys.readouterr().err


NAN_AXIS = dict(AXIS, start=float("nan"))
REFUSED_SETTINGS = [
    ("oracle --tol -1", ["oracle", "--tol", "-1"], ONE_MODE, "field 'oracle.tol' (--tol)"),
    ("oracle --tol nan", ["oracle", "--tol", "nan"], ONE_MODE, "field 'oracle.tol' (--tol)"),
    ("oracle --tol inf", ["oracle", "--tol", "inf"], ONE_MODE, "field 'oracle.tol' (--tol)"),
    ("oracle --nmax 1", ["oracle", "--nmax", "1"], ONE_MODE, "field 'oracle.nmax' (--nmax)"),
    ("transform --nmax 1", ["transform", "--oracle", "--nmax", "1"], ONE_MODE,
     "field 'oracle.nmax' (--nmax)"),
    # the interior, cutoff - 2, is empty
    ("transform --nmax 2", ["transform", "--oracle", "--nmax", "2"], ONE_MODE,
     "needs a cutoff of at least 3, got 2"),
    ("tol NaN", ["oracle"], dict(ONE_MODE, oracle={"tol": float("nan")}), "field 'oracle.tol'"),
    ("tol Infinity", ["oracle"], dict(ONE_MODE, oracle={"tol": float("inf")}),
     "field 'oracle.tol'"),
    ("alpha NaN", ["analyze"], dict(ONE_MODE, alpha=float("nan")), "field 'alpha'"),
    ("alpha Infinity", ["analyze"], dict(ONE_MODE, alpha=[0.3, float("inf")]), "field 'alpha'"),
    ("alpha 10**400", ["analyze"], dict(ONE_MODE, alpha=10**400), "field 'alpha'"),
    ("start NaN", ["sweep"], dict(ONE_MODE, sweep=[NAN_AXIS]), "field 'sweep[0].start'"),
    ("sweep 5", ["sweep"], dict(ONE_MODE, sweep=5), "field 'sweep': must be a list"),
    ("sweep null", ["sweep"], dict(ONE_MODE, sweep=None), "field 'sweep': must be a list"),
    ("sweep object", ["sweep"], dict(ONE_MODE, sweep=AXIS), "field 'sweep': must be a list"),
    ("transform --nmax 5000", ["transform", "--oracle", "--nmax", "5000"], ONE_MODE,
     "largest feasible cutoff for 1 mode(s) is 4096"),
    # the oracle re-runs 20 higher, so it names the cutoff whose re-run fits
    ("oracle --nmax 5000", ["oracle", "--nmax", "5000"], ONE_MODE,
     "largest feasible cutoff for 1 mode(s) with that re-run is 4076"),
    ("model list", ["analyze"], dict(ONE_MODE, model=["one_mode"]), "field 'model'"),
    # a field the model does not read is refused, not dropped
    ("one_mode gamma", ["analyze"], dict(ONE_MODE, gamma=0.3), "field 'gamma'"),
    ("one_mode matrix", ["analyze"], dict(ONE_MODE, matrix=CUSTOM["matrix"]), "field 'matrix'"),
    ("one_mode offset", ["analyze"], dict(ONE_MODE, offset=[3, 0]), "field 'offset'"),
    ("two_mode matrix", ["analyze"], dict(TWO_MODE, matrix=CUSTOM["matrix"]), "field 'matrix'"),
    ("two_mode offset", ["analyze"], dict(TWO_MODE, offset=[3, 0]), "field 'offset'"),
    ("custom alpha", ["analyze"], dict(CUSTOM, alpha=[0.3, 0]), "field 'alpha'"),
    ("custom beta", ["analyze"], dict(CUSTOM, beta=[0.5, 0]), "field 'beta'"),
    ("custom gamma", ["analyze"], dict(CUSTOM, gamma=0.3), "field 'gamma'"),
    ("oracle nmx", ["oracle"], dict(ONE_MODE, oracle={"nmx": 60}), "field 'oracle.nmx'"),
    ("oracle level", ["oracle"], dict(ONE_MODE, oracle={"level": 3}), "field 'oracle.level'"),
    ("sweep axis extra", ["sweep"], dict(ONE_MODE, sweep=[dict(AXIS, extra=1)]),
     "field 'sweep[0].extra'"),
    ("ragged matrix", ["analyze"], dict(CUSTOM, matrix=[[1, 2], [3]]),
     "field 'matrix': malformed matrix"),
    # a map entry overflows; a finite map whose transformed form overflows
    ("transform --s11 1e-320", ["transform", "--s11", "1e-320"], ONE_MODE,
     "s11 = 1e-320 gives a map with a non-finite entry"),
    ("transform --s11 1e-200", ["transform", "--s11", "1e-200"], ONE_MODE,
     "coefficients and offset must be finite"),
    # finite settings whose symmetrized form overflows
    ("analyze overflowing form", ["analyze"], OVERFLOWING,
     "coefficients and offset must be finite"),
    ("oracle overflowing form", ["oracle"], OVERFLOWING,
     "coefficients and offset must be finite"),
    ("sweep overflowing form", ["sweep"],
     dict(OVERFLOWING, sweep=[dict(AXIS, parameter="beta_re")]),
     "coefficients and offset must be finite"),
    ("analyze overflowing custom matrix", ["analyze"], OVERFLOWING_CUSTOM,
     "field 'matrix': coefficients and offset must be finite"),
    ("oracle overflowing custom matrix", ["oracle"], OVERFLOWING_CUSTOM,
     "field 'matrix': coefficients and offset must be finite"),
    ("analyze overflowing asymmetric matrix", ["analyze"], OVERFLOWING_ASYMMETRIC,
     "field 'matrix': coefficient matrix is not symmetric (max asymmetry inf)"),
    ("oracle overflowing asymmetric matrix", ["oracle"], OVERFLOWING_ASYMMETRIC,
     "field 'matrix': coefficient matrix is not symmetric (max asymmetry inf)"),
    # the reference point's metric is finite up to nmax 476
    ("transform --oracle --nmax 600", ["transform", "--oracle", "--nmax", "600"], ONE_MODE,
     "the metric overflows float64 at cutoff 600"),
    # a finite form whose adjoint matrix's 4 |h|_inf overflows
    ("analyze overflowing spectrum", ["analyze"], OVERFLOWING_SPECTRUM,
     "the adjoint matrix's spectrum overflows float64"),
    ("oracle overflowing spectrum", ["oracle"], OVERFLOWING_SPECTRUM,
     "the adjoint matrix's spectrum overflows float64"),
    *((f"{command} gamma {gamma:g}", [command], dict(TWO_MODE, gamma=gamma),
       "the adjoint matrix's spectrum overflows float64")
      for command in ("analyze", "oracle") for gamma in (1.7e308, -1.7e308)),
    # analyze reads these spectra; the operator truncated at the re-run's cutoff overflows
    *((f"oracle gamma {gamma:g}", ["oracle", "--nmax", "12"], dict(TWO_MODE, gamma=gamma),
       "the truncated operator overflows float64 at cutoff 17") for gamma in (1e307, 4e307)),
    ("top-level list", ["analyze"], [], "top level must be a JSON object"),
    ("custom without matrix", ["analyze"], {"model": "custom"},
     "field 'matrix': required for custom models"),
    ("3x3 matrix", ["analyze"], dict(CUSTOM, matrix=[[0.0] * 3] * 3),
     "field 'matrix': matrix must be square with even size 2K"),
    ("oracle 5", ["oracle"], dict(ONE_MODE, oracle=5), "field 'oracle': must be an object"),
    ("sweep [5]", ["sweep"], dict(ONE_MODE, sweep=[5]), "field 'sweep[0]': must be an object"),
    ("three axes", ["sweep"],
     dict(TWO_MODE, sweep=[dict(AXIS, parameter=p) for p in ("gamma", "alpha_re", "beta_re")]),
     "field 'sweep': at most two swept parameters"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,config,named", [r[1:] for r in REFUSED_SETTINGS],
                         ids=[r[0] for r in REFUSED_SETTINGS])
def test_refused_setting_prints_one_error_line(tmp_path, capsys, argv, config, named):
    # a flag is checked exactly like its config field, json's NaN/Infinity literals
    # are refused like any other non-number, and nothing is printed before the
    # refusal, numpy warnings included (they would reach stderr outside pytest)
    code = main([argv[0], "--config", write_config(tmp_path, config), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and named in err


def test_exceptional_point_error_maps_to_exit_2(tmp_path, capsys, monkeypatch):
    # main, not the command, turns the error into exit 2 with the message on stdout
    def at_ep(*args, **kwargs):
        raise ExceptionalPointError("pair normalization hit a zero commutator")

    monkeypatch.setattr(cli, "normalize_pairs", at_ep)
    assert main(["analyze", "--config", write_config(tmp_path, ONE_MODE)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("exceptional point:")
    assert err == ""


def test_one_eigensolve_per_adjoint_matrix(tmp_path, monkeypatch):
    # EP detection, reality classification and ladder extraction all read
    # the same eigendecomposition; a sweep solves its whole grid as one stack
    # of eigenvalues and labels every point, flagged or not, from those values.
    calls = []
    for name in ("eig", "eigvals"):
        def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    decompose(two_mode(TwoModeParams(0.1, 0.2, 0.3)))
    assert len(calls) == 1
    for config in (TWO_MODE, {"model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0]}):
        calls.clear()
        main(["analyze", "--config", write_config(tmp_path, config)])
        assert len(calls) == 1
    # the diabolic gamma = 0 node is the one flagged point
    calls.clear()
    config = dict(TWO_MODE, sweep=[{"parameter": "gamma", "start": 0.0, "stop": 1.0, "steps": 7}])
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 0
    assert calls == [("eigvals", (7, 4, 4))]
    # the EP node at alpha = 0.5 is labelled from the stack's eigenvalues and its SVDs
    calls.clear()
    config = dict(ONE_MODE, sweep=[{"parameter": "alpha_re", "start": 0.3, "stop": 0.7, "steps": 5}])
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 0
    assert calls == [("eigvals", (5, 2, 2))]
    # a grid with well-separated eigenvalues everywhere needs no eigenvectors
    calls.clear()
    config = dict(ONE_MODE, sweep=[{"parameter": "alpha_re", "start": 0.1, "stop": 0.3, "steps": 5}])
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 0
    assert calls == [("eigvals", (5, 2, 2))]


REFERENCE_GRIDS = {
    "complex alpha_im x beta_re": {
        "model": "one_mode", "alpha": [0.3, 0.2], "beta": [0.5, -0.1], "sweep": [
            {"parameter": "alpha_im", "start": -0.5, "stop": 0.5, "steps": 31},
            {"parameter": "beta_re", "start": 0.0, "stop": 1.0, "steps": 31}]},
    "beta_im line through an EP": {
        "model": "one_mode", "alpha": [0.5, 0.0], "beta": [0.5, 0.0], "sweep": [
            {"parameter": "beta_im", "start": -0.3, "stop": 0.3, "steps": 31}]},
    "two-mode gamma scan through both EPs": {
        "model": "two_mode", "alpha": [0.25, 0.0], "beta": [0.25, 0.0], "sweep": [
            {"parameter": "gamma", "start": 0.0, "stop": 2.0, "steps": 31}]},
    "two-mode alpha_im x beta_im": {
        "model": "two_mode", "alpha": [0.2, 0.0], "beta": [0.3, 0.0], "gamma": 0.4, "sweep": [
            {"parameter": "alpha_im", "start": -1.0, "stop": 1.0, "steps": 31},
            {"parameter": "beta_im", "start": -1.0, "stop": 1.0, "steps": 31}]},
}


def per_point_sweep(config):
    """The sweep as one form, adjoint matrix and eigensolve per grid point: CSV and reps."""
    axes = config.sweep
    grids = [np.linspace(ax.start, ax.stop, ax.steps) for ax in axes]
    points = [dict(zip((ax.parameter for ax in axes), combo))
              for combo in itertools.product(*grids)]
    reps = [cli.adjoint_rep(cli._build_form(config, p)) for p in points]
    columns = [ax.parameter for ax in axes]
    for i in range(1, reps[0].shape[0] + 1):
        columns += [f"lambda{i}_re", f"lambda{i}_im"]
    lines = [f"# tool: quadboson {cli.__version__}",
             f"# config-sha256: {hashlib.sha256(config.raw_bytes).hexdigest()}",
             ",".join(columns + ["reality", "defective", "min_gap"])]
    for point, rep in zip(points, reps):
        system = cli._eigensystem(rep)
        values = system.values[np.lexsort((system.values.imag, system.values.real))]
        gap = min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
        cells = [cli._fmt(point[ax.parameter], 17) for ax in axes]
        for v in values:
            cells += [cli._fmt(v.real, 17), cli._fmt(v.imag, 17)]
        cells += [system.reality.value, str(int(system.report.defective)), cli._fmt(gap, 17)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", np.array(reps)


def sweep_against_reference(tmp_path, monkeypatch, name):
    """Sweep REFERENCE_GRIDS[name] through main, check it against per_point_sweep
    byte for byte and value for value, and return the stacks it solved."""
    path = write_config(tmp_path, REFERENCE_GRIDS[name])
    expected, expected_reps = per_point_sweep(cli.load_config(path))
    stacks = []

    def recorded(reps):
        stacks.append(reps)
        return solve(reps)

    solve = cli._stacked_labels
    monkeypatch.setattr(cli, "_stacked_labels", recorded)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    got, want = out.read_text(encoding="utf-8").splitlines(), expected.splitlines()
    differing = [n for n, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not differing, f"rows differ: {differing[:5]}"
    assert out.read_bytes() == expected.encode("utf-8")
    # equal values, not bytes: the affine stack may hold +0 where a form has -0
    assert np.array_equal(np.concatenate(stacks), expected_reps)
    return stacks


@pytest.mark.parametrize("name", REFERENCE_GRIDS)
def test_stacked_sweep_matches_per_point_reference(tmp_path, monkeypatch, name):
    assert len(sweep_against_reference(tmp_path, monkeypatch, name)) == 1


@pytest.mark.parametrize("name", REFERENCE_GRIDS)
def test_chunked_sweep_matches_per_point_reference(tmp_path, monkeypatch, name):
    # 7 points per chunk: many chunks, most with no flagged point, and a short last one
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 7)
    sizes = [len(s) for s in sweep_against_reference(tmp_path, monkeypatch, name)]
    assert len(sizes) > 1 and set(sizes[:-1]) == {7} and 0 < sizes[-1] < 7
