import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telhaz
from conftest import csv_path_table
from telhaz.cli import _BLOCK_ROWS, _path_table, _rows, _write_table, build_parser, main
from telhaz.perturbed import PerturbedModel
from telhaz.presets import HAZARDS, model_fig3
from telhaz.telegraph import TelegraphParams, sample_paths


RECORDED_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "reproduce_sha256.json"
# stdout SHA-256 and exit code of one invocation per subcommand table and report
RECORDED_CLI = json.loads(Path(__file__).with_name("cli_sha256.json").read_text())


def typed_flags():
    """(subcommand, flag) for every option of every subcommand that converts its text."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return [
        (name, action.option_strings[0])
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.type is not None
    ]


TYPED_FLAGS = typed_flags()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(telhaz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSimulate:
    def test_w_deterministic_and_header(self, capsys):
        args = ("simulate-w", "--c", "2", "--lam", "15", "--horizon", "1",
                "--paths", "2", "--grid-size", "41", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "path_id,t,w"
        assert len(lines) == 1 + 2 * 41
        code3, out3, _ = run(capsys, *args[:-1], "8")
        assert out3 != out1

    def test_w_zero_paths_header_only(self, capsys):
        code, out, _ = run(capsys, "simulate-w", "--paths", "0")
        assert code == 0
        assert out == "path_id,t,w\n"

    def test_w_bound_respected(self, capsys):
        code, out, _ = run(capsys, "simulate-w", "--c", "2", "--lam", "15",
                           "--paths", "3", "--grid-size", "51", "--seed", "1")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, t, w = line.split(",")
            assert abs(float(w)) <= 2.0 * float(t) + 1e-12

    def test_w_single_point_grid(self, capsys):
        # the grid [0.0] ends at 0, so no switch is expected before it
        code, out, _ = run(capsys, "simulate-w", "--grid-size", "1", "--paths", "1")
        assert code == 0
        assert out == "path_id,t,w\n0,0.0,0.0\n"

    def test_w_switch_bound_named(self):
        # 1e300 expected switches would never finish; the refusal is immediate
        argv = [sys.executable, "-m", "telhaz.cli", "simulate-w", "--lam", "1e300"]
        result = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert result.stderr.startswith("error: lam = 1e+300 up to grid[-1] = 1.0 expects ")

    def test_x_paths_inside_band(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "simulate-x", "--hazard", "preset:polynomial_c1",
            "--c", "1", "--lam", "15", "--horizon", "1", "--paths", "2",
            "--grid-size", "51", "--seed", "3", "--output", str(out_file),
        )
        assert code == 0
        model = model_fig3()
        rows = read_rows(out_file)
        assert rows[0] == ["path_id", "t", "x"]
        for _, t, x in rows[1:]:
            t, x = float(t), float(x)
            band = model.band(t)
            assert band.a <= x <= band.b


PATH_FLAGS = ("--c", "1", "--lam", "15", "--horizon", "1", "--seed", "5")


class TestPathWriter:
    @pytest.mark.parametrize("grid_size", [1, 51])
    @pytest.mark.parametrize("paths", [0, 1, 3])
    @pytest.mark.parametrize("command", ["simulate-w", "simulate-x"])
    def test_matches_csv_rows(self, capsys, tmp_path, command, paths, grid_size):
        # the oracle draws each path alone, the command all of them from one sampler
        params = TelegraphParams(c=1.0, lam=15.0)
        if command == "simulate-w":
            name, sampler, hazard = "w", functools.partial(sample_paths, params), []
        else:
            model = PerturbedModel(HAZARDS["polynomial_c1"], params)
            name, sampler, hazard = "x", model.sample_paths, ["--hazard", "preset:polynomial_c1"]
        grid = np.linspace(0.0, 1.0, grid_size)
        one_path = lambda grid, seed: next(sampler(grid, [seed]))  # noqa: E731
        expected = csv_path_table(name, one_path, grid, paths, 5)
        argv = [command, *hazard, *PATH_FLAGS, "--paths", str(paths), "--grid-size", str(grid_size)]
        assert run(capsys, *argv) == (0, expected, "")
        target = tmp_path / "paths.csv"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == expected.encode()

    def test_float_reprs_match_csv(self, capsys, tmp_path):
        # signed zeros, exponent-form reprs and the smallest subnormal, in both columns
        grid = np.array([0.0, 5e-324, 1e-05, 0.1, 1e16])
        path = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1])

        def values(times, seed):
            assert times is grid
            return path * (-1.0) ** seed

        expected = csv_path_table("x", values, grid, 3, 1)
        assert "0,0.0,0.0\n" in expected and "1,0.0,-0.0\n" in expected  # seeds 1 and 2
        paths = [values(grid, seed) for seed in range(1, 4)]
        _write_table(None, *_path_table("x", paths, grid))
        assert capsys.readouterr().out == expected
        target = tmp_path / "paths.csv"
        _write_table(target, *_path_table("x", paths, grid))
        assert target.read_bytes() == expected.encode()


class TestTableWriter:
    def test_matches_csv_writer(self, capsys, tmp_path):
        # str() of each Python scalar, over three blocks: the bytes csv.writer writes, whatever
        # numpy's print options (legacy="1.13" prints a numpy 0.1 + 0.2 as 0.3)
        names = ["a", "b_c", "F_hat", "", "nu", "x", "y", "z"]
        counts = [0, 1, -7, 2**62, 10, 11, 12, 13]
        values = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e-05]
        columns = [np.resize(np.array(c), 2 * _BLOCK_ROWS + 3) for c in (names, counts, values)]
        header = ("name", "count", "value")
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [header, *zip(*(column.tolist() for column in columns))])
        lines = expected.getvalue().splitlines(keepends=True)  # lists keep a failure's diff short
        target = tmp_path / "table.csv"
        with np.printoptions(legacy="1.13"):
            _write_table(None, header, _rows(*columns))
            _write_table(target, header, _rows(*columns))
        assert capsys.readouterr().out.splitlines(keepends=True) == lines
        assert target.read_bytes() == expected.getvalue().encode()

    def test_recorded_outputs_need_no_quoting(self, capsys, tmp_path):
        # csv would quote a cell holding a comma, a quote or a newline; no output holds one
        outputs = {}
        for name, expected in RECORDED_CLI.items():
            outputs[name] = run(capsys, *expected["argv"])[1]
        for target, files in json.loads(RECORDED_SHA256.read_text()).items():
            assert run(capsys, "reproduce", target, "--output-dir", str(tmp_path / target))[0] == 0
            assert sorted(f.name for f in (tmp_path / target).iterdir()) == sorted(files)
            outputs.update({f"{target}/{f}": (tmp_path / target / f).read_text() for f in files})
        tables = [name for name in outputs if name.endswith(".csv") or "report" not in name]
        assert len(outputs) == 10 + 16 and len(tables) == 8 + 14
        for name, text in outputs.items():
            assert '"' not in text, name
        for name in tables:
            header, *lines = outputs[name].splitlines()
            assert lines and {line.count(",") for line in lines} == {header.count(",")}, name


class TestTables:
    def test_density_w_normalizes(self, capsys):
        code, out, _ = run(capsys, "density", "--process", "w", "--c", "1",
                           "--lam", "1", "--t", "1", "--points", "2001")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        fs = np.array([float(r[1]) for r in rows])
        interior = float(np.trapezoid(fs, xs))
        assert interior + math.exp(-1.0) == pytest.approx(1.0, abs=2e-3)

    def test_density_x_requires_hazard(self, capsys):
        code, _, err = run(capsys, "density", "--process", "x", "--t", "0.5")
        assert code == 2
        assert "hazard" in err

    def test_moments_monotone_mean(self, capsys):
        code, out, _ = run(capsys, "moments", "--hazard", "preset:polynomial_c1",
                           "--c", "1", "--lam", "15", "--t-max", "2", "--points", "101")
        assert code == 0
        means = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert means[0] == 0.0
        assert all(b >= a - 1e-14 for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("command", ["band", "moments"])
    def test_polynomial_past_overflow_finite(self, capsys, command):
        # R(t) overflows at t = 1e103; once inf - inf printed nan rows and warnings
        code, out, err = run(capsys, command, "--hazard", "preset:polynomial_c1",
                             "--t-max", "1e103", "--points", "3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "command, extra, last",
        [
            ("band", ["--t-max", "1e200", "--points", "3"], ["1.0", "1.0", "0.0"]),
            ("moments", ["--t-max", "1e200", "--points", "3"], ["1.0", "0.0"]),
            ("simulate-x", ["--lam", "1e-200", "--horizon", "1e200", "--grid-size", "3",
                            "--paths", "1"], ["1.0"]),
        ],
    )
    def test_flat_piece_past_overflow_finite(self, capsys, tmp_path, command, extra, last):
        # t**2 overflows past ~1.3e154, where a flat piece's 0 * inf once printed nan rows
        hazard = tmp_path / "flat.cfg"
        hazard.write_text("kind = piecewise\nsegments = 0:0:2\n")
        code, out, err = run(capsys, command, "--hazard", str(hazard), *extra)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[-len(last):] for row in rows[1:]] == [last, last]

    @pytest.mark.parametrize(
        "argv",
        [
            ["band", "--t-max", "800", "--points", "3"],
            ["moments", "--t-max", "800", "--points", "3"],
            ["simulate-x", "--horizon", "800", "--grid-size", "3", "--paths", "1"],
        ],
    )
    def test_exponential_growth_past_overflow_quiet(self, capsys, argv):
        # expm1(t) overflows past t ~ 709; it once printed a RuntimeWarning
        code, out, err = run(capsys, *argv, "--hazard", "preset:exponential_growth")
        assert (code, err) == (0, "")
        cells = [cell for line in out.strip().splitlines()[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize(
        "argv",
        [
            # (omega + lam) * t overflows; exp(-inf) = 0 is already the limit
            ["--hazard", "preset:app1_constant", "--c", "0.0004", "--lam", "1e300",
             "--t-max", "1e300", "--points", "3"],
            # R(8e76) = 1.5e308 is finite but the variance's 2R is not
            ["--hazard", "preset:polynomial_c2", "--c", "1.2e-292", "--lam", "5.3e80",
             "--t-max", "1.6e77", "--points", "3"],
        ],
    )
    def test_moments_past_mgf_overflow(self, capsys, argv):
        code, out, err = run(capsys, "moments", *argv)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[1:] for row in rows[1:]] == [["1.0", "0.0"], ["1.0", "0.0"]]

    def test_band_columns(self, capsys):
        code, out, _ = run(capsys, "band", "--hazard", "preset:soft_step",
                           "--c", "1", "--lam", "1", "--t-max", "8", "--points", "33")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,a,b,width"
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(0.2680789588330964, abs=1e-3)

    def test_estimate_preset_dataset(self, capsys):
        code, out, _ = run(capsys, "estimate", "--data", "preset:melanoma_46",
                           "--bandwidth", "6", "--alpha", "0.025")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,f_hat,F_hat,r_hat,lower,upper"
        assert len(lines) == 1 + 512


class TestDefensibility:
    def test_holds_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "defensibility", "--data", "preset:melanoma_46",
            "--hazard", "preset:app1_constant", "--bandwidth", "6",
            "--alpha", "0.025", "--c", "0.0004",
        )
        assert code == 0
        assert "holds = true" in out

    def test_fails_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "defensibility", "--data", "preset:melanoma_46",
            "--hazard", "preset:app1_constant", "--bandwidth", "6",
            "--alpha", "0.025", "--c", "0.01",
        )
        assert code == 3
        assert "holds = false" in out
        assert "violating_t" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "defensibility", "--data", "preset:service_86",
            "--hazard", "preset:app2_piecewise", "--bandwidth", "75",
            "--alpha", "0.025", "--c", "0.00025", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,r_hat,lower,upper,baseline,margin"
        margins = [float(line.split(",")[5]) for line in lines[1:]]
        assert min(margins) >= 0.0

    def test_dominance_violation_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "defensibility", "--data", "preset:melanoma_46",
            "--hazard", "preset:app1_constant", "--bandwidth", "6",
            "--alpha", "0.025", "--c", "0.02",
        )
        assert code == 2
        assert "r(t) > c" in err

    def test_overflowing_baseline_is_validation_error(self, capsys, tmp_path):
        # r = 1 + exp(t) is inf past t ~ 709.8, so at every point of the grid over [700, 800]
        data = tmp_path / "lifetimes.txt"
        data.write_text("".join(f"{t!r}\n" for t in np.linspace(700.0, 800.0, 40).tolist()))
        code, out, err = run(
            capsys, "defensibility", "--data", str(data), "--bandwidth", "10",
            "--hazard", "preset:exponential_growth", "--c", "1e-3", "--grid-size", "4",
            "--format", "csv",
        )
        assert (code, out, err) == (2, "", "error: baseline hazard overflows at t = 719.487\n")


class TestValidationErrors:
    def test_bad_noise_amplitude(self, capsys):
        code, _, err = run(capsys, "simulate-w", "--c", "-1")
        assert code == 2
        assert "c" in err

    def test_unknown_dataset_preset(self, capsys):
        code, _, err = run(capsys, "estimate", "--data", "preset:nope", "--bandwidth", "6")
        assert code == 2
        assert "unknown dataset" in err

    def test_unknown_hazard_preset(self, capsys):
        code, _, err = run(capsys, "band", "--hazard", "preset:nope")
        assert code == 2
        assert "unknown hazard preset" in err

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_bad_support_end_named(self, capsys, tmp_path, value):
        hazard_file = tmp_path / "hz.cfg"
        hazard_file.write_text(f"kind = constant\nrate = 2\nsupport_end = {value}\n")
        code, _, err = run(capsys, "band", "--hazard", str(hazard_file), "--c", "1")
        assert code == 2
        assert "support_end" in err

    @pytest.mark.parametrize("t", ["5", "2.45"])
    def test_band_without_interior_names_t(self, capsys, t):
        # a(t) and b(t) both round to 1 at t = 5, and lie a few ulps apart at t = 2.45
        code, out, err = run(
            capsys, "density", "--process", "x", "--hazard", "preset:polynomial_c1", "--t", t
        )
        assert code == 2
        assert out == ""
        assert "--t" in err

    @pytest.mark.parametrize(
        "lam, t, named",
        [
            ("1e155", "1", "lam = 1e+155"),  # lam * lam overflows: once printed inf
            ("1e300", "1", "lam = 1e+300"),  # inf * 0: once printed nan with a warning
            ("1", "1e156", "t = 1e+156"),  # c^2 t^2 overflows the Bessel argument
        ],
    )
    def test_density_overflow_named(self, capsys, lam, t, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "density", "--c", "1", "--lam", lam, "--t", t,
                                 "--points", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the density overflows at c = 1.0, lam = ")
        assert named in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "subcommand", [["simulate-w"], ["simulate-x", "--hazard", "preset:polynomial_c1"]]
    )
    def test_switch_bound_leaves_no_table(self, capsys, tmp_path, subcommand):
        # the bound is checked before the output is opened, also for no paths: no header, no file
        target = tmp_path / "paths.csv"
        for paths in ([], ["--paths", "0"]):
            argv = [*subcommand, "--lam", "1e300", *paths]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "lam = 1e+300" in err
            code, out, err = run(capsys, *argv, "--output", str(target))
            assert (code, out) == (2, "")
            assert "switches; at most 2**30" in err
            assert not target.exists()

    @pytest.mark.parametrize("lam", ["1e-308", "5e-324"])
    @pytest.mark.parametrize("command", ["simulate-w", "simulate-x"])
    def test_tiny_rate_paths_unwarned(self, capsys, command, lam):
        # the gaps pass the double range and once warned of inf - inf; no switch falls on the
        # grid, so each path keeps its starting side: W = -+c*t, and X = a(t) or b(t) to roundoff
        hazard = ["--hazard", "preset:polynomial_c2"] if command == "simulate-x" else []
        argv = [command, *hazard, "--lam", lam, "--paths", "3", "--grid-size", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 15
        model = PerturbedModel(HAZARDS["polynomial_c2"], TelegraphParams(c=1.0, lam=float(lam)))
        for _, t, value in rows:
            if command == "simulate-w":
                assert value in (-t, t)  # c = 1
            else:
                band = model.band(t)
                assert min(abs(value - band.a), abs(value - band.b)) <= 1e-15

    def test_overflowing_bound_leaves_no_table(self, capsys, tmp_path):
        # c * horizon past the double range once printed w = -inf with a RuntimeWarning
        argv = ["simulate-w", "--c", "1e300", "--lam", "3.6e-253", "--horizon", "1.4e65"]
        target = tmp_path / "paths.csv"
        for extra in ([], ["--output", str(target)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: c = 1e+300 up to grid[-1] = 1.4e+65 lets |W| reach ")
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["band", "--t-max", "4.98e285", "--points", "5"],
            ["moments", "--t-max", "4.98e285", "--points", "5"],
            ["density", "--process", "x", "--t", "4.98e285"],
        ],
    )
    def test_overflowing_ct_named_without_warning(self, capsys, tmp_path, argv):
        # c * t past the double range once printed nan cells (band, moments) or
        # warned of an overflow in c * t before the run was refused (density)
        hazard = tmp_path / "steep.cfg"
        hazard.write_text("kind = constant\nrate = 1e250\n")
        target = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--hazard", str(hazard), "--c", "1.24e111",
                                 "--lam", "2.6e-183", "--output", str(target))
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err.startswith("error: c = 1.24e+111 up to t = ")
        assert err.endswith(" lets |W| reach c * t = inf; it must be finite\n")
        assert not target.exists()

    def test_infinite_w_support_named_without_warning(self, capsys):
        # c * t = inf; the grid on (-inf, inf) once warned, then blamed --t alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "density", "--c", "1e300", "--lam", "1", "--t", "1e10",
                                 "--points", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: c = 1e+300 up to --t = 10000000000.0 lets |W| reach ")
        assert "Warning" not in err

    def test_x_density_with_b_at_one_named(self, capsys):
        # b(t) rounds to 1 though a(t) does not; 1 / (1 - b) once warned and
        # the run blamed an overflow
        code, out, err = run(capsys, "density", "--process", "x", "--hazard", "preset:soft_step",
                             "--c", "0.624", "--lam", "24.3", "--t", "51.7", "--points", "5")
        assert (code, out) == (2, "")
        assert err == "error: t = 51.7: b(t) rounds to 1, so the density cannot be resolved\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["band", "--t-max", "2000", "--points", "2"],
            ["moments", "--t-max", "2000", "--points", "2"],
            ["simulate-x", "--lam", "0.001", "--horizon", "2000", "--grid-size", "2"],
            ["band", "--t-max", "150", "--points", "4"],
        ],
    )
    def test_dominance_past_horizon_leaves_no_table(self, capsys, tmp_path, argv):
        # r = 0.5 < c past t = 100, beyond the 1e-6 tail of R; the build-time check
        # reaches past the last breakpoint and refuses the model: a(t) once
        # overflowed math.expm1, the variance read 4e74, and up to t = 150 the rows printed
        hazard = tmp_path / "dip.cfg"
        hazard.write_text("kind = piecewise\nsegments = 0:0:2; 100:0:0.5\n")
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--hazard", str(hazard), "--c", "1",
                             "--output", str(target))
        assert (code, out) == (2, "")
        assert err == "error: dominance r(t) > c fails at t = 100 (c = 1.0)\n"
        assert not target.exists()

    @pytest.mark.parametrize("c", ["1.000000000001", "1.000002"])
    def test_soft_step_above_its_limits_leaves_no_table(self, capsys, tmp_path, c):
        # r(t) -> 1 < c as t grows: refused at build, before any row
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, "band", "--hazard", "preset:soft_step", "--c", c,
                             "--t-max", "40", "--points", "5", "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: dominance r(t) > c fails at t = 0 (c = {c})\n"
        assert not target.exists()

    def test_tiny_t_w_density_names_t(self, capsys):
        # the 40000 x values collapse onto a few subnormals inside (-1e-320, 1e-320)
        code, out, err = run(capsys, "density", "--process", "w", "--t", "1e-320",
                             "--points", "40000")
        assert code == 2
        assert out == ""
        assert "--t 1e-320" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("moments", "--t-max", "10"), "--t-max"),
            (("band", "--t-max", "10", "--points", "4"), "--t-max"),
            (("density", "--process", "x", "--t", "10"), "--t"),
            (("simulate-x", "--horizon", "10"), "--horizon"),
        ],
        ids=["moments", "band", "density", "simulate-x"],
    )
    def test_time_past_finite_support_named(self, capsys, tmp_path, argv, flag):
        hazard_file = tmp_path / "fin.cfg"
        hazard_file.write_text("kind = constant\nrate = 2\nsupport_end = 5\n")
        code, out, err = run(capsys, *argv, "--hazard", str(hazard_file))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must lie in [0, 5.0), got 10.0\n"
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, *argv, "--hazard", str(hazard_file), "--output", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()

    @pytest.mark.parametrize("command", ["estimate", "defensibility"])
    def test_equal_order_statistics_rejected(self, capsys, tmp_path, command):
        # the 1st and (n-1)-th order statistics are both 5: no interior grid
        data = tmp_path / "tied.txt"
        data.write_text("5 5 7\n")
        argv = [command, "--data", str(data), "--bandwidth", "1"]
        if command == "defensibility":
            argv += ["--hazard", "preset:app1_constant", "--c", "0.001"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "grid for this sample" in err and "(5.0, 5.0)" in err

    @pytest.mark.parametrize("command", ["estimate", "defensibility"])
    def test_overflowing_density_estimate_leaves_no_table(self, capsys, tmp_path, command):
        # at h = 1e-320 the kernel on the observation 1.5 is ~3e319: the grid point
        # t = 1.5 once wrote 1.5,inf,0.375,inf,nan,nan and stayed usable
        data = tmp_path / "four.txt"
        data.write_text("1.0 1.5 2.0 3.0\n")
        target = tmp_path / "table.csv"
        argv = [command, "--data", str(data), "--bandwidth", "1e-320", "--grid-size", "3",
                "--output", str(target)]
        if command == "defensibility":
            argv += ["--hazard", "preset:app1_constant", "--c", "0.001"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: bandwidth 1e-320 is too small: f_hat overflows at t = 1.5\n"
        assert not target.exists()

    def test_argparse_error_exit_two(self, capsys):
        assert main(["simulate-w", "--paths", "not-an-int"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-w", "--paths", "-1"),
            ("simulate-w", "--grid-size", "0"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--paths", "-1"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--grid-size", "0"),
            ("density", "--points", "0"),
            ("density", "--points", "-3"),
            ("moments", "--hazard", "preset:polynomial_c1", "--points", "0"),
            ("band", "--hazard", "preset:polynomial_c1", "--points", "0"),
            ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "6", "--grid-size", "0"),
            ("simulate-w", "--seed", "-1"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--seed", "-1"),
            ("reproduce", "fig1", "--seed", "-1"),
            ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "6", "--grid-size", "1"),
            ("defensibility", "--data", "preset:melanoma_46", "--hazard", "preset:app1_constant",
             "--bandwidth", "6", "--c", "0.0004", "--grid-size", "1"),
        ],
    )
    def test_count_flag_rejected_by_name(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}: must be an integer >= " in err

    @pytest.mark.parametrize("command, flag", TYPED_FLAGS, ids=[" ".join(f) for f in TYPED_FLAGS])
    def test_every_typed_flag_rejects_nan_by_name(self, capsys, command, flag):
        code, out, err = run(capsys, command, flag, "nan")
        assert code == 2
        assert out == ""
        assert f"argument {flag}: " in err

    @pytest.mark.parametrize("command", ["estimate", "defensibility"])
    def test_alpha_half_rejected_by_name(self, capsys, command):
        code, out, err = run(capsys, command, "--alpha", "0.5")
        assert code == 2
        assert out == ""
        assert "argument --alpha: must lie in (0, 0.5), got 0.5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-w", "--horizon", "0"),
            ("simulate-w", "--horizon", "inf"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--horizon", "-1"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--horizon", "nan"),
            ("density", "--t", "0"),
            ("density", "--process", "x", "--hazard", "preset:polynomial_c1", "--t", "-0.5"),
            ("density", "--t", "inf"),
            ("moments", "--hazard", "preset:polynomial_c1", "--t-max", "-1"),
            ("moments", "--hazard", "preset:polynomial_c1", "--t-max", "inf"),
            ("band", "--hazard", "preset:polynomial_c1", "--t-max", "-0.001"),
            ("band", "--hazard", "preset:polynomial_c1", "--t-max", "nan"),
            ("simulate-w", "--c", "nan"),
            ("simulate-w", "--lam", "0"),
            ("simulate-x", "--hazard", "preset:polynomial_c1", "--lam", "inf"),
            ("density", "--c", "-2"),
            ("moments", "--hazard", "preset:polynomial_c1", "--c", "0"),
            ("band", "--hazard", "preset:polynomial_c1", "--lam", "nan"),
            ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "0"),
            ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "nan"),
            ("defensibility", "--data", "preset:melanoma_46", "--hazard", "preset:app1_constant",
             "--c", "0.0004", "--bandwidth", "inf"),
            ("defensibility", "--data", "preset:melanoma_46", "--hazard", "preset:app1_constant",
             "--bandwidth", "6", "--c", "nan"),
            ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "6", "--alpha", "0"),
            ("defensibility", "--data", "preset:melanoma_46", "--hazard", "preset:app1_constant",
             "--bandwidth", "6", "--c", "0.0004", "--alpha", "-0.1"),
        ],
    )
    def test_time_flag_rejected_by_name(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}: must be finite and " in err

    @pytest.mark.parametrize("command", ["moments", "band"])
    def test_t_max_zero_accepted(self, capsys, command):
        code, out, _ = run(capsys, command, "--hazard", "preset:polynomial_c1",
                           "--t-max", "0", "--points", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("0.0,")


def scipy_after(probe: str, *argv: str) -> dict:
    """Run ``probe`` (with ``argv`` as sys.argv[1:]) in a fresh process; its ``out`` and scipy modules.

    The probe leaves what it reports in a variable ``out``. ``numpy_ma`` tells whether
    ``numpy.ma`` was imported too.
    """
    report = (
        "\nimport json, sys\nprint(json.dumps({'out': out, 'scipy': sorted("
        "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')), "
        "'numpy_ma': 'numpy.ma' in sys.modules}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe + report, *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["telhaz", "telhaz.cli"])
def test_import_leaves_out_scipy(module):
    # scipy.special is ~0.35 s of a CLI process; only estimation and w_cdf call it
    assert scipy_after(f"import {module}; out = None")["scipy"] == []


PROCESS_COMMANDS = {
    **{f"reproduce-{target}": ("reproduce", target, "--output-dir", "{tmp}")
       for target in ("fig1", "fig2", "fig3", "fig4")},
    "simulate-w": ("simulate-w", "--output", "{tmp}/w.csv"),
    "simulate-x": ("simulate-x", "--hazard", "preset:polynomial_c1", "--output", "{tmp}/x.csv"),
    "band": ("band", "--hazard", "preset:polynomial_c1", "--points", "5", "--output", "{tmp}/b.csv"),
    "moments": ("moments", "--hazard", "preset:polynomial_c1", "--points", "5",
                "--output", "{tmp}/m.csv"),
    "density-w": ("density", "--process", "w", "--points", "5", "--output", "{tmp}/dw.csv"),
    "density-x": ("density", "--process", "x", "--hazard", "preset:polynomial_c1", "--t", "0.5",
                  "--points", "5", "--output", "{tmp}/dx.csv"),
}
ESTIMATING_COMMANDS = {
    "reproduce-app1": ("reproduce", "app1", "--output-dir", "{tmp}"),
    "estimate": ("estimate", "--data", "preset:melanoma_46", "--bandwidth", "6",
                 "--output", "{tmp}/e.csv"),
}


def after_main(argv, tmp_path) -> dict:
    """:func:`scipy_after` of a fresh process that runs ``cli.main(argv)``, which exits 0."""
    probe = "import sys, telhaz.cli; out = telhaz.cli.main(sys.argv[1:])"
    run = scipy_after(probe, *(arg.format(tmp=tmp_path) for arg in argv))
    assert run["out"] == 0
    return run


@pytest.mark.parametrize("argv", PROCESS_COMMANDS.values(), ids=PROCESS_COMMANDS)
def test_process_commands_leave_out_scipy(argv, tmp_path):
    assert after_main(argv, tmp_path)["scipy"] == []


@pytest.mark.parametrize("argv", PROCESS_COMMANDS.values(), ids=PROCESS_COMMANDS)
def test_process_commands_leave_out_numpy_ma(argv, tmp_path):
    # numpy.ma is 10-15 ms of a process; np.unique imports it, and no process command needs it
    assert not after_main(argv, tmp_path)["numpy_ma"]


@pytest.mark.parametrize("argv", ESTIMATING_COMMANDS.values(), ids=ESTIMATING_COMMANDS)
def test_estimating_commands_load_scipy_special(argv, tmp_path):
    assert "scipy.special" in after_main(argv, tmp_path)["scipy"]


def test_export_list_resolves():
    assert len(set(telhaz.__all__)) == len(telhaz.__all__)
    assert [name for name in telhaz.__all__ if not hasattr(telhaz, name)] == []
    # a lazily exported module's name still imports the submodule
    probe = "from telhaz import *; from telhaz import datasets, estimation; assert kde is estimation.kde"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_exports_are_their_modules_objects():
    layers = {f"telhaz.{m}" for m in ("datasets", "estimation", "hazard", "perturbed", "telegraph")}
    for name in telhaz.__all__:
        exported = getattr(telhaz, name)
        home = exported.__module__  # EPANECHNIKOV, an instance, reads its class's
        assert home in layers, name
        assert getattr(sys.modules[home], name) is exported, name


def test_unknown_export_named():
    with pytest.raises(AttributeError, match=r"^module 'telhaz' has no attribute 'no_such_name'$"):
        telhaz.no_such_name


def test_first_w_cdf_call_loads_scipy_special():
    probe = (
        "import sys, telhaz\n"
        "before = 'scipy.special' in sys.modules\n"
        "out = [before, repr(telhaz.w_cdf(telhaz.TelegraphParams(1.0, 2.0), 1.5, 0.3))]"
    )
    run = scipy_after(probe)
    assert run["out"] == [False, repr(telhaz.w_cdf(telhaz.TelegraphParams(1.0, 2.0), 1.5, 0.3))]
    assert "scipy.special" in run["scipy"]


class TestHazardFileAndConfig:
    def test_hazard_from_file(self, capsys, tmp_path):
        hazard_file = tmp_path / "hz.cfg"
        hazard_file.write_text("kind = constant\nrate = 0.0125\n")
        code, out, _ = run(capsys, "band", "--hazard", str(hazard_file),
                           "--c", "0.004", "--lam", "1", "--t-max", "10", "--points", "5")
        assert code == 0
        assert out.splitlines()[0] == "t,a,b,width"

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = preset:melanoma_46\nhazard = preset:app1_constant\n"
            "bandwidth = 6\nalpha = 0.025\nc = 0.0004\n"
        )
        code, out, _ = run(capsys, "defensibility", "--config", str(cfg))
        assert code == 0
        assert "holds = true" in out

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = preset:melanoma_46\nhazard = preset:app1_constant\n"
            "bandwidth = 6\nalpha = 0.025\nc = 0.0004\n"
        )
        code, out, _ = run(capsys, "defensibility", "--config", str(cfg), "--c", "0.01")
        assert code == 3
        assert "holds = false" in out

    def test_config_equals_spelling(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("t_max = 0.5\npoints = 3\n")
        argv = ("band", "--hazard", "preset:polynomial_c1")
        code1, out1, _ = run(capsys, *argv, "--config", str(cfg))
        code2, out2, _ = run(capsys, *argv, f"--config={cfg}")
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 1 + 3
        assert lines[-1].startswith("0.5,")

    def test_config_abbreviation_rejected(self, capsys, tmp_path):
        # only the full spelling is read, so an abbreviation must not parse and drop the file
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("t_max = 0.5\npoints = 3\n")
        code, out, err = run(capsys, "band", "--hazard", "preset:polynomial_c1", "--conf", str(cfg))
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --conf" in err

    def test_config_listed_in_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "--config FILE" in " ".join(out.split())  # argparse rewraps to the terminal

    def test_config_repeated_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 1\nC = 2\n")
        argv = ("band", "--hazard", "preset:polynomial_c1", "--config", str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}: line 2: repeated key 'c'\n"

    def test_config_keys_case_insensitive(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_MAX = 0.5\npoints = 3\n")
        argv = ("band", "--hazard", "preset:polynomial_c1", "--config", str(cfg))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 3
        assert lines[-1].startswith("0.5,")

    @pytest.mark.parametrize(
        "text", ["kind = constant\nrate = x\n", "rate = 2\n"], ids=["bad-value", "no-kind"]
    )
    def test_hazard_file_error_names_file(self, capsys, tmp_path, text):
        hazard_file = tmp_path / "hz.cfg"
        hazard_file.write_text(text)
        code, out, err = run(capsys, "band", "--hazard", str(hazard_file))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {hazard_file}: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind = constant\nrate = abc\n", "rate must be a number, got 'abc'"),
            ("kind = constant\nrate = 1\nsupport_end = soon\n",
             "support_end must be a number, got 'soon'"),
            ("kind = piecewise\nsegments = 0:x:1\n",
             "bad segment '0:x:1'; expected start:slope:intercept"),
        ],
        ids=["rate", "support_end", "segments"],
    )
    def test_hazard_file_number_named_by_key(self, capsys, tmp_path, text, message):
        hazard_file = tmp_path / "h1.txt"
        hazard_file.write_text(text)
        code, out, err = run(capsys, "band", "--hazard", str(hazard_file))
        assert code == 2
        assert out == ""
        assert err == f"error: {hazard_file}: {message}\n"

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "defensibility", "--config", "/nonexistent/x.cfg")
        assert code == 2


class TestReproduce:
    def test_app1(self, capsys, tmp_path):
        outdir = tmp_path / "app1"
        code, _, _ = run(capsys, "reproduce", "app1", "--output-dir", str(outdir))
        assert code == 0
        report = (outdir / "report.txt").read_text()
        assert "holds = true" in report
        assert "max_admissible_c" in report
        rows = read_rows(outdir / "defensibility.csv")
        assert rows[0] == ["t", "r_hat", "lower", "upper", "baseline", "margin"]
        assert len(rows) == 1 + 512
        assert all(float(r[5]) >= 0.0 for r in rows[1:])

    def test_app2(self, capsys, tmp_path):
        outdir = tmp_path / "app2"
        code, _, _ = run(capsys, "reproduce", "app2", "--output-dir", str(outdir))
        assert code == 0
        assert "holds = true" in (outdir / "report.txt").read_text()

    def test_fig2_summary(self, capsys, tmp_path):
        outdir = tmp_path / "fig2"
        code, _, _ = run(capsys, "reproduce", "fig2", "--output-dir", str(outdir))
        assert code == 0
        rows = read_rows(outdir / "summary.csv")
        table = {r[0]: (r[1], float(r[2])) for r in rows[1:]}
        assert table["a"][1] == 0.0
        assert table["b"][1] == 0.0
        assert table["c"][1] == pytest.approx(0.268, abs=1e-3)
        assert table["a"][0] == "inf"
        for case in ("a", "b", "c"):
            assert (outdir / f"band_{case}.csv").exists()

    def test_fig3_tables(self, capsys, tmp_path):
        outdir = tmp_path / "fig3"
        code, _, _ = run(capsys, "reproduce", "fig3", "--output-dir", str(outdir))
        assert code == 0
        density = read_rows(outdir / "density.csv")
        assert density[0] == ["t", "x", "density"]
        times = {row[0] for row in density[1:]}
        assert times == {"0.25", "0.5", "1.0"}
        atoms = read_rows(outdir / "atoms.csv")
        assert len(atoms) == 1 + 3

    def test_fig1_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "reproduce", "fig1", "--output-dir", str(out1), "--seed", "5")[0] == 0
        assert run(capsys, "reproduce", "fig1", "--output-dir", str(out2), "--seed", "5")[0] == 0
        for name in ("w_paths.csv", "x_paths.csv", "f_curve.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fig4_moments(self, capsys, tmp_path):
        outdir = tmp_path / "fig4"
        code, _, _ = run(capsys, "reproduce", "fig4", "--output-dir", str(outdir))
        assert code == 0
        rows = read_rows(outdir / "moments.csv")
        assert rows[0] == ["t", "mean", "variance"]
        final_mean = float(rows[-1][1])
        assert final_mean == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("target", ["fig1", "fig2", "fig3", "fig4", "app1", "app2"])
def test_reproduce_matches_recorded_sha256(capsys, tmp_path, target):
    # the recorded hashes are the byte-identity contract of every reproduce table
    expected = json.loads(RECORDED_SHA256.read_text())[target]
    assert run(capsys, "reproduce", target, "--output-dir", str(tmp_path))[0] == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == expected


@pytest.mark.parametrize("name", sorted(RECORDED_CLI))
def test_subcommand_matches_recorded_sha256(capsys, name):
    expected = RECORDED_CLI[name]
    code, out, _ = run(capsys, *expected["argv"])
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"]


def test_output_ignores_numpy_print_options(capsys):
    # csv writes a numpy scalar through str(), which follows numpy's print options
    # (legacy="1.13" prints 0.1 + 0.2 as 0.3); Python's float repr is fixed
    with np.printoptions(legacy="1.13"):
        for name, expected in RECORDED_CLI.items():
            code, out, _ = run(capsys, *expected["argv"])
            assert code == expected["exit"], name
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"], name


def test_closed_pipe_exits_quietly():
    # a reader that stops early (``telhaz ... | head``) is not invalid input; the
    # output is far larger than a pipe buffer, so the write hits the closed pipe
    argv = [sys.executable, "-m", "telhaz.cli", "simulate-w", "--paths", "500"]
    with subprocess.Popen(argv, env=src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"path_id,t,w\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.fixture(scope="module")
def flat_piece_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("hazard") / "flat.cfg"
    path.write_text("kind = piecewise\nsegments = 0:0:2\n")
    return str(path)


_MAGNITUDES = st.floats(-300.0, 300.0)  # log10 of a flag value


@st.composite
def process_argv(draw, flat_piece_file):
    """argv of a process command: numeric flags log-uniform in [1e-300, 1e300], tiny grids."""
    number = lambda: repr(10.0 ** draw(_MAGNITUDES))  # noqa: E731
    hazard = ["--hazard", draw(st.sampled_from([*(f"preset:{h}" for h in HAZARDS),
                                                flat_piece_file]))]
    command = draw(st.sampled_from(["density-w", "density-x", "moments", "band",
                                    "simulate-w", "simulate-x"]))
    noise = ["--c", number(), "--lam", number()]
    count = str(draw(st.integers(1, 5)))
    if command.startswith("density"):
        process = ["--process", command[-1], *(hazard if command == "density-x" else [])]
        return ["density", *process, *noise, "--t", number(), "--points", count]
    if command in ("moments", "band"):
        return [command, *hazard, *noise, "--t-max", number(), "--points", count]
    # paths: lam * horizon at most 1e5 switches
    horizon = draw(_MAGNITUDES)
    lam = draw(st.floats(-300.0, min(300.0, 5.0 - horizon)))
    flags = ["--c", number(), "--lam", repr(10.0**lam), "--horizon", repr(10.0**horizon),
             "--grid-size", count, "--paths", str(draw(st.integers(0, 3)))]
    return [command, *(hazard if command == "simulate-x" else []), *flags]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_process_commands_report_or_print_finite(flat_piece_file, data):
    # nothing turns into NaN or inf unreported: a run prints finite cells or
    # refuses by name, and numpy warns of no overflow or invalid value on the way
    argv = data.draw(process_argv(flat_piece_file))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        cells = [cell for line in out.getvalue().splitlines()[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells)
    if code == 2:
        assert err.getvalue().startswith("error:")


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    return tmp_path_factory.mktemp("data") / "lifetimes.txt"


_LIFETIMES = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)  # log-uniform in [1e-323, 1e308]
# the columns an unusable grid point leaves nan (docs/formats.md)
_BAND_COLUMNS = {"r_hat", "lower", "upper", "margin"}


@st.composite
def estimating_argv(draw, data_file):
    """(lifetimes, argv) of estimate or defensibility: 3-40 lifetimes, some repeated, for
    ``data_file``; bandwidth, alpha and c over their whole ranges, tiny grids."""
    distinct = draw(st.lists(_LIFETIMES, min_size=1, max_size=40))
    values = draw(st.lists(st.sampled_from(distinct), min_size=3, max_size=40))
    flags = ["--data", str(data_file), "--bandwidth", repr(10.0 ** draw(st.floats(-323.0, 300.0))),
             "--alpha", repr(draw(st.floats(5e-324, 0.49999999999999994))),
             "--grid-size", str(draw(st.integers(2, 6)))]
    if draw(st.booleans()):
        return values, ["estimate", *flags]
    hazard = draw(st.sampled_from(sorted(HAZARDS)))
    return values, ["defensibility", *flags, "--hazard", f"preset:{hazard}",
                    "--c", repr(10.0 ** draw(st.floats(-300.0, 300.0))),
                    "--format", draw(st.sampled_from(["csv", "report"]))]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_estimating_commands_report_or_print_finite(data_file, data):
    # as for the process commands, but an unusable grid point prints nan in every band column
    values, argv = data.draw(estimating_argv(data_file))
    data_file.write_text("".join(f"{value!r}\n" for value in values))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 2:
        assert err.getvalue().startswith("error:")
    elif argv[-1] == "report":
        lines = out.getvalue().splitlines()[1:]  # past "dataset = lifetimes"
        entries = dict(part.split(" = ") for line in lines for part in line.split(", "))
        assert entries.pop("holds") == ("true" if code == 0 else "false")
        assert entries.pop("n").endswith(" grid points")
        assert all(math.isfinite(float(value)) for value in entries.values())
    else:
        for row in csv.DictReader(io.StringIO(out.getvalue())):
            unusable = math.isnan(float(row["r_hat"]))
            for name, cell in row.items():
                usable_cell = not (unusable and name in _BAND_COLUMNS)
                assert math.isfinite(float(cell)) if usable_cell else math.isnan(float(cell))
