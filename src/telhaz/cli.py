"""Command-line surface: every figure and case study as CSV tables.

Outputs are plain data (no plotting); columns are documented in
``docs/formats.md``. All stochastic commands take an explicit seed and are
byte-for-byte deterministic given their flags.

Exit codes: 0 success, 2 invalid input, 3 defensibility test failed
(so shell pipelines can branch on the verdict), 1 internal error or an
output pipe closed by its reader (``telhaz ... | head``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import os
import sys
import traceback
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import presets
from .hazard import (
    _alpha, _config_entries, _count, _interior_grid, _positive, _read_file, _times,
    load_hazard_config,
)
from .perturbed import PerturbedModel
from .telegraph import TelegraphParams, _expected_switches, sample_path, w_density

# datasets and estimation (which loads scipy.special) are imported inside the
# commands that estimate, so the process commands never load them.
if TYPE_CHECKING:
    from .datasets import NamedDataset
    from .estimation import BandConfig


@contextlib.contextmanager
def _open_output(path: str | Path | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(path: str | Path | None, rows) -> None:
    """Write ``rows`` of Python scalars, header first, to ``path`` (stdout for None or "-")."""
    with _open_output(path) as out:
        csv.writer(out, lineterminator="\n").writerows(rows)


def _resolve(spec: str, kind: str, named: dict, load):
    """``preset:NAME`` looked up in ``named``; any other ``spec`` is a file read by ``load``."""
    if not spec.startswith("preset:"):
        return load(spec)
    name = spec[len("preset:"):]
    if name not in named:
        raise ValueError(f"unknown {kind} preset {name!r}; available: {sorted(named)}")
    return named[name]


def _hazard(args):
    return _resolve(args.hazard, "hazard", presets.HAZARDS, load_hazard_config)


def _model_from_args(args) -> PerturbedModel:
    return PerturbedModel(_hazard(args), TelegraphParams(c=args.c, lam=args.lam))


def _data_and_config(args) -> tuple[NamedDataset, BandConfig]:
    from . import datasets
    from .estimation import BandConfig

    dataset = _resolve(args.data, "dataset", datasets._BUILTIN, datasets.load)
    return dataset, BandConfig(h=args.bandwidth, alpha=args.alpha, grid_size=args.grid_size)


# -- tables -------------------------------------------------------------------
# Each builder returns the rows of one table, header first; a subcommand and
# the reproduce target that emits the same table share it. Numpy columns
# become Python scalars once, through .tolist(): csv writes a float as its
# repr, but a numpy scalar through str(), which follows numpy's global print
# options. The path tables skip csv: _write_paths formats each float with
# repr itself, the t column once per table, and writes one path at a time.


def _table(header: tuple, *columns) -> list:
    """``header``, then one row per index of the equal-length numpy ``columns``."""
    return [header, *zip(*(column.tolist() for column in columns))]


def _write_paths(path, name: str, values, grid, paths: int, seed: int) -> None:
    """Write ``paths`` sample paths to ``path``, path ``pid`` being ``values(grid, seed + pid)``.

    The bytes csv would write for the rows (pid, t, value): the t column is
    formatted once, and each path is one string, so memory is O(grid size).
    """
    times = [repr(t) for t in grid.tolist()]
    with _open_output(path) as out:
        out.write(f"path_id,t,{name}\n")
        for pid in range(paths):
            head = f"{pid},"
            xs = values(grid, seed + pid).tolist()
            out.write("".join([f"{head}{t},{x!r}\n" for t, x in zip(times, xs)]))


def _band_rows(model: PerturbedModel, grid) -> list:
    band = model.band(grid)
    return _table(("t", "a", "b", "width"), band.t, band.a, band.b, band.width)


def _x_density(model: PerturbedModel, t: float, points: int):
    """``points`` interior x values of X(t)'s band and the density there."""
    band = model.band(t)
    # a late t rounds a(t) and b(t) to within a few ulps of 1, or both to 1
    xs = _interior_grid(band.a, band.b, points, f"--t {t!r} (band of X(t))")
    return xs, model.density(xs, t)


def _moment_rows(model: PerturbedModel, grid) -> list:
    return _table(("t", "mean", "variance"), grid, model.mean(grid), model.variance(grid))


def _estimate_rows(band) -> list:
    header = "t", "f_hat", "F_hat", "r_hat", "lower", "upper"
    return _table(header, band.grid, band.density, band.cdf, band.rate, band.lower, band.upper)


def _defensibility_rows(report) -> list:
    band = report.band
    header = "t", "r_hat", "lower", "upper", "baseline", "margin"
    columns = band.grid, band.rate, band.lower, band.upper, report.baseline_rate, report.margin
    return _table(header, *columns)


# -- subcommands --------------------------------------------------------------


def _support_grid(model: PerturbedModel, end: float, count: int, flag: str) -> np.ndarray:
    """``count`` uniform times on [0, end]; ``flag`` names ``end`` if it leaves the support."""
    _times(end, model.hazard.support_end, flag)
    return np.linspace(0.0, end, count)


def cmd_simulate_w(args) -> int:
    params = TelegraphParams(c=args.c, lam=args.lam)
    grid = np.linspace(0.0, args.horizon, args.grid_size)
    _expected_switches(params, grid[-1])  # refused before the output is opened
    w = functools.partial(sample_path, params)
    _write_paths(args.output, "w", w, grid, args.paths, args.seed)
    return 0


def cmd_simulate_x(args) -> int:
    model = _model_from_args(args)
    grid = _support_grid(model, args.horizon, args.grid_size, "--horizon")
    _expected_switches(model.noise, grid[-1])  # refused before the output is opened
    model._cumulative(grid)  # so is R(t) < c*t past the checked horizon
    _write_paths(args.output, "x", model.sample_path_values, grid, args.paths, args.seed)
    return 0


def cmd_density(args) -> int:
    if args.process == "w":
        params = TelegraphParams(c=args.c, lam=args.lam)
        ct = params.c * args.t
        xs = _interior_grid(-ct, ct, args.points, f"--t {args.t!r} (support of W(t))")
        f = w_density(params, args.t, xs)
    else:
        if args.hazard is None:
            raise ValueError("--hazard is required for the x-process density")
        model = _model_from_args(args)
        _times(args.t, model.hazard.support_end, "--t")
        xs, f = _x_density(model, args.t, args.points)
    _write_csv(args.output, _table(("x", "density"), xs, f))
    return 0


def _model_and_grid(args) -> tuple[PerturbedModel, np.ndarray]:
    """The model and the ``--points`` grid on [0, --t-max]."""
    model = _model_from_args(args)
    return model, _support_grid(model, args.t_max, args.points, "--t-max")


def cmd_moments(args) -> int:
    _write_csv(args.output, _moment_rows(*_model_and_grid(args)))
    return 0


def cmd_band(args) -> int:
    _write_csv(args.output, _band_rows(*_model_and_grid(args)))
    return 0


def cmd_estimate(args) -> int:
    from .estimation import confidence_band

    dataset, config = _data_and_config(args)
    _write_csv(args.output, _estimate_rows(confidence_band(dataset.sample, config)))
    return 0


def _write_verdict(path, dataset_name: str, config: BandConfig, report, with_grid_size: bool):
    """The key = value verdict block; ``violating_t`` only when the test fails.

    ``with_grid_size`` opens the second line with the number of grid points,
    as ``--format report`` has it; the published ``report.txt`` leaves it out.
    """
    size = f"n = {report.band.grid.size} grid points, " if with_grid_size else ""
    with _open_output(path) as out:
        out.write(f"dataset = {dataset_name}\n")
        out.write(f"{size}h = {config.h!r}, alpha = {config.alpha!r}\n")
        out.write(f"c = {report.c!r}\n")
        out.write(f"holds = {str(report.holds).lower()}\n")
        out.write(f"max_admissible_c = {report.max_admissible_c!r}\n")
        if not report.holds:
            out.write(f"violating_t = {report.violating_t!r}\n")


def cmd_defensibility(args) -> int:
    from .estimation import defensibility_test

    dataset, config = _data_and_config(args)
    report = defensibility_test(dataset.sample, config, _hazard(args), args.c)
    if args.format == "csv":
        _write_csv(args.output, _defensibility_rows(report))
    else:
        _write_verdict(args.output, dataset.name, config, report, with_grid_size=True)
    return 0 if report.holds else 3


# -- reproduce ----------------------------------------------------------------
# Every target takes the output directory and --seed (only fig1 draws random
# numbers) and returns an exit code, or None when it has no verdict.


def _reproduce_fig1(outdir: Path, seed: int) -> None:
    model = presets.model_fig1()
    grid = np.linspace(0.0, presets.FIG1_HORIZON, 201)
    w = functools.partial(sample_path, model.noise)
    _write_paths(outdir / "w_paths.csv", "w", w, grid, 2, seed)
    _write_paths(outdir / "x_paths.csv", "x", model.sample_path_values, grid, 2, seed)
    _write_csv(outdir / "f_curve.csv", _table(("t", "cdf"), grid, model.hazard.cdf(grid)))


def _reproduce_fig2(outdir: Path, seed: int) -> None:
    summary = [("case", "nu", "terminal_width")]
    for case in ("a", "b", "c"):
        model = presets.model_fig2(case)
        grid = np.linspace(0.0, presets.FIG2_HORIZONS[case], 401)
        _write_csv(outdir / f"band_{case}.csv", _band_rows(model, grid))
        summary.append((case, model.total_excess_hazard, model.terminal_band_width()))
    _write_csv(outdir / "summary.csv", summary)


def _reproduce_fig3(outdir: Path, seed: int) -> None:
    model = presets.model_fig3()
    density_rows = [("t", "x", "density")]
    atom_rows = [("t", "a", "b", "atom_prob")]
    for t in presets.FIG3_TIMES:
        xs, f = _x_density(model, t, 401)
        density_rows.extend(zip(itertools.repeat(t), xs.tolist(), f.tolist()))
        band = model.band(t)
        atom_rows.append((t, band.a, band.b, model.atom_prob(t)))
    _write_csv(outdir / "density.csv", density_rows)
    _write_csv(outdir / "atoms.csv", atom_rows)


def _reproduce_fig4(outdir: Path, seed: int) -> None:
    grid = np.linspace(0.0, presets.FIG4_HORIZON, 401)
    _write_csv(outdir / "moments.csv", _moment_rows(presets.model_fig3(), grid))


def _reproduce_app(outdir: Path, seed: int, preset: dict) -> int:
    from . import datasets
    from .estimation import BandConfig, defensibility_test

    dataset = datasets.builtin(preset["dataset"])
    config = BandConfig(h=preset["h"], alpha=preset["alpha"])
    report = defensibility_test(dataset.sample, config, preset["baseline"], preset["c"])
    _write_csv(outdir / "estimate.csv", _estimate_rows(report.band))
    _write_csv(outdir / "defensibility.csv", _defensibility_rows(report))
    _write_verdict(outdir / "report.txt", dataset.name, config, report, with_grid_size=False)
    return 0 if report.holds else 3


_REPRODUCE = {
    "fig1": _reproduce_fig1,
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "app1": functools.partial(_reproduce_app, preset=presets.APP1),
    "app2": functools.partial(_reproduce_app, preset=presets.APP2),
}


def cmd_reproduce(args) -> int:
    outdir = Path(args.output_dir or f"{args.target}_tables")
    outdir.mkdir(parents=True, exist_ok=True)
    return _REPRODUCE[args.target](outdir, args.seed) or 0


# -- parser -------------------------------------------------------------------


def _flag(convert, rule, *bounds):
    """argparse type: ``convert`` the text, then check the value with the library ``rule``.

    The rule's ValueError becomes "argument --flag: must be ..."; a failed
    conversion stays a ValueError, which argparse reports as "invalid int
    value" or "invalid float value".
    """

    def parse(text: str):
        value = convert(text)
        try:
            return rule("", value, *bounds)  # argparse names the flag, so the rule names none
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    parse.__name__ = convert.__name__
    return parse


_POSITIVE = _flag(float, _positive)


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=_POSITIVE, default=1.0, help="noise amplitude (> 0)")
    p.add_argument("--lam", type=_POSITIVE, default=1.0, help="switching rate (> 0)")


def _add_path_flags(p: argparse.ArgumentParser) -> None:
    """The noise and sampling flags of simulate-w and simulate-x."""
    _add_noise_flags(p)
    p.add_argument("--horizon", type=_POSITIVE, default=1.0)
    p.add_argument("--paths", type=_flag(int, _count, 0), default=2)
    p.add_argument("--grid-size", type=_flag(int, _count, 1), default=201)
    p.add_argument("--seed", type=_flag(int, _count, 0), default=1)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """The model and time-grid flags of moments and band."""
    p.add_argument("--hazard", required=True)
    _add_noise_flags(p)
    p.add_argument("--t-max", type=_flag(float, _positive, True), default=2.0)
    p.add_argument("--points", type=_flag(int, _count, 1), default=401)


def _add_band_flags(p: argparse.ArgumentParser) -> None:
    """The data and confidence-band flags of estimate and defensibility."""
    p.add_argument("--data", required=True, help="data file or preset:NAME")
    p.add_argument("--bandwidth", type=_POSITIVE, required=True)
    p.add_argument("--alpha", type=_flag(float, _alpha), default=0.025)
    p.add_argument("--grid-size", type=_flag(int, _count, 2), default=512)


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telhaz",
        description="Telegraph-noise-perturbed hazard models: simulation, laws, and data checks. "
        "Any subcommand also takes --config FILE (spelled in full): key = value lines "
        "that supply its flags; explicit flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-w", help="sample paths of the integrated noise")
    _add_path_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_simulate_w)

    p = sub.add_parser("simulate-x", help="sample paths of the perturbed CDF process")
    p.add_argument("--hazard", required=True, help="hazard config file or preset:NAME")
    _add_path_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_simulate_x)

    p = sub.add_parser("density", help="closed-form density of W(t) or X(t)")
    p.add_argument("--process", choices=("w", "x"), default="w")
    p.add_argument("--hazard", default=None, help="required when --process x")
    _add_noise_flags(p)
    p.add_argument("--t", type=_POSITIVE, default=1.0)
    p.add_argument("--points", type=_flag(int, _count, 1), default=401)
    _add_output_flag(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("moments", help="mean and variance of X(t) on a grid")
    _add_grid_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("band", help="almost-sure band of X(t) on a grid")
    _add_grid_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("estimate", help="kernel density/CDF/hazard with confidence band")
    _add_band_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("defensibility", help="strip test of the model on a data set")
    _add_band_flags(p)
    p.add_argument("--hazard", required=True, help="baseline hazard config or preset:NAME")
    p.add_argument("--c", type=_POSITIVE, required=True)
    p.add_argument("--format", choices=("csv", "report"), default="report")
    _add_output_flag(p)
    p.set_defaults(func=cmd_defensibility)

    p = sub.add_parser("reproduce", help="emit all tables for a named figure or case study")
    p.add_argument("target", choices=tuple(_REPRODUCE))
    p.add_argument("--output-dir", default=None)
    p.add_argument("--seed", type=_flag(int, _count, 0), default=1)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` (or ``--config=FILE``) into flag tokens so explicit flags win."""
    pre = argparse.ArgumentParser(prog="telhaz", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, remaining = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    tokens: list[str] = []
    for key, value in _read_file(known.config, _config_entries).items():
        tokens += [f"--{key.replace('_', '-')}", value]
    # insert right after the subcommand so later explicit flags override
    return remaining[:1] + tokens + remaining[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader left early: flush to devnull at exit (Python's signal docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse reports its own errors
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
