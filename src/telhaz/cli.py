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
from .telegraph import TelegraphParams, _reach, sample_paths, w_density

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
# A builder returns a header and blocks of rows of cell strings, each block one
# path or at most _BLOCK_ROWS rows, formatted as _write_table writes it. Numpy
# columns become Python scalars (.tolist()) first, as str() of a numpy scalar
# follows numpy's print options. A subcommand and reproduce share builders.
_BLOCK_ROWS = 2048


def _write_table(path: str | Path | None, header: tuple[str, ...], rows) -> None:
    """Write ``header``, then the nonempty blocks of rows of cell strings ``rows``, to ``path``.

    Each row is joined with "," and each block with "\n"; a None or "-" path is
    stdout. A cell is str() of a Python scalar: a float's repr, an int in
    decimal, a string as is. These are the bytes of ``csv.writer(lineterminator="\n")``,
    which quotes nothing here: no header or cell holds a comma, a quote or a newline.
    """
    with _open_output(path) as out:
        for block in itertools.chain([[header]], rows):
            out.write("\n".join(map(",".join, block)) + "\n")


def _rows(*columns):
    """Blocks of the rows of the equal-length numpy ``columns``, as cell strings."""
    # repr is a number's str minus the str type's call; only a string column needs str
    cells = [str if column.dtype.kind == "U" else repr for column in columns]
    return (zip(*(map(cell, column[i:i + _BLOCK_ROWS].tolist())
                  for cell, column in zip(cells, columns)))
            for i in range(0, len(columns[0]), _BLOCK_ROWS))


def _path_table(name: str, paths, grid):
    """One block per array of values on ``grid`` in ``paths``, numbered from 0 as it is read."""
    times = list(map(repr, grid.tolist()))  # once per table; repr is a float's str minus a call
    rows = (zip(itertools.repeat(str(pid)), times, map(repr, xs.tolist()))
            for pid, xs in enumerate(paths))
    return ("path_id", "t", name), rows


def _band_table(model: PerturbedModel, grid):
    band = model.band(grid)
    return ("t", "a", "b", "width"), _rows(band.t, band.a, band.b, band.width)


def _x_density(model: PerturbedModel, t: float, points: int):
    """``points`` interior x values of X(t)'s band and the density there."""
    band = model.band(t)
    # a late t rounds a(t) and b(t) to within a few ulps of 1, or both to 1
    xs = _interior_grid(band.a, band.b, points, f"--t {t!r} (band of X(t))")
    return xs, model.density(xs, t)


def _moment_table(model: PerturbedModel, grid):
    return ("t", "mean", "variance"), _rows(grid, model.mean(grid), model.variance(grid))


def _estimate_table(band):
    header = "t", "f_hat", "F_hat", "r_hat", "lower", "upper"
    return header, _rows(band.grid, band.density, band.cdf, band.rate, band.lower, band.upper)


def _defensibility_table(report):
    band = report.band
    header = "t", "r_hat", "lower", "upper", "baseline", "margin"
    columns = band.grid, band.rate, band.lower, band.upper, report.baseline_rate, report.margin
    return header, _rows(*columns)


# -- subcommands --------------------------------------------------------------


def _support_grid(model: PerturbedModel, end: float, count: int, flag: str) -> np.ndarray:
    """``count`` uniform times on [0, end]; ``flag`` names ``end`` if it leaves the support."""
    _times(end, model.hazard.support_end, flag)
    return np.linspace(0.0, end, count)


def cmd_simulate_w(args) -> int:
    params = TelegraphParams(c=args.c, lam=args.lam)
    grid = np.linspace(0.0, args.horizon, args.grid_size)
    seeds = range(args.seed, args.seed + args.paths)
    _write_table(args.output, *_path_table("w", sample_paths(params, grid, seeds), grid))
    return 0


def cmd_simulate_x(args) -> int:
    model = _model_from_args(args)
    grid = _support_grid(model, args.horizon, args.grid_size, "--horizon")
    seeds = range(args.seed, args.seed + args.paths)
    _write_table(args.output, *_path_table("x", model.sample_paths(grid, seeds), grid))
    return 0


def cmd_density(args) -> int:
    if args.process == "w":
        params = TelegraphParams(c=args.c, lam=args.lam)
        ct = _reach(params, args.t, "--t")
        xs = _interior_grid(-ct, ct, args.points, f"--t {args.t!r} (support of W(t))")
        f = w_density(params, args.t, xs)
    else:
        if args.hazard is None:
            raise ValueError("--hazard is required for the x-process density")
        model = _model_from_args(args)
        _times(args.t, model.hazard.support_end, "--t")
        xs, f = _x_density(model, args.t, args.points)
    _write_table(args.output, ("x", "density"), _rows(xs, f))
    return 0


def _model_and_grid(args) -> tuple[PerturbedModel, np.ndarray]:
    """The model and the ``--points`` grid on [0, --t-max]."""
    model = _model_from_args(args)
    return model, _support_grid(model, args.t_max, args.points, "--t-max")


def cmd_moments(args) -> int:
    _write_table(args.output, *_moment_table(*_model_and_grid(args)))
    return 0


def cmd_band(args) -> int:
    _write_table(args.output, *_band_table(*_model_and_grid(args)))
    return 0


def cmd_estimate(args) -> int:
    from .estimation import confidence_band

    dataset, config = _data_and_config(args)
    _write_table(args.output, *_estimate_table(confidence_band(dataset.sample, config)))
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
        _write_table(args.output, *_defensibility_table(report))
    else:
        _write_verdict(args.output, dataset.name, config, report, with_grid_size=True)
    return 0 if report.holds else 3


# -- reproduce ----------------------------------------------------------------
# Every target takes the output directory and --seed (only fig1 draws random
# numbers) and returns an exit code, or None when it has no verdict.


def _reproduce_fig1(outdir: Path, seed: int) -> None:
    model = presets.model_fig1()
    grid = np.linspace(0.0, presets.FIG1_HORIZON, 201)
    seeds = range(seed, seed + 2)
    for name, paths in (("w", sample_paths(model.noise, grid, seeds)),
                        ("x", model.sample_paths(grid, seeds))):
        _write_table(outdir / f"{name}_paths.csv", *_path_table(name, paths, grid))
    _write_table(outdir / "f_curve.csv", ("t", "cdf"), _rows(grid, model.hazard.cdf(grid)))


def _reproduce_fig2(outdir: Path, seed: int) -> None:
    models = {case: presets.model_fig2(case) for case in presets.FIG2_HORIZONS}
    for case, model in models.items():
        grid = np.linspace(0.0, presets.FIG2_HORIZONS[case], 401)
        _write_table(outdir / f"band_{case}.csv", *_band_table(model, grid))
    nu = np.array([model.total_excess_hazard for model in models.values()])
    width = np.array([model.terminal_band_width() for model in models.values()])
    summary = _rows(np.array(list(models)), nu, width)
    _write_table(outdir / "summary.csv", ("case", "nu", "terminal_width"), summary)


def _reproduce_fig3(outdir: Path, seed: int) -> None:
    model = presets.model_fig3()
    times = np.array(presets.FIG3_TIMES)
    xs, f = zip(*(_x_density(model, t, 401) for t in presets.FIG3_TIMES))
    density = _rows(np.repeat(times, 401), np.concatenate(xs), np.concatenate(f))
    _write_table(outdir / "density.csv", ("t", "x", "density"), density)
    band = model.band(times)
    atoms = _rows(times, band.a, band.b, np.array([model.atom_prob(t) for t in presets.FIG3_TIMES]))
    _write_table(outdir / "atoms.csv", ("t", "a", "b", "atom_prob"), atoms)


def _reproduce_fig4(outdir: Path, seed: int) -> None:
    grid = np.linspace(0.0, presets.FIG4_HORIZON, 401)
    _write_table(outdir / "moments.csv", *_moment_table(presets.model_fig3(), grid))


def _reproduce_app(outdir: Path, seed: int, preset: dict) -> int:
    from . import datasets
    from .estimation import BandConfig, defensibility_test

    dataset = datasets.builtin(preset["dataset"])
    config = BandConfig(h=preset["h"], alpha=preset["alpha"])
    report = defensibility_test(dataset.sample, config, preset["baseline"], preset["c"])
    _write_table(outdir / "estimate.csv", *_estimate_table(report.band))
    _write_table(outdir / "defensibility.csv", *_defensibility_table(report))
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
