"""Command-line front end: solve, oracle, compare, verify, ml-eval.

Every subcommand reads one JSON config, computes everything in memory,
and only then writes its artifacts, so a failing run leaves no partial
outputs.  CSV cells carry 17 significant digits with LF line endings;
``meta.json`` echoes the config so a run can be reproduced bit-for-bit
from its own artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .config import RunConfig, build_run_config, load_config
from .errors import ConfigError, DomainError, FracstepError
from .l1 import L1Grid, solve_full_l1_fd, solve_mode_l1
from .solver import DEFAULT_CELLS, DEFAULT_QUAD, solve
from .special import ml_values
from . import verify as verify_mod

log = logging.getLogger("fracstep")

#: Default refinement ladder for the compare subcommand.
COMPARE_EXPONENTS = (8, 10, 12, 14)


#: Rows formatted by one string operation in _write_csv.
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, header: list[str], rows) -> None:
    # one "%" of a repeated row template per block of rows; a column is
    # text ("%s") when the block's first cell in it is a str and "%.17g"
    # otherwise, which prints every double as format(float(x), ".17g") does
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
            line = ",".join("%s" if isinstance(cell, str) else "%.17g"
                            for cell in block[0]) + "\n"
            handle.write(line * len(block)
                         % tuple(itertools.chain.from_iterable(block)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _meta(cfg: RunConfig, timings: dict) -> dict:
    return {
        "config": cfg.raw,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fracstep": __version__,
        },
        "timings": timings,
    }


def _solve_field(cfg: RunConfig):
    t0 = time.perf_counter()
    field = solve(cfg.problem,
                  n_cells=cfg.run_value("cells", DEFAULT_CELLS),
                  n_quad=cfg.run_value("quad", DEFAULT_QUAD))
    return field, time.perf_counter() - t0


def _oracle_grid(cfg: RunConfig, key: str, exponent: int) -> L1Grid:
    try:
        return L1Grid.for_schedule(cfg.problem.schedule, 2.0 ** -exponent)
    except DomainError as exc:
        raise ConfigError(str(exc), pointer=f"/run/{key}") from exc


def _mode_l1(cfg: RunConfig, grid: L1Grid) -> np.ndarray:
    """L1 values of every mode on ``grid``, one row per mode."""
    spec = cfg.problem
    loads = spec.source.values(grid.times)
    eigenvalues = spec.operator.eigenvalues(spec.num_modes)
    return solve_mode_l1(eigenvalues, lambda t: loads, spec.schedule,
                         spec.initial_coefficients, grid)


def cmd_solve(cfg: RunConfig, out: str) -> dict:
    spec = cfg.problem
    field, t_solve = _solve_field(cfg)
    xs = np.linspace(0.0, spec.operator.length,
                     cfg.run_value("space_points", 33))
    ts = np.linspace(0.0, spec.schedule.horizon,
                     cfg.run_value("time_points", 33))
    values = field.mode_values(ts)
    grid = field.basis.synthesize(values, xs)
    mode_rows = ((t, float(n + 1), values[n, k])
                 for k, t in enumerate(ts) for n in range(spec.num_modes))
    sol_rows = ((x, t, grid[i, k])
                for k, t in enumerate(ts) for i, x in enumerate(xs))
    _write_csv(os.path.join(out, "solution.csv"), ["x", "t", "u"], sol_rows)
    _write_csv(os.path.join(out, "modes.csv"), ["t", "n", "u_n"], mode_rows)
    return {"solve_seconds": t_solve}


def cmd_oracle(cfg: RunConfig, out: str) -> dict:
    spec = cfg.problem
    exponent = cfg.run_value("oracle_step_exponent", 10)
    grid = _oracle_grid(cfg, "oracle_step_exponent", exponent)
    t0 = time.perf_counter()
    u = _mode_l1(cfg, grid)
    timing = time.perf_counter() - t0
    rows = ((t, float(n + 1), u[n, m]) for m, t in enumerate(grid.times)
            for n in range(spec.num_modes))

    points = cfg.run_value("oracle_spatial_points", 0)
    fd = None
    if points > 0:
        t0 = time.perf_counter()
        fd = solve_full_l1_fd(spec, grid, points)
        timing += time.perf_counter() - t0

    _write_csv(os.path.join(out, "oracle.csv"), ["t", "n", "u_n"], rows)
    if fd is not None:
        xs = np.linspace(0.0, spec.operator.length, points + 2)
        field_rows = ((xs[i], t, fd[i, m])
                      for m, t in enumerate(grid.times)
                      for i in range(xs.size))
        _write_csv(os.path.join(out, "oracle_field.csv"),
                   ["x", "t", "u"], field_rows)
    return {"oracle_seconds": timing}


def cmd_compare(cfg: RunConfig, out: str) -> dict:
    exponents = sorted(cfg.run_value("compare_step_exponents",
                                     COMPARE_EXPONENTS))
    grids = {e: _oracle_grid(cfg, "compare_step_exponents", e)
             for e in exponents}
    coarse = grids[exponents[0]]

    field, t_solve = _solve_field(cfg)
    reference = field.mode_values(coarse.times)

    t0 = time.perf_counter()
    table = []
    for e in exponents:
        grid = grids[e]
        stride = round(grid.num_steps / coarse.num_steps)
        diffs = _mode_l1(cfg, grid)[:, ::stride] - reference
        table.append((2.0 ** -e, float(np.max(np.abs(diffs))),
                      float(np.sqrt(np.mean(diffs ** 2)))))
    timing = time.perf_counter() - t0
    _write_csv(os.path.join(out, "compare.csv"),
               ["step", "max_discrepancy", "rms_discrepancy"], table)
    return {"solve_seconds": t_solve, "compare_seconds": timing,
            "finest_max_discrepancy": table[-1][1]}


def cmd_verify(cfg: RunConfig, out: str) -> dict:
    spec = cfg.problem
    field, t_solve = _solve_field(cfg)
    n_quad = cfg.run_value("verify_quad", 24)
    t0 = time.perf_counter()
    report = verify_mod.build_report(field, n_quad=n_quad)
    deviations = verify_mod.initial_limit_check(field)
    timing = time.perf_counter() - t0
    rows = [(kind, float(j), offset, norm)
            for j, (offsets, *norms) in enumerate(report.fit_samples)
            for kind, values in zip(("derivative", "source_rate"), norms)
            for offset, norm in zip(offsets, values)]

    horizon = spec.schedule.horizon
    payload = {
        "report": report.as_dict(),
        "initial_limit": {
            "times": [horizon * s
                      for s in verify_mod.INITIAL_LIMIT_FRACTIONS],
            "deviations": list(deviations),
            "initial_norm": field.basis.fractional_norm(
                spec.initial_coefficients),
        },
    }
    _write_json(os.path.join(out, "verify.json"), payload)
    _write_csv(os.path.join(out, "rate_samples.csv"),
               ["kind", "segment", "offset", "norm"], rows)
    return {"solve_seconds": t_solve, "verify_seconds": timing}


def cmd_ml_eval(cfg: RunConfig, out: str) -> dict:
    alpha = float(cfg.run_value("ml_alpha", 0.5))
    beta = float(cfg.run_value("ml_beta", 1.0))
    z_min = float(cfg.run_value("ml_z_min", -100.0))
    z_max = float(cfg.run_value("ml_z_max", 0.0))
    count = cfg.run_value("ml_count", 1000)
    if z_min > z_max:
        raise ConfigError("ml_z_min exceeds ml_z_max",
                          pointer="/run/ml_z_min")
    z = np.linspace(z_min, z_max, count)
    t0 = time.perf_counter()
    values = ml_values(alpha, beta, z)
    timing = time.perf_counter() - t0
    _write_csv(os.path.join(out, "ml.csv"),
               ["alpha", "beta", "z", "value"],
               ((alpha, beta, z[i], values[i]) for i in range(count)))
    return {"ml_seconds": timing}


_COMMANDS = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "ml-eval": cmd_ml_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="variable-order subdiffusion solver and oracles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a JSON run configuration")
        p.add_argument("--out", default=".",
                       help="directory receiving the artifacts")
    return parser


def _configure_logging() -> None:
    name = os.environ.get("FRACSTEP_LOG", "WARNING").upper()
    # a level name maps to its number; an unknown name maps to a string
    if not isinstance(logging.getLevelName(name), int):
        raise ConfigError(
            f"FRACSTEP_LOG names no log level: {name!r} (use DEBUG, INFO, "
            "WARNING, ERROR or CRITICAL)")
    logging.basicConfig(level=name,
                        format="%(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _configure_logging()
        raw = load_config(args.config)
        cfg = build_run_config(raw)
        log.info("running %s on %s", args.command, args.config)
        os.makedirs(args.out, exist_ok=True)
        timings = _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2
    except FracstepError as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}),
              file=sys.stderr)
        return 3
    timings["total_seconds"] = time.perf_counter() - started
    _write_json(os.path.join(args.out, "meta.json"),
                _meta(cfg, timings))
    log.info("done in %.2fs", timings["total_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
