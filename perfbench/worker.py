"""Benchmark passes of one workload, run in a fresh interpreter.

The worker first times its own set-up: importing what a ``fracstep``
command imports and building the run configuration from the workload's
JSON file, schema validation included.  Unless asked for set-up only, it
then repeats full passes (solve, pointwise sampling, the L1 comparison
ladder, the verification report) until its time budget is spent.  Every
pass starts from an empty Mittag-Leffler accelerator, as a fresh
``fracstep`` process does, and the verification report runs on the
accelerator state the solve left, as in ``fracstep verify``, not on the
state the sampling warmed.  The reference kernel of ``yardstick.py`` is
timed before every phase and once after the last.  When tracing, passes
alternate between untraced and traced, so the tracing overhead is
measured under the same machine conditions.  One JSON object goes to
the last output line.

    python3 perfbench/worker.py '<request as JSON>'
"""

import gc
import json
import resource
import sys
import time

#: Phase name of the checks made between timed phases; traced runs leave
#: its spans out of the per-layer metrics.
GATE_PHASE = "gate"


def _set_amplitudes(raw, amplitudes):
    problem = raw["problem"]
    problem["initial"]["coefficients"] = amplitudes["initial"]
    if "source" in amplitudes:
        problem["source"]["coefficients"] = amplitudes["source"]


def main(argv):
    request = json.loads(argv[1])
    started = time.perf_counter()
    import fracstep.cli  # noqa: F401  -- everything a `fracstep` run imports
    from fracstep import config as config_mod

    raw = config_mod.load_config(request["config"])
    _set_amplitudes(raw, request["amplitudes"])
    cfg = config_mod.build_run_config(raw)
    setup_s = time.perf_counter() - started
    if request["setup_only"]:
        return {"setup_s": setup_s}

    from fracstep import special
    from fracstep.errors import FracstepError

    budget = request["seconds"]
    least = 2 if request["trace"] else 1
    passes = []
    while len(passes) < least or _time_left(passes, started, budget):
        traced = request["trace"] and len(passes) % 2 == 1
        gc.collect()
        reset = getattr(special, "reset_ml_accelerator", None)
        if reset is not None:
            reset()
        try:
            passes.append(_traced_pass(raw, config_mod) if traced
                          else _run_pass(cfg, None))
        except FracstepError as exc:
            passes.append({"error": f"{type(exc).__name__}: {exc}"})
            break
    return {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _time_left(passes, started, budget):
    """Whether another pass of typical length fits in the budget."""
    walls = sorted(p["phases"]["wall_s"] for p in passes if "phases" in p)
    typical = walls[len(walls) // 2] if walls else 0.0
    return time.perf_counter() - started + typical <= budget


def _traced_pass(raw, config_mod):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cfg = config_mod.build_run_config(raw)
        result = _run_pass(cfg, tracer)
    finally:
        tracer.uninstall()
    result["trace"] = tracer.summary()
    return result


def _run_pass(cfg, tracer):
    import numpy as np
    import yardstick
    from fracstep import l1, solver, verify
    from fracstep.operator import ModalBasis

    spec = cfg.problem
    run = cfg.run
    num_modes = spec.num_modes
    exponents = sorted(run["compare_step_exponents"])
    xs = np.linspace(0.0, spec.operator.length, run["space_points"])
    ts = np.linspace(0.0, spec.schedule.horizon, run["time_points"])
    grids = [l1.L1Grid.for_schedule(spec.schedule, 2.0 ** -e)
             for e in exponents]
    source = spec.source or solver.ZeroSource(num_modes)
    loads = [[np.asarray(source.mode_values(n, g.times), dtype=float)
              for n in range(1, num_modes + 1)] for g in grids]
    eigenvalues = ModalBasis(spec.operator, num_modes).eigenvalues
    times = {}
    yard = []

    def phase(name):
        yard.append(yardstick.sample())
        if tracer is not None:
            tracer.phase(name)
        times[name + "_s"] = time.perf_counter()

    def done(name):
        times[name + "_s"] = time.perf_counter() - times[name + "_s"]

    clock0 = time.perf_counter()
    phase("solve")
    field = solver.solve(spec, n_cells=run["cells"], n_quad=run["quad"])
    done("solve")
    solved_state = _accelerator_state()
    # the gate the solver's construction promises: each later segment
    # starts from the exact float the earlier one ends at.  Evaluating
    # it can build an interpolant, so the phases after it start again
    # from the accelerator state the solve left.
    if tracer is not None:
        tracer.phase(GATE_PHASE)
    solve_gaps = [float(g) for g in field.junction_gaps()]
    _restore_accelerator(solved_state)

    phase("eval")
    grid_values = field.evaluate_grid(xs, ts)
    mode_values = np.vstack([field.mode_values(t) for t in ts])
    reference = np.vstack([field.mode_trajectory(n, grids[0].times)
                           for n in range(1, num_modes + 1)])
    done("eval")

    phase("compare")
    marches = [[l1.solve_mode_l1(eigenvalues[n], lambda t, v=load[n]: v,
                                 spec.schedule,
                                 spec.initial_coefficients[n], grid)
                for n in range(num_modes)]
               for grid, load in zip(grids, loads)]
    done("compare")

    _restore_accelerator(solved_state)
    phase("verify")
    n_quad = run["verify_quad"]
    report = verify.build_report(field, n_quad=n_quad)
    deviations = verify.initial_limit_check(field)
    fits = []
    for j in range(spec.schedule.num_segments):
        fits.extend(verify.blowup_fit_samples(field, j))
        fits.extend(verify.source_fit_samples(spec, field, j, n_quad))
    done("verify")
    times["wall_s"] = time.perf_counter() - clock0 - sum(yard)
    yard.append(yardstick.sample())
    if tracer is not None:
        tracer.uninstall()

    ladder = []
    for grid, rows in zip(grids, marches):
        stride = round(grid.num_steps / grids[0].num_steps)
        ladder.append(max(float(np.max(np.abs(u[::stride] - ref)))
                          for u, ref in zip(rows, reference)))
    arrays = [grid_values, mode_values, reference, deviations, *fits,
              *(u for rows in marches for u in rows)]
    result = {
        "phases": times,
        "yardstick_s": yard,
        "ladder": ladder,
        "residual_max": report.residual_max,
        "reference_times": grids[0].times.tolist(),
        "reference": reference.tolist(),
    }
    result.update(_check(arrays, report.as_dict()))
    result["junction_gaps"] = solve_gaps
    result["report_junction_gaps"] = [float(g) for g in report.junction_gaps]
    return result


def _accelerator_state():
    """A copy of the Mittag-Leffler accelerator's interpolant cache, or
    None once the package no longer has one.

    ``fracstep verify`` builds its report right after the solve, so the
    verify phase must see the cache the solve left, not the one the
    sampling phase warmed; results differ between the two by a few ULP.
    """
    from fracstep import special

    cache = getattr(special, "_cheb_cache", None)
    if cache is None:
        return None
    return {key: list(entry) for key, entry in cache.items()}


def _restore_accelerator(state):
    from fracstep import special

    if state is not None:
        special._cheb_cache.clear()
        special._cheb_cache.update(
            {key: list(entry) for key, entry in state.items()})


def _check(arrays, report):
    """Finite outputs and a digest of every output."""
    import hashlib

    import numpy as np

    arrays = [np.asarray(a, dtype=float) for a in arrays]
    numbers = [v for _, value in sorted(report.items())
               for v in np.atleast_1d(np.asarray(value, dtype=object))
               if v is not None]
    arrays.append(np.asarray(numbers, dtype=float))
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return {
        "finite": bool(all(np.all(np.isfinite(a)) for a in arrays)),
        "digest": digest.hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
