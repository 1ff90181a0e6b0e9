"""Count cross-check: trace one solve of the README example as published.

The README runs its example at 256 cells and 32 quadrature nodes; under
a profiler the seed code's solve of it made the calls below.  The
benchmark's ``readme_check`` workload runs the same problem at fewer
cells, so this script traces the published size once, with the
benchmark's own tracer, and prints each count next to the seed figure.
A later change that batches or removes calls shows up as a difference.

    PYTHONPATH=src python3 perfbench/crosscheck.py
"""

import os
import sys

from tracer import Tracer

#: Calls the seed code makes in the README example's solve.
SEED_SOLVE_CALLS = {
    "special.ml_values": 17294,
    "quadrature.scaled_power_history": 1538,
    "quadrature.power_kernel_convolve": 1026,
    "quadrature.duhamel_convolve": 1028,
}
README_CELLS = 256


def main():
    from fracstep import config, special, solver

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "workloads", "readme_check.json")
    cfg = config.build_run_config(config.load_config(path))
    reset = getattr(special, "reset_ml_accelerator", None)
    if reset is not None:
        reset()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("solve")
        solver.solve(cfg.problem, n_cells=README_CELLS,
                     n_quad=cfg.run["quad"])
    finally:
        tracer.uninstall()
    calls = {name: row["calls"]
             for (_, name), row in tracer.layer_table().items()}
    for name, expected in SEED_SOLVE_CALLS.items():
        got = calls.get(name, 0)
        verdict = "matches" if got == expected else "differs from"
        print(f"  README solve at {README_CELLS} cells: {name} calls {got} "
              f"({verdict} the seed figure {expected})")


if __name__ == "__main__":
    sys.exit(main())
