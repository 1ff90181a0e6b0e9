"""Constructive solver for subdiffusion with piecewise-constant order.

The package builds each spectral mode of the solution segment by
segment: on every segment the value is the entry value plus a
singular-kernel convolution, ``entry + int K(t - s) * (load(s) -
lam * entry) ds``, with the memory of earlier segments folded into the
segment's effective load.  An independent L1 time stepper, a spatial
finite-difference twin, and a regularity verification layer cross-check
the construction.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, FracstepError, NumericError,
                     RegularityError)
from .operator import GridOperator, ModalBasis, OperatorSpec
from .schedule import OrderSchedule
from .solver import ProblemSpec, SeparableSource, SolutionField, solve

__all__ = [
    "ConfigError",
    "DomainError",
    "FracstepError",
    "GridOperator",
    "ModalBasis",
    "NumericError",
    "OperatorSpec",
    "OrderSchedule",
    "ProblemSpec",
    "RegularityError",
    "SeparableSource",
    "SolutionField",
    "solve",
    "__version__",
]
