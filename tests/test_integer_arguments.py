"""Every integer argument of the package takes the one check of
``errors.check_count``: a bool, a float (integer-valued or not) or a
value below the argument's minimum raises ``DomainError``, and a numpy
integer is used exactly like the Python int of the same value."""

import functools

import numpy as np
import pytest

from fracstep.errors import DomainError
from fracstep.operator import GridOperator, ModalBasis, OperatorSpec
from fracstep.quadrature import (
    composite_graded_integral,
    graded_mesh,
    scaled_power_history,
)
from fracstep.schedule import OrderSchedule
from fracstep.solver import ProblemSpec, solve
from fracstep.special import measured_envelope

OP = OperatorSpec()
# four segments and three modes, so that 3.0 is in range where an index
# is bounded above and only its type can reject it
SCHEDULE = OrderSchedule(breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
                         orders=(0.3, 0.8, 0.5, 0.6))


@functools.cache
def _field():
    return solve(ProblemSpec(schedule=SCHEDULE, operator=OP,
                             initial_coefficients=(1.0, 0.5, 0.25)),
                 n_cells=8, n_quad=4)


# site -> (call with the integer argument, its minimum, a valid value)
SITES = {
    "OperatorSpec.eigenvalues": (OP.eigenvalues, 1, 3),
    "ModalBasis": (lambda n: ModalBasis(OP, n).eigenvalues, 1, 3),
    "GridOperator": (lambda n: GridOperator(OP, n).eigenvalues(), 2, 3),
    "graded_mesh": (lambda n: graded_mesh(0.0, 1.0, n), 1, 3),
    "scaled_power_history": (
        lambda n: scaled_power_history(np.cos, 0.0, 0.5, [0.5, 0.52, 1.0],
                                       0.4, 0.5, n=n), 1, 3),
    "composite_graded_integral.n_cells": (
        lambda n: composite_graded_integral(np.cos, 0.0, 1.0, -0.5,
                                            n_cells=n), 1, 3),
    "composite_graded_integral.n_gauss": (
        lambda n: composite_graded_integral(np.cos, 0.0, 1.0, -0.5,
                                            n_gauss=n), 1, 3),
    "measured_envelope": (
        lambda n: measured_envelope((0.5, 1.0), n_points=n), 1, 3),
    "OrderSchedule.segment": (SCHEDULE.segment, 0, 3),
    "SolutionField.mode_trajectory": (
        lambda n: _field().mode_trajectory(n, [0.1, 0.6, 1.0]), 1, 3),
}


@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)],
                         ids=["2.5", "True", "float64(3.0)"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_rejects_non_integer(site, value):
    call = SITES[site][0]
    with pytest.raises(DomainError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("site", sorted(SITES))
def test_rejects_value_below_minimum(site):
    call, minimum, _ = SITES[site]
    with pytest.raises(DomainError, match=f"need at least {minimum}"):
        call(minimum - 1)


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_integer_is_the_same_integer(site):
    call, _, valid = SITES[site]
    np.testing.assert_array_equal(call(np.int64(valid)), call(valid))
