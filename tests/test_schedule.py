"""Contract tests for the piecewise-constant order schedule."""

import dataclasses
import math

import numpy as np
import pytest

from fracstep.errors import DomainError
from fracstep.schedule import MIN_SEGMENT_FRACTION, OrderSchedule


@pytest.fixture
def three_segment():
    return OrderSchedule(breakpoints=(0.0, 0.25, 0.5, 1.0),
                         orders=(0.3, 0.8, 0.5))


class TestConstruction:
    def test_basic_properties(self, three_segment):
        s = three_segment
        assert s.num_segments == 3
        assert s.horizon == 1.0
        np.testing.assert_allclose(s.widths(), [0.25, 0.25, 0.5])
        assert s.segment(0) == (0.0, 0.25)
        assert s.segment(2) == (0.5, 1.0)

    def test_coerces_sequence_inputs(self):
        s = OrderSchedule(breakpoints=[0, 1], orders=np.array([0.5]))
        assert s.breakpoints == (0.0, 1.0)
        assert s.orders == (0.5,)

    def test_single_segment(self):
        s = OrderSchedule(breakpoints=(0.0, 2.0), orders=(0.9,))
        assert s.num_segments == 1
        assert s.orders[s.segment_of(1.999)] == 0.9

    def test_immutable(self, three_segment):
        with pytest.raises(dataclasses.FrozenInstanceError):
            three_segment.orders = (0.1, 0.1, 0.1)

    @pytest.mark.parametrize("breakpoints,orders", [
        ((0.0,), ()),                               # no segment at all
        ((0.0, 1.0), (0.3, 0.4)),                   # count mismatch
        ((0.1, 1.0), (0.3,)),                       # must start at zero
        ((0.0, 0.5, 0.5, 1.0), (0.3, 0.4, 0.5)),    # not strictly increasing
        ((0.0, 1.0, 0.5), (0.3, 0.4)),              # decreasing
        ((0.0, math.nan, 1.0), (0.3, 0.4)),         # non-finite breakpoint
        ((0.0, 1.0), (0.0,)),                       # order at closed end
        ((0.0, 1.0), (1.0,)),                       # order at closed end
        ((0.0, 1.0), (-0.2,)),                      # negative order
        ((0.0, 1.0), (math.nan,)),                  # non-finite order
    ])
    def test_rejects_invalid(self, breakpoints, orders):
        with pytest.raises(DomainError):
            OrderSchedule(breakpoints=breakpoints, orders=orders)

    def test_rejects_degenerate_segment(self):
        width = 0.5 * MIN_SEGMENT_FRACTION  # relative to horizon 1.0
        with pytest.raises(DomainError):
            OrderSchedule(breakpoints=(0.0, width, 1.0), orders=(0.3, 0.4))


class TestLookup:
    def test_right_continuous_at_breakpoints(self, three_segment):
        s = three_segment
        for j, t in enumerate(s.breakpoints[1:-1]):
            assert s.segment_of(t) == j + 1
            assert s.segment_of(t, side="left") == j
        assert s.segment_of(0.25 - 1e-12) == 0
        assert s.segment_of(1.0 - 1e-12) == 2

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_horizon_ends(self, side, three_segment):
        assert three_segment.segment_of(0.0, side) == 0
        assert three_segment.segment_of(1.0, side) == 2

    def test_order_at(self, three_segment):
        s = three_segment
        times = np.array([0.1, 0.25, 0.75])
        np.testing.assert_array_equal(
            np.asarray(s.orders)[s.segment_of(times)], [0.3, 0.8, 0.5])

    def test_array_keeps_shape(self, three_segment):
        times = np.array([[0.0, 0.1, 0.25], [0.5, 0.75, 1.0]])
        np.testing.assert_array_equal(three_segment.segment_of(times),
                                      [[0, 0, 1], [2, 2, 2]])
        np.testing.assert_array_equal(
            three_segment.segment_of(times, side="left"),
            [[0, 0, 0], [1, 2, 2]])

    def test_segment_rejects_bad_index(self, three_segment):
        with pytest.raises(DomainError):
            three_segment.segment(3)
        with pytest.raises(DomainError):
            three_segment.segment(-1)
