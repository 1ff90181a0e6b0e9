"""Piecewise-constant order schedule on a partitioned time horizon.

The fractional order is a step function: the horizon ``[0, T]`` is split by
strictly increasing breakpoints ``0 = t_0 < t_1 < ... < t_M = T`` and the
order takes the constant value ``orders[j]`` on the half-open segment
``[t_j, t_{j+1})``.  Lookups are right-continuous by default, so a query
exactly at an interior breakpoint returns the segment that starts there;
callers that need the left limit, such as a derivative's, ask for the
segment that ends there.  The final time ``T`` belongs to the last
segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count

#: Smallest admissible segment width, relative to the horizon length.
MIN_SEGMENT_FRACTION = 1e-12


@dataclass(frozen=True)
class OrderSchedule:
    """Breakpoints and per-segment orders of a piecewise-constant order.

    Parameters
    ----------
    breakpoints:
        Strictly increasing times ``(t_0, ..., t_M)`` with ``t_0 = 0``.
    orders:
        One order per segment, each strictly inside ``(0, 1)``.
    """

    breakpoints: tuple[float, ...]
    orders: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        orders = tuple(float(b) for b in self.orders)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "orders", orders)

        if len(bp) < 2:
            raise DomainError("need at least two breakpoints (0 and T)")
        if len(orders) != len(bp) - 1:
            raise DomainError(
                f"got {len(orders)} orders for {len(bp) - 1} segments")
        if not all(np.isfinite(bp)) or not all(np.isfinite(orders)):
            raise DomainError("breakpoints and orders must be finite")
        if bp[0] != 0.0:
            raise DomainError(f"first breakpoint must be 0, got {bp[0]}")

        widths = np.diff(bp)
        if np.any(widths <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        horizon = bp[-1]
        if np.any(widths < MIN_SEGMENT_FRACTION * horizon):
            raise DomainError(
                "segment narrower than "
                f"{MIN_SEGMENT_FRACTION:g} * horizon ({horizon:g})")

        for j, b in enumerate(orders):
            if not 0.0 < b < 1.0:
                raise DomainError(
                    f"order on segment {j} must lie in (0, 1), got {b}")

    @property
    def num_segments(self) -> int:
        return len(self.orders)

    @property
    def horizon(self) -> float:
        return self.breakpoints[-1]

    def segment(self, j: int) -> tuple[float, float]:
        """Endpoints ``(t_j, t_{j+1})`` of segment ``j``, an integer."""
        check_count(j, 0, "segment index")
        if j >= self.num_segments:
            raise DomainError(
                f"segment index {j} out of range [0, {self.num_segments})")
        return self.breakpoints[j], self.breakpoints[j + 1]

    def segment_of(self, times, side: str = "right") -> np.ndarray:
        """Index of the segment holding each of ``times``, same shape.

        A time's segment is the number of interior breakpoints below it,
        or at it when ``side`` is ``"right"``: an interior breakpoint
        then belongs to the segment that starts there, and with
        ``"left"`` to the one that ends there.  Times at or below 0 fall
        in the first segment and times at or beyond ``T`` in the last.
        """
        return np.asarray(self.breakpoints[1:-1]).searchsorted(times, side)

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)
