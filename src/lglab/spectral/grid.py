"""Uniform square sampling grid for the plane, with decay boundary.

The domain is the square [-R, R]^2 with the flat metric; an odd point
count per axis keeps the origin (the critical point of every test
potential) on the grid.  Functions that decay like a Gaussian are
represented by their samples; values beyond the boundary are treated
as zero by the difference operators.
"""

from __future__ import annotations

import numpy as np

from ..util import PrecondError


class Grid:
    """Square grid: m points per axis spanning [-R, R], spacing h."""

    __slots__ = ("half_width", "points", "h", "axis", "z")

    def __init__(self, half_width: float, points: int):
        self.half_width = float(half_width)
        self.points = int(points)
        self.h = 2.0 * self.half_width / (self.points - 1)
        self.axis = np.linspace(-self.half_width, self.half_width, self.points)
        self.z = self.axis[:, None] + 1j * self.axis[None, :]

    def __eq__(self, other):
        return (isinstance(other, Grid) and
                other.half_width == self.half_width and
                other.points == self.points)

    def __repr__(self):
        return f"Grid(R={self.half_width}, m={self.points}, h={self.h:.6g})"


def build_grid(half_width: float, points: int) -> Grid:
    if not float(half_width) > 0:
        raise PrecondError("grid half-width must be positive")
    if int(points) != points or points % 2 == 0:
        raise PrecondError("point count must be an odd integer")
    if points < 17:
        raise PrecondError("point count must be at least 17")
    return Grid(half_width, points)


def refine(grid: Grid) -> Grid:
    """Same domain with the spacing halved (shared grid points)."""
    return Grid(grid.half_width, 2 * grid.points - 1)
