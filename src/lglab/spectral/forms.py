"""Discrete mixed-type forms on a grid.

A form carries four complex component fields, one per type:

    index 0: functions            (type (0,0), metric weight 1)
    index 1: dz-coefficient       (type (1,0), metric weight 2)
    index 2: dz̄-coefficient       (type (0,1), metric weight 2)
    index 3: dz∧dz̄-coefficient    (type (1,1), metric weight 4)

with the flat metric normalized so |dz|^2 = 2.  Total degree of a
component is the sum of its type; the Laplacians preserve it.
"""

from __future__ import annotations

import numpy as np

from ..util import PrecondError
from .grid import Grid

WEIGHTS = (1.0, 2.0, 2.0, 4.0)
SCALES = (1.0, np.sqrt(2.0), np.sqrt(2.0), 2.0)
DEGREE_SECTORS = {0: (0,), 1: (1, 2), 2: (3,)}
SMOOTH_FORM_DECAY = 0.5  # Gaussian envelope exp(−decay·|z|²) of random data


class DiscreteForm:
    __slots__ = ("grid", "comps")

    def __init__(self, grid: Grid, comps: np.ndarray | None = None):
        self.grid = grid
        m = grid.points
        if comps is None:
            comps = np.zeros((4, m, m), dtype=complex)
        comps = np.asarray(comps, dtype=complex)
        if comps.shape != (4, m, m):
            raise PrecondError(f"component array must have shape (4,{m},{m})")
        self.comps = comps

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "DiscreteForm") -> "DiscreteForm":
        _check_same_grid(self, other)
        return DiscreteForm(self.grid, self.comps + other.comps)

    def __sub__(self, other: "DiscreteForm") -> "DiscreteForm":
        _check_same_grid(self, other)
        return DiscreteForm(self.grid, self.comps - other.comps)

    def __mul__(self, scalar) -> "DiscreteForm":
        return DiscreteForm(self.grid, self.comps * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "DiscreteForm":
        return DiscreteForm(self.grid, -self.comps)

    def multiply_pointwise(self, field: np.ndarray) -> "DiscreteForm":
        return DiscreteForm(self.grid, self.comps * field[None, :, :])

    # -- flat vectors (scaled so the standard dot product is the inner
    #    product; used by the matrix side of the harness) ------------------

    def pack(self, sector) -> np.ndarray:
        h = self.grid.h
        return np.concatenate(
            [(h * SCALES[i]) * self.comps[i].ravel() for i in sector])

    @classmethod
    def unpack(cls, grid: Grid, sector, vec: np.ndarray) -> "DiscreteForm":
        m = grid.points
        out = cls(grid)
        for pos, i in enumerate(sector):
            block = vec[pos * m * m:(pos + 1) * m * m]
            out.comps[i] = block.reshape(m, m) / (grid.h * SCALES[i])
        return out


def _check_same_grid(a: DiscreteForm, b: DiscreteForm) -> None:
    if a.grid != b.grid:
        raise PrecondError("forms live on different grids")


# -- inner products and pairings ---------------------------------------------


def inner(a: DiscreteForm, b: DiscreteForm) -> complex:
    """L² inner product, linear in the first slot, conjugating the second."""
    _check_same_grid(a, b)
    total = 0.0 + 0.0j
    for i in range(4):
        total += WEIGHTS[i] * np.sum(a.comps[i] * np.conj(b.comps[i]))
    return complex(total * a.grid.h ** 2)


def norm(a: DiscreteForm) -> float:
    return float(np.sqrt(abs(inner(a, a))))


def wedge_pairing(a: DiscreteForm, b: DiscreteForm, twist: bool = False) -> complex:
    """∫ a∧b as a top-component sum times the area element.

    With twist=True the second argument's components of type (i,j) are
    first scaled by (−1)^i, which symmetrizes the pairing on degree-1
    forms to match the exact residue-pairing conventions.
    """
    _check_same_grid(a, b)
    a0, a1, a2, a3 = a.comps
    b0, b1, b2, b3 = b.comps
    if twist:
        b1, b3 = -b1, -b3
    top = a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1
    return complex(-2j * a.grid.h ** 2 * np.sum(top))


def hodge_star(a: DiscreteForm) -> DiscreteForm:
    """Pointwise Hodge star: ⋆1 = (i/2)dz∧dz̄, ⋆dz = −i dz, ⋆dz̄ = i dz̄,
    ⋆(dz∧dz̄) = −2i."""
    out = DiscreteForm(a.grid)
    out.comps[3] = 0.5j * a.comps[0]
    out.comps[1] = -1j * a.comps[1]
    out.comps[2] = 1j * a.comps[2]
    out.comps[0] = -2j * a.comps[3]
    return out


def lefschetz(a: DiscreteForm) -> DiscreteForm:
    """L: the wedge with the Kähler form ⋆1 = (i/2)dz∧dz̄."""
    out = DiscreteForm(a.grid)
    out.comps[3] = 0.5j * a.comps[0]
    return out


def lefschetz_adjoint(a: DiscreteForm) -> DiscreteForm:
    """Λ: the pointwise adjoint of ``lefschetz``."""
    out = DiscreteForm(a.grid)
    out.comps[0] = -2j * a.comps[3]
    return out


def conjugate(a: DiscreteForm) -> DiscreteForm:
    """Complex conjugation: swaps dz and dz̄ coefficients, negates top
    (since conj(dz∧dz̄) = dz̄∧dz)."""
    out = DiscreteForm(a.grid)
    out.comps[0] = np.conj(a.comps[0])
    out.comps[1] = np.conj(a.comps[2])
    out.comps[2] = np.conj(a.comps[1])
    out.comps[3] = -np.conj(a.comps[3])
    return out


# -- test-form factories ------------------------------------------------------


def gaussian_form(grid: Grid, width: float = 1.0, center: complex = 0.0,
                  components=(1,)) -> DiscreteForm:
    """e^{−width·|z−center|²} placed on the given component indices."""
    profile = np.exp(-width * np.abs(grid.z - center) ** 2)
    out = DiscreteForm(grid)
    for i in components:
        out.comps[i] = profile
    return out


def random_smooth_form(grid: Grid, rng, sector=None) -> DiscreteForm:
    """Random polynomial-times-Gaussian data on the chosen components."""
    indices = range(4) if sector is None else sector
    z, zb = grid.z, np.conj(grid.z)
    envelope = np.exp(-SMOOTH_FORM_DECAY * np.abs(grid.z) ** 2)
    out = DiscreteForm(grid)
    for i in indices:
        field = np.zeros_like(z)
        for p in range(3):
            for q in range(3 - p):
                c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                field = field + c * z ** p * zb ** q
        out.comps[i] = field * envelope
    return out
