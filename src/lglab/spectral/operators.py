"""Difference operators on discrete forms and their exact adjoints.

Derivative backends:
  * "fd2": centered second-order differences with decay (zero) padding
    beyond the boundary — a real antisymmetric banded matrix.  Best
    truncation order for pointwise operator identities, but its symbol
    vanishes at the odd/even comb, so eigenproblems see each kernel
    vector twice (sublattice duplication).  Use it for consistency
    checks, not for kernel counts.
  * "fd1": one-sided first-order differences.  The operator uses the
    forward matrix and every starred operator automatically uses its
    transpose (the backward matrix), so squared operators contain the
    standard second difference: no comb duplication, kernel counts are
    clean.  Default for eigenproblems on large grids.
  * "fd1b": the backward-oriented mirror of "fd1".  Its leading
    truncation error has the opposite sign, so kernel subspaces averaged
    over the "fd1"/"fd1b" pair cancel the first-order error and shed
    boundary-attached artifacts, which do not pair across orientations.
  * "spectral": trigonometric collocation on the periodic extension of
    the grid (odd point count), a real antisymmetric dense matrix.
    Appropriate only for data that decays well inside the box; used
    where residuals must reach the 1e-8 scale.

Adjoints are constructed, never discretized: starred blocks use the
conjugate-transposed derivative matrices, so ⟨Aφ,ψ⟩ = ⟨φ,A*ψ⟩ holds to
rounding for every backend, including the one-sided pair.

Every degree-raising operator used here is assembled from four
component blocks:

    c1 += has_dz·Dz(c0) + w1·c0          c2 += has_dz̄·Dz̄(c0) + w2·c0
    c3 += has_dz·Dz(c2) + w1·c2 − has_dz̄·Dz̄(c1) − w2·c1

where w1 multiplies a dz-wedge field and w2 a dz̄-wedge field.  The
twisted Dolbeault operator is (has_dz̄, w1=f'); the twisted de Rham
operator adds has_dz; the real-superpotential operator adds w2 = conj(f').
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..poly import Polynomial
from ..util import PrecondError
from .forms import SCALES, DiscreteForm
from .grid import Grid

_RAISE = np.sqrt(2.0)  # uniform scale factor of degree-raising blocks


def derivative_matrix_fd2(m: int, h: float) -> sp.csr_matrix:
    c = 1.0 / (2.0 * h)
    return sp.diags([-c, c], [-1, 1], shape=(m, m), format="csr")


def derivative_matrix_fd1(m: int, h: float) -> sp.csr_matrix:
    c = 1.0 / h
    return sp.diags([-c, c], [0, 1], shape=(m, m), format="csr")


def derivative_matrix_fd1b(m: int, h: float) -> sp.csr_matrix:
    c = 1.0 / h
    return sp.diags([-c, c], [-1, 0], shape=(m, m), format="csr")


def derivative_matrix_spectral(m: int, h: float) -> np.ndarray:
    if m % 2 == 0:
        raise PrecondError("spectral derivative requires an odd point count")
    period = m * h
    off = np.arange(m)[:, None] - np.arange(m)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (np.pi / period) * ((-1.0) ** off) / np.sin(np.pi * off / m)
    np.fill_diagonal(D, 0.0)
    return D


def _sample(p: Polynomial, Z: np.ndarray) -> np.ndarray:
    out = np.zeros(Z.shape, dtype=complex)
    for m, c in p.coeffs.items():
        out += complex(c) * (Z ** m[0] if m[0] else np.ones_like(Z))
    return out


_FLAVORS = {
    # name: (has_dz, has_dzbar, w1 spec, w2 spec)
    "dbar": (False, True, None, None),
    "partial": (True, False, None, None),
    "d": (True, True, None, None),
    "df_wedge": (False, False, "fp", None),
    "dbar_f": (False, True, "fp", None),
    "dbar_f_half": (False, True, "fp/2", None),
    "partial_f": (True, False, None, "fbp"),
    "partial_mf": (True, False, None, "-fbp"),
    "d_f": (True, True, "fp", None),
    "d_2Ref": (True, True, "fp", "fbp"),
}


class Operators:
    """All grid operators for one (f, grid, backend) triple."""

    def __init__(self, grid: Grid, f: Polynomial | None,
                 backend: str = "fd2"):
        if backend not in ("fd1", "fd1b", "fd2", "spectral"):
            raise PrecondError(f"unknown derivative backend {backend!r}")
        self.grid = grid
        self.backend = backend
        self.f = f
        if f is None:
            self.fp = np.zeros_like(grid.z)
            self.f_values = np.zeros_like(grid.z)
        else:
            if len(f.names) != 1:
                raise PrecondError("grid harness handles one variable only")
            if any(e < 0 for m in f.coeffs for e in m):
                raise PrecondError(
                    "grid sampling of negative powers hits the origin")
            self.fp = _sample(f.diff(0), grid.z)
            self.f_values = _sample(f, grid.z)
        self.fbp = np.conj(self.fp)
        m, h = grid.points, grid.h
        self.sparse = backend != "spectral"
        if backend == "fd2":
            self.D = derivative_matrix_fd2(m, h)
            self._DT = self.D.T.tocsr()
        elif backend == "fd1":
            self.D = derivative_matrix_fd1(m, h)
            self._DT = self.D.T.tocsr()
        elif backend == "fd1b":
            self.D = derivative_matrix_fd1b(m, h)
            self._DT = self.D.T.tocsr()
        else:
            self.D = derivative_matrix_spectral(m, h)
            self._DT = self.D.T.copy()
        self._mat_cache: dict = {}

    # -- pointwise fields ----------------------------------------------------

    def _wfield(self, spec: str | None) -> np.ndarray | None:
        if spec is None:
            return None
        return {"fp": self.fp, "fp/2": self.fp / 2, "fbp": self.fbp,
                "-fbp": -self.fbp}[spec]

    # -- 1D derivative applications -----------------------------------------

    def dx(self, g: np.ndarray) -> np.ndarray:
        return self.D @ g

    def dy(self, g: np.ndarray) -> np.ndarray:
        return g @ self._DT

    def dz(self, g: np.ndarray) -> np.ndarray:
        return 0.5 * (self.dx(g) - 1j * self.dy(g))

    def dzbar(self, g: np.ndarray) -> np.ndarray:
        return 0.5 * (self.dx(g) + 1j * self.dy(g))

    # transposed-derivative versions, the exact ℓ² adjoints of the above
    # (equal to -dz / -dzbar only when D is antisymmetric)

    def _dxH(self, g: np.ndarray) -> np.ndarray:
        return self._DT @ g

    def _dyH(self, g: np.ndarray) -> np.ndarray:
        return g @ self.D

    def dzH(self, g: np.ndarray) -> np.ndarray:
        return 0.5 * (self._dxH(g) + 1j * self._dyH(g))

    def dzbarH(self, g: np.ndarray) -> np.ndarray:
        return 0.5 * (self._dxH(g) - 1j * self._dyH(g))

    # -- first-order operators on forms --------------------------------------

    def diff(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        has_dz, has_dzb, w1s, w2s = _FLAVORS[flavor]
        w1, w2 = self._wfield(w1s), self._wfield(w2s)
        out = DiscreteForm(self.grid)
        c0, c1, c2 = a.comps[0], a.comps[1], a.comps[2]
        if has_dz:
            out.comps[1] += self.dz(c0)
            out.comps[3] += self.dz(c2)
        if w1 is not None:
            out.comps[1] += w1 * c0
            out.comps[3] += w1 * c2
        if has_dzb:
            out.comps[2] += self.dzbar(c0)
            out.comps[3] -= self.dzbar(c1)
        if w2 is not None:
            out.comps[2] += w2 * c0
            out.comps[3] -= w2 * c1
        return out

    def diff_adjoint(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        """Exact adjoint of diff(flavor) in the weighted inner product."""
        has_dz, has_dzb, w1s, w2s = _FLAVORS[flavor]
        w1, w2 = self._wfield(w1s), self._wfield(w2s)
        out = DiscreteForm(self.grid)
        c1, c2, c3 = a.comps[1], a.comps[2], a.comps[3]
        if has_dz:
            out.comps[0] += 2.0 * self.dzH(c1)
            out.comps[2] += 2.0 * self.dzH(c3)
        if w1 is not None:
            out.comps[0] += 2.0 * np.conj(w1) * c1
            out.comps[2] += 2.0 * np.conj(w1) * c3
        if has_dzb:
            out.comps[0] += 2.0 * self.dzbarH(c2)
            out.comps[1] += -2.0 * self.dzbarH(c3)
        if w2 is not None:
            out.comps[0] += 2.0 * np.conj(w2) * c2
            out.comps[1] += -2.0 * np.conj(w2) * c3
        return out

    def dirac(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        return self.diff(flavor, a) + self.diff_adjoint(flavor, a)

    def laplacian(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        return (self.diff(flavor, self.diff_adjoint(flavor, a)) +
                self.diff_adjoint(flavor, self.diff(flavor, a)))

    # -- public dispatcher over named operator kinds --------------------------

    def apply(self, kind: str, a: DiscreteForm) -> DiscreteForm:
        if a.grid != self.grid:
            raise PrecondError("form grid does not match operator grid")
        if kind in _FLAVORS:
            return self.diff(kind, a)
        if kind.endswith("_star") and kind[:-5] in _FLAVORS:
            return self.diff_adjoint(kind[:-5], a)
        if kind == "laplacian_f":
            return self.laplacian("dbar_f", a)
        if kind == "laplacian_2Ref":
            return self.laplacian("d_2Ref", a)
        if kind == "L":
            out = DiscreteForm(self.grid)
            out.comps[3] = 0.5j * a.comps[0]
            return out
        if kind == "Lambda":
            out = DiscreteForm(self.grid)
            out.comps[0] = -2j * a.comps[3]
            return out
        raise PrecondError(f"unknown operator kind {kind!r}")

    # -- contraction homotopy pieces ------------------------------------------

    def gradient_contraction(self, a: DiscreteForm) -> DiscreteForm:
        """V_f = (df∧)*/|∇f|²: pointwise inverse of the df-wedge away
        from critical points (zero filled at the critical set; callers
        multiply by cutoffs vanishing there)."""
        safe = np.where(np.abs(self.fp) > 1e-300, self.fp, np.inf)
        inv = 1.0 / safe
        out = DiscreteForm(self.grid)
        out.comps[0] = inv * a.comps[1]
        out.comps[2] = inv * a.comps[3]
        return out

    # -- sector matrices -------------------------------------------------------

    def _grid_mats(self):
        if "base" in self._mat_cache:
            return self._mat_cache["base"]
        m = self.grid.points
        if self.sparse:
            eye = sp.identity(m, format="csr")
            DX = sp.kron(self.D, eye, format="csr")
            DY = sp.kron(eye, self.D, format="csr")
            Dz2 = (0.5 * (DX - 1j * DY)).tocsr()
            Dzb2 = (0.5 * (DX + 1j * DY)).tocsr()
        else:
            eye = np.eye(m)
            DX = np.kron(self.D, eye)
            DY = np.kron(eye, self.D)
            Dz2 = 0.5 * (DX - 1j * DY)
            Dzb2 = 0.5 * (DX + 1j * DY)
        self._mat_cache["base"] = (Dz2, Dzb2)
        return Dz2, Dzb2

    def _diag(self, field: np.ndarray):
        if self.sparse:
            return sp.diags(field.ravel()).tocsr()
        return np.diag(field.ravel())

    def _zeros(self, shape):
        if self.sparse:
            return sp.csr_matrix(shape, dtype=complex)
        return np.zeros(shape, dtype=complex)

    def sector_matrices(self, flavor: str):
        """(A0, A1): the scaled matrices of the flavor from degree 0 to 1
        and from degree 1 to 2.  In the scaled coordinates the standard
        dot product is the inner product, so adjoints are plain conjugate
        transposes."""
        key = ("sector", flavor)
        if key in self._mat_cache:
            return self._mat_cache[key]
        has_dz, has_dzb, w1s, w2s = _FLAVORS[flavor]
        w1, w2 = self._wfield(w1s), self._wfield(w2s)
        Dz2, Dzb2 = self._grid_mats()
        n = Dz2.shape[0]

        def block(use_D, Dmat, w):
            parts = []
            if use_D:
                parts.append(Dmat)
            if w is not None:
                parts.append(self._diag(w))
            if not parts:
                return self._zeros((n, n))
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            return total

        to_c1 = block(has_dz, Dz2, w1)
        to_c2 = block(has_dzb, Dzb2, w2)
        if self.sparse:
            A0 = (_RAISE * sp.vstack([to_c1, to_c2])).tocsr()
            A1 = (_RAISE * sp.hstack([-to_c2, to_c1])).tocsr()
        else:
            A0 = _RAISE * np.vstack([to_c1, to_c2])
            A1 = _RAISE * np.hstack([-to_c2, to_c1])
        self._mat_cache[key] = (A0, A1)
        return A0, A1

    def laplacian_matrix(self, flavor: str, degree: int):
        key = ("lap", flavor, degree)
        if key in self._mat_cache:
            return self._mat_cache[key]
        A0, A1 = self.sector_matrices(flavor)
        if degree == 0:
            M = A0.conj().T @ A0
        elif degree == 1:
            M = A1.conj().T @ A1 + A0 @ A0.conj().T
        elif degree == 2:
            M = A1 @ A1.conj().T
        else:
            raise PrecondError("degree must be 0, 1, or 2")
        if self.sparse:
            M = M.tocsr()
        self._mat_cache[key] = M
        return M

    def gradient_norm_field(self) -> np.ndarray:
        """|∇f| pointwise (equals √2·|f′| for the flat metric used here)."""
        return np.sqrt(2.0) * np.abs(self.fp)
