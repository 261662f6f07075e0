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
    clean.  Default for eigenproblems on large grids.  The backward
    orientation needs no backend of its own: with P the reversal of one
    axis, −P·D·P is the backward stencil, so every backward-oriented
    operator of f is the point reflection z → −z of the "fd1" one of
    f(−z) (``analysis.derham_compare`` uses this).
  * "spectral": trigonometric collocation on the periodic extension of
    the grid (odd point count), a real antisymmetric matrix with every
    off-diagonal entry set.  Appropriate only for data that decays well
    inside the box; used where residuals must reach the 1e-8 scale.

All three derivative matrices are Toeplitz, so P·D·P = Dᵀ with P the
reversal of one axis.  With Π = P⊗P the point reflection z → −z,
Π·Dz̄·Π = Dz̄ᵀ, and the degree-2 ``dbar_f`` Laplacian of f is
conj(Π·L₀·Π), L₀ the degree-0 one of f(−z).  Operators see f only
through f′, and ``parity`` tells from f's exponents when f(−z) has
derivative ±f′ (``analysis`` uses both).

Every degree-raising operator used here is given by one block spec in
``_FLAVORS``, read as four component blocks:

    c1 += has_dz·Dz(c0) + w1·c0          c2 += has_dz̄·Dz̄(c0) + w2·c0
    c3 += has_dz·Dz(c2) + w1·c2 − has_dz̄·Dz̄(c1) − w2·c1

where w1 multiplies a dz-wedge field and w2 a dz̄-wedge field.  The
twisted Dolbeault operator is (has_dz̄, w1=f'); the twisted de Rham
operator adds has_dz; the real-superpotential operator adds w2 = conj(f').

The form-level ``diff`` and ``diff_adjoint`` apply the spec per axis,
dx g = D g and dy g = g Dᵀ, with Dz = ½(dx − i dy), Dz̄ = ½(dx + i dy)
and the pointwise weights, so they build no grid-sized matrix.  The
same spec is assembled once per flavor into the sparse matrices of
``sector_matrices`` (Kronecker products D⊗I and I⊗D), which serve only
the Laplacian matrices, ``analysis.hodge_decompose`` and
``analysis.splitting_map``; a test holds the two forms equal to
rounding.  Every Laplacian is CSR.

``Operators.factor`` is the one factorization policy: every solve of a
Laplacian L anywhere in the package goes through its solver of
L + SHIFT·I.  The finite-difference backends go to SuperLU in symmetric
mode.  For "spectral" the blocks hold O(m³) entries, and the Laplacian
is factored dense, as the backend's choice, because a sparse LU of it
fills in to about two thirds of the dense size and SuperLU factors it
2–11× slower than LAPACK factors the dense matrix.

Adjoints are constructed, never discretized: starred operators apply
the transposed derivative matrix and the conjugate weights, which is
the conjugate transpose of the assembled matrices, so ⟨Aφ,ψ⟩ = ⟨φ,A*ψ⟩
holds to rounding for every backend, including the one-sided pair.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..poly import Polynomial
from ..util import PrecondError
from .forms import DiscreteForm
from .grid import Grid

_RAISE = np.sqrt(2.0)  # uniform scale factor of degree-raising blocks
SHIFT = 1e-6  # every factorization is of L + SHIFT·I
# Refuse a Laplacian whose dense LU copy, the one ``Operators.factor``
# makes on the "spectral" backend, would exceed this: the degree-1
# spectral Laplacian fits at 41² (172 MiB) and up to 63², and is refused
# from 65² on (81²: 2.75 GB).
DENSE_BYTES_LIMIT = 2**30


def derivative_matrix_fd2(m: int, h: float) -> sp.csr_matrix:
    c = 1.0 / (2.0 * h)
    return sp.diags([-c, c], [-1, 1], shape=(m, m), format="csr")


def derivative_matrix_fd1(m: int, h: float) -> sp.csr_matrix:
    c = 1.0 / h
    return sp.diags([-c, c], [0, 1], shape=(m, m), format="csr")


def derivative_matrix_spectral(m: int, h: float) -> np.ndarray:
    if m % 2 == 0:
        raise PrecondError("spectral derivative requires an odd point count")
    period = m * h
    off = np.arange(m)[:, None] - np.arange(m)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (np.pi / period) * ((-1.0) ** off) / np.sin(np.pi * off / m)
    np.fill_diagonal(D, 0.0)
    return D


def parity(f: Polynomial | None) -> int | None:
    """The parity of f's nonconstant exponents: +1 when all are even
    (f(−z) = f), −1 when all are odd (f(−z) = 2f(0) − f, derivative −f′),
    None when they are mixed.  f = None and a constant f count as even."""
    odd = {sum(m) % 2 for m in f.coeffs if any(m)} if f is not None else set()
    if len(odd) > 1:
        return None
    return -1 if odd == {1} else 1


_DERIVATIVES = {
    "fd1": derivative_matrix_fd1,
    "fd2": derivative_matrix_fd2,
    "spectral": derivative_matrix_spectral,
}

_FLAVORS = {
    # name: (has_dz, has_dzbar, w1 spec, w2 spec)
    "dbar": (False, True, None, None),
    "partial": (True, False, None, None),
    "df_wedge": (False, False, "fp", None),
    "dbar_f": (False, True, "fp", None),
    "dbar_f_half": (False, True, "fp/2", None),
    "partial_f": (True, False, None, "fbp"),
    "partial_mf": (True, False, None, "-fbp"),
    "d_f": (True, True, "fp", None),
    "d_2Ref": (True, True, "fp", "fbp"),
}

# the pointwise weight fields the specs name, each built only when asked
# for, and the spec of each field's conjugate, which the adjoints use
_WFIELDS = {"fp": lambda ops: ops.fp, "fp/2": lambda ops: ops.fp / 2,
            "fbp": lambda ops: ops.fbp, "-fbp": lambda ops: -ops.fbp,
            "fbp/2": lambda ops: ops.fbp / 2, "-fp": lambda ops: -ops.fp}
_CONJUGATE = {"fp": "fbp", "fbp": "fp", "fp/2": "fbp/2", "-fbp": "-fp"}


class Operators:
    """All grid operators for one (f, grid, backend) triple."""

    sparse = True  # every Laplacian matrix is CSR

    def __init__(self, grid: Grid, f: Polynomial | None,
                 backend: str = "fd2"):
        if backend not in _DERIVATIVES:
            raise PrecondError(f"unknown derivative backend {backend!r}")
        self.grid = grid
        self.backend = backend
        self.f = f
        self.fp = np.zeros_like(grid.z)  # a constant f′ fills the grid too
        if f is not None:
            if len(f.names) != 1:
                raise PrecondError("grid harness handles one variable only")
            if any(e < 0 for m in f.coeffs for e in m):
                raise PrecondError(
                    "grid sampling of negative powers hits the origin")
            self.fp += f.diff(0).eval_complex((grid.z,))
        self.fbp = np.conj(self.fp)
        self.D = sp.csr_matrix(_DERIVATIVES[backend](grid.points, grid.h))
        self._DT = self.D.T.tocsr()
        self._mat_cache: dict = {}

    # -- 1D derivatives of scalar fields ------------------------------------

    def dx(self, g: np.ndarray) -> np.ndarray:
        return self.D @ g

    def dy(self, g: np.ndarray) -> np.ndarray:
        return g @ self.D.T

    def dzbar(self, g: np.ndarray) -> np.ndarray:
        return 0.5 * (self.dx(g) + 1j * self.dy(g))

    # -- first-order operators on forms --------------------------------------

    def _check_grid(self, a: DiscreteForm) -> None:
        if a.grid != self.grid:
            raise PrecondError("form grid does not match operator grid")

    def _blocks(self, flavor: str, adjoint: bool = False):
        """The flavor's raising blocks into the dz- and the dz̄-wedge
        component, or with ``adjoint`` their conjugate transposes.  Each
        is (D, sign, w) for the map ½(D g + sign·g Dᵀ) + w·g, with D None
        where the block has no derivative: Dz has sign −i and Dz̄ +i, and
        as D is real, the conjugate transpose of a block is the block of
        (Dᵀ, −sign, w̄)."""
        if flavor not in _FLAVORS:
            raise PrecondError(f"unknown operator flavor {flavor!r}")
        has_dz, has_dzb, w1s, w2s = _FLAVORS[flavor]
        D = self._DT if adjoint else self.D
        blocks = []
        for use_D, sign, spec in ((has_dz, -1j, w1s), (has_dzb, 1j, w2s)):
            if adjoint:
                sign, spec = -sign, _CONJUGATE.get(spec)
            w = None if spec is None else _WFIELDS[spec](self)
            blocks.append((D if use_D else None, sign, w))
        return blocks

    @staticmethod
    def _apply_block(block, g: np.ndarray) -> np.ndarray:
        D, sign, w = block
        if D is None:
            return np.zeros_like(g) if w is None else w * g
        out = D @ g
        dy = (D @ g.T).T
        dy *= sign
        out += dy
        out *= 0.5
        if w is not None:
            out += w * g
        return out

    def diff(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        self._check_grid(a)
        to_c1, to_c2 = self._blocks(flavor)
        c0, c1, c2, _ = a.comps
        out = DiscreteForm(self.grid)
        out.comps[1] = self._apply_block(to_c1, c0)
        out.comps[2] = self._apply_block(to_c2, c0)
        out.comps[3] = (self._apply_block(to_c1, c2)
                        - self._apply_block(to_c2, c1))
        return out

    def diff_adjoint(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        """Exact adjoint of diff(flavor) in the weighted inner product: the
        metric weights 1, 2, 2, 4 make each lowering block twice the
        conjugate transpose of its raising block."""
        self._check_grid(a)
        from_c1, from_c2 = self._blocks(flavor, adjoint=True)
        _, c1, c2, c3 = a.comps
        out = DiscreteForm(self.grid)
        out.comps[0] = 2 * (self._apply_block(from_c1, c1)
                            + self._apply_block(from_c2, c2))
        out.comps[1] = -2 * self._apply_block(from_c2, c3)
        out.comps[2] = 2 * self._apply_block(from_c1, c3)
        return out

    def dirac(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        return self.diff(flavor, a) + self.diff_adjoint(flavor, a)

    def laplacian(self, flavor: str, a: DiscreteForm) -> DiscreteForm:
        return (self.diff(flavor, self.diff_adjoint(flavor, a)) +
                self.diff_adjoint(flavor, self.diff(flavor, a)))

    # -- contraction homotopy pieces ------------------------------------------

    @cached_property
    def _inv_fp(self) -> np.ndarray:
        """1/f′, zero where f′ vanishes."""
        return 1.0 / np.where(np.abs(self.fp) > 1e-300, self.fp, np.inf)

    def gradient_contraction(self, a: DiscreteForm) -> DiscreteForm:
        """V_f = (df∧)*/|∇f|²: pointwise inverse of the df-wedge away
        from critical points (zero filled at the critical set; callers
        multiply by cutoffs vanishing there)."""
        inv = self._inv_fp
        out = DiscreteForm(self.grid)
        out.comps[0] = inv * a.comps[1]
        out.comps[2] = inv * a.comps[3]
        return out

    # -- sector matrices -------------------------------------------------------

    def sector_matrices(self, flavor: str):
        """(A0, A1): the scaled sparse matrices of the flavor from degree 0
        to 1 and from degree 1 to 2, built once per flavor.  In the scaled
        coordinates the standard dot product is the inner product, so
        adjoints are plain conjugate transposes."""
        key = ("sector", flavor)
        if key in self._mat_cache:
            return self._mat_cache[key]
        to_c1, to_c2 = (self._block_matrix(*b) for b in self._blocks(flavor))
        A0 = (_RAISE * sp.vstack([to_c1, to_c2])).tocsr()
        A1 = (_RAISE * sp.hstack([-to_c2, to_c1])).tocsr()
        self._mat_cache[key] = (A0, A1)
        return A0, A1

    def _block_matrix(self, D, sign, w) -> sp.csr_matrix:
        """A raising block of ``_blocks`` as a grid matrix: ½(D⊗I +
        sign·I⊗D) plus the diagonal of w, with the derivative part built
        once per sign."""
        n = self.grid.points
        if D is None:
            total = sp.csr_matrix((n * n, n * n), dtype=complex)
        else:
            key = ("derivative", sign)
            if key not in self._mat_cache:
                eye = sp.identity(n, format="csr")
                DX = sp.kron(D, eye, format="csr")
                DY = sp.kron(eye, D, format="csr")
                self._mat_cache[key] = (0.5 * (DX + sign * DY)).tocsr()
            total = self._mat_cache[key]
        if w is not None:
            total = total + sp.diags(w.ravel()).tocsr()
        return total

    def laplacian_matrix(self, flavor: str, degree: int) -> sp.csr_matrix:
        """The flavor's Laplacian in one degree, as CSR.  On "spectral",
        which ``factor`` factors dense, a Laplacian whose dense LU copy
        would exceed ``DENSE_BYTES_LIMIT`` is refused with
        ``PrecondError`` before anything is assembled."""
        key = ("lap", flavor, degree)
        if key in self._mat_cache:
            return self._mat_cache[key]
        if degree not in (0, 1, 2):
            raise PrecondError("degree must be 0, 1, or 2")
        if self.backend == "spectral":
            n = (2 if degree == 1 else 1) * self.grid.points ** 2
            need = n * n * np.dtype(complex).itemsize
            if need > DENSE_BYTES_LIMIT:
                raise PrecondError(
                    f"dense {flavor} Laplacian at degree {degree} on a "
                    f"grid of {self.grid.points}² points needs about "
                    f"{need / 2**20:.0f} MiB (its dense LU copy), over "
                    f"the {DENSE_BYTES_LIMIT / 2**20:.0f} MiB limit; use a "
                    "finite-difference backend or a coarser grid")
        A0, A1 = self.sector_matrices(flavor)
        if degree == 0:
            M = A0.conj().T @ A0
        elif degree == 1:
            M = A1.conj().T @ A1 + A0 @ A0.conj().T
        else:
            M = A1 @ A1.conj().T
        M = M.tocsr()
        self._mat_cache[key] = M
        return M

    def factor(self, flavor: str, degree: int):
        """Solver for (L + SHIFT·I) x = b, L the flavor's Laplacian in one
        degree: SuperLU, or on "spectral" LAPACK LU of one Fortran-ordered
        dense copy, factored in place.  The choice is the backend's, not
        L's density: the 41² "spectral" degree-1 Laplacian is 4.8%
        nonzero, and sending it to SuperLU slowed the C04 lift at 41² from
        2.5 to 5.2 s (2-core host).

        SuperLU orders by minimum degree on A+Aᵀ, with diagonal pivots, in
        symmetric mode.  Every L here is Hermitian PSD and the shift is
        positive, so no pivoting is needed and one ordering serves rows and
        columns alike (``perm_r == perm_c``).  The three settings go
        together: minimum degree without ``SymmetricMode`` fills less than
        the default COLAMD but factors 6–19× slower (``d_f`` at 129²), and
        symmetric mode without ``diag_pivot_thresh=0`` still pivots off the
        diagonal."""
        M = self.laplacian_matrix(flavor, degree)
        n = M.shape[0]
        if self.backend != "spectral":
            return spla.splu(
                (M + SHIFT * sp.identity(n, dtype=complex, format="csr")).tocsc(),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True}).solve
        shifted = M.toarray(order="F")
        shifted.flat[::n + 1] += SHIFT
        lu = sla.lu_factor(shifted, overwrite_a=True)
        return lambda b: sla.lu_solve(lu, b)

    def gradient_norm_field(self) -> np.ndarray:
        """|∇f| pointwise (equals √2·|f′| for the flat metric used here)."""
        return np.sqrt(2.0) * np.abs(self.fp)
