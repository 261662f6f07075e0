"""Spectral analysis of the twisted Laplacians on the grid.

The numeric half of the package: lowest-eigenpair solves with a
certified kernel count, Hodge decomposition by deflated Green solves,
the order-by-order splitting of a harmonic form against the
degree-raising pair of differentials, cutoff homotopy operators with a
second-order consistency check, the comparison between the twisted
Dolbeault and twisted de Rham harmonic spaces, and Sobolev-style norm
probes.

Eigenproblems are matrix problems on the scaled flat vectors of
``forms.pack``, where the standard dot product equals the weighted L²
product, so an ordinary Hermitian eigensolve is the right tool.  Every
backend uses the same shift-invert ARPACK call followed by one
Rayleigh–Ritz pass.  Every factorization behind a shift-invert or a
solve is ``Operators.factor``, the one factorization policy: SuperLU in
symmetric mode for the finite-difference backends and LAPACK LU of a
dense copy for the ``spectral`` one, both of L + SHIFT·I.  Every
Laplacian is held as CSR, so every product with one is a sparse
product.  All randomness is seeded, and eigenvector phases are
normalized, so repeated runs give identical output.

ARPACK runs only where a spectrum is reported.  A ``SpectralContext``
reads no eigenvalues, only the kernels its Hodge splits and Green solves
use, and ``derham_compare`` reads none of f(−z).  Those kernels come from
block inverse iteration on a shifted factor
(``_kernel_by_inverse_iteration``): two to four solves on a block of
μ + 2 columns in degree 1 and 2 in degrees 0 and 2, where μ = deg f − 1
is the dimension the algebra predicts, and where a k = 8 ARPACK window
takes 48–76 single solves (fd1 at 65², z²/2 to z⁴/4).  A block that
fills or does not converge is rerun once on eight columns.  Both end in
one ``_rayleigh_ritz`` step.

Degree 2 is degree 0 under the point reflection Π: z → −z.  Every
backend gives L₂[f] = conj(Π·L₀[f(−z)]·Π) (see ``operators``), and
L₀[f(−z)] = L₀[f] when f's nonconstant exponents are all even or all
odd (``operators.parity``).  For such an f, degrees 0 and 2 of a
``SpectralContext`` share one factorization, and degree 2 takes degree
0's spectrum and kernel through x ↦ conj(Π·x).  Otherwise (f of neither
parity) degree 2 is solved on its own.

Dense linear algebra here (QR, Hermitian eigensolves, norms, products
of tall blocks) goes through ``scipy.linalg`` and its BLAS, not
``np.linalg`` or NumPy's ``@``.  NumPy and SciPy ship separate
OpenBLAS builds with separate thread pools, and SuperLU and ARPACK run
on SciPy's.  A threaded NumPy call leaves NumPy's worker spinning
afterwards, and the next factorization shares the cores with it: on
two cores an fd1 65² factor took 0.16 s instead of 0.09 s right
after one ``np.linalg.qr`` of an 8450×8 block.  Only the k × k
products of ``_paired_subspace``, too small to thread, stay on NumPy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.linalg.blas as blas
import scipy.sparse.linalg as spla

from ..poly import Polynomial
from ..util import ComputeError, PrecondError
from .forms import DEGREE_SECTORS, DiscreteForm, inner, norm
from .forms import wedge_pairing
from .grid import Grid, build_grid, refine
from .operators import SHIFT, Operators, parity

DEFAULT_GAP_THRESHOLD = 1e-3
GAP_RATIO = 100.0  # certification: first excluded / last included
CONTEXT_FLAVOR = "dbar_f"  # the Laplacian a SpectralContext serves
GREEN_REFINEMENTS = 3  # iterative-refinement passes of a Green solve
HARMONIC_TOL = 1e-8  # harmonic defect a splitting-map input may have
KERNEL_BLOCK = 8  # most columns of a kernel inverse iteration: its fallback
KERNEL_ITERATIONS = 6  # block solves before that iteration gives up
KERNEL_TOL = 1e-9  # how far a converged kernel span moves in one step


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, j])))
        pivot = out[idx, j]
        if abs(pivot) > 0:
            out[:, j] *= np.conj(pivot) / abs(pivot)
    return out


def _gemm(A: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """op(A) @ B on SciPy's BLAS, with op(A) = A, Aᵀ or Aᴴ for trans =
    0, 1 or 2; a 1-D B gives a 1-D result.  A is read without a copy
    when it is Fortran-ordered."""
    C = blas.zgemm(1.0, A, B[:, None] if B.ndim == 1 else B, trans_a=trans)
    return C[:, 0] if B.ndim == 1 else C


def _project(K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K Kᴴ X: projection onto the span of K's orthonormal columns, if any."""
    return _gemm(K, _gemm(K, X, trans=2))


def _rayleigh_ritz(M, X: np.ndarray):
    """Ritz pairs of Hermitian M in span(X), values ascending; overwrites X."""
    Q = sla.qr(X, mode="economic", overwrite_a=True)[0]
    H = _gemm(Q, M @ Q, trans=2)
    # driver="evd" (LAPACK heevd) is np.linalg.eigh's routine: inside a
    # degenerate cluster the basis it picks is the one reported
    vals, V = sla.eigh(0.5 * (H + H.conj().T), driver="evd")
    return vals, _gemm(Q, V)


def _lowest_pairs(M, solve, k: int, seed: int):
    """Lowest k eigenpairs of a Hermitian PSD matrix (vals ascending),
    with ``solve`` the ``Operators.factor`` solver of M.

    Returns (vals, vecs, residuals, wanted): ``wanted`` is k clamped to the
    matrix size; fewer than ``wanted`` pairs come back when ARPACK stops
    short of convergence."""
    n = M.shape[0]
    k = min(k, n - 2)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # the factor is handed over as OPinv so ARPACK never copies M itself
    OPinv = spla.LinearOperator(M.shape, matvec=solve, dtype=complex)
    try:
        vals, vecs = spla.eigsh(M, k=k, sigma=-SHIFT, which="LM", v0=v0,
                                tol=1e-12, maxiter=1000, OPinv=OPinv)
    except spla.ArpackNoConvergence as exc:
        # clustered spectra (e.g. vanishing twist) may stall; keep
        # whatever pairs did converge and let the caller see the count
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        if vals.size == 0:
            raise ComputeError(
                "eigensolver failed to converge on any pair") from exc
    # The general-mode Arnoldi solver returns linearly independent but
    # not mutually orthogonal vectors inside (near-)degenerate clusters.
    # One Rayleigh-Ritz pass over the returned span restores
    # orthonormality to rounding without leaving the span.
    vals, vecs = _rayleigh_ritz(M, vecs[:, np.argsort(vals)])
    vecs = _fix_phase(vecs)
    R = M @ vecs - vecs * vals
    res = [float(r) for r in sla.norm(R, axis=0)]
    return np.maximum(vals, 0.0), vecs, res, k


@dataclass
class SpectralResult:
    """Lowest part of one Laplacian spectrum with a certified kernel count.
    ``vectors`` holds the orthonormal eigenvectors as flat columns, so
    ``vectors[:, :kernel_dim]`` is a kernel basis; ``eigenforms`` unpacks
    them on first read."""

    f_text: str
    flavor: str
    degree: int
    backend: str
    half_width: float
    points: int
    gap_threshold: float
    eigenvalues: list
    residuals: list
    kernel_dim: int
    gap: float | None
    certified: bool
    reliable: bool
    notes: list
    vectors: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def eigenforms(self) -> list:
        grid = Grid(self.half_width, self.points)
        sector = DEGREE_SECTORS[self.degree]
        return [DiscreteForm.unpack(grid, sector, v) for v in self.vectors.T]

    def describe(self) -> dict:
        return {
            "f": self.f_text,
            "flavor": self.flavor,
            "degree": self.degree,
            "backend": self.backend,
            "grid": {"half_width": self.half_width, "points": self.points},
            "gap_threshold": self.gap_threshold,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "kernel_dim": self.kernel_dim,
            "gap": None if self.gap is None else float(self.gap),
            "certified": self.certified,
            "reliable": self.reliable,
            "notes": list(self.notes),
        }


def _kernel_by_inverse_iteration(M, solve, seed: int,
                                 expected: int) -> np.ndarray:
    """Orthonormal Ritz vectors spanning the eigenvectors of M, Hermitian
    PSD, with eigenvalues below ``DEFAULT_GAP_THRESHOLD``; ``solve`` is
    the ``Operators.factor`` solver of M, and ``expected`` the kernel
    dimension the algebra predicts.

    Block inverse iteration from ``expected`` + 2 seeded columns, at most
    ``KERNEL_BLOCK``: each step solves on the block, orthonormalizes it,
    and takes the Ritz pairs of M in its span.  The kernel's values of
    (M + SHIFT·I)⁻¹ are near 1/SHIFT, and those of the eigenvectors the
    block cannot hold at most about 1, so each step shrinks the angle
    between the kept Ritz vectors and the kernel by 10⁴ or more (fd1 and
    ``spectral``, z²/2 to z⁴/4).  The basis is returned once the count
    kept has held and the kept span moved by at most ``KERNEL_TOL`` in
    that step.  The residuals cannot serve as the test: where the first
    value above the threshold is small (1.3e-2 for the ``spectral`` z⁴/4
    at 25²), residuals at rounding level still leave the span 5e-12 off.
    A block whose Ritz values all sit below the threshold may miss part
    of the kernel, so it fails, as does an iteration not done after
    ``KERNEL_ITERATIONS`` steps.  A sized block that fails is rerun once
    on ``KERNEL_BLOCK`` columns, and only that rerun's failure is
    raised.  The ``spectral`` backend at 25² needs the rerun: two
    boundary-seam modes fill the 4-column block of z³/3, and the
    5-column block of z⁴/4 splits a pair at 1.3e-2, against which its
    4th value, 6.7e-4, gains only a factor of 19 per step."""
    width = min(expected + 2, KERNEL_BLOCK)
    if width < KERNEL_BLOCK:
        try:
            return _block_inverse_iteration(M, solve, seed, width)
        except ComputeError:
            pass
    return _block_inverse_iteration(M, solve, seed, KERNEL_BLOCK)


def _block_inverse_iteration(M, solve, seed: int, width: int) -> np.ndarray:
    """``_kernel_by_inverse_iteration`` on one block of ``width`` columns."""
    rng = np.random.default_rng(seed)
    shape = (M.shape[0], width)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    K = None
    for _ in range(KERNEL_ITERATIONS):
        vals, X = _rayleigh_ritz(M, solve(X))
        kept = int(np.sum(vals < DEFAULT_GAP_THRESHOLD))
        if kept == len(vals):
            raise ComputeError(
                f"all {kept} Ritz values of the kernel block sit below the "
                "threshold; the kernel may be larger than the block")
        previous, K = K, X[:, :kept]
        # raveled: SciPy takes a 1-D norm with its own nrm2, but hands a
        # 2-D Frobenius norm to np.linalg.norm and NumPy's BLAS pool
        if (previous is not None and previous.shape == K.shape
                and sla.norm((K - _project(previous, K)).ravel()) <= KERNEL_TOL):
            return K.copy(order="F")  # a view would keep the block alive
    raise ComputeError(f"kernel inverse iteration not converged after "
                       f"{KERNEL_ITERATIONS} block solves")


def eigensolve_lowest(f: Polynomial | None, grid: Grid, degree: int = 1,
                      k: int = 8, backend: str = "fd1", seed: int = 7,
                      gap_threshold: float = DEFAULT_GAP_THRESHOLD,
                      flavor: str = CONTEXT_FLAVOR,
                      operators: Operators | None = None) -> SpectralResult:
    """Lowest k eigenpairs of one Laplacian with a certified kernel count.

    The returned eigenvalues are accurate to ARPACK's tolerance, but when
    the k-th and (k+1)-th eigenvalues belong to one (near-)degenerate
    cluster, the top returned pair may be any member of that cluster:
    which one depends on rounding (e.g. of the factorization), so the
    last reported eigenvalue can move within the cluster between
    versions while everything below it stays put.

    A constant f has no critical points to confine a kernel, so it fails
    the precondition before anything is assembled; f=None is the untwisted
    Laplacian, solved and flagged unreliable."""
    _require_twist(f)
    ops = operators if operators is not None else Operators(grid, f, backend)
    return _spectrum(ops, flavor, degree, k, seed, gap_threshold,
                     ops.factor(flavor, degree))


def _milnor(f: Polynomial | None) -> int:
    """μ = deg f − 1 of a one-variable f (0 for f=None): the dimension
    of the twisted L² cohomology in degree 1, and nothing in 0 and 2."""
    return 0 if f is None else max(f.total_degree() - 1, 0)


def _require_twist(f: Polynomial | None) -> None:
    if f is not None and all(g.is_zero() for g in f.gradient()):
        raise PrecondError("f is constant: the twist vanishes and nothing "
                           "confines the kernel")


def _spectrum(ops: Operators, flavor: str, degree: int, k: int, seed: int,
              gap_threshold: float, solve) -> SpectralResult:
    """``eigensolve_lowest`` on built operators, with ``solve`` the
    ``Operators.factor`` solver of the Laplacian."""
    M = ops.laplacian_matrix(flavor, degree)
    vals, vecs, res, wanted = _lowest_pairs(M, solve, k, seed)
    vals_list = [float(v) for v in vals]
    notes: list[str] = []

    kernel_dim = int(np.sum(vals < gap_threshold))
    certified = ops.backend != "fd2"
    if not certified:
        notes.append("fd2 decouples the even and odd grid combs and counts "
                     "each kernel vector twice; kernel count not certified")
    if len(vals_list) < wanted:
        # a gap seen among the pairs that did converge says nothing about
        # the ones that did not
        certified = False
        notes.append(f"only {len(vals_list)} of {wanted} requested pairs "
                     "converged; kernel count not certified")
    if kernel_dim == len(vals_list) and kernel_dim > 0:
        certified = False
        notes.append("all computed eigenvalues sit below the threshold; "
                     "raise k to certify the kernel count")
        gap = None
    elif kernel_dim > 0:
        gap = vals_list[kernel_dim]
        ratio = gap / max(vals_list[kernel_dim - 1], 1e-300)
        if ratio < GAP_RATIO:
            certified = False
            notes.append(
                f"spectral gap ratio {ratio:.2e} below {GAP_RATIO:.0f}; "
                "kernel count not certified")
    else:
        gap = vals_list[0] if vals_list else None

    flat = bool(np.max(np.abs(ops.fp)) == 0.0)
    if flat:
        notes.append("gradient of the potential vanishes identically: "
                     "no confinement, kernel count is not meaningful")
    reliable = certified and not flat

    grid = ops.grid
    return SpectralResult(
        f_text="0" if ops.f is None else str(ops.f), flavor=flavor,
        degree=degree, backend=ops.backend, half_width=grid.half_width,
        points=grid.points, gap_threshold=gap_threshold,
        eigenvalues=vals_list, residuals=res, kernel_dim=kernel_dim, gap=gap,
        certified=certified, reliable=reliable, notes=notes, vectors=vecs)


def _reflect(x):
    """conj(Π·x) for flat vectors (or their columns) of a one-component
    sector, Π the point reflection z → −z: it reverses the flat index.
    The map is its own inverse."""
    return np.conj(x[::-1])


class SpectralContext:
    """Caches matrices, factorizations, eigensolves and kernel bases of
    the ``CONTEXT_FLAVOR`` Laplacian for one (f, grid, backend), per
    degree, so repeated decompositions stay cheap.

    ``kernel_matrix`` runs no eigensolve: block inverse iteration,
    seeded by ``seed``, through the factor of M + SHIFT·I gives the
    kernel basis (see ``_kernel_by_inverse_iteration``), on a block
    sized for μ = deg f − 1 kernel vectors in degree 1 and none in
    degrees 0 and 2.  In degrees 0 and 2 that is the cached ``solver``
    factor, which ``green`` uses too; in degree 1 it is a factor made
    for the iteration and dropped.
    ``eigensolve`` runs ARPACK for callers that read the spectrum, and
    its kernel count and the kernel basis agree (the tests hold their
    projectors equal to 1e-12).

    Degrees 0 and 2 share one factorization where they can.  Every
    backend has P·D·P = Dᵀ (see ``operators``), so L₂[f] =
    conj(Π·L₀[f(−z)]·Π) with Π the point reflection z → −z.  The twist
    enters both Laplacians only as the diagonal 2|f′|², and f(−z) has
    derivative ±f′ when f's nonconstant exponents are all even or all
    odd (``operators.parity``), so then L₀[f(−z)] = L₀[f] exactly.  For
    such an f, whichever of degrees 0 and 2 is factored first serves the
    other under x ↦ conj(Π·x), and degree 2 is never solved on its own:
    its spectrum and kernel are those of degree 0, reflected, with degree
    0's eigenvalues, residuals and certification.  Otherwise (f of
    neither parity) degree 2 is solved directly.  Kernels and
    eigensolves in degrees 0 and 2 run through the cached factors, so a
    Green solve after them factors nothing.  ``solver`` owns that rule:
    the degree-1 factor is made per kernel, eigensolve or Green solve and
    dropped, since keeping it costs more memory than the one later
    factorization it would save."""

    def __init__(self, f: Polynomial | None, grid: Grid,
                 backend: str = "fd1", seed: int = 7):
        self.f = f
        self.grid = grid
        self.backend = backend
        self.seed = seed
        self.ops = Operators(grid, f, backend)
        self._eig: dict = {}
        self._solve: dict = {}
        self._kernel: dict = {}
        # L₂ = conj(Π·L₀·Π): f(−z) has derivative ±f′
        self._mirrored = parity(f) is not None

    def eigensolve(self, degree: int, k: int = 8) -> SpectralResult:
        cached = self._eig.get(degree)
        size = len(DEGREE_SECTORS[degree]) * self.grid.points ** 2
        if cached is not None and len(cached.eigenvalues) >= min(k, size - 2):
            return cached
        _require_twist(self.f)
        if degree == 2 and self._mirrored:
            res = self.eigensolve(0, k)
            result = replace(
                res, degree=2, eigenvalues=list(res.eigenvalues),
                residuals=list(res.residuals), notes=list(res.notes),
                vectors=_reflect(res.vectors))
        else:
            result = _spectrum(self.ops, CONTEXT_FLAVOR, degree, k, self.seed,
                               DEFAULT_GAP_THRESHOLD, self.solver(degree))
        self._eig[degree] = result
        return result

    def kernel_matrix(self, degree: int) -> np.ndarray:
        if degree not in self._kernel:
            if degree == 2 and self._mirrored:
                self._kernel[2] = _reflect(self.kernel_matrix(0))
            else:
                _require_twist(self.f)
                self._kernel[degree] = _kernel_by_inverse_iteration(
                    self.ops.laplacian_matrix(CONTEXT_FLAVOR, degree),
                    self.solver(degree), self.seed,
                    _milnor(self.f) if degree == 1 else 0)
        return self._kernel[degree]

    def solver(self, degree: int):
        """Degrees 0 and 2: the cached factor; degree 1: a new one per call."""
        if degree == 1:
            return self.ops.factor(CONTEXT_FLAVOR, 1)
        if degree not in self._solve:
            twin = self._solve.get(2 - degree) if self._mirrored else None
            if twin is not None:
                self._solve[degree] = lambda b: _reflect(twin(_reflect(b)))
            else:
                self._solve[degree] = self.ops.factor(CONTEXT_FLAVOR, degree)
        return self._solve[degree]

    def green(self, degree: int, b: np.ndarray) -> np.ndarray:
        """Solve Laplacian·u = b on the orthogonal complement of the
        kernel (iteratively refined, deflated)."""
        K = self.kernel_matrix(degree)
        M = self.ops.laplacian_matrix(CONTEXT_FLAVOR, degree)
        solve = self.solver(degree)

        def deflate(v):
            return v - _project(K, v)

        r = deflate(b)
        u = deflate(solve(r))
        for _ in range(GREEN_REFINEMENTS):
            resid = deflate(r - M @ u)
            u = deflate(u + solve(resid))
        return u


@dataclass
class HodgeSplit:
    """Orthogonal pieces φ = harmonic + image + coimage with diagnostics."""

    harmonic: DiscreteForm
    image: DiscreteForm
    coimage: DiscreteForm
    relative_residual: float
    max_cross: float


def hodge_decompose(f: Polynomial | None, grid: Grid, form: DiscreteForm,
                    backend: str = "fd1",
                    context: SpectralContext | None = None) -> HodgeSplit:
    """Split a form into harmonic, twisted-exact and twisted-coexact
    parts, degree sector by degree sector.

    The harmonic part is the projection onto the computed kernel.  Only
    degree 1 needs a solve: its twisted-exact part is the orthogonal
    (least-squares) projection of the remainder onto the image of the
    twisted differential, obtained from the positive-definite degree-0
    Laplacian, and what is left is coexact.  Nothing maps into degree 0
    and nothing leaves degree 2, so there the whole non-harmonic
    remainder is coexact and exact respectively.  Orthogonality of the
    three pieces is therefore a property of the construction, not of a
    discretization limit, and holds to solver precision."""
    ctx = context if context is not None else SpectralContext(
        f, grid, backend=backend)
    grid = ctx.grid
    if form.grid != grid:
        raise PrecondError("form grid does not match the context grid")
    A0, _ = ctx.ops.sector_matrices(CONTEXT_FLAVOR)
    harmonic = DiscreteForm(grid)
    image = DiscreteForm(grid)
    coimage = DiscreteForm(grid)
    total = norm(form)
    if total == 0.0:
        return HodgeSplit(harmonic, image, coimage, 0.0, 0.0)
    for degree in (0, 1, 2):
        sector = DEGREE_SECTORS[degree]
        v = form.pack(sector)
        if sla.norm(v) <= 1e-300 * total:
            continue
        K = ctx.kernel_matrix(degree)
        h = _project(K, v)
        w = v - h
        if degree == 1:
            # least-squares projection onto the image of the twisted
            # differential via the degree-0 Laplacian
            e = A0 @ ctx.green(0, A0.conj().T @ w)
            e = e - _project(K, e)
        else:
            # nothing maps into degree 0 and nothing leaves degree 2
            e = w if degree == 2 else np.zeros_like(w)
        c = w - e
        harmonic = harmonic + DiscreteForm.unpack(grid, sector, h)
        image = image + DiscreteForm.unpack(grid, sector, e)
        coimage = coimage + DiscreteForm.unpack(grid, sector, c)
    recon = harmonic + image + coimage
    rel = norm(form - recon) / total
    cross = max(abs(inner(harmonic, image)), abs(inner(harmonic, coimage)),
                abs(inner(image, coimage))) / total ** 2
    return HodgeSplit(harmonic, image, coimage, float(rel), float(cross))


@dataclass
class SplittingSeries:
    """Order-by-order lift s = s0 + u s1 + … with per-order closure
    residuals for the combined differential (twisted + u·holomorphic)."""

    coefficients: list
    residuals: list
    harmonic_defect: float


def splitting_map(f: Polynomial, grid: Grid, form: DiscreteForm,
                  orders: int = 5,
                  context: SpectralContext | None = None) -> SplittingSeries:
    """Lift a harmonic degree-1 form φ to s(φ) = Σ uᵏ s_k with
    (twisted + u·holomorphic) s(φ) = 0 through the requested order.

    Each order solves the positive-definite top-degree Laplacian, so the
    correction s_k is automatically coexact and the recursion is
    canonical.  Requires φ harmonic to ``HARMONIC_TOL``.  Without a
    context, one is built on the ``fd1`` backend."""
    ctx = context if context is not None else SpectralContext(f, grid)
    grid = ctx.grid
    if form.grid != grid:
        raise PrecondError("form grid does not match the context grid")
    ops = ctx.ops
    A0, A1 = ops.sector_matrices(CONTEXT_FLAVOR)
    _, P1 = ops.sector_matrices("partial")
    s0 = form.pack(DEGREE_SECTORS[1])
    scale = sla.norm(s0)
    if scale == 0.0:
        zero = DiscreteForm(grid)
        return SplittingSeries([zero] * (orders + 1), [0.0] * (orders + 1),
                               0.0)
    defect = float(np.sqrt(
        sla.norm(A1 @ s0) ** 2 + sla.norm(A0.conj().T @ s0) ** 2
    ) / scale)
    if defect > HARMONIC_TOL:
        raise PrecondError(
            f"input form is not harmonic (defect {defect:.2e} exceeds "
            f"{HARMONIC_TOL:.2e})")
    M2 = ops.laplacian_matrix(CONTEXT_FLAVOR, 2)
    solve2 = ctx.solver(2)
    coeffs = [s0]
    residuals = [float(sla.norm(A1 @ s0))]
    prev = s0
    for _ in range(1, orders + 1):
        rhs = -(P1 @ prev)
        w = solve2(rhs)
        for _ in range(2):
            w = w + solve2(rhs - M2 @ w)
        sk = A1.conj().T @ w
        residuals.append(float(sla.norm(A1 @ sk - rhs)))
        coeffs.append(sk)
        prev = sk
    forms = [DiscreteForm.unpack(grid, DEGREE_SECTORS[1], c) for c in coeffs]
    return SplittingSeries(coefficients=forms, residuals=residuals,
                           harmonic_defect=defect)


def pairing_series(alpha, beta) -> list:
    """Formal-parameter expansion of the residue-type pairing of two
    u-series of forms: coefficient k collects Σ_{i+j=k} (−1)^j ∫αᵢ∧β̃ⱼ."""
    if not alpha or not beta:
        raise PrecondError("pairing needs at least one coefficient per side")
    out = [0j] * (len(alpha) + len(beta) - 1)
    for i, a in enumerate(alpha):
        for j, b in enumerate(beta):
            out[i + j] += (-1) ** j * wedge_pairing(a, b, twist=True)
    return out


# -- cutoff homotopy ----------------------------------------------------------


def smooth_cutoff(grid: Grid, inner_radius: float,
                  outer_radius: float) -> np.ndarray:
    """Radial C^∞ plateau function: 1 for r ≤ inner, 0 for r ≥ outer."""
    if not 0 < inner_radius < outer_radius:
        raise PrecondError("need 0 < inner_radius < outer_radius")
    if outer_radius >= grid.half_width:
        raise PrecondError("cutoff support must stay inside the box")
    r = np.abs(grid.z)
    t = np.clip((r - inner_radius) / (outer_radius - inner_radius), 0.0, 1.0)

    def bump(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    hi = bump(1.0 - t)
    lo = bump(t)
    return hi / (hi + lo)


class CutoffHomotopy:
    """Localization pair (T, R) built from a plateau cutoff and the
    pointwise gradient contraction V: R = (1−ρ)V, T = ρ + ∂̄ρ∧V, and the
    anticommutator of the twisted differential with R equals identity
    minus T, up to a second-order discretization error supported on the
    cutoff transition.

    R needs no ∂̄-correction of V.  On the grid, ∂̄ has no dz block and V
    reads only components 1 and 3 (dz, dz∧dz̄) and writes only 0 and 2
    (function, dz̄), so ∂̄V + V∂̄ writes only the dz̄ component, which V
    never reads.  In the continuum it vanishes: X = ∂_z/f′ is holomorphic
    off Crit f, so [∂̄, ι_X] = ι_{∂̄X} = 0."""

    def __init__(self, ops: Operators, cutoff: np.ndarray):
        self.ops = ops
        self.rho = cutoff
        self.outside = 1.0 - cutoff
        self.q = ops.dzbar(cutoff)

    def _localize(self, a: DiscreteForm, Va: DiscreteForm) -> DiscreteForm:
        out = a.multiply_pointwise(self.rho)
        out.comps[2] = out.comps[2] + self.q * Va.comps[0]
        out.comps[3] = out.comps[3] - self.q * Va.comps[1]
        return out

    def tail(self, a: DiscreteForm) -> DiscreteForm:
        """R: degree-lowering correction supported off the plateau."""
        return self.ops.gradient_contraction(a).multiply_pointwise(
            self.outside)

    def localize(self, a: DiscreteForm) -> DiscreteForm:
        """T: the localized remainder (cutoff multiple plus transition)."""
        return self._localize(a, self.ops.gradient_contraction(a))

    def identity_residual(self, a: DiscreteForm) -> DiscreteForm:
        d = self.ops.diff
        # two differentials: ∂̄_f of R a and R of ∂̄_f a; V(a) serves both
        # R a and T a and is dropped before the second differential
        Rda = self.tail(d("dbar_f", a))
        Va = self.ops.gradient_contraction(a)
        Ra, Ta = Va.multiply_pointwise(self.outside), self._localize(a, Va)
        del Va
        return d("dbar_f", Ra) + Rda - a + Ta


# cutoff radii as fractions of the half-width, and the seeded probes
HOMOTOPY_RADII = (0.35, 0.60)
HOMOTOPY_PROBES = 4
HOMOTOPY_SEED = 11


def homotopy_identity_check(f: Polynomial, grid: Grid,
                            backend: str = "fd2", levels: int = 2) -> dict:
    """Measure the localization-identity residual on Gaussian probes that
    straddle the cutoff transition, across grid refinements.

    Returns per-level worst relative residuals and their level-to-level
    ratios (≈ 4 for a second-order scheme), plus the residual on a probe
    supported deep inside the plateau (rounding level).  ``levels`` < 1
    is refused with ``PrecondError``."""
    if levels < 1:
        raise PrecondError(f"levels must be at least 1, got {levels}")
    inner, outer = (r * grid.half_width for r in HOMOTOPY_RADII)
    rng = np.random.default_rng(HOMOTOPY_SEED)
    width = (outer - inner) / 3.0
    mid = 0.5 * (inner + outer)
    probes = []
    for _ in range(HOMOTOPY_PROBES):
        center = mid * np.exp(2j * np.pi * rng.uniform())
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        probes.append((center, coeffs, width))
    interior = (0.0, np.array([1.0, 1.0, 1.0, 1.0], dtype=complex),
                inner / 6.0)

    def sample_probe(g: Grid, probe) -> DiscreteForm:
        center, coeffs, w = probe
        bump = np.exp(-(np.abs(g.z - center) / w) ** 2)
        return DiscreteForm(g, coeffs[:, None, None] * bump)

    grids = [grid]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    residuals = []
    interior_residual = None
    for g in grids:
        ops = Operators(g, f, backend)
        homotopy = CutoffHomotopy(ops, smooth_cutoff(g, inner, outer))
        worst = 0.0
        for probe in probes:
            a = sample_probe(g, probe)
            rel = norm(homotopy.identity_residual(a)) / norm(a)
            worst = max(worst, rel)
        residuals.append(float(worst))
        if interior_residual is None:
            a = sample_probe(g, interior)
            interior_residual = float(
                norm(homotopy.identity_residual(a)) / norm(a))
    ratios = [float(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)]
    return {
        "inner_radius": inner, "outer_radius": outer,
        "grid_points": [g.points for g in grids],
        "residuals": residuals, "ratios": ratios,
        "interior_residual": interior_residual,
    }


# -- comparison with the full twisted de Rham operator ------------------------


PAIR_KEEP_THRESHOLD = 0.75


def _paired_subspace(K_fwd: np.ndarray, K_bwd: np.ndarray) -> np.ndarray:
    """Dominant invariant subspace of the average of the orthogonal
    projectors onto the spans of two orthonormal bases.  A kernel
    direction shared by both orientations shows up with projector
    eigenvalue near 1; an artifact attached to one orientation
    (boundary-corner modes of one-sided stencils) contributes only 1/2
    and is dropped."""
    stacked = np.column_stack([K_fwd, K_bwd])
    if stacked.shape[1] == 0:
        return stacked
    Q, _ = sla.qr(stacked, mode="economic")
    Pf = Q.conj().T @ K_fwd
    Pb = Q.conj().T @ K_bwd
    w, V = sla.eigh(0.5 * (Pf @ Pf.conj().T + Pb @ Pb.conj().T),
                    driver="evd")
    return _gemm(Q, V[:, w > PAIR_KEEP_THRESHOLD])


_DERHAM_FLAVORS = ("dbar_f", "dbar_f_half", "d_f")
DERHAM_K = 8  # eigenpairs per degree-1 solve of the comparison


def _mirror_signs(f: Polynomial) -> dict:
    """Per flavor, the s with L[f(−z)] = S·L[f]·S for the degree-1
    Laplacians, S = diag(s on dz, 1 on dz̄), or None.  f(−z) has
    derivative ``parity(f)``·f′; the Dolbeault flavors' only block into
    dz is the weight f′, but ``d_f``'s also holds Dz, which S negates."""
    p = parity(f)
    return {flavor: None if p == -1 and flavor == "d_f" else p
            for flavor in _DERHAM_FLAVORS}


def derham_compare(f: Polynomial, grid: Grid, backend: str = "fd1",
                   seed: int = 7) -> dict:
    """Compare degree-1 harmonic spaces of the twisted Dolbeault and the
    twisted de Rham Laplacians.

    The identification halves the dz-component, projects onto the
    harmonic space of the half-twisted Dolbeault Laplacian (whose real
    superpotential variant shares that kernel), then multiplies by the
    unimodular phase built from the imaginary part of the potential.
    Reported: both kernel dimensions and the largest principal angle
    between the mapped space and the de Rham harmonic space.

    Only the one-sided backend ``fd1`` is accepted; any other ``backend``
    fails the precondition.  Kernels are computed for both stencil
    orientations and averaged: the leading truncation error changes sign
    with the orientation and cancels, and near-kernel artifacts glued to
    a boundary corner by one orientation do not pair with the other, so
    the averaged projector separates them cleanly.

    The backward orientation needs no backend of its own (see
    ``operators``): its Laplacian of f is Π·L[g]·Π, where L[g] is the fd1
    Laplacian of g = f(−z) and Π is the point reflection z → −z, so its
    kernel is Π times the fd1 kernel of g.  For an even f, and for an odd
    f in the two Dolbeault flavors, L[g] = S·L[f]·S with S = ±1 on the dz
    block (``_mirror_signs``), and the kernel of g is S times that of f;
    ``reflected_flavors`` names those flavors.  For the others g's kernel,
    whose eigenvalues no report reads, comes from block inverse iteration
    on a factor of L[g] dropped once it is back, not from an eigensolve,
    on a block sized for μ = deg f − 1 kernel vectors, and fails if it
    fills the ``KERNEL_BLOCK`` columns of the rerun; only these build
    g's operators."""
    if backend != "fd1":
        raise PrecondError(f"derham_compare needs fd1, not {backend!r}")
    if f is None:
        raise PrecondError("derham_compare needs a potential f, not None")
    ops = Operators(grid, f, "fd1")
    describes, bases = {}, {}
    for flavor in _DERHAM_FLAVORS:
        res = eigensolve_lowest(f, grid, degree=1, k=DERHAM_K, backend="fd1",
                                seed=seed, flavor=flavor, operators=ops)
        describes[flavor] = res.describe()
        bases[flavor] = [res.vectors[:, :res.kernel_dim]]
    del ops  # its matrices are not needed during the solves on g
    n = grid.points ** 2
    reflected = []
    mirror = None
    for flavor, sign in _mirror_signs(f).items():
        if sign is None:
            if mirror is None:
                g = f.subs([-Polynomial.variable(0, f.names)])  # f(−z)
                mirror = Operators(grid, g, "fd1")
            K = _kernel_by_inverse_iteration(
                mirror.laplacian_matrix(flavor, 1), mirror.factor(flavor, 1),
                seed, _milnor(f))
        else:
            K = np.repeat([sign, 1.0], n)[:, None] * bases[flavor][0]
            reflected.append(flavor)
        # Π reverses the flat index of each component
        bases[flavor].append(
            K.reshape(2, n, K.shape[1])[:, ::-1].reshape(K.shape))
    K_dol, K_mid, K_dr = (_paired_subspace(*pair) for pair in bases.values())

    phase = np.exp(-1j * f.eval_complex((grid.z,)).imag).ravel()
    halve_dz = np.concatenate([0.5 * np.ones(n), np.ones(n)])
    phase2 = np.concatenate([phase, phase])

    max_angle = None
    if K_dol.shape[1] and K_mid.shape[1] and K_dr.shape[1]:
        mapped = phase2[:, None] * _project(K_mid, halve_dz[:, None] * K_dol)
        angles = sla.subspace_angles(mapped, K_dr)
        max_angle = float(np.degrees(np.max(angles))) if angles.size else 0.0
    return {
        "dolbeault": describes["dbar_f"],
        "mid": describes["dbar_f_half"],
        "derham": describes["d_f"],
        "dolbeault_dim": int(K_dol.shape[1]),
        "derham_dim": int(K_dr.shape[1]),
        "dims_agree": K_dol.shape[1] == K_dr.shape[1],
        "max_angle_degrees": max_angle,
        "reflected_flavors": reflected,
    }


# -- norm probes ---------------------------------------------------------------


NORM_ORDER = 2  # the order k of the norm probe


def norm_probe(f: Polynomial, grid: Grid, form: DiscreteForm,
               backend: str = "fd2") -> dict:
    """Evaluate three graded Sobolev-style norms of order k on one form:
    stacked powers of the twisted Dirac operator; mixed powers of the
    gradient weight and the untwisted Dirac operator; and mixed powers of
    the gradient weight and the flat grid derivatives."""
    k = NORM_ORDER
    ops = Operators(grid, f, backend)
    g = ops.gradient_norm_field()

    # twisted Dirac powers
    chain = [form]
    for _ in range(k):
        chain.append(ops.dirac("dbar_f", chain[-1]))
    n_twisted = sum(norm(x) for x in chain)

    # gradient-weighted untwisted Dirac powers
    plain = [form]
    for _ in range(k):
        plain.append(ops.dirac("dbar", plain[-1]))
    n_graded = 0.0
    for j in range(k + 1):
        for i in range(k + 1 - j):
            weighted = plain[j] if i == 0 else plain[j].multiply_pointwise(g ** i)
            n_graded += norm(weighted)

    # gradient-weighted flat derivative stacks: level j holds every
    # j-fold x/y derivative of the form, componentwise
    levels = [[form]]
    for _ in range(k):
        levels.append([DiscreteForm(grid, np.array([d(c) for c in a.comps]))
                       for a in levels[-1] for d in (ops.dx, ops.dy)])
    n_flat = 0.0
    for j in range(k + 1):
        for i in range(k + 1 - j):
            sq = 0.0
            for a in levels[j]:
                weighted = a if i == 0 else a.multiply_pointwise(g ** i)
                sq += norm(weighted) ** 2
            n_flat += float(np.sqrt(sq))

    values = [n_twisted, n_graded, n_flat]
    if min(values) <= 0:
        raise ComputeError("norm probe requires a nonzero form")
    max_ratio = max(a / b for a in values for b in values)
    return {"twisted_power": float(n_twisted), "graded": float(n_graded),
            "flat": float(n_flat), "max_ratio": float(max_ratio)}


# -- comparisons and export ----------------------------------------------------


def form_distance(a: DiscreteForm, b: DiscreteForm) -> float:
    """Relative L² distance between unit-normalized forms, minimized over
    a global phase (the natural eigenform comparison)."""
    na, nb = norm(a), norm(b)
    if na == 0 or nb == 0:
        raise PrecondError("cannot compare zero forms")
    overlap = inner(a, b) / (na * nb)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(overlap))))


COMPONENT_LABELS = ("1", "dz", "dzbar", "dz^dzbar")


def _csv_text(header: list, rows) -> str:
    """CSV text with CRLF line ends, the ``csv`` module's default."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def write_eigenvalues_csv(result: SpectralResult) -> str:
    """CSV text of index, eigenvalue, residual."""
    return _csv_text(["index", "eigenvalue", "residual"], (
        [i, repr(float(v)), repr(float(r))]
        for i, (v, r) in enumerate(zip(result.eigenvalues, result.residuals))))


def write_harmonic_profile_csv(result: SpectralResult) -> str:
    """CSV text of the ground eigenform sampled over the grid: x, y,
    component, re, im, over the components that are not zero."""
    if not result.eigenforms:
        raise ComputeError("no eigenforms to export")
    form = result.eigenforms[0]
    axis = form.grid.axis
    return _csv_text(["x", "y", "component", "re", "im"], (
        [repr(float(axis[ix])), repr(float(axis[iy])), label,
         repr(float(comp[ix, iy].real)), repr(float(comp[ix, iy].imag))]
        for label, comp in zip(COMPONENT_LABELS, form.comps) if np.any(comp)
        for ix in range(len(axis)) for iy in range(len(axis))))


__all__ = [
    "SpectralResult", "SpectralContext", "HodgeSplit", "SplittingSeries",
    "CutoffHomotopy", "eigensolve_lowest", "hodge_decompose",
    "splitting_map", "pairing_series", "smooth_cutoff",
    "homotopy_identity_check", "derham_compare", "norm_probe",
    "form_distance", "write_eigenvalues_csv", "write_harmonic_profile_csv",
    "build_grid",
]
