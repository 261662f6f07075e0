"""Certification of spectral-gap growth conditions for superpotentials.

Three largely independent routes:

1. quasi-homogeneous route — exact: weights exist, all <= 1/2, finite
   Milnor number.  Verdict Satisfied or Unknown (never numeric).
2. Laurent route — Newton polytope must contain the origin strictly in
   its interior ("convenient"), and no face system
   ``g = theta_1 g = ... = theta_n g = 0`` (g the face restriction,
   theta_i the logarithmic derivatives) may have a solution with all
   coordinates nonzero.  Exact in every dimension: each face system is
   decided by a Groebner basis with a Rabinowitsch variable.  Verdict
   Satisfied or Violated; a Newton search supplies a checked witness
   for a violated face when it finds one, never the verdict.
3. numeric growth probe — samples ``eps*|grad f|^k - |tensor grad^k f|``
   on spheres of growing radius; can only ever report LikelySatisfied.

Numeric verdicts are never promoted to Satisfied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import groebner_basis, milnor_ring
from .poly import Monomial, Polynomial, PolyError, infer_weights
from .util import PrecondError, exact_rank as _rank, rref as _rref, solve_exact as _solve_exact

SATISFIED = "Satisfied"
LIKELY = "LikelySatisfied"
UNKNOWN = "Unknown"
VIOLATED = "Violated"


@dataclass
class EllipticityReport:
    verdict: str
    reason: str
    details: dict = field(default_factory=dict)
    table: list[tuple[int, float, float]] | None = None  # (k, radius, min margin)
    witness: tuple[complex, ...] | None = None


# -- quasi-homogeneous route ---------------------------------------------------


def check_quasihomogeneous_ellipticity(f: Polynomial) -> EllipticityReport:
    """Exact sufficient criterion: weighted-homogeneous of total weight 1
    with all weights <= 1/2 and finite Milnor number."""
    return _quasihomogeneous_report(f, None)


def _quasihomogeneous_report(f: Polynomial, ring) -> EllipticityReport:
    """The quasi-homogeneous verdict, with ``ring`` f's ``MilnorRing`` when
    the caller already has it, or None to compute it once the weights pass."""
    if f.mode != "poly":
        raise PrecondError("quasi-homogeneous route needs polynomial mode")
    weights = infer_weights(f)
    if weights is None:
        return EllipticityReport(UNKNOWN, "no consistent weight system with weights in (0,1)")
    bad = [(f.names[i], q) for i, q in enumerate(weights.q) if q > Fraction(1, 2)]
    if bad:
        nm, q = bad[0]
        return EllipticityReport(UNKNOWN, f"weight of {nm} is {q} > 1/2",
                                 {"weights": weights.q})
    ring = ring if ring is not None else milnor_ring(f)
    if ring.mu == math.inf:
        return EllipticityReport(UNKNOWN, "critical locus is positive-dimensional",
                                 {"weights": weights.q})
    return EllipticityReport(
        SATISFIED,
        "weighted-homogeneous, all weights <= 1/2, isolated critical point",
        {"weights": weights.q, "mu": ring.mu})


# -- Newton polytope -----------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """A face of the Newton polytope, recorded by the support points on it."""
    points: tuple[Monomial, ...]
    dim: int


@dataclass
class NewtonPolytope:
    support: list[Monomial]
    dim: int                      # affine dimension of the hull
    vertices: list[Monomial]
    faces: list[Face]             # all nonempty faces, the polytope itself last
    facets: list[tuple[tuple[Fraction, ...], Fraction]]  # hull-coord (normal, offset)
    convenient: bool              # origin strictly interior (requires full dim)
    _origin: Monomial = None      # base point p0 of the affine hull
    _basis: list[Monomial] = None  # integer direction basis of the hull

    def contains(self, point: Monomial) -> bool:
        c = _hull_coords(point, self._origin, self._basis)
        if c is None:
            return False
        return all(sum(nu[i] * c[i] for i in range(len(c))) <= off
                   for nu, off in self.facets)


def _hull_coords(point: Monomial, origin: Monomial,
                 basis: list[Monomial]) -> list[Fraction] | None:
    """Coordinates of point within the affine hull, or None if outside it."""
    diff = [a - b for a, b in zip(point, origin)]
    A = [[v[i] for v in basis] for i in range(len(point))]
    return _solve_exact(A, diff)


def newton_polytope(f: Polynomial) -> NewtonPolytope:
    """Exact hull, facets, full face lattice, and the convenient flag."""
    if f.is_zero():
        raise PrecondError("Newton polytope of the zero polynomial")
    pts = sorted(set(f.coeffs))
    n = f.nvars
    p0 = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in pts]

    # integer basis of the affine hull: the support differences that raise the rank
    d = _rank(diffs)
    basis: list[Monomial] = []
    for row in diffs:
        if len(basis) == d:
            break
        if _rank(basis + [row]) > len(basis):
            basis.append(row)

    hull_pts = {p: _hull_coords(p, p0, basis) for p in pts}

    if d == 0:
        return NewtonPolytope(pts, 0, [p0], [Face((p0,), 0)], [], n == 0, p0, basis)

    # facets: supporting hyperplanes spanned by d support points
    facets: dict[tuple, tuple[tuple[Fraction, ...], Fraction]] = {}
    for comb in itertools.combinations(pts, d):
        rows = [[hull_pts[p][i] - hull_pts[comb[0]][i] for i in range(d)]
                for p in comb[1:]]
        if _rank(rows) != d - 1:
            continue
        # normal: 1-dim nullspace of rows (within hull coordinates)
        red2, piv2 = _rref(rows)
        (free,) = [i for i in range(d) if i not in piv2]
        nu = [Fraction(0)] * d
        nu[free] = Fraction(1)
        for i, col in enumerate(piv2):
            nu[col] = -red2[i][free]
        off = sum(nu[i] * hull_pts[comb[0]][i] for i in range(d))
        vals = [sum(nu[i] * hull_pts[p][i] for i in range(d)) - off for p in pts]
        if any(v > 0 for v in vals):
            if any(v < 0 for v in vals):
                continue
            nu, off = [-x for x in nu], -off
        # canonicalize to primitive integer normal
        den = math.lcm(*(x.denominator for x in nu + [off]))
        inu = [int(x * den) for x in nu]
        ioff = int(off * den)
        g = math.gcd(*inu, ioff)
        inu, ioff = [x // g for x in inu], ioff // g
        key = (tuple(inu), ioff)
        facets[key] = (tuple(Fraction(x) for x in inu), Fraction(ioff))
    facet_list = list(facets.values())

    def on_facet(p, fac):
        nu, off = fac
        return sum(nu[i] * hull_pts[p][i] for i in range(d)) == off

    # face lattice: closure of facet equality sets under intersection
    all_face = frozenset(pts)
    seen = {all_face}
    frontier = [all_face]
    while frontier:
        cur = frontier.pop()
        for fac in facet_list:
            nxt = frozenset(p for p in cur if on_facet(p, fac))
            if nxt and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)

    def face_dim(points_set):
        ps = sorted(points_set)
        rows = [[hull_pts[p][i] - hull_pts[ps[0]][i] for i in range(d)] for p in ps[1:]]
        return _rank(rows)

    faces = sorted((Face(tuple(sorted(s)), face_dim(s)) for s in seen),
                   key=lambda F: (F.dim, F.points))
    vertices = sorted({F.points[0] for F in faces if F.dim == 0})

    convenient = False
    if d == n:
        zero = tuple(0 for _ in range(n))
        c0 = _hull_coords(zero, p0, basis)
        if c0 is not None:
            convenient = all(
                sum(nu[i] * c0[i] for i in range(d)) < off for nu, off in facet_list)

    return NewtonPolytope(pts, d, vertices, faces, facet_list, convenient, p0, basis)


# -- Laurent nondegeneracy -----------------------------------------------------


def _clear_to_poly(g: Polynomial) -> Polynomial:
    """Multiply by the monomial making all exponents nonnegative (a torus unit)."""
    mins = [min(m[i] for m in g.coeffs) for i in range(g.nvars)]
    shift = tuple(-min(0, mi) for mi in mins)
    out = {tuple(e + s for e, s in zip(m, shift)): c for m, c in g.coeffs.items()}
    return Polynomial(out, g.names, "poly")


def _face_system(f: Polynomial, face: Face) -> list[Polynomial]:
    face_set = set(face.points)
    g = Polynomial({m: c for m, c in f.coeffs.items() if m in face_set},
                   f.names, "laurent")
    sys = [g] + [g.theta(i) for i in range(f.nvars)]
    return [_clear_to_poly(s) for s in sys if not s.is_zero()]


def _embed(p: Polynomial, names: tuple[str, ...]) -> Polynomial:
    extra = len(names) - p.nvars
    return Polynomial({m + (0,) * extra: c for m, c in p.coeffs.items()}, names, "poly")


def _torus_system_is_empty(system: list[Polynomial], names: tuple[str, ...]) -> bool:
    """Exact: no common zero with all coordinates nonzero (algebraically closed)."""
    n = len(names)
    wnames = names + ("_w",)
    gens = [_embed(s, wnames) for s in system]
    prod = Polynomial.monomial(tuple([1] * n + [1]), 1, wnames)
    gens.append(Polynomial.constant(1, wnames) - prod)
    gb = groebner_basis(gens)
    return gb.contains_one()


NEWTON_STARTS = 200  # random torus starts of the witness search
NEWTON_TOL = 1e-10  # residual at which a Newton start has converged


def _newton_witness_search(system: list[Polynomial], nvars: int, seed: int):
    """Damped Gauss-Newton from random torus starts; returns a witness or None."""
    import numpy as np  # here, so the exact routes start without NumPy

    rng = np.random.default_rng(seed)
    derivs = [[s.diff(i) for i in range(nvars)] for s in system]

    def F(z):
        return np.array([s.eval_complex(z) for s in system])

    def J(z):
        return np.array([[derivs[k][i].eval_complex(z) for i in range(nvars)]
                         for k in range(len(system))])

    for _ in range(NEWTON_STARTS):
        logmod = rng.uniform(-1.5, 1.5, nvars)
        phase = rng.uniform(0, 2 * np.pi, nvars)
        z = np.exp(logmod + 1j * phase)
        for _ in range(60):
            Fz = F(z)
            res = np.linalg.norm(Fz)
            if res < NEWTON_TOL:
                break
            step, *_ = np.linalg.lstsq(J(z), -Fz, rcond=None)
            t = 1.0
            improved = False
            for _ in range(30):
                znew = z + t * step
                if np.all(np.abs(znew) > 1e-8) and \
                   np.linalg.norm(F(znew)) < res * (1 - 1e-4 * t):
                    z, improved = znew, True
                    break
                t *= 0.5
            if not improved:
                break
        if np.linalg.norm(F(z)) < NEWTON_TOL and np.all(np.abs(z) > 1e-6):
            return tuple(complex(v) for v in z)
    return None


def _torus_witness(system: list[Polynomial], nvars: int, seed: int):
    """A checked torus point of a face system already shown solvable, or None.

    The Newton search only returns points with residual below its
    tolerance; a point counts as a witness if every coordinate modulus
    also lies in [1e-3, 1e3].  A real witness whose coordinates snap to
    rationals of denominator <= 1000 that solve the system exactly is
    returned exactly.
    """
    z = _newton_witness_search(system, nvars, seed)
    if z is None or not all(1e-3 <= abs(v) <= 1e3 for v in z):
        return None
    if all(abs(v.imag) < 1e-6 for v in z):
        snapped = [Fraction(v.real).limit_denominator(1000) for v in z]
        point = [Polynomial.constant(x, system[0].names) for x in snapped]
        if all(s.subs(point).is_zero() for s in system):
            return tuple(complex(x) for x in snapped)
    return z


def check_laurent_nondegenerate(f: Polynomial, seed: int = 0) -> EllipticityReport:
    """Face-by-face torus-solvability of g = theta_1 g = ... = theta_n g = 0.

    Exact in every dimension: each face system is decided by a Groebner
    basis with a Rabinowitsch variable, so the verdict is Satisfied or
    Violated.  Faces are decided in order, and the check stops at the
    first violated one, where a Newton search seeded by ``seed`` looks for
    a witness; it never decides the verdict, and when it finds no checked
    torus point the witness is None.  A convenient Newton polytope is a
    precondition.
    """
    if f.mode != "laurent":
        f = Polynomial(dict(f.coeffs), f.names, "laurent")
    poly = newton_polytope(f)
    if not poly.convenient:
        raise PrecondError("Newton polytope does not contain the origin "
                           "strictly in its interior")
    for face in poly.faces:
        system = _face_system(f, face)
        if not _torus_system_is_empty(system, f.names):
            witness = _torus_witness(system, f.nvars, seed)
            reason = f"face {list(face.points)} has a torus solution"
            if witness is None:
                reason += "; no torus witness found"
            return EllipticityReport(VIOLATED, reason, witness=witness)
    return EllipticityReport(SATISFIED, "no face system has a torus solution")


# -- numeric growth table --------------------------------------------------------


GROWTH_DIRECTIONS = 64  # sampled directions per sphere
GROWTH_EPS = 0.1  # the eps of the sampled margin eps*|grad f|^k - |grad^k f|
GROWTH_K_MAX = 3  # the margin is sampled for k = 2 .. GROWTH_K_MAX
GROWTH_RADII = (2.0, 4.0, 8.0, 16.0, 32.0)  # sphere radii, increasing


def numeric_growth_table(f: Polynomial, seed: int = 0) -> EllipticityReport:
    """Sample eps*|grad f|^k - |grad^k f| over spheres of growing radius.

    Laurent inputs are probed in logarithmic coordinates (derivatives
    become the exponent-scaling operators, points z = exp(r*w)).  The
    tensor norm uses multinomial weights: |grad^k f|^2 =
    sum_{|a|=k} (k!/a!) |D^a f|^2.  Verdict is LikelySatisfied iff every
    k-row is positive and strictly increasing over the last three radii;
    numeric evidence is never promoted to Satisfied.
    """
    import numpy as np  # here, so the exact routes start without NumPy

    laurent = f.mode == "laurent"
    n = f.nvars

    def D(p, i):
        return p.theta(i) if laurent else p.diff(i)

    # derivative tensors per order: list of (multinomial weight, polynomial)
    tensors: dict[int, list[tuple[float, Polynomial]]] = {}
    for k in range(1, GROWTH_K_MAX + 1):
        entries = []
        for alpha in itertools.product(range(k + 1), repeat=n):
            if sum(alpha) != k:
                continue
            p = f
            for i, a in enumerate(alpha):
                for _ in range(a):
                    p = D(p, i)
            w = math.factorial(k)
            for a in alpha:
                w //= math.factorial(a)
            entries.append((float(w), p))
        tensors[k] = entries

    rng = np.random.default_rng(seed)
    if laurent:
        # infinity on the torus means the log-modulus leaves every compact
        # set; phases are compact directions, so sample them uniformly and
        # put the radius entirely on the modulus
        v = rng.normal(size=(GROWTH_DIRECTIONS, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        phases = rng.uniform(0, 2 * np.pi, size=(GROWTH_DIRECTIONS, n))

        def point(r, idx):
            return np.exp(r * v[idx] + 1j * phases[idx])
    else:
        dirs = (rng.normal(size=(GROWTH_DIRECTIONS, n))
                + 1j * rng.normal(size=(GROWTH_DIRECTIONS, n)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        def point(r, idx):
            return r * dirs[idx]

    rows: list[tuple[int, float, float]] = []
    for k in range(2, GROWTH_K_MAX + 1):
        for r in GROWTH_RADII:
            margins = []
            for idx in range(GROWTH_DIRECTIONS):
                z = point(r, idx)
                grad2 = sum(abs(p.eval_complex(z)) ** 2 for _, p in tensors[1])
                tens2 = sum(wt * abs(p.eval_complex(z)) ** 2 for wt, p in tensors[k])
                margins.append(GROWTH_EPS * grad2 ** (k / 2) - math.sqrt(tens2))
            rows.append((k, float(r), float(min(margins))))

    ok = True
    for k in range(2, GROWTH_K_MAX + 1):
        krows = [m for kk, _, m in rows if kk == k][-3:]
        if not all(m > 0 for m in krows):
            ok = False
        if not all(b > a for a, b in zip(krows, krows[1:])):
            ok = False
    verdict = LIKELY if ok else UNKNOWN
    reason = ("sampled margins positive and increasing at the largest radii"
              if ok else "sampled margins fail to grow")
    return EllipticityReport(verdict, reason, table=rows)


def growth_table_csv(report: EllipticityReport) -> str:
    lines = ["k,radius,min_margin"]
    for k, r, m in report.table or []:
        lines.append(f"{k},{r},{m}")
    return "\n".join(lines) + "\n"
