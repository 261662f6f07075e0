"""Frobenius-manifold data from the universal unfolding of a singularity.

Pipeline: unfold f over its Milnor basis and reduce each product
phi_a phi_b modulo the family gradient ideal once, order by order in the
deformation parameters.  A reduced class is its coordinate vector on the
Milnor basis, here mu truncated t-series, and only ``MilnorRing.vector``
turns a normal form into coordinates.  The coordinates of phi_a phi_b
are the structure constants c_ab^e(t); their socle row gives the residue
metric, eta_ab(t) = mu c_ab^sigma(t) / h(t), where phi_sigma is the
socle and h the socle coordinate of the family Hessian.  Flatten the
metric by an order-by-order polynomial coordinate change, lower and pull
back the structure constants, and integrate them to the potential in
closed form by Euler's identity,
F_d = sum_{a,b,c} s_a s_b s_c F_abc^(d-3) / (d(d-1)(d-2)).  Each order
of the flattening solves d_a sigma_b + d_b sigma_a = S_ab in closed form
as well.  Every closed form is checked exactly against the data it
inverts before it is used.  Associativity of the family product then
appears as the vanishing of the WDVV residual.

Everything is exact rational arithmetic on truncated multivariate
series; no floating point enters.  Products and substitutions in t go
through ``Polynomial.mul_trunc`` and ``Polynomial.subs_trunc``, which
never form the terms above the truncation order.  The one exception is
the family Hessian, a polynomial over z and t of t-degree at most the
number of variables, formed in full and truncated by the reduction.

The primitive form is taken to be the volume form dx at every t.  That
holds when every parameter has positive weight 1 - deg phi_a, as for the
ADE singularities.  A simple elliptic singularity has one marginal
(weight-0) parameter, and there dx stops being primitive at some order
(x^3+y^3+w^3 at nt=3, x^4+y^4 at nt=2, x^3+y^6 at nt=3): when the metric
flattening is obstructed and the unfolding has a marginal parameter,
``build_flat_potential`` raises ``PrecondError`` (``lg`` exit 3) naming
its monomial, rather than ``ComputeError``.

The family residue functional reads the socle coordinate of the family
normal form, normalized so the family Hessian determinant has
residue equal to the Milnor number.  That identification relies on the
grading induced by quasi-homogeneity (parameter t_a carries weight
1 - weight(phi_a) > 0, and every sub-socle basis direction has negative
total weight after dividing by the socle), so the metric and potential
constructions require a quasi-homogeneous base point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .groebner import MilnorRing, milnor_ring
from .poly import Monomial, Polynomial
from .util import (ComputeError, PrecondError, cofactor_det, exact_rank, frac_str,
                   invert_exact)

# -- truncated series utilities over the deformation parameters -----------------


def truncate(p: Polynomial, nt: int) -> Polynomial:
    return Polynomial._trusted({m: c for m, c in p.coeffs.items() if sum(m) <= nt},
                               p.names, p.mode)


def degree_part(p: Polynomial, k: int) -> Polynomial:
    return Polynomial._trusted({m: c for m, c in p.coeffs.items() if sum(m) == k},
                               p.names, p.mode)


def series_inverse(p: Polynomial, nt: int) -> Polynomial:
    """Multiplicative inverse of a series with nonzero constant term."""
    c0 = p.constant_term()
    if c0 == 0:
        raise ComputeError("series with zero constant term has no inverse")
    rest = truncate(p * (Fraction(1) / c0) - 1, nt)
    inv = Polynomial.constant(1, p.names, p.mode)
    power = Polynomial.constant(1, p.names, p.mode)
    for _ in range(nt):
        power = power.mul_trunc(rest, nt) * Fraction(-1)
        if power.is_zero():
            break
        inv = inv + power
    return truncate(inv * (Fraction(1) / c0), nt)


# -- the unfolding ----------------------------------------------------------------


@dataclass
class Unfolding:
    f: Polynomial
    ring: MilnorRing
    tnames: tuple[str, ...]
    phis: list[Monomial]

    @property
    def mu(self) -> int:
        return len(self.phis)

    @functools.cached_property
    def dphi(self) -> list[list[Polynomial]]:
        """dphi[a][i] = d phi_a / d z_i, formed once per unfolding."""
        return [[Polynomial.monomial(phi, 1, self.f.names).diff(i)
                 for i in range(len(self.f.names))] for phi in self.phis]


def universal_unfolding(f: Polynomial) -> Unfolding:
    ring = milnor_ring(f)
    if ring.basis is None:
        raise PrecondError("infinite-dimensional quotient: no finite unfolding")
    tnames = tuple(f"t{a}" for a in range(len(ring.basis)))
    return Unfolding(f, ring, tnames, list(ring.basis))


def family_normal_form(U: Unfolding, g: Polynomial, nt: int) -> list[Polynomial]:
    """Coordinates of g modulo the family gradient ideal on the Milnor
    basis: mu t-polynomials, truncated at t-order nt.

    g is a polynomial over U.f.names + U.tnames, or over U.f.names alone
    (t-degree 0).  Division by the base gradient ideal leaves quotients
    a_i; rewriting a_i * d_i f = a_i * d_i F - sum_a t_a a_i * d_i phi_a
    pushes the correction to strictly higher t-order, so the loop
    terminates.
    """
    znames = U.f.names
    n = len(znames)
    if g.names not in (znames, znames + U.tnames):
        raise ValueError(f"family normal form needs a polynomial over "
                         f"{znames} or {znames + U.tnames}, not {g.names}")
    layers: dict[Monomial, dict[Monomial, Fraction]] = {}
    for m, c in g.coeffs.items():
        tm = m[n:] or (0,) * U.mu
        if sum(tm) <= nt:
            layers.setdefault(tm, {})[m[:n]] = c
    work = {tm: Polynomial._trusted(zc, znames, "poly") for tm, zc in layers.items()}
    dphi = U.dphi
    out: list[dict[Monomial, Fraction]] = [{} for _ in range(U.mu)]
    for deg in range(nt + 1):
        for tm in sorted(m for m in work if sum(m) == deg):
            p = work.pop(tm)
            if p.is_zero():
                continue
            nf, quot = (U.ring.reduce_with_quotients(p) if deg < nt
                        else (U.ring.normal_form(p), None))
            # each t-monomial is reduced once, so out[e][tm] is set here only
            for e, c in enumerate(U.ring.vector(nf)):
                if c:
                    out[e][tm] = c
            if quot is None:
                continue  # every correction would land at t-order nt + 1
            for a in range(U.mu):
                corr = Polynomial.zero(znames)
                for i in range(n):
                    if not quot[i].is_zero() and not dphi[a][i].is_zero():
                        corr = corr + quot[i] * dphi[a][i]
                if corr.is_zero():
                    continue
                tm2 = tuple(e + (1 if j == a else 0) for j, e in enumerate(tm))
                work[tm2] = work.get(tm2, Polynomial.zero(znames)) - corr
    return [Polynomial._trusted(c, U.tnames, "poly") for c in out]


def _socle_index(U: Unfolding) -> int:
    """Position of the socle in the Milnor basis, once the preconditions
    of the family residue hold."""
    if U.ring.weights is None:
        raise PrecondError("family residues require a quasi-homogeneous base")
    return U.ring.socle_index()


def _normalizer_inverse(U: Unfolding, nt: int) -> Polynomial:
    """Inverse of the socle coordinate of the family Hessian determinant."""
    sigma = _socle_index(U)
    return series_inverse(family_normal_form(U, _family_hessian(U), nt)[sigma], nt)


def family_residue(U: Unfolding, g: Polynomial, nt: int) -> Polynomial:
    """Family residue functional as a t-polynomial, normalized so the
    family Hessian determinant has residue mu: the socle coordinate of
    the family normal form of g, times mu / h(t)."""
    cinv = _normalizer_inverse(U, nt)
    numer = family_normal_form(U, g, nt)[_socle_index(U)]
    return numer.mul_trunc(cinv, nt) * U.ring.mu


def _family_hessian(U: Unfolding) -> Polynomial:
    """det(d_i d_j F) for F = f + sum_a t_a phi_a, over z and t."""
    n, zero_t = len(U.f.names), (0,) * U.mu
    F = {m + zero_t: c for m, c in U.f.coeffs.items()}
    for a, phi in enumerate(U.phis):
        F[phi + zero_t[:a] + (1,) + zero_t[a + 1:]] = 1
    F = Polynomial(F, U.f.names + U.tnames)
    return cofactor_det([[F.diff(i).diff(j) for j in range(n)] for i in range(n)])


def family_multiplication(U: Unfolding, nt: int) -> list[list[list[Polynomial]]]:
    """Structure constants c[a][b][e](t): phi_a * phi_b = sum_e c * phi_e
    modulo the family gradient ideal."""
    c = [[None] * U.mu for _ in range(U.mu)]
    for a in range(U.mu):
        for b in range(a, U.mu):
            prod = Polynomial.monomial(
                tuple(x + y for x, y in zip(U.phis[a], U.phis[b])), 1, U.f.names)
            c[a][b] = c[b][a] = family_normal_form(U, prod, nt)
    return c


def family_metric(U: Unfolding, nt: int) -> list[list[Polynomial]]:
    """eta[a][b](t) = family residue of phi_a * phi_b."""
    return _metric_and_structure(U, nt)[0]


def _metric_and_structure(U: Unfolding, nt: int):
    """The family metric and structure constants from one family reduction
    per product: phi_a phi_b = sum_e c_ab^e phi_e has family residue
    mu * c_ab^sigma / h, with phi_sigma the socle.  The normalizer comes
    first, so its preconditions are checked before any product is reduced."""
    scale = _normalizer_inverse(U, nt) * U.ring.mu
    c = family_multiplication(U, nt)
    sigma = _socle_index(U)
    eta = [[None] * U.mu for _ in range(U.mu)]
    for a in range(U.mu):
        for b in range(a, U.mu):
            eta[a][b] = eta[b][a] = c[a][b][sigma].mul_trunc(scale, nt)
    return eta, c


# -- flat coordinates and the potential ---------------------------------------------


@dataclass
class FrobeniusData:
    """The constant metric ``eta0``, the flat coordinates t(s) and the
    potential in those coordinates, all to t-order ``nt``."""
    unfolding: Unfolding
    nt: int
    eta0: list[list[Fraction]]
    t_of_s: list[Polynomial]
    potential: Polynomial          # in flat coordinates, order nt + 3
    euler_degrees: list[Fraction] | None

    def third_derivatives(self, a: int, b: int, c: int) -> Polynomial:
        return truncate(self.potential.diff(a).diff(b).diff(c), self.nt)

    def describe(self) -> dict:
        return {
            "milnor_number": self.unfolding.mu,
            "deformation_monomials": [
                str(Polynomial.monomial(m, 1, self.unfolding.f.names))
                for m in self.unfolding.phis],
            "flat_metric": [[frac_str(x) for x in row] for row in self.eta0],
            "potential": {str(Polynomial.monomial(m, 1, self.potential.names)):
                          frac_str(c) for m, c in sorted(self.potential.coeffs.items())},
            "euler_degrees": ([frac_str(d) for d in self.euler_degrees]
                              if self.euler_degrees else None),
            "t_order": self.nt,
        }


def _integrate_symmetric_gradient(S: list[list[Polynomial]],
                                  k: int) -> list[Polynomial]:
    """Solve d_a sigma_b + d_b sigma_a = S_ab for sigma of homogeneous
    degree k+1 >= 2, where S is symmetric with homogeneous degree-k entries.

    Differentiating the equation gives 2 d_a d_b sigma_c =
    d_a S_bc + d_b S_ac - d_c S_ab, and Euler's identity for homogeneous
    sigma turns that into the closed form

        sigma_c = 1/(2k(k+1)) sum_{a,b} s_a s_b (d_a S_bc + d_b S_ac - d_c S_ab)
                = P_c / k - d_c Q / (2k(k+1)),

    with P_c = sum_a s_a S_ac and Q = sum_a s_a P_a (Euler once more, on S).
    The solution is unique (no polynomial Killing fields of degree >= 2
    for the constant metric); it exists only when S satisfies the
    Saint-Venant compatibility condition, which the exact check of the
    result against S decides.
    """
    mu = len(S)
    snames = S[0][0].names
    s = [Polynomial.variable(a, snames) for a in range(mu)]
    P = [sum((s[a] * S[a][c] for a in range(mu)), Polynomial.zero(snames))
         for c in range(mu)]
    Q = sum((s[c] * P[c] for c in range(mu)), Polynomial.zero(snames))
    sigma = [P[c] * Fraction(1, k) - Q.diff(c) * Fraction(1, 2 * k * (k + 1))
             for c in range(mu)]
    for a in range(mu):
        for b in range(a, mu):
            if sigma[b].diff(a) + sigma[a].diff(b) != S[a][b]:
                raise ComputeError(
                    f"metric flattening obstructed at degree {k}: "
                    "symmetrized gradient system is inconsistent")
    return sigma


def _integrate_third_derivatives(
        T: dict[tuple[int, int, int], Polynomial]) -> Polynomial:
    """The potential F, free of terms below degree 3, whose third
    derivatives d_a d_b d_c F are T[a, b, c] for every a <= b <= c.

    Euler's identity, applied three times to the degree-d part of F, gives

        F_d = sum_{a,b,c} s_a s_b s_c T_abc^(d-3) / (d(d-1)(d-2))

    over ordered triples, so each sorted triple enters once per distinct
    permutation.  T is a third derivative only when F reproduces it, which
    the exact check once per sorted triple decides.
    """
    names = next(iter(T.values())).names
    coeffs: dict[Monomial, Fraction] = {}
    for (a, b, c), poly in T.items():
        perms = len(set(itertools.permutations((a, b, c))))
        for m, val in poly.coeffs.items():
            d = sum(m) + 3
            target = tuple(e + (i == a) + (i == b) + (i == c)
                           for i, e in enumerate(m))
            coeffs[target] = (coeffs.get(target, 0) +
                              val * Fraction(perms, d * (d - 1) * (d - 2)))
    F = Polynomial(coeffs, names)
    for (a, b, c), poly in T.items():
        if F.diff(a).diff(b).diff(c) != poly:
            raise ComputeError(
                f"potential fails to reproduce the structure tensor at {(a, b, c)}: "
                "third-derivative tensor is not integrable")
    return F


def _pull_back(T: dict[tuple[int, ...], Polynomial], t_of_s: list[Polynomial],
               nt: int) -> dict[tuple[int, ...], Polynomial]:
    """Pull a totally symmetric tensor back along t = t(s), truncated at
    order nt: sum_{p,q,...} (d_a t_p)(d_b t_q)... T_pq...(t(s)) for each
    sorted index tuple (a, b, ...), the only entries T stores.

    The Jacobian is contracted into one slot at a time.  With k slots done
    the partial result is symmetric among its first k indices and among
    the others, so only the entries sorted within both groups are formed,
    and a lookup sorts its index tuple the same way."""
    n = len(t_of_s)
    rank = len(next(iter(T)))
    jac = [[(p, d) for p, d in enumerate(t.diff(a) for t in t_of_s)
            if not d.is_zero()] for a in range(n)]
    zero = Polynomial.zero(t_of_s[0].names)
    cur = {idx: v.subs_trunc(t_of_s, nt) for idx, v in T.items()}
    for slot in range(rank):
        new = {}
        for head in itertools.combinations_with_replacement(range(n), slot + 1):
            for tail in itertools.combinations_with_replacement(range(n),
                                                                rank - slot - 1):
                acc = zero
                for p, d in jac[head[-1]]:
                    src = cur[head[:-1] + tuple(sorted((p,) + tail))]
                    if not src.is_zero():
                        acc = acc + d.mul_trunc(src, nt)
                new[head + tail] = acc
        cur = new
    return cur


def _marginal_monomials(U: Unfolding) -> list[str]:
    """The deformation monomials phi_a whose parameter has weight
    1 - deg phi_a = 0, named as t_a = phi_a."""
    if U.ring.weights is None:
        return []
    return [f"{U.tnames[a]} = {Polynomial.monomial(phi, 1, U.f.names)}"
            for a, phi in enumerate(U.phis) if U.ring.weights.degree(phi) == 1]


def build_flat_potential(U: Unfolding, nt: int = 5) -> FrobeniusData:
    """Flatten the family metric, pull back the structure constants, and
    integrate them to the potential.  All steps verify their own
    consistency and raise ComputeError on obstruction."""
    mu = U.mu
    snames = tuple(f"s{a}" for a in range(mu))
    eta_t, c_t = _metric_and_structure(U, nt)
    eta0 = [[eta_t[a][b].constant_term() for b in range(mu)] for a in range(mu)]
    if exact_rank([list(r) for r in eta0]) != mu:
        raise PrecondError("residue metric degenerate at the base point")
    eta0_inv = invert_exact(eta0)

    # order-by-order flattening: t(s) = s + corrections of degree >= 2
    t_of_s = [Polynomial.variable(a, snames) for a in range(mu)]
    pairs = list(itertools.combinations_with_replacement(range(mu), 2))
    eta_sym = {(a, b): eta_t[a][b] for a, b in pairs}
    for k in range(1, nt + 1):
        current = _pull_back(eta_sym, t_of_s, k)
        # the degree-k defect, to be cancelled by a degree-(k+1) correction
        S = [[degree_part(Polynomial.constant(eta0[a][b], snames) -
                          current[min(a, b), max(a, b)], k)
              for b in range(mu)] for a in range(mu)]
        if all(S[a][b].is_zero() for a, b in pairs):
            continue
        try:
            sigma = _integrate_symmetric_gradient(S, k)
        except ComputeError as exc:
            marginal = _marginal_monomials(U)
            if marginal:
                raise PrecondError(
                    f"{exc}; the unfolding has the marginal (weight-0) "
                    f"parameter {', '.join(marginal)}, so the primitive form "
                    "is not dx and this construction does not apply") from exc
            raise
        # raise indices: t_p += sum_b inv_eta[p][b] sigma_b
        for p in range(mu):
            t_of_s[p] = sum((sigma[b] * eta0_inv[p][b] for b in range(mu)
                             if eta0_inv[p][b] != 0), t_of_s[p])
    final = _pull_back(eta_sym, t_of_s, nt)
    if any(final[a, b] != Polynomial.constant(eta0[a][b], snames) for a, b in pairs):
        raise ComputeError("metric flattening failed verification")

    # lowered structure constants: the residue of a triple product, so the
    # tensor is totally symmetric and one sorted triple stands for all
    lowered = {(p, q, r): sum((c_t[p][q][e].mul_trunc(eta_t[e][r], nt)
                               for e in range(mu)), Polynomial.zero(U.tnames))
               for p, q, r in itertools.combinations_with_replacement(range(mu), 3)}
    potential = _integrate_third_derivatives(_pull_back(lowered, t_of_s, nt))

    euler = None
    if U.ring.weights is not None:
        euler = [Fraction(1) - U.ring.weights.degree(m) for m in U.phis]

    return FrobeniusData(U, nt, eta0, t_of_s, potential, euler)


def wdvv_residual(D: FrobeniusData) -> Fraction:
    """Max absolute coefficient of the associativity residual
    sum_{e,f} F_abe eta^{ef} F_fcd - (b <-> c), truncated at the
    potential's t-order, as a Fraction even when integral, which
    ``jsonable`` writes as a string ('0', not the number 0).

    F_abc is symmetric in its three indices and eta^{ef} in its two, so the
    contraction C(ab, cd) is unchanged by a <-> b, c <-> d and ab <-> cd:
    each third derivative is built once per sorted triple, each
    contraction once per class {sorted(a, b), sorted(c, d)}, and each
    difference of contractions once per unordered pair of distinct classes.
    """
    nt, mu = D.nt, D.unfolding.mu
    inv = invert_exact(D.eta0)
    third = {t: D.third_derivatives(*t)
             for t in itertools.combinations_with_replacement(range(mu), 3)}

    def F(a, b, c):
        return third[tuple(sorted((a, b, c)))]

    inv_terms = [(e, f_, inv[e][f_]) for e in range(mu) for f_ in range(mu)
                 if inv[e][f_] != 0]
    contractions = {}

    def contract(key):
        if key not in contractions:
            (a, b), (c, d) = key
            acc = Polynomial.zero(D.potential.names)
            for e, f_, w in inv_terms:
                left, right = F(a, b, e), F(f_, c, d)
                if not (left.is_zero() or right.is_zero()):
                    acc = acc + left.mul_trunc(right, nt) * w
            contractions[key] = acc
        return contractions[key]

    pair = [[(min(a, b), max(a, b)) for b in range(mu)] for a in range(mu)]

    def cls(a, b, c, d):
        k1, k2 = pair[a][b], pair[c][d]
        return (k1, k2) if k1 <= k2 else (k2, k1)

    # the residual of (a, b, c, d) is C(k1) - C(k2): zero when the classes
    # are equal, and the same up to sign for (k1, k2) and (k2, k1), so each
    # unordered pair of distinct classes is checked once
    worst = 0
    compared = set()
    for a, b, c, d in itertools.product(range(mu), repeat=4):
        k1, k2 = sorted((cls(a, b, c, d), cls(a, c, b, d)))
        if k1 == k2 or (k1, k2) in compared:
            continue
        compared.add((k1, k2))
        res = contract(k1) - contract(k2)
        for v in res.coeffs.values():
            worst = max(worst, abs(v))
    return Fraction(worst)
