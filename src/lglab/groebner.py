"""Groebner bases over the rationals with cofactor tracking, and the
finite-dimensional quotient data of a gradient ideal.

Cofactor tracking means every basis element g_k carries an exact
representation g_k = sum_i c_{k,i} * f_i in terms of the original
generators f_i.  Normal forms therefore come with certified quotients:
``g = normal_form(g) + sum_i a_i f_i`` with the a_i returned to the
caller.  Downstream code needs those quotients, not just membership.
Every basis is taken in one monomial order, grevlex (``grevlex_key``).

Buchberger's algorithm drops redundant S-pairs by the criteria of
Gebauer and Moeller (J. Symb. Comp. 6, 1988) and selects pairs by sugar
(Giovini et al., "One sugar cube, please", ISSAC 1991).  When an element
joins the basis, criterion B_k drops each queued pair whose lcm its
leading monomial divides, unless it shares that lcm with one of the
pair's elements.  Of the element's own new pairs, criterion M drops those
whose lcm another new pair's lcm properly divides, and criterion F keeps
one pair per lcm, none where a pair of that lcm has coprime leading
monomials.  A generator's sugar is its total degree, a pair's sugar is
the larger of its elements' sugars lifted to the lcm, and a new element
inherits its pair's.  The queued pair of least sugar is reduced first,
then the one whose lcm is smallest.  Sugar is the degree the pair would
have in a homogenized computation, so selection climbs in degree even on
inhomogeneous ideals, where reducing the newest pair first let
remainders reach degree 40 with coefficients of thousands of bits.  A
call gives up with ComputeError after MAX_S_PAIRS reductions rather than
run for minutes.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Monomial, Polynomial, PolyError, WeightSystem, hessian_det, infer_weights
from .util import ComputeError, PrecondError, canon

# -- the monomial order -------------------------------------------------------


@functools.cache
def grevlex_key(m: Monomial) -> tuple:
    """Sort key of the graded reverse lexicographic order, the one order
    used throughout: a larger key is a larger monomial.  Computed once per
    monomial; divisions and pair queues share their monomials."""
    return (sum(m), tuple(-e for e in reversed(m)))


def leading_term(p: Polynomial) -> tuple[Monomial, Fraction | int]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    m = max(p.coeffs, key=grevlex_key)
    return m, p.coeffs[m]


def _divides(a: Monomial, b: Monomial) -> bool:
    return not any(map(operator.gt, a, b))


def _quot(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


# S-pairs one groebner_basis call may reduce before it gives up; pairs the
# criteria drop do not count.  The gradient ideals in the tests and the
# benchmark reduce at most 96 (a three-variable potential in
# test_groebner.py; mu=35 reduces 45), and 40 random three-variable
# potentials with 3-6 terms and exponents up to 5 reduce at most 212.
MAX_S_PAIRS = 2000


def divide(g: Polynomial, divisors: list[Polynomial],
           lts: list[tuple[Monomial, Fraction]]
           ) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: g = sum_k q_k * divisors[k] + r, where
    lts[k] is the leading term of divisors[k], which callers keep.

    No monomial of r is divisible by any leading monomial of the divisors.
    The quotients and r are in canonical form: each step's factor c / lc
    is taken through ``Fraction`` (two ints would divide to a float), and
    not at all when the divisor is monic.
    """
    names, mode = g.names, g.mode
    quots: list[dict[Monomial, Fraction]] = [{} for _ in divisors]
    rem: dict[Monomial, Fraction] = {}
    work = dict(g.coeffs)
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for k, (lm, lc) in enumerate(lts):
            if _divides(lm, m):
                t = _quot(m, lm)
                factor = c if lc == 1 else canon(Fraction(c) / lc)
                quots[k][t] = factor
                for dm, dc in divisors[k].coeffs.items():
                    mm = tuple(x + y for x, y in zip(t, dm))
                    if mm == m:
                        continue  # the leading term cancels by construction
                    nv = work.get(mm, 0) - factor * dc
                    if nv:
                        work[mm] = canon(nv)
                    else:
                        del work[mm]
                break
        else:
            # terms leave work in decreasing order, so m never comes back
            rem[m] = c
    # m falls at every step, so each quotient monomial t = m / lm is new
    return ([Polynomial._trusted(q, names, mode) for q in quots],
            Polynomial._trusted(rem, names, mode))


def _combined_row(row: list[Polynomial], qs: list[Polynomial],
                  rows: list[list[Polynomial]]) -> list[Polynomial]:
    """row + sum_k qs[k] * rows[k] over the nonzero qs[k] and the nonzero
    entries of rows[k].  With ``row`` the cofactor row of a division's
    dividend and ``qs`` its quotients negated, this is the cofactor row of
    the remainder."""
    for q, other in zip(qs, rows):
        if q.coeffs:
            row = [a + q * b if b.coeffs else a for a, b in zip(row, other)]
    return row


# -- Buchberger with cofactors ------------------------------------------------


@dataclass
class GroebnerBasis:
    """A reduced Groebner basis of <generators> with exact cofactors.

    elements[k] == sum_i cofactors[k][i] * generators[i]; lts[k] is the
    leading term of elements[k], taken once for every division.
    """
    generators: list[Polynomial]
    elements: list[Polynomial]
    cofactors: list[list[Polynomial]]
    lts: list[tuple[Monomial, Fraction]] = field(init=False, repr=False)

    def __post_init__(self):
        self.lts = [leading_term(e) for e in self.elements]

    def normal_form(self, g: Polynomial) -> Polynomial:
        _, r = divide(g, self.elements, self.lts)
        return r

    def normal_form_with_quotients(self, g: Polynomial
                                   ) -> tuple[Polynomial, list[Polynomial]]:
        """Return (r, a) with g = r + sum_i a_i * generators[i]."""
        qs, r = divide(g, self.elements, self.lts)
        zeros = [Polynomial.zero(g.names, g.mode)] * len(self.generators)
        return r, _combined_row(zeros, qs, self.cofactors)

    def contains_one(self) -> bool:
        return any(not any(lm) for lm, _ in self.lts)

    def leading_monomials(self) -> list[Monomial]:
        return [lm for lm, _ in self.lts]


def groebner_basis(generators: list[Polynomial]) -> GroebnerBasis:
    """Buchberger's algorithm with the Gebauer-Moeller criteria and sugar
    selection, then interreduction.  Exact over the rationals.

    Raises ComputeError when more than MAX_S_PAIRS S-pairs would have to
    be reduced.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    names, mode = gens[0].names, gens[0].mode
    if mode != "poly":
        raise PolyError("Groebner bases require polynomial (non-Laurent) mode")

    basis: list[Polynomial] = []
    cofs: list[list[Polynomial]] = []
    lts: list[tuple[Monomial, Fraction]] = []  # leading term of each element
    sugars: list[int] = []
    # heap of (sugar, degree of lcm, order key of lcm, i, j): the pair of
    # least sugar is reduced first, then the one with the smallest lcm, ties
    # broken by index.  ``live`` maps each queued pair to its lcm; a pair
    # that criterion B_k drops leaves it and is skipped when popped.
    heap: list = []
    live: dict[tuple[int, int], Monomial] = {}

    def add(g: Polynomial, row: list[Polynomial], sugar: int) -> None:
        lm, lc = leading_term(g)
        new = len(basis)
        # criterion B_k: drop a queued pair (i, j) whose lcm lm divides,
        # unless lcm(lm_i, lm) or lcm(lm_j, lm) equals it; its S-polynomial
        # then follows from those of (i, new) and (j, new)
        for (i, j), lcm in list(live.items()):
            if (_divides(lm, lcm) and _lcm(lts[i][0], lm) != lcm
                    and _lcm(lts[j][0], lm) != lcm):
                del live[i, j]
        cands = [(_lcm(lm, lmk), k) for k, (lmk, _) in enumerate(lts)]
        # criterion M: drop a new pair whose lcm another one's properly divides
        lcms = {lcm for lcm, _ in cands}
        kept: dict[Monomial, int] = {}
        coprime: set[Monomial] = set()
        for lcm, k in cands:
            if any(o != lcm and _divides(o, lcm) for o in lcms):
                continue
            # criterion F: one pair per lcm; Buchberger's product criterion
            # drops the whole class when one of its pairs is coprime
            if lcm == tuple(a + b for a, b in zip(lm, lts[k][0])):
                coprime.add(lcm)
            kept.setdefault(lcm, k)
        d = sum(lm)
        for lcm, k in kept.items():
            if lcm in coprime:
                continue
            dl = sum(lcm)
            pair_sugar = max(sugar + dl - d, sugars[k] + dl - sum(lts[k][0]))
            heapq.heappush(heap, (pair_sugar, dl, grevlex_key(lcm), new, k))
            live[new, k] = lcm
        basis.append(g)
        cofs.append(row)
        lts.append((lm, lc))
        sugars.append(sugar)

    for i, g in enumerate(gens):
        if not g.is_zero():
            add(g, [Polynomial.constant(1 if j == i else 0, names, mode)
                    for j in range(len(gens))], max(map(sum, g.coeffs)))
    if not basis:
        raise ValueError("all generators are zero")

    reductions = 0
    while heap:
        sugar, _, _, i, j = heapq.heappop(heap)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue  # dropped by criterion B_k
        if reductions == MAX_S_PAIRS:
            raise ComputeError(
                f"Groebner basis unfinished after reducing {MAX_S_PAIRS} "
                f"S-pairs ({len(live) + 1} still queued, {len(basis)} elements)")
        reductions += 1
        (lmi, lci), (lmj, lcj) = lts[i], lts[j]
        ti = Polynomial.monomial(_quot(lcm, lmi), Fraction(1) / lci, names, mode)
        tj = Polynomial.monomial(_quot(lcm, lmj), Fraction(1) / lcj, names, mode)
        s = ti * basis[i] - tj * basis[j]
        qs, r = divide(s, basis, lts)
        if r.is_zero():
            continue
        # most S-polynomials reduce to zero: form cofactors only for the rest
        cof_s = _combined_row([ti * a - tj * b for a, b in zip(cofs[i], cofs[j])],
                              [-q for q in qs], cofs)
        _, lc = leading_term(r)
        inv = Fraction(1) / lc
        add(r * inv, [a * inv for a in cof_s], sugar)

    # minimalize: keep only elements whose LM no kept LM divides
    by_lm = sorted(range(len(basis)), key=lambda k: grevlex_key(lts[k][0]))
    keep: list[int] = []
    for k in by_lm:
        if not any(_divides(lts[t][0], lts[k][0]) for t in keep):
            keep.append(k)
    basis = [basis[k] for k in keep]
    cofs = [cofs[k] for k in keep]
    lts = [lts[k] for k in keep]

    # full reduction against the others; each remainder keeps its leading
    # term, and the kept elements are already in increasing order
    reduced: list[Polynomial] = []
    reduced_cofs: list[list[Polynomial]] = []
    for k in range(len(basis)):
        qs, r = divide(basis[k], basis[:k] + basis[k + 1:], lts[:k] + lts[k + 1:])
        cof_r = _combined_row(cofs[k], [-q for q in qs], cofs[:k] + cofs[k + 1:])
        inv = Fraction(1) / lts[k][1]
        reduced.append(r * inv)
        reduced_cofs.append([a * inv for a in cof_r])
    return GroebnerBasis(gens, reduced, reduced_cofs)


# -- Milnor ring data ---------------------------------------------------------


@dataclass
class MilnorRing:
    """Finite data of C[z]/(partial derivatives of f).

    mu is math.inf when the critical locus is positive-dimensional; then
    basis and socle are None.  mu == 0 means no critical points at all
    (the gradient ideal is the whole ring).
    """
    f: Polynomial
    gb: GroebnerBasis
    mu: float  # int in the finite case, math.inf otherwise
    basis: list[Monomial] | None
    weights: WeightSystem | None
    socle: Monomial | None = None
    residue_scale: Fraction | None = None  # mu / (socle coeff of the Hessian)
    _index: dict[Monomial, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.basis is not None:
            self._index = {m: k for k, m in enumerate(self.basis)}

    # vector-space coordinates ------------------------------------------------

    def vector(self, nf: Polynomial) -> list[Fraction]:
        """Coordinates of a normal form on the monomial basis: the one map
        from normal forms to coordinate vectors."""
        if self.basis is None:
            raise ValueError("quotient is infinite-dimensional")
        vec = [0] * len(self.basis)
        for m, c in nf.coeffs.items():
            k = self._index.get(m)
            if k is None:
                raise ComputeError(f"normal form leaves the basis span at {m}")
            vec[k] = c
        return vec

    def coords(self, g: Polynomial) -> list[Fraction]:
        """Coordinates of [g] in the monomial basis (reduces first)."""
        return self.vector(self.normal_form(g))

    def normal_form(self, g: Polynomial) -> Polynomial:
        return self.gb.normal_form(g)

    def reduce_with_quotients(self, g: Polynomial) -> tuple[Polynomial, list[Polynomial]]:
        """g = r + sum_i a_i * d_i f with r in normal form; returns (r, a)."""
        return self.gb.normal_form_with_quotients(g)

    def multiplication_matrix(self, g: Polynomial) -> list[list[Fraction]]:
        """Matrix of multiplication by g in the monomial basis (columns act
        on basis elements)."""
        if self.basis is None:
            raise ValueError("quotient is infinite-dimensional")
        names, mode = self.f.names, self.f.mode
        cols = []
        for m in self.basis:
            col = self.coords(g * Polynomial.monomial(m, 1, names, mode))
            cols.append(col)
        # transpose: entry [i][j] = coefficient of basis[i] in g*basis[j]
        n = len(self.basis)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def socle_index(self) -> int:
        """Position of the socle in the basis: the one check that the
        residue functional exists."""
        if self.socle is None:
            raise PrecondError("residue needs a one-dimensional socle "
                               "(finite mu and graded top degree)")
        return self._index[self.socle]

    def residue(self, g: Polynomial) -> Fraction:
        """Total Grothendieck residue of g dz / (d_1 f ... d_n f).

        Normalized by residue(hessian) = mu.  The functional kills every
        basis monomial except the socle, so it reads off the socle
        coefficient of the normal form.
        """
        return self.coords(g)[self.socle_index()] * self.residue_scale


def _standard_monomials(lead_monos: list[Monomial], nvars: int) -> list[Monomial] | None:
    """All monomials outside <lead_monos>, or None if infinitely many."""
    bounds = [None] * nvars
    for lm in lead_monos:
        nz = [i for i, e in enumerate(lm) if e > 0]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
        if not nz:
            return []  # 1 is in the ideal
    if any(b is None for b in bounds):
        return None
    out = []
    for m in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(lm, m) for lm in lead_monos):
            out.append(m)
    return out


def milnor_ring(f: Polynomial) -> MilnorRing:
    """Compute the quotient by the gradient ideal of f.

    The monomial basis is sorted by (weighted degree if f is
    quasi-homogeneous else total degree, then reverse-lex), so the
    constant monomial comes first and the socle last.
    """
    if f.mode != "poly":
        raise PolyError("milnor_ring requires polynomial mode")
    grads = f.gradient()
    if all(g.is_zero() for g in grads):
        raise PrecondError("f is constant: there is no critical locus")
    gb = groebner_basis(grads)
    weights = infer_weights(f)
    lms = gb.leading_monomials()
    basis = _standard_monomials(lms, f.nvars)
    if basis is None:
        return MilnorRing(f, gb, math.inf, None, weights)
    if not basis:
        return MilnorRing(f, gb, 0, [], weights)

    if weights is not None:
        def deg(m):
            return weights.degree(m)
    else:
        def deg(m):
            return Fraction(sum(m))
    basis.sort(key=lambda m: (deg(m), tuple(-e for e in m)))
    mu = len(basis)

    # socle: unique basis monomial of maximal degree, when unique
    top = deg(basis[-1])
    tops = [m for m in basis if deg(m) == top]
    hess_c = 0
    if len(tops) == 1:
        hess_c = gb.normal_form(hessian_det(f)).coeffs.get(tops[0], 0)
    if hess_c == 0:
        return MilnorRing(f, gb, mu, basis, weights)
    return MilnorRing(f, gb, mu, basis, weights, tops[0],
                      canon(Fraction(mu) / hess_c))
