"""Polyvector fields, the u-deformed complex, and residue pairings.

The algebraic model: coefficients are polynomials, the antiholomorphic
differential acts as zero, and the twisted differential on polyvector
fields is contraction with the gradient one-form.  The second operator
is the divergence with respect to the standard holomorphic volume form
``dz_1 ^ ... ^ dz_n``; both are conjugates of form-level operators under
the volume-contraction isomorphism (the sign conventions below are
validated against a direct form-level implementation in the test suite).

On top of the complex:

- ``BrieskornLattice.reduce`` rewrites a function class as a u-power
  series supported on the Milnor monomial basis;
  ``reduce_with_certificate`` also returns an exact certificate for the
  discarded coboundary;
- ``pairing`` is the u-series extension of the Grothendieck residue
  pairing, sesquilinear in the sense that the second argument's u-series
  is evaluated at -u;
- ``connection`` is the covariant derivative along u d/du, acting as
  u d/du - (1/u) * (multiplication by f) on reduced classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import MilnorRing, milnor_ring
from .poly import Monomial, Polynomial
from .util import ComputeError, PrecondError, canon, exact_rank, frac_str

# -- polyvector fields ---------------------------------------------------------

Index = tuple[int, ...]  # strictly increasing variable indices


class PVField:
    """Sum over index sets I of (polynomial coefficient) * wedge of
    coordinate vector fields indexed by I.  Functions live at I = ()."""

    __slots__ = ("parts", "names")

    def __init__(self, parts: dict[Index, Polynomial], names: tuple[str, ...]):
        clean = {}
        for I, p in parts.items():
            I = tuple(I)
            if any(a >= b for a, b in zip(I, I[1:])):
                raise ValueError(f"index set {I} not strictly increasing")
            if not p.is_zero():
                clean[I] = p
        self.parts = clean
        self.names = tuple(names)

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, names) -> "PVField":
        return cls({}, names)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "PVField":
        return cls({(): p}, p.names)

    @classmethod
    def generator(cls, I: Index, p: Polynomial) -> "PVField":
        return cls({tuple(I): p}, p.names)

    # structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def homogeneous_piece(self, size: int) -> "PVField":
        return PVField({I: p for I, p in self.parts.items() if len(I) == size},
                       self.names)

    def function_part(self) -> Polynomial:
        return self.parts.get((), Polynomial.zero(self.names))

    def __add__(self, other: "PVField") -> "PVField":
        out = dict(self.parts)
        for I, p in other.parts.items():
            out[I] = out[I] + p if I in out else p
        return PVField(out, self.names)

    def __sub__(self, other: "PVField") -> "PVField":
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "PVField":
        if isinstance(scalar, Polynomial):
            return PVField({I: p * scalar for I, p in self.parts.items()}, self.names)
        c = Fraction(scalar)
        return PVField({I: p * c for I, p in self.parts.items()}, self.names)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PVField) and self.names == other.names \
            and self.parts == other.parts

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for I in sorted(self.parts, key=lambda I: (len(I), I)):
            p = self.parts[I]
            gens = "^".join(f"d/d{self.names[i]}" for i in I)
            bits.append(f"({p})" + (f"*{gens}" if gens else ""))
        return " + ".join(bits)

    __repr__ = __str__


def _merge_sign(I: Index, J: Index) -> int:
    """Koszul sign for sorting the concatenation I+J (disjoint)."""
    inversions = sum(1 for i in I for j in J if i > j)
    return -1 if inversions % 2 else 1


def wedge(a: PVField, b: PVField) -> PVField:
    out: dict[Index, Polynomial] = {}
    for I, p in a.parts.items():
        for J, q in b.parts.items():
            if set(I) & set(J):
                continue
            K = tuple(sorted(I + J))
            term = p * q * _merge_sign(I, J)
            out[K] = out[K] + term if K in out else term
    return PVField(out, a.names)


def contract_gradient(f: Polynomial, v: PVField) -> PVField:
    """Contraction with the gradient one-form: the twisted differential
    of the algebraic model.  Raises total degree by one; squares to zero."""
    grads = f.gradient()
    out: dict[Index, Polynomial] = {}
    for I, p in v.parts.items():
        for t, i in enumerate(I):
            J = I[:t] + I[t + 1:]
            term = p * grads[i]
            if t % 2:
                term = term * Fraction(-1)
            out[J] = out[J] + term if J in out else term
    return PVField(out, v.names)


def divergence(v: PVField) -> PVField:
    """Divergence against the standard holomorphic volume form."""
    out: dict[Index, Polynomial] = {}
    for I, p in v.parts.items():
        for t, i in enumerate(I):
            J = I[:t] + I[t + 1:]
            term = p.diff(i)
            if t % 2:
                term = term * Fraction(-1)
            out[J] = out[J] + term if J in out else term
    return PVField(out, v.names)


def bv_bracket(a: PVField, b: PVField) -> PVField:
    """Failure of the divergence to be a derivation of the wedge product:
    bracket(a, b) = div(a^b) - div(a)^b - (-1)^{|a|} a^div(b), extended
    bilinearly from pieces of pure degree."""
    total = PVField.zero(a.names)
    for size in {len(I) for I in a.parts}:
        ah = a.homogeneous_piece(size)
        sign = Fraction(-1) if size % 2 else Fraction(1)
        term = divergence(wedge(ah, b)) - wedge(divergence(ah), b) \
            - sign * wedge(ah, divergence(b))
        total = total + term
    return total


# -- u-power series of polyvector fields ----------------------------------------


@dataclass
class USeriesPV:
    """Finite u-power series with PVField coefficients, truncated at order N."""
    coeffs: dict[int, PVField]
    order: int
    names: tuple[str, ...]

    def __post_init__(self):
        self.coeffs = {k: v for k, v in self.coeffs.items()
                       if k <= self.order and not v.is_zero()}

    @classmethod
    def zero(cls, names, order) -> "USeriesPV":
        return cls({}, order, names)

    def __add__(self, other: "USeriesPV") -> "USeriesPV":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return USeriesPV(out, order, self.names)

    def __sub__(self, other: "USeriesPV") -> "USeriesPV":
        neg = USeriesPV({k: v * Fraction(-1) for k, v in other.coeffs.items()},
                        other.order, other.names)
        return self + neg

    def is_zero(self) -> bool:
        return not self.coeffs


def twisted_differential(f: Polynomial, s: USeriesPV) -> USeriesPV:
    """Apply contraction-with-gradient + u * divergence, truncating."""
    out: dict[int, PVField] = {}

    def acc(k, v):
        if k <= s.order and not v.is_zero():
            out[k] = out[k] + v if k in out else v

    for k, v in s.coeffs.items():
        acc(k, contract_gradient(f, v))
        acc(k + 1, divergence(v))
    return USeriesPV(out, s.order, s.names)


# -- the lattice ---------------------------------------------------------------


@dataclass
class LatticeElement:
    """u-series of coordinate vectors over the Milnor monomial basis, with
    entries in canonical form.

    Keys below zero only appear transiently inside the connection."""
    coords: dict[int, tuple[Fraction, ...]]
    order: int

    def __post_init__(self):
        self.coords = {k: tuple(map(canon, v)) for k, v in self.coords.items()
                       if k <= self.order and any(x != 0 for x in v)}

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        order = min(self.order, other.order)
        out = {k: list(v) for k, v in self.coords.items()}
        for k, v in other.coords.items():
            if k in out:
                out[k] = [a + b for a, b in zip(out[k], v)]
            else:
                out[k] = list(v)
        return LatticeElement({k: tuple(v) for k, v in out.items()}, order)

    def __mul__(self, c) -> "LatticeElement":
        c = canon(Fraction(c))
        return LatticeElement({k: tuple(c * x for x in v)
                               for k, v in self.coords.items()}, self.order)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1

    def is_zero(self) -> bool:
        return not self.coords

    def min_power(self) -> int:
        return min(self.coords, default=0)


@dataclass
class PairingSeries:
    """Rational u-power series value of the residue pairing, with
    coefficients in canonical form."""
    coeffs: dict[int, Fraction]
    order: int

    def __post_init__(self):
        self.coeffs = {k: canon(Fraction(v)) for k, v in self.coeffs.items()
                       if k <= self.order and v != 0}

    def __add__(self, other):
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return PairingSeries(out, order)

    def __eq__(self, other):
        if not isinstance(other, PairingSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = {k: v for k, v in self.coeffs.items() if k <= n}
        b = {k: v for k, v in other.coeffs.items() if k <= n}
        return a == b

    def at_negated_u(self) -> "PairingSeries":
        return PairingSeries({k: (v if k % 2 == 0 else -v)
                              for k, v in self.coeffs.items()}, self.order)

    def residue_part(self) -> Fraction:
        return self.coeffs.get(0, 0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            c = frac_str(self.coeffs[k])
            bits.append(c if k == 0 else (f"({c})*u" if k == 1 else f"({c})*u^{k}"))
        return " + ".join(bits)


class BrieskornLattice:
    """Reduction, residue pairing, and u-connection for one superpotential.

    Requires a finite Milnor number; quasi-homogeneity is not required
    for reduction but is for the residue-based pairing.
    """

    DEGREE_CAP = 200  # guard against runaway carries for pathological inputs

    def __init__(self, f: Polynomial, order: int = 8):
        if order < 0:
            raise PrecondError("truncation order must be nonnegative")
        self.f = f
        self.order = order
        self.ring: MilnorRing = milnor_ring(f)
        if self.ring.basis is None:
            raise PrecondError("positive-dimensional critical locus: "
                               "no finite lattice model")
        self.mu = self.ring.mu
        self._units = [tuple(int(i == p) for i in range(self.mu))
                       for p in range(self.mu)]
        # residue series per product monomial: many basis pairs share one
        self._pair_table: dict[Monomial, dict[int, Fraction]] = {}

    # -- reduction --------------------------------------------------------

    def reduce(self, g, order: int | None = None) -> LatticeElement:
        return self._reduce(g, order, certify=False)[0]

    def reduce_with_certificate(self, g, order: int | None = None
                                ) -> tuple[LatticeElement, USeriesPV]:
        """Rewrite a function-valued u-series as coordinates on the Milnor
        basis plus an exact coboundary certificate.

        Accepts a Polynomial or a dict {u-power: Polynomial}.  Returns
        (element, eta) with::

            input - (contraction + u*divergence)(eta) == element

        as u-series of functions, exactly, up to the truncation order.
        """
        return self._reduce(g, order, certify=True)

    def _reduce(self, g, order: int | None, certify: bool
                ) -> tuple[LatticeElement, USeriesPV | None]:
        """The reduction loop; the certificate eta is built only when asked
        for, and is None otherwise."""
        N = self.order if order is None else order
        series = self._coerce_series(g, N)
        names = self.f.names
        cert: dict[int, PVField] = {}
        out: dict[int, tuple[Fraction, ...]] = {}
        work = dict(series)
        for k in range(0, N + 1):
            gk = work.get(k)
            if gk is None or gk.is_zero():
                continue
            if gk.total_degree() > self.DEGREE_CAP:
                raise ComputeError("reduction carries exceed the degree cap")
            nf, quot = self.ring.reduce_with_quotients(gk)
            # each u-power is reduced once, so out[k] is set here only
            if not nf.is_zero():
                out[k] = tuple(self.ring.vector(nf))
            if certify:
                eta_k = PVField({(i,): quot[i] for i in range(len(names))}, names)
                if not eta_k.is_zero():
                    cert[k] = cert[k] + eta_k if k in cert else eta_k
            carry = Polynomial.zero(names)
            for i in range(len(names)):
                carry = carry + quot[i].diff(i)
            if not carry.is_zero() and k + 1 <= N:
                work[k + 1] = work.get(k + 1, Polynomial.zero(names)) - carry
        return (LatticeElement(out, N),
                USeriesPV(cert, N, names) if certify else None)

    def _coerce_series(self, g, N: int) -> dict[int, Polynomial]:
        if isinstance(g, Polynomial):
            return {0: g}
        if isinstance(g, dict):
            return {int(k): v for k, v in g.items() if k <= N}
        raise TypeError(f"cannot reduce object of type {type(g).__name__}")

    def to_polynomial_series(self, el: LatticeElement) -> dict[int, Polynomial]:
        names = self.f.names
        out = {}
        for k, vec in el.coords.items():
            p = Polynomial.zero(names)
            for c, m in zip(vec, self.ring.basis):
                if c != 0:
                    p = p + Polynomial.monomial(m, c, names)
            out[k] = p
        return out

    def basis_element(self, p: int) -> LatticeElement:
        return LatticeElement({0: self._units[p]}, self.order)

    # -- residue pairing ---------------------------------------------------

    def _basis_product_residues(self, p: int, q: int) -> dict[int, Fraction]:
        """Residue u-series of the reduced product of basis monomials p, q.

        The residue kills every basis monomial but the socle, whose residue
        is mu / h (h the socle coefficient of the Hessian), so each u-power
        contributes its socle coordinate times mu / h."""
        sigma = self.ring.socle_index()
        key = tuple(a + b for a, b in zip(self.ring.basis[p],
                                          self.ring.basis[q]))
        if key not in self._pair_table:
            prod = Polynomial.monomial(key, 1, self.f.names)
            red = self.reduce(prod, self.order + 2)
            self._pair_table[key] = {
                k: canon(vec[sigma] * self.ring.residue_scale)
                for k, vec in red.coords.items() if vec[sigma]}
        return self._pair_table[key]

    def pairing(self, a, b) -> PairingSeries:
        """u-series residue pairing to the lattice order; the second
        argument enters through its series at -u.  Polynomial inputs are
        reduced first: the pairing is defined on lattice classes, not raw
        representatives."""
        self.ring.socle_index()
        N = self.order
        ea = a if isinstance(a, LatticeElement) else self.reduce(a, N)
        eb = b if isinstance(b, LatticeElement) else self.reduce(b, N)
        out: dict[int, Fraction] = {}
        nonzero_b = [(k, [(q, c) for q, c in enumerate(vb) if c])
                     for k, vb in eb.coords.items()]
        for j, va in ea.coords.items():
            nonzero_a = [(p, c) for p, c in enumerate(va) if c]
            for k, nzb in nonzero_b:
                twist = -1 if k % 2 else 1
                for p, ca in nonzero_a:
                    for q, cb in nzb:
                        for t, r in self._basis_product_residues(p, q).items():
                            m = j + k + t
                            if m <= N:
                                out[m] = out.get(m, 0) + \
                                    twist * ca * cb * r
        return PairingSeries(out, N)

    def pairing_matrix(self) -> list[list[PairingSeries]]:
        """Pairings of the basis classes: the residue series of their
        reduced products, to the lattice order."""
        return [[PairingSeries(self._basis_product_residues(p, q), self.order)
                 for q in range(self.mu)] for p in range(self.mu)]

    def residue_matrix(self) -> list[list[Fraction]]:
        """The u^0 part of the pairing matrix: the Grothendieck residue pairing."""
        return [[self._basis_product_residues(p, q).get(0, 0)
                 for q in range(self.mu)] for p in range(self.mu)]

    def residue_matrix_rank(self) -> int:
        return exact_rank([[x for x in row] for row in self.residue_matrix()])

    # -- u-connection -------------------------------------------------------

    def connection(self, el: LatticeElement) -> LatticeElement:
        """Covariant derivative along u d/du: u d/du - (1/u) (mult by f),
        computed on reduced coordinates.  The result may pick up a u^{-1}
        term for non-quasi-homogeneous input classes."""
        scaled = LatticeElement({k: tuple(k * x for x in v)
                                 for k, v in el.coords.items()}, el.order)
        series = self.to_polynomial_series(el)
        f_times = {k: p * self.f for k, p in series.items()}
        red = self.reduce(f_times, el.order + 1)
        shifted = LatticeElement({k - 1: tuple(-x for x in v)
                                  for k, v in red.coords.items()}, el.order)
        return scaled + shifted

    def connection_matrix(self) -> list[list[PairingSeries]]:
        """Matrix of the connection on the basis classes, as u-series."""
        cols = []
        for p in range(self.mu):
            image = self.connection(self.basis_element(p))
            if image.min_power() < 0:
                raise ComputeError("connection leaves the non-negative lattice "
                                   "on this basis")
            cols.append(image)
        mat = []
        for i in range(self.mu):
            row = []
            for p in range(self.mu):
                coeffs = {k: v[i] for k, v in cols[p].coords.items() if v[i] != 0}
                row.append(PairingSeries(coeffs, self.order))
            mat.append(row)
        return mat

    def connection_spectrum(self) -> list[Fraction] | None:
        """Eigenvalues when the connection is u-free diagonal on the basis
        (the quasi-homogeneous case); None otherwise."""
        mat = self.connection_matrix()
        diag = []
        for i in range(self.mu):
            for j in range(self.mu):
                s = mat[i][j]
                if i == j:
                    if set(s.coeffs) - {0}:
                        return None
                    diag.append(s.residue_part())
                elif s.coeffs:
                    return None
        return diag

    # -- export -------------------------------------------------------------

    def describe(self) -> dict:
        data = {
            "variables": list(self.f.names),
            "milnor_number": self.mu,
            "monomial_basis": [self._mono_name(m) for m in self.ring.basis],
            "truncation_order": self.order,
            "residue_pairing_matrix": [[frac_str(x) for x in row]
                                       for row in self.residue_matrix()],
            "residue_pairing_rank": self.residue_matrix_rank(),
        }
        if self.ring.weights is not None:
            data["weights"] = [frac_str(q) for q in self.ring.weights.q]
        spectrum = self.connection_spectrum()
        if spectrum is not None:
            data["connection_eigenvalues"] = [frac_str(x) for x in spectrum]
        return data

    def _mono_name(self, m: Monomial) -> str:
        return str(Polynomial.monomial(m, 1, self.f.names))
