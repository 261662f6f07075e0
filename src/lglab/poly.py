"""Sparse multivariate (Laurent) polynomials over exact rationals.

A monomial is a tuple of signed integer exponents, one slot per variable.
A polynomial is a finite map monomial -> Fraction with no explicit zero
entries.  Two ring modes exist: ``"poly"`` restricts exponents to be
nonnegative, ``"laurent"`` allows negative exponents.

The text grammar accepted by :func:`parse_polynomial`:

    expr   :=  ['-'] term (('+'|'-') term)*
    term   :=  factor (('*'|'/') factor)*
    factor :=  rational | name ['^' int]

Rationals are ``p`` or ``p/q`` in lowest or any terms; a ``/`` inside a
term must be followed by a rational (``z^2/2`` is half of z^2, ``x/y``
is rejected).  Adjacency like ``3x`` is tolerated and means ``3*x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .util import cofactor_det, rref

Monomial = tuple[int, ...]


class PolyError(ValueError):
    """Malformed input or an operation outside the declared ring mode."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _checked_mode(mode: str) -> str:
    if mode not in ("poly", "laurent"):
        raise PolyError(f"unknown ring mode {mode!r}")
    return mode


class Polynomial:
    """Immutable-by-convention sparse polynomial over Fraction.

    Canonical form: ``coeffs`` maps int tuples of length ``nvars`` to
    nonzero Fractions, with no negative exponent in ``"poly"`` mode.  The
    public constructor validates and normalizes any mapping into that
    form; the arithmetic operators combine operands that already are in
    it, so they build their results through ``_trusted`` and only drop
    the coefficients that cancel.
    """

    __slots__ = ("coeffs", "names", "mode")

    def __init__(self, coeffs: Mapping[Monomial, Fraction], names: tuple[str, ...],
                 mode: str = "poly"):
        _checked_mode(mode)
        clean: dict[Monomial, Fraction] = {}
        for m, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            m = tuple(int(e) for e in m)
            if len(m) != len(names):
                raise PolyError("exponent tuple length does not match variable count")
            if mode == "poly" and any(e < 0 for e in m):
                raise PolyError(f"negative exponent {m} in polynomial mode")
            clean[m] = clean.get(m, Fraction(0)) + c
        self.coeffs = {m: c for m, c in clean.items() if c != 0}
        self.names = tuple(names)
        self.mode = mode

    @classmethod
    def _trusted(cls, coeffs: dict[Monomial, Fraction], names: tuple[str, ...],
                 mode: str) -> "Polynomial":
        """Wrap a dict that is already in canonical form, without copying
        or checking it."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        p.names = names
        p.mode = mode
        return p

    # -- constructors ------------------------------------------------------
    # Each builds one monomial or none, so it only converts the coefficient
    # and checks the exponent tuple before wrapping it through ``_trusted``.

    @classmethod
    def zero(cls, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        return cls._trusted({}, tuple(names), _checked_mode(mode))

    @classmethod
    def constant(cls, c, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        names = tuple(names)
        c = Fraction(c)
        return cls._trusted({(0,) * len(names): c} if c else {}, names,
                            _checked_mode(mode))

    @classmethod
    def variable(cls, i: int, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        names = tuple(names)
        if not 0 <= i < len(names):
            raise PolyError(f"variable index {i} out of range for {len(names)} variables")
        m = (0,) * i + (1,) + (0,) * (len(names) - i - 1)
        return cls._trusted({m: Fraction(1)}, names, _checked_mode(mode))

    @classmethod
    def monomial(cls, m: Monomial, c, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        names = tuple(names)
        m = tuple(int(e) for e in m)
        if len(m) != len(names):
            raise PolyError("exponent tuple length does not match variable count")
        if _checked_mode(mode) == "poly" and any(e < 0 for e in m):
            raise PolyError(f"negative exponent {m} in polynomial mode")
        c = Fraction(c)
        return cls._trusted({m: c} if c else {}, names, mode)

    # -- ring structure ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get(tuple(0 for _ in self.names), Fraction(0))

    def _check_compat(self, other: "Polynomial") -> str:
        if self.names != other.names:
            raise PolyError("mixing polynomials over different variable tuples")
        return "laurent" if "laurent" in (self.mode, other.mode) else "poly"

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.names, self.mode)
        mode = self._check_compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            if m in out:
                c += out[m]
                if c:
                    out[m] = c
                else:
                    del out[m]
            else:
                out[m] = c
        return Polynomial._trusted(out, self.names, mode)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._trusted({m: -c for m, c in self.coeffs.items()},
                                   self.names, self.mode)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.names, self.mode)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (self.__neg__()).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = {m: c * v for m, v in self.coeffs.items()} if c else {}
            return Polynomial._trusted(out, self.names, self.mode)
        mode = self._check_compat(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mono_mul(m1, m2)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
        # filtering once at the end keeps the insertion order of the
        # surviving monomials independent of transient cancellations
        return Polynomial._trusted({m: c for m, c in out.items() if c},
                                   self.names, mode)

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul_trunc(self, other: "Polynomial", nt: int) -> "Polynomial":
        """The product with every term of total degree above nt left out.

        Pairs of terms whose degrees add to more than nt are skipped rather
        than multiplied, so the result equals the full product truncated
        at nt, with its terms in the same order."""
        mode = self._check_compat(other)
        rhs = [(m, c, sum(m)) for m, c in other.coeffs.items()]
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            room = nt - sum(m1)
            for m2, c2, d2 in rhs:
                if d2 > room:
                    continue
                m = _mono_mul(m1, m2)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
        return Polynomial._trusted({m: c for m, c in out.items() if c},
                                   self.names, mode)

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative powers of polynomials are not defined; "
                            "use explicit Laurent monomials")
        out = Polynomial.constant(1, self.names, self.mode)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.names, self.mode)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.names == other.names and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.coeffs.items()))))

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        # m -> m - e_i is injective and a poly-mode term with m[i] > 0 keeps
        # its exponents nonnegative, so the result is canonical as built
        out: dict[Monomial, Fraction] = {}
        for m, c in self.coeffs.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return Polynomial._trusted(out, self.names, self.mode)

    def theta(self, i: int) -> "Polynomial":
        """Logarithmic derivative z_i * d/dz_i (exponent-preserving)."""
        return Polynomial._trusted({m: c * m[i] for m, c in self.coeffs.items() if m[i]},
                                   self.names, self.mode)

    def gradient(self) -> list["Polynomial"]:
        return [self.diff(i) for i in range(self.nvars)]

    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(m) for m in self.coeffs)

    def eval_complex(self, point) -> complex:
        """Evaluate at a tuple of complex numbers (Laurent-safe off the axes)."""
        total = 0j
        for m, c in self.coeffs.items():
            term = complex(c)
            for z, e in zip(point, m):
                if e:
                    term *= z ** e
            total += term
        return total

    def subs(self, values: list["Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for each variable (polynomial mode only)."""
        if self.mode != "poly":
            raise PolyError("substitution requires polynomial mode")
        names = values[0].names
        out = Polynomial.zero(names, values[0].mode)
        for m, c in self.coeffs.items():
            term = Polynomial.constant(c, names, values[0].mode)
            for v, e in zip(values, m):
                if e:
                    term = term * v ** e
            out = out + term
        return out

    def subs_trunc(self, values: list["Polynomial"], nt: int) -> "Polynomial":
        """``subs`` truncated at total degree nt, without forming the terms
        above it.

        The values must be polynomials, so that no degree drops in a
        product and every intermediate product may be truncated at nt.
        Each truncated power of a value is formed once and reused."""
        if self.mode != "poly" or any(v.mode != "poly" for v in values):
            raise PolyError("truncated substitution requires polynomial mode")
        names = values[0].names
        one = Polynomial.constant(1 if nt >= 0 else 0, names)
        powers = [[one] for _ in values]
        out: dict[Monomial, Fraction] = {}
        for m, c in self.coeffs.items():
            term = one
            for v, pw, e in zip(values, powers, m):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1].mul_trunc(v, nt))
                    term = pw[e] if term is one else term.mul_trunc(pw[e], nt)
            for m2, c2 in term.coeffs.items():
                out[m2] = out[m2] + c * c2 if m2 in out else c * c2
        return Polynomial._trusted({m: c for m, c in out.items() if c}, names, "poly")

    # -- printing ----------------------------------------------------------

    def _mono_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        def key(item):
            m, _ = item
            return (-sum(m), tuple(-e for e in m))
        chunks = []
        for m, c in sorted(self.coeffs.items(), key=key):
            ms = self._mono_str(m)
            if not ms:
                body = str(c if c > 0 else -c)
            else:
                a = c if c > 0 else -c
                body = ms if a == 1 else f"{a}*{ms}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self}, names={self.names}, mode={self.mode})"


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*/+-]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise PolyError(f"unexpected character at {tail[:10]!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                toks.append((kind, val))
                break
    return toks


def parse_polynomial(text: str, names: Iterable[str] | None = None,
                     laurent: bool = False) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    When ``names`` is None the variables are inferred in order of first
    appearance.  Unknown variables are an error when ``names`` is given.
    """
    toks = _tokenize(text)
    if not toks:
        raise PolyError("empty polynomial text")
    mode = "laurent" if laurent else "poly"
    inferred: list[str] = []
    fixed = None if names is None else tuple(names)

    def var_index(nm: str) -> int:
        if fixed is not None:
            try:
                return fixed.index(nm)
            except ValueError:
                raise PolyError(f"unknown variable {nm!r}; declared: {fixed}") from None
        if nm not in inferred:
            inferred.append(nm)
        return inferred.index(nm)

    # first pass when inferring: collect all names so exponent tuples have final width
    if fixed is None:
        for kind, val in toks:
            if kind == "name":
                var_index(val)
    final_names = fixed if fixed is not None else tuple(inferred)
    if not final_names:
        final_names = ("z",)
    nv = len(final_names)

    terms: list[tuple[Fraction, list[int]]] = []
    i = 0

    def parse_factor(idx, coeff, expo, dividing):
        kind, val = toks[idx]
        if kind == "num":
            num = int(val)
            # a '/' directly after a number inside a term is a rational
            if idx + 1 < len(toks) and toks[idx + 1] == ("op", "/") and \
               idx + 2 < len(toks) and toks[idx + 2][0] == "num":
                den = int(toks[idx + 2][1])
                if den == 0:
                    raise PolyError("zero denominator in rational")
                value = Fraction(num, den)
                idx += 3
            else:
                value = Fraction(num)
                idx += 1
            coeff = coeff / value if dividing else coeff * value
            return idx, coeff, expo
        if kind == "name":
            if dividing:
                raise PolyError("division by a variable is not part of the grammar")
            j = var_index(val)
            e = 1
            idx += 1
            if idx < len(toks) and toks[idx] == ("op", "^"):
                idx += 1
                sign = 1
                if idx < len(toks) and toks[idx] == ("op", "-"):
                    sign = -1
                    idx += 1
                if idx >= len(toks) or toks[idx][0] != "num":
                    raise PolyError("expected integer exponent after '^'")
                e = sign * int(toks[idx][1])
                idx += 1
            if e < 0 and mode == "poly":
                raise PolyError(f"negative exponent on {val!r} requires laurent mode")
            expo = list(expo)
            expo[j] += e
            return idx, coeff, expo
        raise PolyError(f"unexpected token {val!r}")

    sign = Fraction(1)
    expect_term = True
    coeff = Fraction(1)
    expo = [0] * nv
    started = False

    def flush():
        nonlocal coeff, expo, started, sign
        if started:
            terms.append((sign * coeff, expo))
        coeff = Fraction(1)
        expo = [0] * nv
        started = False

    while i < len(toks):
        kind, val = toks[i]
        if kind == "op" and val in "+-" and not expect_term:
            flush()
            sign = Fraction(1 if val == "+" else -1)
            expect_term = True
            i += 1
            continue
        if kind == "op" and val == "-" and expect_term:
            sign = -sign
            i += 1
            continue
        if kind == "op" and val in "*/":
            if not started:
                raise PolyError(f"term begins with {val!r}")
            i2, coeff, expo = parse_factor(i + 1, coeff, expo, dividing=(val == "/"))
            i = i2
            continue
        if kind in ("num", "name"):
            i, coeff, expo = parse_factor(i, coeff, expo, dividing=False)
            started = True
            expect_term = False
            continue
        raise PolyError(f"unexpected token {val!r}")
    if expect_term and not started:
        raise PolyError("dangling sign with no term")
    flush()

    out: dict[Monomial, Fraction] = {}
    for c, e in terms:
        m = tuple(e)
        out[m] = out.get(m, Fraction(0)) + c
    return Polynomial(out, final_names, mode)


# -- quasi-homogeneous weights ----------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """Rational weights q with 0 < q_i < 1, one per variable."""
    q: tuple[Fraction, ...]

    def __post_init__(self):
        for qi in self.q:
            if not (0 < qi < 1):
                raise PolyError(f"weight {qi} outside (0,1)")

    def degree(self, m: Monomial) -> Fraction:
        return sum(Fraction(e) * q for e, q in zip(m, self.q))


def infer_weights(f: Polynomial) -> WeightSystem | None:
    """Solve <alpha, q> = 1 over all monomials alpha of f.

    Returns the unique solution with every q_i in (0,1), or None when the
    linear system is inconsistent, underdetermined, or lands outside that
    range.  Exact Gaussian elimination over Fraction.
    """
    if f.is_zero():
        return None
    n = f.nvars
    red, pivots = rref([list(map(Fraction, m)) + [Fraction(1)] for m in f.coeffs])
    # a pivot in the right-hand column is an inconsistency, a missing one a
    # free weight: either way there is no unique solution
    if pivots != list(range(n)):
        return None
    try:
        return WeightSystem(tuple(red[i][n] for i in range(n)))
    except PolyError:
        return None


def hessian_det(f: Polynomial) -> Polynomial:
    """Determinant of the matrix of second partials, by cofactor expansion."""
    return cofactor_det([[f.diff(i).diff(j) for j in range(f.nvars)]
                         for i in range(f.nvars)])
