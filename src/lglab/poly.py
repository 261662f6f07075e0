"""Sparse multivariate (Laurent) polynomials over exact rationals.

A monomial is a tuple of signed integer exponents, one slot per variable.
A polynomial is a finite map monomial -> rational with no explicit zero
entries, each rational in the canonical form of ``util.canon``: an
``int`` when integral, else a ``Fraction`` with a denominator above 1.
Two ring modes exist: ``"poly"`` restricts exponents to be nonnegative,
``"laurent"`` allows negative exponents.

The binary operators take a ``Polynomial`` or a rational scalar (``int``
or ``Fraction``), which stands for a constant polynomial.  They test
``type(other) is Polynomial`` before the scalar ``isinstance``: ``Fraction``
derives from the abstract ``numbers.Rational``, so testing a polynomial
against it would go through ``ABCMeta.__instancecheck__`` on every
product and sum of two polynomials.

The text grammar accepted by :func:`parse_polynomial`, read left to
right with whitespace ignored:

    expr   := '-'* term (('+'|'-') '-'* term)*
    term   := factor (['*'] factor | '/' int)*
    factor := int | name ['^' ['-'] int]

``/`` always divides by the next nonzero integer, so ``x/2/3`` is x/6,
``1/2x`` is x/2 and ``x/y`` is rejected.  A missing ``*`` means a product
(``3x``, ``x y``).  Negative exponents need Laurent mode.  Text outside
the grammar raises :class:`PolyError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .util import canon, cofactor_det, rref

Monomial = tuple[int, ...]


class PolyError(ValueError):
    """Malformed input or an operation outside the declared ring mode."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _coefficient(c):
    """A caller's rational coefficient in canonical form."""
    return canon(c if type(c) in (int, Fraction) else Fraction(c))


def _checked_mode(mode: str) -> str:
    if mode not in ("poly", "laurent"):
        raise PolyError(f"unknown ring mode {mode!r}")
    return mode


class Polynomial:
    """Immutable-by-convention sparse polynomial over the rationals.

    Canonical form: ``coeffs`` maps int tuples of length ``nvars`` to
    nonzero rationals, each an ``int`` when integral and otherwise a
    ``Fraction``, with no negative exponent in ``"poly"`` mode.  The
    public constructor validates and normalizes any mapping into that
    form; the arithmetic operators combine operands that already are in
    it, so they build their results through ``_trusted``, drop the
    coefficients that cancel and turn integral Fractions into ints.
    ``canon`` leaves a non-rational coefficient alone, so a polynomial
    built through ``_trusted`` with complex coefficients keeps them.
    """

    __slots__ = ("coeffs", "names", "mode")

    def __init__(self, coeffs: Mapping[Monomial, Fraction], names: tuple[str, ...],
                 mode: str = "poly"):
        _checked_mode(mode)
        clean: dict[Monomial, Fraction | int] = {}
        for m, c in coeffs.items():
            c = _coefficient(c)
            if c == 0:
                continue
            m = tuple(int(e) for e in m)
            if len(m) != len(names):
                raise PolyError("exponent tuple length does not match variable count")
            if mode == "poly" and any(e < 0 for e in m):
                raise PolyError(f"negative exponent {m} in polynomial mode")
            clean[m] = clean.get(m, 0) + c
        self.coeffs = {m: canon(c) for m, c in clean.items() if c != 0}
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
        c = _coefficient(c)
        return cls._trusted({(0,) * len(names): c} if c else {}, names,
                            _checked_mode(mode))

    @classmethod
    def variable(cls, i: int, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        names = tuple(names)
        if not 0 <= i < len(names):
            raise PolyError(f"variable index {i} out of range for {len(names)} variables")
        m = (0,) * i + (1,) + (0,) * (len(names) - i - 1)
        return cls._trusted({m: 1}, names, _checked_mode(mode))

    @classmethod
    def monomial(cls, m: Monomial, c, names: tuple[str, ...], mode: str = "poly") -> "Polynomial":
        names = tuple(names)
        m = tuple(int(e) for e in m)
        if len(m) != len(names):
            raise PolyError("exponent tuple length does not match variable count")
        if _checked_mode(mode) == "poly" and any(e < 0 for e in m):
            raise PolyError(f"negative exponent {m} in polynomial mode")
        c = _coefficient(c)
        return cls._trusted({m: c} if c else {}, names, mode)

    # -- ring structure ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction | int:
        return self.coeffs.get(tuple(0 for _ in self.names), 0)

    def _check_compat(self, other: "Polynomial") -> str:
        if self.names != other.names:
            raise PolyError("mixing polynomials over different variable tuples")
        return "laurent" if "laurent" in (self.mode, other.mode) else "poly"

    def __add__(self, other):
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.names, self.mode)
        mode = self._check_compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            if m in out:
                c += out[m]
                if c:
                    out[m] = canon(c)
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
        # the values and key order of self + (-other), in one loop
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.names, self.mode)
        mode = self._check_compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            if m in out:
                c = out[m] - c
                if c:
                    out[m] = canon(c)
                else:
                    del out[m]
            else:
                out[m] = -c
        return Polynomial._trusted(out, self.names, mode)

    def __rsub__(self, other):
        return (self.__neg__()).__add__(other)

    def __mul__(self, other):
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            out = {m: canon(c * v) for m, v in self.coeffs.items()} if c else {}
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
        return Polynomial._trusted({m: canon(c) for m, c in out.items() if c},
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
        return Polynomial._trusted({m: canon(c) for m, c in out.items() if c},
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
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(other, self.names, self.mode)
            elif not isinstance(other, Polynomial):
                return NotImplemented
        return self.names == other.names and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.coeffs.items()))))

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        # m -> m - e_i is injective and a poly-mode term with m[i] > 0 keeps
        # its exponents nonnegative, so the result is canonical as built; an
        # int times the exponent is an int, so only other products go to canon
        out: dict[Monomial, Fraction] = {}
        for m, c in self.coeffs.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e if type(c) is int else canon(c * e)
        return Polynomial._trusted(out, self.names, self.mode)

    def theta(self, i: int) -> "Polynomial":
        """Logarithmic derivative z_i * d/dz_i (exponent-preserving)."""
        return Polynomial._trusted({m: canon(c * m[i]) for m, c in self.coeffs.items()
                                    if m[i]}, self.names, self.mode)

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
        return Polynomial._trusted({m: canon(c) for m, c in out.items() if c},
                                   names, "poly")

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

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*/^])|(?P<bad>\S)")


class _Parser:
    """Recursive descent over the grammar in the module docstring; ``index``
    maps each usable name to its slot in the ``nvars`` exponents of a term."""

    def __init__(self, toks: list, index: dict[str, int], nvars: int, mode: str):
        self.toks, self.pos = toks, 0
        self.index, self.nvars, self.mode = index, nvars, mode

    def peek(self) -> tuple[str, str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", "")

    def accept(self, op: str) -> bool:
        found = self.peek() == ("op", op)
        self.pos += found
        return found

    def take(self, kind: str, what: str) -> str:
        found, val = self.peek()
        if found != kind:
            raise PolyError(f"expected {what}, found {repr(val) if val else 'the end'}")
        self.pos += 1
        return val

    def expr(self) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        sign = 1
        while sign:
            while self.accept("-"):
                sign = -sign
            c, m = self.term()
            out[m] = out.get(m, 0) + sign * c
            sign = 1 if self.accept("+") else -1 if self.accept("-") else 0
        if self.pos < len(self.toks):
            raise PolyError(f"unexpected {self.peek()[1]!r}")
        return out

    def term(self) -> tuple[Fraction, Monomial]:
        expo = [0] * self.nvars
        num, den = self.factor(expo), 1
        while True:
            if self.accept("/"):
                den *= int(self.take("int", "an integer after '/'"))
                if den == 0:
                    raise PolyError("division by zero")
            elif self.accept("*") or self.peek()[0] in ("int", "name"):
                num *= self.factor(expo)
            else:
                return Fraction(num, den), tuple(expo)

    def factor(self, expo: list[int]) -> int:
        """Read one factor: return a number, or add a power to ``expo`` and
        return 1."""
        kind, val = self.peek()
        if kind == "int":
            self.pos += 1
            return int(val)
        name = self.take("name", "a number or a variable")
        if name not in self.index:
            raise PolyError(f"unknown variable {name!r}; declared: {tuple(self.index)}")
        e = 1
        if self.accept("^"):
            e = -1 if self.accept("-") else 1
            e *= int(self.take("int", "an integer exponent after '^'"))
        if e < 0 and self.mode == "poly":
            raise PolyError(f"negative exponent on {name!r} requires laurent mode")
        expo[self.index[name]] += e
        return 1


def parse_polynomial(text: str, names: Iterable[str] | None = None,
                     laurent: bool = False) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    When ``names`` is None the variables are inferred in order of first
    appearance.  A name outside a given ``names``, or a name given twice,
    is an error.  Without any variable the polynomial lives over ``("z",)``.
    """
    # no rule reads a "bad" token, so a stray character ends in a PolyError
    toks = [(m.lastgroup, m.group()) for m in _TOKEN.finditer(text)]
    if names is None:
        names = dict.fromkeys(val for kind, val in toks if kind == "name")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise PolyError(f"variable names repeat: {names}")
    mode = "laurent" if laurent else "poly"
    final = names or ("z",)
    parser = _Parser(toks, {nm: i for i, nm in enumerate(names)}, len(final), mode)
    return Polynomial(parser.expr(), final, mode)


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
    range.  Exact Gaussian elimination over the rationals.
    """
    if f.is_zero():
        return None
    n = f.nvars
    red, pivots = rref([list(m) + [1] for m in f.coeffs])
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
