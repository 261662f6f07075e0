"""The canonical form of rationals across the exact half: an integral
value is an int and any other a Fraction with a denominator above 1, so
no float appears, not even where two integer coefficients divide.  Also
the operand dispatch of ``Polynomial``'s binary operators: a polynomial
operand takes no ABC instance check, and a scalar one gives what its
constant polynomial gives."""

import abc
import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lglab.brieskorn import BrieskornLattice
from lglab.groebner import divide, groebner_basis, leading_term
from lglab.poly import Polynomial, parse_polynomial
from lglab.util import exact_rank, invert_exact, rref, solve_exact


def _canonical(x) -> bool:
    return type(x) is int or type(x) is Fraction and x.denominator > 1


def _assert_coefficients_canonical(*polys):
    for p in polys:
        assert all(_canonical(c) and c != 0 for c in p.coeffs.values()), p.coeffs


def _assert_entries_canonical(rows):
    assert all(_canonical(x) for row in rows for x in row), rows


_NAMES = ("x", "y")
_INT = st.integers(-6, 6)
_NONZERO = _INT.filter(bool)


@st.composite
def _int_polys(draw, count, min_size=0):
    """``count`` polynomials in x, y with nonzero integer coefficients on
    at least ``min_size`` terms."""
    mono = st.tuples(*[st.integers(0, 3)] * len(_NAMES))
    return [Polynomial(draw(st.dictionaries(mono, _NONZERO, min_size=min_size,
                                            max_size=5)), _NAMES)
            for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(_int_polys(3), st.one_of(_INT, st.fractions(-3, 3, max_denominator=4)))
def test_every_coefficient_is_canonical(polys, c):
    p, q, v = polys
    _assert_coefficients_canonical(
        p + q, p - q, p * q, p * c, p + c, p ** 2, p.diff(0), p.theta(1),
        p.mul_trunc(q, 3), p.subs_trunc([q, v], 4), p.subs([q, v]),
        (p * Fraction(1, 2)) * 2, Polynomial.constant(c, _NAMES),
        Polynomial.monomial((1, 2), c, _NAMES), Polynomial.variable(0, _NAMES))


@settings(max_examples=60, deadline=None)
@given(_int_polys(1), _int_polys(2, min_size=1))
def test_division_by_non_monic_integer_divisors(dividend, divisors):
    (g,) = dividend
    divisors = [d * 2 if leading_term(d)[1] in (1, -1) else d for d in divisors]
    qs, r = divide(g, divisors, [leading_term(d) for d in divisors])
    _assert_coefficients_canonical(r, *qs)
    recon = r
    for q, d in zip(qs, divisors):
        recon = recon + q * d
    assert recon == g


@settings(max_examples=30, deadline=None)
@given(_int_polys(2, min_size=1), _int_polys(1))
def test_groebner_cofactors_and_normal_form_quotients(gens, dividend):
    gb = groebner_basis(gens)
    _assert_coefficients_canonical(*gb.elements,
                                   *(c for row in gb.cofactors for c in row))
    r, a = gb.normal_form_with_quotients(dividend[0])
    _assert_coefficients_canonical(r, *a)


@functools.cache
def _lattice(text: str) -> BrieskornLattice:
    return BrieskornLattice(parse_polynomial(text, _NAMES), order=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["x^3+y^3", "2*x^2*y+3*y^3", "x^3/3+y^4/4"]),
       st.dictionaries(st.integers(0, 2), _int_polys(1), max_size=3))
def test_reduction_coordinates_and_certificate(text, series):
    L = _lattice(text)
    el, eta = L.reduce_with_certificate({k: p for k, (p,) in series.items()})
    assert all(_canonical(x) for v in el.coords.values() for x in v), el.coords
    _assert_coefficients_canonical(*(p for pv in eta.coeffs.values()
                                     for p in pv.parts.values()))
    assert all(_canonical(x) for row in L.residue_matrix() for x in row)


_FRACTION = st.fractions(-3, 3, max_denominator=4)


def _systems(entries):
    """A square matrix of size 1-4 and a right-hand side, drawn from
    ``entries``."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n)))


def _check_exact_linear_algebra(A, b):
    red, _ = rref(A)
    _assert_entries_canonical(red)
    assert type(exact_rank(A)) is int
    inv = invert_exact(A)
    if inv is not None:
        _assert_entries_canonical(inv)
        n = len(A)
        assert [[sum(A[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
    x = solve_exact(A, b)
    if x is not None:
        assert all(_canonical(v) for v in x), x
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


@settings(max_examples=80, deadline=None)
@given(_systems(_INT))
def test_exact_linear_algebra_on_integer_matrices(system):
    _check_exact_linear_algebra(*system)


@settings(max_examples=80, deadline=None)
@given(_systems(st.one_of(_INT, _FRACTION, _INT.map(Fraction))))
def test_exact_linear_algebra_on_fraction_matrices(system):
    """Integral Fractions in the input come out as ints."""
    _check_exact_linear_algebra(*system)


def test_polynomial_operands_take_no_abc_instance_check(monkeypatch):
    """Integer coefficients keep the coefficient arithmetic itself free of
    ABC checks (``int + Fraction`` goes through ``Fraction.__radd__``,
    which tests ``numbers.Rational``), so every call counted here would
    come from the operand dispatch."""
    p = Polynomial({(2, 0): 1, (1, 1): 3, (0, 0): -2}, _NAMES)
    q = Polynomial({(0, 3): 1, (1, 0): -1, (0, 0): 2, (1, 1): -3}, _NAMES)
    calls = []
    instancecheck = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        calls.append((cls, type(instance)))
        return instancecheck(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    results = [p + q, p - q, p * q, p == q]
    assert calls == [] and results[-1] is False
    # the counter sees an ABC check where one is made
    assert not isinstance(p, Fraction)
    assert calls == [(Fraction, Polynomial)]


def _terms(p: Polynomial) -> list:
    """The coefficients of p in dict order, with their types."""
    return [(m, type(c), c) for m, c in p.coeffs.items()]


@settings(max_examples=150, deadline=None)
@given(_int_polys(2),
       st.one_of(_INT, _FRACTION, _int_polys(1).map(lambda ps: ps[0] * Fraction(1, 2))))
def test_scalar_operands_act_as_their_constant_polynomial(polys, c):
    """Each operator on an int, a Fraction or a Polynomial ``c`` gives the
    result of the explicit route through ``Polynomial.constant``, with
    subtraction as adding the negation (``c - p`` for a scalar c is
    ``-p + c``): the same terms, coefficient types and dict order."""
    p, q = polys
    scalar = type(c) is not Polynomial
    C = Polynomial.constant(c, _NAMES) if scalar else c
    for got, want in [(p - q, p + (-q)), (q - p, q + (-p)), (p + c, p + C),
                      (p - c, p + (-C)), (c - p, -p + C if scalar else C + (-p)),
                      (p * c, p * C)]:
        assert _terms(got) == _terms(want)
        assert (got.names, got.mode) == (want.names, want.mode)
    assert (p == c) == (p == C)
    assert p == p + 0 and (p == c) == (p - c == 0)
