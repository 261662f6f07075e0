"""The canonical form of rationals across the exact half: an integral
value is an int and any other a Fraction with a denominator above 1, so
no float appears, not even where two integer coefficients divide."""

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


def _assert_no_float(rows):
    assert all(type(x) in (int, Fraction) for row in rows for x in row), rows


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_INT, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_INT, min_size=n, max_size=n))))
def test_exact_linear_algebra_on_integer_matrices(system):
    A, b = system
    red, _ = rref(A)
    _assert_no_float(red)
    assert type(exact_rank(A)) is int
    inv = invert_exact(A)
    if inv is not None:
        _assert_no_float(inv)
    x = solve_exact(A, b)
    if x is not None:
        assert all(_canonical(v) for v in x), x
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
