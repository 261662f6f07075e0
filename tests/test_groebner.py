import functools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import groebner
from lglab.groebner import divide, groebner_basis, leading_term, milnor_ring
from lglab.poly import Polynomial, parse_polynomial
from lglab.util import ComputeError, PrecondError


def P(text, names, laurent=False):
    return parse_polynomial(text, names=names, laurent=laurent)


def random_poly(rng, names, max_deg=3, terms=4):
    coeffs = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, max_deg) for _ in names)
        coeffs[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(coeffs, tuple(names))


class TestDivision:
    def test_exact_reconstruction(self):
        names = ("x", "y")
        rng = random.Random(11)
        divisors = [P("x^2 + y", names), P("x*y - 1", names)]
        for _ in range(20):
            g = random_poly(rng, names)
            qs, r = divide(g, divisors, [leading_term(d) for d in divisors])
            recon = r
            for q, d in zip(qs, divisors):
                recon = recon + q * d
            assert recon == g

    def test_remainder_not_divisible(self):
        names = ("x", "y")
        divisors = [P("x^2", names), P("y^3", names)]
        _, r = divide(P("x^5*y^5 + x + y", names), divisors,
                      [leading_term(d) for d in divisors])
        for m in r.coeffs:
            assert m[0] < 2 and m[1] < 3


class TestGroebner:
    def test_cofactors_certify_membership(self):
        names = ("x", "y")
        gens = [P("3*x^2 + y^3", names), P("3*x*y^2", names)]
        gb = groebner_basis(gens)
        for k, e in enumerate(gb.elements):
            recon = Polynomial.zero(names)
            for c, g in zip(gb.cofactors[k], gens):
                recon = recon + c * g
            assert recon == e

    def test_normal_form_with_quotients(self):
        names = ("x", "y")
        gens = [P("3*x^2 + y^3", names), P("3*x*y^2", names)]
        gb = groebner_basis(gens)
        rng = random.Random(3)
        for _ in range(15):
            g = random_poly(rng, names, max_deg=4)
            r, a = gb.normal_form_with_quotients(g)
            recon = r
            for ai, gi in zip(a, gens):
                recon = recon + ai * gi
            assert recon == g

    def test_normal_form_is_idempotent_and_linear(self):
        names = ("x", "y")
        gb = groebner_basis([P("x^2 - y", names), P("y^2 - x", names)])
        rng = random.Random(5)
        for _ in range(10):
            g = random_poly(rng, names)
            h = random_poly(rng, names)
            ng, nh = gb.normal_form(g), gb.normal_form(h)
            assert gb.normal_form(ng) == ng
            assert gb.normal_form(g + h) == ng + nh

    def test_unit_ideal(self):
        names = ("x",)
        gb = groebner_basis([P("x", names), P("x + 1", names)])
        assert gb.contains_one()

    def test_s_pair_budget_fails_fast(self, monkeypatch):
        monkeypatch.setattr(groebner, "MAX_S_PAIRS", 5)
        f = P("x^3+y^3+w^3+v^2+x*y*w*v", ("x", "y", "w", "v"))
        with pytest.raises(ComputeError, match="5 S-pairs"):
            milnor_ring(f)

    def test_order_independence_of_membership(self):
        names = ("x", "y")
        gens = [P("x^2 + y", names), P("y^2 + x", names)]
        member = gens[0] * P("x*y - 2", names) + gens[1] * P("y^3", names)
        gb = groebner_basis(gens)
        assert gb.normal_form(member).is_zero()


class TestMilnorRing:
    def test_cusp_one_variable(self):
        R = milnor_ring(P("z^3/3", ("z",)))
        assert R.mu == 2
        assert R.basis == [(0,), (1,)]
        assert R.socle == (1,)
        assert R.residue(P("z", ("z",))) == 1
        assert R.residue(P("1", ("z",))) == 0

    def test_fermat_cubic(self):
        names = ("x", "y")
        R = milnor_ring(P("x^3 + y^3", names))
        assert R.mu == 4
        assert R.basis == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert R.socle == (1, 1)
        assert R.residue(P("x*y", names)) == Fraction(1, 9)

    def test_chain_singularity(self):
        names = ("x", "y")
        R = milnor_ring(P("x^3 + x*y^3", names))
        # mu = (1/q1 - 1)(1/q2 - 1) = 2 * (9/2 - 1) = 7
        assert R.mu == 7
        assert R.weights is not None
        assert R.weights.q == (Fraction(1, 3), Fraction(2, 9))

    def test_non_quasihomogeneous(self):
        names = ("x", "y")
        R = milnor_ring(P("x^3/3 + y^3/3 - x*y", names))
        assert R.mu == 4
        assert R.weights is None

    def test_infinite_mu(self):
        names = ("x", "y")
        R = milnor_ring(P("x^2*y^2", names))
        assert R.mu == math.inf
        assert R.basis is None

    def test_runaway_under_newest_pair_first_finishes(self):
        # reducing the newest S-pair first let the remainders of this
        # gradient ideal reach degree 40 and ran for minutes
        f = P("-3*x^2*y*w^4 - 7/3*x^3*w^2 + 7/3*x^3*w - 7/3*x^2*y^2"
              " - 1/3*x*w^3", ("x", "y", "w"))
        start = time.perf_counter()
        R = milnor_ring(f)
        assert R.mu == math.inf
        assert time.perf_counter() - start < 5

    def test_no_critical_points(self):
        R = milnor_ring(P("x", ("x",)))
        assert R.mu == 0
        assert R.basis == []

    def test_multiplication_matrix(self):
        R = milnor_ring(P("z^3/3", ("z",)))
        M = R.multiplication_matrix(P("z", ("z",)))
        assert M == [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]

    def test_coords_and_quotient_certificate(self):
        names = ("x", "y")
        f = P("x^4 + y^4", names)
        R = milnor_ring(f)
        assert R.mu == 9
        rng = random.Random(17)
        grads = f.gradient()
        for _ in range(10):
            g = random_poly(rng, names, max_deg=5)
            r, a = R.reduce_with_quotients(g)
            recon = r
            for ai, gi in zip(a, grads):
                recon = recon + ai * gi
            assert recon == g

    def test_residue_vanishes_below_socle(self):
        names = ("x", "y")
        R = milnor_ring(P("x^3 + y^3", names))
        for m in [(0, 0), (1, 0), (0, 1)]:
            assert R.residue(Polynomial.monomial(m, 1, names)) == 0

    def test_vector_reads_a_normal_form_and_rejects_other_monomials(self):
        names = ("x", "y")
        R = milnor_ring(P("x^3 + y^3", names))
        assert R.vector(P("2 - x*y/3", names)) == [2, 0, 0, Fraction(-1, 3)]
        with pytest.raises(ComputeError, match="basis span"):
            R.vector(P("x^2", names))

    def test_residue_without_a_socle_fails_the_precondition(self):
        R = milnor_ring(P("x^3 + y^4 + x^2*y^2", ("x", "y")))
        assert R.mu == 8 and R.socle is None
        with pytest.raises(PrecondError, match="one-dimensional socle"):
            R.residue(P("x", ("x", "y")))

    def test_residue_of_hessian_is_mu(self):
        from lglab.poly import hessian_det
        for text, names in [("z^4/4", ("z",)), ("x^3 + y^3", ("x", "y")),
                            ("x^3 + x*y^3", ("x", "y")), ("x^2 + y^4", ("x", "y"))]:
            f = P(text, names)
            R = milnor_ring(f)
            assert R.residue(hessian_det(f)) == R.mu


class TestFourVariableCertificates:
    """elements[k] == sum_i cofactors[k][i] * d_i f, exactly, on the rings
    where eager cofactor products used to blow up."""

    @staticmethod
    def _assert_certified(text, mu):
        names = ("x", "y", "w", "v")
        f = P(text, names)
        R = milnor_ring(f)
        assert R.mu == mu
        grads = f.gradient()
        for e, row in zip(R.gb.elements, R.gb.cofactors):
            recon = Polynomial.zero(names)
            for c, g in zip(row, grads):
                recon = recon + c * g
            assert recon == e

    def test_mu_35(self):
        self._assert_certified("x^3+y^3+w^3+v^2+x*y*w*v", 35)

    def test_mu_43(self):
        self._assert_certified("x^3+y^3+w^3+v^3+x*y*w*v", 43)


_RINGS = {
    14: ("x^3+y^3+w^3+x*y*w+x^2*y^2", ("x", "y", "w")),
    35: ("x^3+y^3+w^3+v^2+x*y*w*v", ("x", "y", "w", "v")),
    43: ("x^3+y^3+w^3+v^3+x*y*w*v", ("x", "y", "w", "v")),
    68: ("x^4+y^5+w^4+x^2*y^2*w^2", ("x", "y", "w")),
    70: ("x^3+y^3+w^3+v^3+x*y*w*v^2", ("x", "y", "w", "v")),
}

# gradient ideals of three-variable potentials on which the normal
# selection strategy, with the product criterion alone, made 1610 divisions
# (the first) and ran past 30 s (the second)
_WITNESS = ("-7/2*x^2*y^4*w^4 + 2/3*x^4*y^4*w - 2*x^4*y^3*w^2 + 2*y^3*w^4"
            " + 4/3*x*y^2")
_SLOW = "-x^4*y*w^4 - 4/3*x^3*y^3*w^3 + 4*x^2*y^2*w^4 - x^3*w - x*w^2 + 2/3*w"


def _assert_sympy_basis_and_certified(gens, gb):
    """gb's elements are sympy's reduced basis in increasing order of
    leading monomial, and every cofactor row certifies its element."""
    assert {frozenset(e.coeffs.items()) for e in gb.elements} == \
        _sympy_reduced_basis(gens)
    lms = gb.leading_monomials()
    assert lms == sorted(lms, key=groebner.grevlex_key)
    for e, row in zip(gb.elements, gb.cofactors):
        recon = Polynomial.zero(e.names)
        for c, g in zip(row, gens):
            recon = recon + c * g
        assert recon == e


class TestPairCriteria:
    def test_witness_needs_few_divisions(self, monkeypatch):
        calls = []
        divide_ = groebner.divide

        def counted(*args):
            calls.append(None)
            return divide_(*args)

        monkeypatch.setattr(groebner, "divide", counted)
        gens = P(_WITNESS, ("x", "y", "w")).gradient()
        gb = groebner_basis(gens)
        assert len(calls) <= 150
        _assert_sympy_basis_and_certified(gens, gb)

    def test_slow_under_normal_selection_finishes_and_matches_sympy(self):
        gens = P(_SLOW, ("x", "y", "w")).gradient()
        start = time.perf_counter()
        gb = groebner_basis(gens)
        assert time.perf_counter() - start < 30
        _assert_sympy_basis_and_certified(gens, gb)

    @pytest.mark.parametrize("mu", sorted(_RINGS))
    def test_ring_bases_match_sympy_element_for_element(self, mu):
        text, names = _RINGS[mu]
        f = P(text, names)
        R = milnor_ring(f)
        assert R.mu == mu
        _assert_sympy_basis_and_certified(f.gradient(), R.gb)

    def test_dropped_pairs_do_not_count_toward_the_budget(self, monkeypatch):
        # the witness reduces 96 pairs and pops 23 more that criterion B_k
        # dropped after they were queued
        gens = P(_WITNESS, ("x", "y", "w")).gradient()
        monkeypatch.setattr(groebner, "MAX_S_PAIRS", 96)
        assert len(groebner_basis(gens).elements) == 14
        monkeypatch.setattr(groebner, "MAX_S_PAIRS", 95)
        with pytest.raises(ComputeError, match="95 S-pairs"):
            groebner_basis(gens)

    def test_normal_forms_divide_by_the_kept_leading_terms(self, monkeypatch):
        gb = groebner_basis([P("x^2 - y", ("x", "y")), P("y^2 - x", ("x", "y"))])
        assert gb.lts == [leading_term(e) for e in gb.elements]
        monkeypatch.setattr(groebner, "leading_term", None)
        assert gb.normal_form(P("x^3*y + y^5", ("x", "y"))) == P("x + y", ("x", "y"))


@functools.cache
def _ring14():
    return milnor_ring(P("x^3+y^3+w^3+x*y*w+x^2*y^2", ("x", "y", "w")))


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                       st.fractions(-9, 9, max_denominator=4), max_size=5))
def test_reduction_certificate_holds_on_random_inputs(coeffs):
    R = _ring14()
    assert R.mu == 14
    g = Polynomial(coeffs, R.f.names)
    r, a = R.reduce_with_quotients(g)
    recon = r
    for ai, gi in zip(a, R.f.gradient()):
        recon = recon + ai * gi
    assert recon == g
    assert all(m in R.basis for m in r.coeffs)


_NAMES = ("x", "y", "w")
_COEFF = st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from((-1, 1)),
                   st.integers(1, 9), st.integers(1, 4))


@st.composite
def _ideals(draw):
    n = draw(st.integers(2, 3))
    term = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(st.dictionaries(term, _COEFF, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    return [Polynomial(g, _NAMES[:n]) for g in gens]


def _sympy_reduced_basis(gens):
    syms = sympy.symbols(gens[0].names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                 for m, c in g.coeffs.items()) for g in gens]
    G = sympy.groebner(exprs, *syms, order="grevlex", domain=sympy.QQ)
    return {frozenset((m, Fraction(int(c.p), int(c.q)))
                      for m, c in sympy.Poly(e, *syms).terms())
            for e in G.exprs}


@settings(max_examples=60, deadline=None)
@given(_ideals())
def test_reduced_basis_matches_sympy_and_cofactors_certify(gens):
    _assert_sympy_basis_and_certified(gens, groebner_basis(gens))
