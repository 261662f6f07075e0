import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import (convert_xor, implicit_multiplication,
                                        parse_expr, standard_transformations)

from lglab.poly import (
    Polynomial,
    PolyError,
    WeightSystem,
    hessian_det,
    infer_weights,
    parse_polynomial,
)


def P(text, names=None, laurent=False):
    return parse_polynomial(text, names=names, laurent=laurent)


class TestParsing:
    def test_single_variable_powers(self):
        f = P("z^3/3", names=["z"])
        assert f.coeffs == {(3,): Fraction(1, 3)}

    def test_two_variables(self):
        f = P("x^3 + y^3", names=["x", "y"])
        assert f.coeffs == {(3, 0): Fraction(1), (0, 3): Fraction(1)}

    def test_coefficients_and_products(self):
        f = P("3*x*y^2 - 2*x^2", names=["x", "y"])
        assert f.coeffs == {(1, 2): Fraction(3), (2, 0): Fraction(-2)}

    def test_leading_minus_and_constants(self):
        f = P("-x + 5/2", names=["x"])
        assert f.coeffs == {(1,): Fraction(-1), (0,): Fraction(5, 2)}

    def test_inferred_names_in_order(self):
        f = P("y + x*y")
        assert f.names == ("y", "x")

    def test_unknown_variable_rejected(self):
        with pytest.raises(PolyError):
            P("x + w", names=["x", "y"])

    def test_negative_exponent_needs_laurent(self):
        with pytest.raises(PolyError):
            P("x^-1", names=["x"])
        g = P("x^-1 + x", names=["x"], laurent=True)
        assert g.coeffs == {(-1,): Fraction(1), (1,): Fraction(1)}

    def test_zero_denominator(self):
        for text in ("1/0", "x/0", "x^2/3/0", "0/0"):
            with pytest.raises(PolyError):
                P(text, names=["x"])

    def test_division_by_variable_rejected(self):
        with pytest.raises(PolyError):
            P("x/y", names=["x", "y"])

    def test_division_runs_left_to_right(self):
        assert P("x/2/3").coeffs == {(1,): Fraction(1, 6)}
        assert P("z^2/2/3").coeffs == {(2,): Fraction(1, 6)}
        assert P("2/3/4/5").coeffs == {(0,): Fraction(1, 30)}
        assert P("1/2x").coeffs == {(1,): Fraction(1, 2)}
        assert P("x/2*3").coeffs == {(1,): Fraction(3, 2)}

    def test_repeated_declared_name_rejected(self):
        with pytest.raises(PolyError):
            P("x^3", names=["x", "x"])

    @pytest.mark.parametrize("text", ["", "  ", "-", "x-", "+x", "x*", "x/",
                                      "x^", "2^3", "x^2^3", "x*-1", "2/-3",
                                      "x^--2", "x++y", "0.5", "x . y", "(x)"])
    def test_text_outside_the_grammar_rejected(self, text):
        with pytest.raises(PolyError):
            P(text)

    @pytest.mark.parametrize("text, coeffs", [
        ("3x", {(1,): 3}),
        ("x y", {(1, 1): 1}),
        ("--x", {(1,): 1}),
        ("x--y", {(1, 0): 1, (0, 1): 1}),
        ("x+-y", {(1, 0): 1, (0, 1): -1}),
        ("x^ 2", {(2,): 1}),
    ])
    def test_accepted_shorthands(self, text, coeffs):
        assert P(text).coeffs == coeffs

    def test_constant_text_lives_over_z(self):
        assert P("5/2").names == P("5/2", names=[]).names == ("z",)

    def test_like_terms_collect(self):
        f = P("x + x - 2*x", names=["x"])
        assert f.is_zero()

    def test_str_round_trip(self):
        rng = random.Random(7)
        names = ("x", "y", "z")
        # laurent mode prints and parses negative exponents
        for mode, low in (("poly", 0), ("laurent", -4)):
            for _ in range(25):
                coeffs = {}
                for _ in range(rng.randint(1, 6)):
                    m = tuple(rng.randint(low, 4) for _ in names)
                    coeffs[m] = Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 9))
                f = Polynomial(coeffs, names, mode)
                g = P(str(f), names=names, laurent=mode == "laurent")
                assert f == g


class TestArithmetic:
    def test_product(self):
        x = P("x", names=["x", "y"])
        y = P("y", names=["x", "y"])
        assert (x + y) * (x - y) == P("x^2 - y^2", names=["x", "y"])

    def test_power(self):
        f = P("1 + x", names=["x"])
        assert f ** 4 == P("1 + 4*x + 6*x^2 + 4*x^3 + x^4", names=["x"])

    def test_diff(self):
        f = P("x^3 + x*y^3", names=["x", "y"])
        assert f.diff(0) == P("3*x^2 + y^3", names=["x", "y"])
        assert f.diff(1) == P("3*x*y^2", names=["x", "y"])

    def test_laurent_diff_and_theta(self):
        f = P("x + x^-1", names=["x"], laurent=True)
        assert f.diff(0) == P("1 - x^-2", names=["x"], laurent=True)
        assert f.theta(0) == P("x - x^-1", names=["x"], laurent=True)

    def test_eval_complex(self):
        f = P("x^2 + y", names=["x", "y"])
        assert f.eval_complex((2 + 1j, -3)) == (2 + 1j) ** 2 - 3

    def test_subs(self):
        f = P("x^2 + y", names=["x", "y"])
        u = P("s + 1", names=["s"])
        v = P("s^2", names=["s"])
        assert f.subs([u, v]) == P("2*s^2 + 2*s + 1", names=["s"])


class TestWeights:
    def test_fermat_weights(self):
        f = P("x^3 + y^3", names=["x", "y"])
        w = infer_weights(f)
        assert w == WeightSystem((Fraction(1, 3), Fraction(1, 3)))

    def test_chain_weights(self):
        f = P("x^3 + x*y^3", names=["x", "y"])
        w = infer_weights(f)
        assert w == WeightSystem((Fraction(1, 3), Fraction(2, 9)))

    def test_inconsistent_returns_none(self):
        f = P("x^3 + y^3 + x^2*y^2", names=["x", "y"])
        assert infer_weights(f) is None

    def test_underdetermined_returns_none(self):
        f = P("x^2", names=["x", "y"])
        assert infer_weights(f) is None

    @staticmethod
    def _brieskorn_pham(data, exps):
        """sum x_i^a_i plus a random choice of other monomials of weighted
        degree 1 for the weights 1/a_i, all with random nonzero coefficients."""
        n = len(exps)
        pure = [tuple(a if j == i else 0 for j in range(n))
                for i, a in enumerate(exps)]
        extra = [m for m in itertools.product(*(range(a + 1) for a in exps))
                 if sum(Fraction(e, a) for e, a in zip(m, exps)) == 1
                 and m not in pure]
        chosen = data.draw(st.lists(st.sampled_from(extra), unique=True)
                           if extra else st.just([]), label="extra")
        coeff = st.integers(-5, 5).filter(bool)
        return {m: data.draw(coeff) for m in pure + chosen}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=4), st.data())
    def test_brieskorn_pham_weights_are_reciprocal_exponents(self, exps, data):
        names = tuple(f"x{i}" for i in range(len(exps)))
        f = Polynomial(self._brieskorn_pham(data, exps), names)
        assert infer_weights(f) == WeightSystem(
            tuple(Fraction(1, a) for a in exps))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=3), st.data())
    def test_variable_missing_from_support_returns_none(self, exps, data):
        names = tuple(f"x{i}" for i in range(len(exps))) + ("y",)
        coeffs = {m + (0,): c
                  for m, c in self._brieskorn_pham(data, exps).items()}
        assert infer_weights(Polynomial(coeffs, names)) is None

    def test_degree(self):
        w = WeightSystem((Fraction(1, 3), Fraction(2, 9)))
        assert w.degree((1, 3)) == Fraction(1)


class TestHessian:
    def test_one_variable(self):
        f = P("z^4/4", names=["z"])
        assert hessian_det(f) == P("3*z^2", names=["z"])

    def test_chain(self):
        f = P("x^3 + x*y^3", names=["x", "y"])
        # [[6x, 3y^2], [3y^2, 6xy]] -> 36 x^2 y - 9 y^4
        assert hessian_det(f) == P("36*x^2*y - 9*y^4", names=["x", "y"])

    def test_fermat(self):
        f = P("x^3 + y^3", names=["x", "y"])
        assert hessian_det(f) == P("36*x*y", names=["x", "y"])


# -- canonical form of arithmetic results -------------------------------------

_MODES = {"poly": st.integers(0, 3), "laurent": st.integers(-3, 3)}
_SCALARS = st.one_of(st.integers(-4, 4),
                     st.fractions(-4, 4, max_denominator=6))


@st.composite
def _operands(draw, count):
    """``count`` polynomials over one variable tuple and ring mode."""
    mode = draw(st.sampled_from(sorted(_MODES)))
    n = draw(st.integers(1, 3))
    names = tuple(f"x{i}" for i in range(n))
    mono = st.tuples(*[_MODES[mode]] * n)
    coeff = st.fractions(-5, 5, max_denominator=5)
    return [Polynomial(draw(st.dictionaries(mono, coeff, max_size=6)), names, mode)
            for _ in range(count)]


def _assert_canonical(r: Polynomial, nvars: int):
    for m, c in r.coeffs.items():
        # an integral coefficient is an int, any other a Fraction
        assert (type(c) is int or type(c) is Fraction and c.denominator > 1) and c != 0
        assert type(m) is tuple and len(m) == nvars
        assert all(type(e) is int for e in m)
    assert Polynomial(dict(r.coeffs), r.names, r.mode) == r


class TestCanonicalResults:
    @settings(max_examples=80, deadline=None)
    @given(_operands(2), _SCALARS)
    def test_every_operation_returns_canonical_form(self, ops, c):
        p, q = ops
        # (p + q) * (p - q) makes the cross terms of a product cancel
        for r in (p + q, p - q, -p, p * c, c * p, p * q, (p + q) * (p - q),
                  p + c, p - c, p.diff(0), p.theta(0)):
            _assert_canonical(r, p.nvars)

    @settings(max_examples=60, deadline=None)
    @given(_operands(1))
    def test_self_difference_is_empty(self, ops):
        (p,) = ops
        assert (p - p).coeffs == {}
        assert (p * 0).coeffs == {}
        assert (p + (-p)).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(_operands(1))
    def test_str_parses_back_to_the_same_polynomial(self, ops):
        # laurent mode prints and parses negative exponents
        (p,) = ops
        assert P(str(p), names=p.names, laurent=p.mode == "laurent") == p

    @settings(max_examples=60, deadline=None)
    @given(_operands(3))
    def test_distributivity(self, ops):
        p, q, r = ops
        assert p * (q + r) == p * q + p * r
        assert (p - q) * r == p * r - q * r


# -- the text grammar against sympy's reading of the same text ---------------

_TEXT_NAMES = ("x", "y", "w")
_SYMPY_RULES = standard_transformations + (implicit_multiplication, convert_xor)


@st.composite
def _grammar_texts(draw, laurent):
    """Text in the grammar of the poly module: '-' chains, chained '*' and
    '/' by integers, '^' exponents and ``<int><name>`` adjacency."""
    space = st.sampled_from(["", " "])

    def factor():
        num = str(draw(st.integers(0, 12)))
        name = draw(st.sampled_from(_TEXT_NAMES))
        if draw(st.booleans()):
            name += f"^{draw(space)}{draw(st.integers(-3 if laurent else 0, 4))}"
        return draw(st.sampled_from([num, name, num + name]))

    def term():
        text = factor()
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                text += f"{draw(space)}/{draw(space)}{draw(st.integers(1, 9))}"
            else:
                text += f"{draw(space)}*{draw(space)}{factor()}"
        return text

    def signs():
        return "".join(draw(st.lists(st.sampled_from(["-", "- "]), max_size=2)))

    text = signs() + term()
    for _ in range(draw(st.integers(0, 3))):
        text += f" {draw(st.sampled_from('+-'))} {signs()}{term()}"
    return text


def _to_sympy(f: Polynomial):
    syms = sympy.symbols(f.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(syms, m)))
                for m, c in f.coeffs.items()), sympy.Integer(0))


class TestGrammarAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_parse_equals_sympy_reading(self, data, laurent):
        text = data.draw(_grammar_texts(laurent), label="text")
        expected = sympy.expand(parse_expr(text, transformations=_SYMPY_RULES))
        assert sympy.expand(_to_sympy(P(text, laurent=laurent)) - expected) == 0


# -- truncated arithmetic and the fast constructors ---------------------------


def _truncated(p: Polynomial, n: int) -> Polynomial:
    """Full-then-truncate oracle, built through the validating constructor."""
    return Polynomial({m: c for m, c in p.coeffs.items() if sum(m) <= n},
                      p.names, p.mode)


@st.composite
def _small_polys(draw, count, nvars=None):
    """``count`` poly-mode polynomials in 2 or 3 variables, exponents <= 4."""
    n = draw(st.integers(2, 3)) if nvars is None else nvars
    names = tuple(f"x{i}" for i in range(n))
    mono = st.tuples(*[st.integers(0, 4)] * n)
    coeff = st.fractions(-5, 5, max_denominator=5)
    return [Polynomial(draw(st.dictionaries(mono, coeff, max_size=6)), names)
            for _ in range(count)]


class TestTruncatedArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(_small_polys(2), st.integers(-1, 10))
    def test_mul_trunc_is_the_truncated_product(self, ops, n):
        p, q = ops
        r = p.mul_trunc(q, n)
        assert r == _truncated(p * q, n)
        # the same terms in the same order as the full product's
        assert list(r.coeffs) == list(_truncated(p * q, n).coeffs)
        _assert_canonical(r, p.nvars)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(-1, 8))
    def test_subs_trunc_is_the_truncated_substitution(self, data, n):
        (p,) = data.draw(_small_polys(1), label="p")
        values = data.draw(_small_polys(p.nvars, nvars=data.draw(
            st.integers(2, 3), label="value vars")), label="values")
        r = p.subs_trunc(values, n)
        assert r == _truncated(p.subs(values), n)
        _assert_canonical(r, values[0].nvars)

    def test_subs_trunc_refuses_laurent_values(self):
        p = P("x*y", names=["x", "y"])
        v = P("s + s^-1", names=["s"], laurent=True)
        with pytest.raises(PolyError):
            p.subs_trunc([v, v], 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["poly", "laurent"]), st.integers(1, 3),
           st.fractions(-3, 3, max_denominator=3), st.data())
    def test_fast_constructors_match_the_validating_one(self, mode, n, c, data):
        names = tuple(f"x{i}" for i in range(n))
        lo = 0 if mode == "poly" else -3
        m = data.draw(st.tuples(*[st.integers(lo, 3)] * n), label="m")
        i = data.draw(st.integers(0, n - 1), label="i")
        zero = (0,) * n
        unit = tuple(int(j == i) for j in range(n))
        built = [(Polynomial.monomial(m, c, names, mode), {m: c}),
                 (Polynomial.constant(c, names, mode), {zero: c}),
                 (Polynomial.variable(i, names, mode), {unit: 1}),
                 (Polynomial.zero(names, mode), {})]
        for fast, spec in built:
            slow = Polynomial(spec, names, mode)
            assert fast == slow and fast.mode == slow.mode
            _assert_canonical(fast, n)
        # a zero coefficient leaves no term behind
        assert Polynomial.monomial(m, 0, names, mode).coeffs == {}
        assert Polynomial.constant(0, names, mode).coeffs == {}

    def test_fast_constructors_reject_bad_input(self):
        names = ("x", "y")
        with pytest.raises(PolyError):
            Polynomial.monomial((1, 2, 3), 1, names)
        with pytest.raises(PolyError):
            Polynomial.monomial((1, -1), 1, names)
        assert Polynomial.monomial((1, -1), 1, names, "laurent").coeffs == {(1, -1): 1}
        with pytest.raises(PolyError):
            Polynomial.variable(2, names)
        with pytest.raises(PolyError):
            Polynomial.variable(-1, names)
        for make in (lambda: Polynomial.zero(names, "ring"),
                     lambda: Polynomial.constant(1, names, "ring"),
                     lambda: Polynomial.variable(0, names, "ring"),
                     lambda: Polynomial.monomial((0, 0), 1, names, "ring")):
            with pytest.raises(PolyError):
                make()
