import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab.brieskorn import (
    BrieskornLattice,
    LatticeElement,
    PairingSeries,
    PVField,
    USeriesPV,
    bv_bracket,
    contract_gradient,
    divergence,
    twisted_differential,
    wedge,
)
from lglab.poly import Polynomial, parse_polynomial
from lglab.util import PrecondError


def P(text, names):
    return parse_polynomial(text, names=names)


def Pz(text):
    return parse_polynomial(text, names=["z"])


# -- a direct form-level model used as a sign oracle --------------------------
#
# Holomorphic forms are maps (sorted index tuple K) -> Polynomial meaning
# sum a dz_K.  The volume-contraction isomorphism takes the wedge of
# coordinate vector fields indexed by I (plugged in reverse order) into
# the complementary form; on polyvectors it is
#     a d/dz_I  |->  (-1)^{k(k-1)/2} * sign(I, K) * a dz_K
# with k = |I| and sign(I, K) the permutation sign of I followed by its
# complement K.  Under it, contraction-with-gradient must become wedging
# with df, and the divergence must become the holomorphic exterior
# derivative.  These two equalities pin every sign in the module.


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _insert_index(i, K):
    if i in K:
        return None, 0
    before = sum(1 for j in K if j < i)
    return tuple(sorted(K + (i,))), (-1 if before % 2 else 1)


def upsilon(v: PVField):
    n = len(v.names)
    out = {}
    for I, p in v.parts.items():
        K = tuple(j for j in range(n) if j not in I)
        k = len(I)
        sgn = _perm_sign(list(I) + list(K))
        if (k * (k - 1) // 2) % 2:
            sgn = -sgn
        term = p * sgn
        out[K] = out[K] + term if K in out else term
    return {K: p for K, p in out.items() if not p.is_zero()}


def d_form(w, names):
    out = {}
    for K, a in w.items():
        for i in range(len(names)):
            L, s = _insert_index(i, K)
            if L is None:
                continue
            term = a.diff(i) * s
            out[L] = out[L] + term if L in out else term
    return {K: p for K, p in out.items() if not p.is_zero()}


def wedge_df(f, w, names):
    grads = f.gradient()
    out = {}
    for K, a in w.items():
        for i in range(len(names)):
            L, s = _insert_index(i, K)
            if L is None:
                continue
            term = a * grads[i] * s
            out[L] = out[L] + term if L in out else term
    return {K: p for K, p in out.items() if not p.is_zero()}


def random_pv(rng, names, max_deg=3, nterms=3):
    n = len(names)
    parts = {}
    for _ in range(nterms):
        size = rng.randint(0, n)
        I = tuple(sorted(rng.sample(range(n), size)))
        m = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = Fraction(rng.randint(-4, 4))
        p = Polynomial.monomial(m, c, tuple(names))
        term = PVField({I: p}, tuple(names))
        parts = (PVField(parts, tuple(names)) + term).parts if parts else term.parts
    return PVField(parts, tuple(names))


def random_homogeneous_pv(rng, names, size, max_deg=3):
    n = len(names)
    I = tuple(sorted(rng.sample(range(n), size)))
    m = tuple(rng.randint(0, max_deg) for _ in range(n))
    c = Fraction(rng.randint(1, 4))
    return PVField({I: Polynomial.monomial(m, c, tuple(names))}, tuple(names))


class TestSignOracle:
    def test_contraction_is_conjugate_of_df_wedge(self):
        rng = random.Random(41)
        for names in [("z",), ("x", "y")]:
            f = P("z^3/3", names) if len(names) == 1 else P("x^3 + y^3", names)
            for _ in range(25):
                v = random_pv(rng, names)
                lhs = upsilon(contract_gradient(f, v))
                rhs = wedge_df(f, upsilon(v), names)
                assert lhs == rhs

    def test_divergence_is_conjugate_of_exterior_derivative(self):
        rng = random.Random(43)
        for names in [("z",), ("x", "y")]:
            for _ in range(25):
                v = random_pv(rng, names)
                lhs = upsilon(divergence(v))
                rhs = d_form(upsilon(v), names)
                assert lhs == rhs


class TestOperators:
    def test_contract_single_generator(self):
        f = Pz("z^3/3")
        v = PVField.generator((0,), Polynomial.constant(1, ("z",)))
        assert contract_gradient(f, v) == PVField.from_polynomial(Pz("z^2"))

    def test_contract_kills_functions(self):
        f = Pz("z^3/3")
        v = PVField.from_polynomial(Pz("1 + z^5"))
        assert contract_gradient(f, v).is_zero()

    def test_contract_two_generators(self):
        names = ("x", "y")
        f = P("x^3 + y^3", names)
        v = PVField.generator((0, 1), Polynomial.constant(1, names))
        expect = PVField({(1,): P("3*x^2", names), (0,): P("-3*y^2", names)}, names)
        assert contract_gradient(f, v) == expect

    def test_divergence_examples(self):
        names = ("x", "y")
        v = PVField.generator((0,), P("x", ("x",)))
        assert divergence(v) == PVField.from_polynomial(
            Polynomial.constant(1, ("x",)))
        assert divergence(PVField.from_polynomial(P("5", names))).is_zero()
        w = PVField.generator((0, 1), P("x*y", names))
        expect = PVField({(1,): P("y", names), (0,): P("-x", names)}, names)
        assert divergence(w) == expect

    def test_nilpotence_and_compatibility(self):
        rng = random.Random(47)
        names = ("x", "y", "w")
        f = P("x^3 + y^3 + w^3", names)
        for _ in range(20):
            v = random_pv(rng, names)
            assert contract_gradient(f, contract_gradient(f, v)).is_zero()
            assert divergence(divergence(v)).is_zero()
            anti = contract_gradient(f, divergence(v)) + \
                divergence(contract_gradient(f, v))
            assert anti.is_zero()

    def test_wedge_graded_commutative(self):
        rng = random.Random(53)
        names = ("x", "y", "w")
        for _ in range(20):
            a_size = rng.randint(0, 3)
            b_size = rng.randint(0, 3)
            a = random_homogeneous_pv(rng, names, a_size)
            b = random_homogeneous_pv(rng, names, b_size)
            sign = -1 if (a_size * b_size) % 2 else 1
            assert wedge(a, b) == sign * wedge(b, a)


class TestBracket:
    def test_functions_commute(self):
        names = ("x", "y")
        a = PVField.from_polynomial(P("x^2 + y", names))
        b = PVField.from_polynomial(P("x*y", names))
        assert bv_bracket(a, b).is_zero()

    def test_euler_against_generator(self):
        names = ("z",)
        a = PVField.generator((0,), Pz("z"))
        b = PVField.generator((0,), Pz("1"))
        expect = PVField.generator((0,), Pz("-1"))
        assert bv_bracket(a, b) == expect

    def test_generator_against_coordinate(self):
        names = ("x", "y")
        a = PVField.generator((0,), Polynomial.constant(1, names))
        b = PVField.from_polynomial(P("x", names))
        assert bv_bracket(a, b) == PVField.from_polynomial(
            Polynomial.constant(1, names))

    def test_leibniz(self):
        rng = random.Random(59)
        names = ("x", "y", "w")
        for _ in range(30):
            ka = rng.randint(0, 3)
            kb = rng.randint(0, 3)
            a = random_homogeneous_pv(rng, names, ka)
            b = random_homogeneous_pv(rng, names, kb)
            c = random_pv(rng, names, nterms=2)
            lhs = bv_bracket(a, wedge(b, c))
            sign = -1 if ((ka + 1) * kb) % 2 else 1
            rhs = wedge(bv_bracket(a, b), c) + sign * wedge(b, bv_bracket(a, c))
            assert (lhs - rhs).is_zero()


class TestUSeries:
    def test_twisted_differential_squares_to_zero(self):
        rng = random.Random(61)
        names = ("x", "y")
        f = P("x^3 + y^3", names)
        for _ in range(10):
            s = USeriesPV({k: random_pv(rng, names) for k in range(3)}, 5, names)
            assert twisted_differential(f, twisted_differential(f, s)).is_zero()


CERTIFIED_LATTICES = {
    text: BrieskornLattice(P(text, names), order=3)
    for text, names in (("z^3/3", ("z",)), ("x^3+y^3", ("x", "y")),
                        ("x^2*y+y^3", ("x", "y")))}


class TestReduction:
    def test_reduce_gradient_power(self):
        L = BrieskornLattice(Pz("z^3/3"), order=6)
        assert L.reduce(Pz("z^2")).is_zero()

    def test_reduce_cubic_gives_u(self):
        L = BrieskornLattice(Pz("z^3/3"), order=6)
        el = L.reduce(Pz("z^3"))
        assert el.coords == {1: (Fraction(-1), Fraction(0))}

    def test_reduce_identity(self):
        L = BrieskornLattice(Pz("z^3/3"), order=6)
        el = L.reduce(Pz("1"))
        assert el.coords == {0: (Fraction(1), Fraction(0))}

    def test_certificate_exact(self):
        rng = random.Random(67)
        cases = [Pz("z^3/3"), P("x^3 + y^3", ("x", "y")),
                 P("x^3/3 + y^3/3 - x*y", ("x", "y"))]
        for f in cases:
            L = BrieskornLattice(f, order=5)
            names = f.names
            for _ in range(8):
                coeffs = {}
                for _ in range(4):
                    m = tuple(rng.randint(0, 5) for _ in names)
                    coeffs[m] = Fraction(rng.randint(-5, 5))
                g = Polynomial(coeffs, names)
                el, eta = L.reduce_with_certificate(g)
                lhs = USeriesPV({0: PVField.from_polynomial(g)}, 5, names) - \
                    twisted_differential(f, eta)
                rhs_polys = L.to_polynomial_series(el)
                rhs = USeriesPV({k: PVField.from_polynomial(p)
                                 for k, p in rhs_polys.items()}, 5, names)
                assert (lhs - rhs).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_certificate_identity_holds_on_random_u_series(self, data):
        text = data.draw(st.sampled_from(sorted(CERTIFIED_LATTICES)))
        L = CERTIFIED_LATTICES[text]
        names = L.f.names
        order = data.draw(st.integers(0, 3))
        mono = st.tuples(*[st.integers(0, 4)] * len(names))
        terms = st.dictionaries(mono, st.fractions(-5, 5, max_denominator=5),
                                max_size=4)
        series = {k: Polynomial(c, names) for k, c in data.draw(
            st.dictionaries(st.integers(0, 3), terms, max_size=4)).items()}
        el, eta = L.reduce_with_certificate(series, order=order)

        def as_series(polys):
            return USeriesPV({k: PVField.from_polynomial(p)
                              for k, p in polys.items()}, order, names)

        # input - (contraction + u*divergence)(eta) == element, exactly
        lhs = as_series(series) - twisted_differential(L.f, eta)
        assert (lhs - as_series(L.to_polynomial_series(el))).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_reduce_without_certificate_gives_the_same_element(self, data):
        text = data.draw(st.sampled_from(sorted(CERTIFIED_LATTICES)))
        L = CERTIFIED_LATTICES[text]
        names = L.f.names
        mono = st.tuples(*[st.integers(0, 4)] * len(names))
        terms = st.dictionaries(mono, st.fractions(-5, 5, max_denominator=5),
                                max_size=4)
        series = {k: Polynomial(c, names) for k, c in data.draw(
            st.dictionaries(st.integers(0, 3), terms, max_size=4)).items()}
        el, _ = L.reduce_with_certificate(series)
        assert L.reduce(series) == el
        assert L._reduce(series, None, certify=False)[1] is None

    def test_rejects_positive_dimensional(self):
        with pytest.raises(PrecondError):
            BrieskornLattice(P("x^2*y^2", ("x", "y")))

    def test_rejects_vector_input(self):
        L = BrieskornLattice(Pz("z^3/3"))
        bad = PVField.generator((0,), Pz("z"))
        with pytest.raises(TypeError):
            L.reduce(bad)


class TestPairing:
    def test_a2_matrix_is_antidiagonal_and_u_free(self):
        L = BrieskornLattice(Pz("z^3/3"), order=8)
        M = L.pairing_matrix()
        assert M[0][0] == PairingSeries({}, 8)
        assert M[0][1] == PairingSeries({0: Fraction(1)}, 8)
        assert M[1][0] == PairingSeries({0: Fraction(1)}, 8)
        assert M[1][1] == PairingSeries({}, 8)

    def test_pair_z_with_z(self):
        L = BrieskornLattice(Pz("z^3/3"), order=8)
        assert L.pairing(Pz("z"), Pz("z")) == PairingSeries({}, 8)

    def test_pair_z_with_z_cubed(self):
        L = BrieskornLattice(Pz("z^3/3"), order=8)
        got = L.pairing(Pz("z"), Pz("z^3"))
        assert got == PairingSeries({1: Fraction(1)}, 8)

    def test_sesquilinear_symmetry(self):
        rng = random.Random(71)
        for f in [Pz("z^4/4"), P("x^3 + y^3", ("x", "y"))]:
            L = BrieskornLattice(f, order=6)
            for _ in range(10):
                a = LatticeElement(
                    {k: tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.mu))
                     for k in range(3)}, 6)
                b = LatticeElement(
                    {k: tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.mu))
                     for k in range(3)}, 6)
                assert L.pairing(a, b) == L.pairing(b, a).at_negated_u()

    def test_matrices_equal_pairings_of_basis_classes(self):
        # x^3 + y^3 + x^2 y^2 is not quasi-homogeneous: its matrix has a
        # u-correction, -1/6 u, in the corner entry
        for f in [Pz("z^4/4"), P("x^3 + y^3 + x^2*y^2", ("x", "y"))]:
            L = BrieskornLattice(f, order=4)
            M, R = L.pairing_matrix(), L.residue_matrix()
            for p in range(L.mu):
                for q in range(L.mu):
                    K = L.pairing(L.basis_element(p), L.basis_element(q))
                    assert M[p][q] == K
                    assert R[p][q] == K.residue_part()
        assert set(M[-1][-1].coeffs) == {0, 1}

    def test_residue_matrix_full_rank(self):
        for text, names in [("z^3/3", ("z",)), ("x^3 + y^3", ("x", "y")),
                            ("z^4/4", ("z",))]:
            L = BrieskornLattice(parse_polynomial(text, names=names))
            assert L.residue_matrix_rank() == L.mu

    def test_weighted_basis_has_no_u_corrections(self):
        for text, names in [("z^3/3", ("z",)), ("z^4/4", ("z",)),
                            ("x^3 + y^3", ("x", "y")),
                            ("x^3 + x*y^3", ("x", "y")),
                            ("x^2 + y^4", ("x", "y"))]:
            L = BrieskornLattice(parse_polynomial(text, names=names), order=8)
            for row in L.pairing_matrix():
                for entry in row:
                    assert set(entry.coeffs) <= {0}, (text, str(entry))


def u_ddu(s: PairingSeries) -> PairingSeries:
    return PairingSeries({k: Fraction(k) * v for k, v in s.coeffs.items()}, s.order)


def plus_scalar_multiple(s: PairingSeries, c: Fraction) -> PairingSeries:
    return PairingSeries({k: v * c for k, v in s.coeffs.items()}, s.order)


class TestConnection:
    def test_a2_spectrum(self):
        L = BrieskornLattice(Pz("z^3/3"), order=8)
        assert L.connection_spectrum() == [Fraction(1, 3), Fraction(2, 3)]

    def test_a3_spectrum(self):
        L = BrieskornLattice(Pz("z^4/4"), order=8)
        assert L.connection_spectrum() == [Fraction(1, 4), Fraction(1, 2),
                                           Fraction(3, 4)]

    def test_linearity(self):
        L = BrieskornLattice(Pz("z^4/4"), order=6)
        a = L.reduce(Pz("1 + z + z^2"))
        lhs = L.connection(Fraction(3) * a)
        rhs = Fraction(3) * L.connection(a)
        assert (lhs - rhs).is_zero()

    def test_pairing_compatibility(self):
        # (u d/du + n) K(a, b) == K(conn a, b) + K(a, conn b) on full bases
        for f, names in [(Pz("z^3/3"), ("z",)), (Pz("z^4/4"), ("z",))]:
            n = len(names)
            L = BrieskornLattice(f, order=6)
            for p in range(L.mu):
                for q in range(L.mu):
                    a = L.basis_element(p)
                    b = L.basis_element(q)
                    K = L.pairing(a, b)
                    lhs = u_ddu(K) + plus_scalar_multiple(K, Fraction(n))
                    rhs = L.pairing(L.connection(a), b) + \
                        L.pairing(a, L.connection(b))
                    assert lhs == rhs, (p, q)

    def test_describe_is_serializable(self):
        import json

        from lglab.util import jsonable
        L = BrieskornLattice(P("x^3 + y^3", ("x", "y")), order=4)
        text = json.dumps(jsonable(L.describe()))
        assert "milnor_number" in text


# -- Thom-Sebastiani: a sum in separate variables is the tensor product ------


def _one_variable(draw, mu):
    """A polynomial of degree mu + 1 in one variable, so its Milnor number
    is mu; lower terms may vanish (quasi-homogeneous) or not."""
    lead = draw(st.sampled_from((-1, 1))) * draw(
        st.fractions(Fraction(1, 4), 3, max_denominator=4))
    return {k: draw(st.fractions(-3, 3, max_denominator=4))
            for k in range(mu + 1)} | {mu + 1: lead}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_thom_sebastiani_sum_is_the_tensor_product(data):
    # for f = g(x) + h(y): the Milnor basis is the product basis, the
    # residue matrix the Kronecker product of the factors' (entries matched
    # by monomial, not by position), and the reduction of x^a*y^b the
    # u-convolution of the one-variable reductions of x^a and y^b
    order = 4
    g = _one_variable(data.draw, data.draw(st.integers(1, 4)))
    h = _one_variable(data.draw, data.draw(st.integers(1, 4)))
    Lg = BrieskornLattice(Polynomial({(k,): c for k, c in g.items()}, ("x",)),
                          order=order)
    Lh = BrieskornLattice(Polynomial({(k,): c for k, c in h.items()}, ("y",)),
                          order=order)
    f = Polynomial({(k, 0): c for k, c in g.items()}, ("x", "y")) + \
        Polynomial({(0, k): c for k, c in h.items()}, ("x", "y"))
    L = BrieskornLattice(f, order=order)
    assert L.mu == Lg.mu * Lh.mu
    assert sorted(L.ring.basis) == sorted(
        (i, j) for (i,) in Lg.ring.basis for (j,) in Lh.ring.basis)

    at_g = {m: p for p, m in enumerate(Lg.ring.basis)}
    at_h = {m: p for p, m in enumerate(Lh.ring.basis)}
    pos = [(at_g[i,], at_h[j,]) for i, j in L.ring.basis]
    Rg, Rh, R = Lg.residue_matrix(), Lh.residue_matrix(), L.residue_matrix()
    for p, (pg, ph) in enumerate(pos):
        for q, (qg, qh) in enumerate(pos):
            assert R[p][q] == Rg[pg][qg] * Rh[ph][qh], (p, q)

    a, b = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    vg = Lg.reduce(Polynomial({(a,): 1}, ("x",))).coords
    vh = Lh.reduce(Polynomial({(b,): 1}, ("y",))).coords
    want = {}
    for k, v in vg.items():
        for l, w in vh.items():
            if k + l <= order:
                row = want.setdefault(k + l, [0] * L.mu)
                for p, (pg, ph) in enumerate(pos):
                    row[p] += v[pg] * w[ph]
    want = LatticeElement({k: tuple(row) for k, row in want.items()}, order)
    got = L.reduce(Polynomial({(a, b): 1}, ("x", "y")))
    assert got.coords == want.coords, (a, b)
