"""Deformed multiplication, family residues, flat coordinates, potentials."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import frobenius
from lglab.frobenius import (
    FrobeniusData,
    _pull_back,
    _integrate_symmetric_gradient,
    _integrate_third_derivatives,
    build_flat_potential,
    degree_part,
    family_metric,
    family_multiplication,
    family_normal_form,
    family_residue,
    series_inverse,
    truncate,
    universal_unfolding,
    wdvv_residual,
)
from lglab.groebner import milnor_ring
from lglab.poly import Polynomial, parse_polynomial
from lglab.util import ComputeError, PrecondError, invert_exact


def unfold(src: str, names=None):
    return universal_unfolding(parse_polynomial(src, names))


def tmono(poly: Polynomial, text: str) -> Fraction:
    """Coefficient of a named t-monomial, e.g. coefficient of 't0*t1^2'."""
    probe = parse_polynomial(text, poly.names)
    [(m, c)] = probe.coeffs.items()
    assert c == 1
    return poly.coeffs.get(m, Fraction(0))


# -- series helpers -----------------------------------------------------------------


def test_series_inverse_round_trip():
    p = parse_polynomial("2 + t0 + 3*t1^2", ("t0", "t1"))
    inv = series_inverse(p, 6)
    assert truncate(p * inv, 6) == Polynomial.constant(1, p.names)


def test_series_inverse_needs_a_unit():
    p = parse_polynomial("t0", ("t0",))
    with pytest.raises(ComputeError):
        series_inverse(p, 4)


# -- family normal forms ------------------------------------------------------------


def tpolys(U, *texts):
    return [parse_polynomial(t, U.tnames) for t in texts]


def test_one_variable_cubic_square_rewrites_to_parameter():
    U = unfold("z^3/3")
    # z^2 = d(F)/dz - t1, so the coordinates are (-t1, 0) on (1, z)
    assert family_normal_form(U, parse_polynomial("z^2"), 4) == tpolys(U, "-t1", "0")


def test_one_variable_quartic_socle_power():
    U = unfold("z^4/4")
    # z^4 reduces to -t1*z - 2*t2*z^2: coordinates (0, -t1, -2*t2) on (1, z, z^2)
    assert (family_normal_form(U, parse_polynomial("z^4"), 4) ==
            tpolys(U, "0", "-t1", "-2*t2"))


def test_normal_form_kills_family_ideal_elements():
    # b * dF/dz must have coordinates zero for several b
    U = unfold("z^3/3")
    names = U.f.names + U.tnames
    dF = parse_polynomial("z^2 + t1", names)
    for b_text in ["1", "z", "z^2", "3 + z^3"]:
        b = parse_polynomial(b_text, names)
        assert all(c.is_zero() for c in family_normal_form(U, b * dF, 6))


def test_z_polynomial_is_read_at_t_degree_zero():
    U = unfold("z^4/4")
    g = parse_polynomial("z^5 + 2*z^2")
    lifted = Polynomial({m + (0,) * U.mu: c for m, c in g.coeffs.items()},
                        U.f.names + U.tnames)
    assert family_normal_form(U, g, 3) == family_normal_form(U, lifted, 3)
    with pytest.raises(ValueError):
        family_normal_form(U, parse_polynomial("x", ("x",)), 3)


def test_normal_form_is_linear_over_parameters():
    U = unfold("z^4/4")
    rng = random.Random(7)
    znames = ("z",)
    for _ in range(5):
        g1 = Polynomial({(rng.randrange(6),): Fraction(rng.randrange(-4, 5))
                         for _ in range(3)}, znames)
        g2 = Polynomial({(rng.randrange(6),): Fraction(rng.randrange(-4, 5))
                         for _ in range(3)}, znames)
        lhs = family_normal_form(U, g1 + g2, 5)
        rhs = [a + b for a, b in zip(family_normal_form(U, g1, 5),
                                     family_normal_form(U, g2, 5))]
        assert lhs == rhs


_UNFOLDINGS = {name: unfold(src, ("x", "y")) for name, src in
               [("E6", "x^3+y^4"), ("E7", "x^3+x*y^3"), ("D5", "x^2*y+y^4")]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_t_degree_zero_coordinates_are_the_milnor_ring_coordinates(data):
    U = _UNFOLDINGS[data.draw(st.sampled_from(sorted(_UNFOLDINGS)), label="U")]
    nt = data.draw(st.integers(0, 2), label="nt")
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.fractions(-3, 3, max_denominator=4), max_size=4), label="g")
    g = Polynomial(terms, U.f.names)
    got = [c.constant_term() for c in family_normal_form(U, g, nt)]
    assert got == U.ring.coords(g)


# -- deformed multiplication ---------------------------------------------------------


def test_cubic_structure_constants():
    U = unfold("z^3/3")
    c = family_multiplication(U, 4)
    # basis (1, z); z*z = -t1 * 1
    assert c[1][1][0] == parse_polynomial("-t1", U.tnames)
    assert c[1][1][1].is_zero()


def test_unit_axiom():
    for src, names in [("z^3/3", None), ("z^4/4", None), ("x^3+y^3", ("x", "y"))]:
        U = unfold(src, names)
        c = family_multiplication(U, 3)
        for b in range(U.mu):
            for e in range(U.mu):
                want = Polynomial.constant(1 if e == b else 0, U.tnames)
                assert c[0][b][e] == want


def test_multiplication_is_associative_in_the_family():
    # (phi_a phi_b) phi_c and phi_a (phi_b phi_c) have equal normal forms
    for src, names in [("z^4/4", None), ("x^3+y^3", ("x", "y"))]:
        U = unfold(src, names)
        nt = 3
        c = family_multiplication(U, nt)
        mu = U.mu
        for a in range(mu):
            for b in range(mu):
                for d in range(mu):
                    left = [Polynomial.zero(U.tnames) for _ in range(mu)]
                    right = [Polynomial.zero(U.tnames) for _ in range(mu)]
                    for e in range(mu):
                        for g in range(mu):
                            left[g] = left[g] + truncate(c[a][b][e] * c[e][d][g], nt)
                            right[g] = right[g] + truncate(c[b][d][e] * c[a][e][g], nt)
                    assert left == right


# -- family residues and the metric --------------------------------------------------


def test_base_point_metric_matches_one_point_residues():
    for src, names in [("z^3/3", None), ("z^4/4", None), ("x^3+y^3", ("x", "y"))]:
        U = unfold(src, names)
        eta = family_metric(U, 3)
        ring = U.ring
        for a in range(U.mu):
            for b in range(U.mu):
                prod = Polynomial.monomial(
                    tuple(x + y for x, y in zip(U.phis[a], U.phis[b])),
                    1, U.f.names)
                assert eta[a][b].constant_term() == ring.residue(prod)


def test_metric_is_the_family_residue_as_a_full_series():
    # read off the socle row of the structure constants, the metric must
    # equal the family residue of each product at every computed t-order
    for src, names, nt in [("z^4/4", None, 4), ("x^3+y^3", ("x", "y"), 3),
                           ("x^3+y^4", ("x", "y"), 3)]:
        U = unfold(src, names)
        eta = family_metric(U, nt)
        for a in range(U.mu):
            for b in range(U.mu):
                prod = Polynomial.monomial(
                    tuple(x + y for x, y in zip(U.phis[a], U.phis[b])),
                    1, U.f.names)
                assert eta[a][b] == family_residue(U, prod, nt), (src, a, b)


def test_cubic_metric_is_constant_to_all_computed_orders():
    U = unfold("z^3/3")
    eta = family_metric(U, 8)
    assert eta[0][0].is_zero()
    assert eta[0][1] == Polynomial.constant(1, U.tnames)
    assert eta[1][1].is_zero()


def test_quartic_metric_top_entry_depends_on_parameters():
    U = unfold("z^4/4")
    eta = family_metric(U, 4)
    assert eta[2][2] == parse_polynomial("-2*t2", U.tnames)
    assert eta[1][2].is_zero()
    assert eta[1][1] == Polynomial.constant(1, U.tnames)
    assert eta[0][2] == Polynomial.constant(1, U.tnames)


def test_residue_of_product_with_hessian_is_a_trace():
    # Scheja-Storch: residue(g * hess F) equals the trace of multiplication
    # by g; at the base point (t = 0) both sides are computable exactly.
    for src, names in [("z^3/3", None), ("z^4/4", None), ("x^3+y^3", ("x", "y"))]:
        ring = milnor_ring(parse_polynomial(src, names))
        U = universal_unfolding(ring.f)
        rng = random.Random(11)
        for _ in range(4):
            g = Polynomial(
                {m: Fraction(rng.randrange(-3, 4)) for m in ring.basis}, ring.f.names)
            from lglab.poly import hessian_det
            val = family_residue(U, g * hessian_det(ring.f), 0).constant_term()
            M = ring.multiplication_matrix(g)
            assert val == sum(M[i][i] for i in range(ring.mu))


def test_family_residue_requires_quasihomogeneous_base():
    U = universal_unfolding(parse_polynomial("x^3/3+y^3/3-x*y", ("x", "y")))
    with pytest.raises(PrecondError):
        family_residue(U, parse_polynomial("x*y", ("x", "y")), 2)


def test_unfolding_requires_isolated_critical_point():
    with pytest.raises(PrecondError):
        universal_unfolding(parse_polynomial("x^2*y^2", ("x", "y")))


# -- flat coordinates and potentials --------------------------------------------------


def test_quadratic_potential_is_the_cube():
    D = build_flat_potential(unfold("z^2/2"), nt=4)
    assert D.potential == parse_polynomial("s0^3/6", ("s0",))
    assert D.eta0 == [[Fraction(1)]]


def test_cubic_potential_closed_form():
    D = build_flat_potential(unfold("z^3/3"), nt=5)
    want = parse_polynomial("s0^2*s1/2 - s1^4/24", ("s0", "s1"))
    assert D.potential == want
    # the metric was already flat, so the coordinate change is trivial
    assert D.t_of_s[0] == Polynomial.variable(0, ("s0", "s1"))
    assert D.t_of_s[1] == Polynomial.variable(1, ("s0", "s1"))


def test_quartic_flat_coordinate_change():
    D = build_flat_potential(unfold("z^4/4"), nt=5)
    snames = ("s0", "s1", "s2")
    assert D.t_of_s[0] == parse_polynomial("s0 + s2^2/2", snames)
    assert D.t_of_s[1] == Polynomial.variable(1, snames)
    assert D.t_of_s[2] == Polynomial.variable(2, snames)


def test_flattening_obstruction_is_reported():
    # S_00 = s1^2 violates Saint-Venant compatibility: no sigma exists
    names = ("s0", "s1")
    zero = Polynomial.zero(names)
    S = [[parse_polynomial("s1^2", names), zero], [zero, zero]]
    with pytest.raises(ComputeError, match="obstructed at degree 2"):
        _integrate_symmetric_gradient(S, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_form_flattening_inverts_the_symmetrized_gradient(data):
    mu = data.draw(st.integers(2, 4), label="mu")
    k = data.draw(st.integers(1, 3), label="k")
    names = tuple(f"s{a}" for a in range(mu))
    monos = [m for m in itertools.product(range(k + 2), repeat=mu)
             if sum(m) == k + 1]
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=4),
                      min_size=len(monos), max_size=len(monos))
    sigma = [Polynomial(dict(zip(monos, data.draw(coeffs))), names)
             for _ in range(mu)]
    S = [[sigma[b].diff(a) + sigma[a].diff(b) for b in range(mu)]
         for a in range(mu)]
    assert _integrate_symmetric_gradient(S, k) == sigma


def test_each_product_is_reduced_once(monkeypatch):
    calls = []

    def counting(U, g, nt):
        calls.append(g)
        return family_normal_form(U, g, nt)

    monkeypatch.setattr(frobenius, "family_normal_form", counting)
    for src, names in [("z^4/4", None), ("x^3+y^4", ("x", "y"))]:
        U = unfold(src, names)
        calls.clear()
        build_flat_potential(U, nt=2)
        # the mu(mu+1)/2 products phi_a phi_b (a <= b) and the Hessian
        assert len(calls) == U.mu * (U.mu + 1) // 2 + 1, src


def _plain_pull_back(T, t_of_s, nt):
    """sum over all ordered index tuples, substituted in full, truncated last."""
    n, rank = len(t_of_s), len(next(iter(T)))
    jac = [[t.diff(a) for t in t_of_s] for a in range(n)]
    at_s = {idx: v.subs(t_of_s) for idx, v in T.items()}
    out = {}
    for idx in T:
        acc = Polynomial.zero(t_of_s[0].names)
        for ps in itertools.product(range(n), repeat=rank):
            term = at_s[tuple(sorted(ps))]
            for a, p in zip(idx, ps):
                term = term * jac[a][p]
            acc = acc + term
        out[idx] = truncate(acc, nt)
    return out


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pull_back_matches_the_all_index_contraction(data):
    n = data.draw(st.integers(2, 3), label="n")
    rank = data.draw(st.integers(2, 3), label="rank")
    nt = data.draw(st.integers(0, 3), label="nt")
    tnames = tuple(f"t{a}" for a in range(n))
    snames = tuple(f"s{a}" for a in range(n))
    coeff = st.fractions(-3, 3, max_denominator=3)

    def poly(names, lo, hi):
        monos = [m for m in itertools.product(range(hi + 1), repeat=n)
                 if lo <= sum(m) <= hi]
        picked = data.draw(st.dictionaries(st.sampled_from(monos), coeff,
                                           max_size=3))
        return Polynomial(picked, names)

    T = {idx: poly(tnames, 0, 2)
         for idx in itertools.combinations_with_replacement(range(n), rank)}
    # tangent to the identity, as every flat coordinate change is
    t_of_s = [Polynomial.variable(a, snames) + poly(snames, 2, 3)
              for a in range(n)]
    assert _pull_back(T, t_of_s, nt) == _plain_pull_back(T, t_of_s, nt)


@pytest.mark.parametrize("src,names,nt,marginal", [
    ("x^3+y^3+w^3", ("x", "y", "w"), 3, "t7 = x*y*w"),
    ("x^4+y^4", ("x", "y"), 2, "t8 = x^2*y^2"),
])
def test_marginal_obstruction_is_a_precondition(src, names, nt, marginal):
    # simple elliptic: dx stops being primitive once the marginal
    # parameter's terms reach the flattening
    U = unfold(src, names)
    with pytest.raises(PrecondError, match=re.escape(marginal)) as info:
        build_flat_potential(U, nt=nt)
    assert isinstance(info.value.__cause__, ComputeError)
    assert "obstructed" in str(info.value)
    # one order lower still builds, with the same marginal parameter
    assert wdvv_residual(build_flat_potential(U, nt=nt - 1)) == 0


def test_obstruction_without_a_marginal_parameter_stays_a_compute_error(
        monkeypatch):
    # E6 has no weight-0 parameter, so an obstructed flattening there is a
    # failed computation, not an unmet precondition
    def obstructed(S, k):
        raise ComputeError(f"metric flattening obstructed at degree {k}")

    monkeypatch.setattr(frobenius, "_integrate_symmetric_gradient", obstructed)
    with pytest.raises(ComputeError, match="obstructed") as info:
        build_flat_potential(unfold("x^3+y^4", ("x", "y")), nt=2)
    assert not isinstance(info.value, PrecondError)


def test_t_order_zero_is_the_cubic_part_of_the_potential():
    cases = [("z^2/2", None), ("z^3/3", None), ("z^4/4", None),
             ("x^3+y^4", ("x", "y")), ("x^3+y^3+w^3", ("x", "y", "w"))]
    for src, names in cases:
        U = unfold(src, names)
        D0 = build_flat_potential(U, nt=0)
        D1 = build_flat_potential(U, nt=1)
        assert D0.potential == degree_part(D1.potential, 3), src
        assert wdvv_residual(D0) == 0, src


def test_third_derivatives_of_a_non_potential_are_refused():
    names = ("s0", "s1")
    T = {t: Polynomial.zero(names)
         for t in itertools.combinations_with_replacement(range(2), 3)}
    T[0, 0, 0] = Polynomial.variable(1, names)
    with pytest.raises(ComputeError, match="not integrable"):
        _integrate_third_derivatives(T)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_euler_integration_recovers_a_homogeneous_potential(data):
    n = data.draw(st.integers(2, 4), label="n")
    d = data.draw(st.integers(3, 5), label="d")
    names = tuple(f"s{a}" for a in range(n))
    monos = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]
    coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                                min_size=len(monos), max_size=len(monos)))
    F = Polynomial(dict(zip(monos, coeffs)), names)
    T = {(a, b, c): F.diff(a).diff(b).diff(c)
         for a, b, c in itertools.combinations_with_replacement(range(n), 3)}
    assert _integrate_third_derivatives(T) == F


def test_coordinate_change_is_tangent_to_identity():
    for src, names in [("z^4/4", None), ("x^3+y^3", ("x", "y"))]:
        D = build_flat_potential(unfold(src, names), nt=3)
        mu = D.unfolding.mu
        for a in range(mu):
            diff = D.t_of_s[a] - Polynomial.variable(a, D.t_of_s[a].names)
            assert all(sum(m) >= 2 for m in diff.coeffs)


def test_potential_third_derivatives_match_lowered_structure_constants():
    # at the base point the third derivatives are residue triple products
    for src, names in [("z^3/3", None), ("x^3+y^3", ("x", "y"))]:
        D = build_flat_potential(unfold(src, names), nt=4)
        U = D.unfolding
        mu = U.mu
        for a in range(mu):
            for b in range(mu):
                for c in range(mu):
                    triple = Polynomial.monomial(
                        tuple(x + y + w for x, y, w in
                              zip(U.phis[a], U.phis[b], U.phis[c])),
                        1, U.f.names)
                    want = U.ring.residue(triple)
                    got = D.third_derivatives(a, b, c).constant_term()
                    assert got == want


def test_lowered_tensor_is_totally_symmetric():
    # the contraction sum_e c_ab^e eta_ec equals the residue of the triple
    # product, hence must be symmetric under all permutations
    U = unfold("z^4/4")
    nt = 4
    c = family_multiplication(U, nt)
    eta = family_metric(U, nt)
    mu = U.mu
    for a in range(mu):
        for b in range(mu):
            for d in range(mu):
                low = Polynomial.zero(U.tnames)
                for e in range(mu):
                    low = low + truncate(c[a][b][e] * eta[e][d], nt)
                triple = Polynomial.monomial(
                    tuple(x + y + w for x, y, w in
                          zip(U.phis[a], U.phis[b], U.phis[d])), 1, U.f.names)
                direct = family_residue(U, triple, nt)
                assert low == direct


def test_euler_degrees():
    D = build_flat_potential(unfold("z^4/4"), nt=3)
    assert D.euler_degrees == [Fraction(1), Fraction(3, 4), Fraction(2, 4)]


def test_describe_is_json_ready():
    import json

    from lglab.util import jsonable
    D = build_flat_potential(unfold("z^3/3"), nt=4)
    text = json.dumps(jsonable(D.describe()))
    assert "milnor_number" in text


# -- associativity -------------------------------------------------------------------


def test_wdvv_vanishes_for_the_cubic():
    D = build_flat_potential(unfold("z^3/3"), nt=6)
    assert wdvv_residual(D) == 0


def test_wdvv_vanishes_for_the_quartic():
    D = build_flat_potential(unfold("z^4/4"), nt=5)
    assert wdvv_residual(D) == 0


def test_wdvv_vanishes_for_two_variable_sum_of_cubes():
    D = build_flat_potential(unfold("x^3+y^3", ("x", "y")), nt=4)
    assert wdvv_residual(D) == 0


def test_wdvv_detects_a_broken_potential():
    D = build_flat_potential(unfold("z^4/4"), nt=5)
    D.potential = D.potential + parse_polynomial("s1^2*s2^3", ("s0", "s1", "s2"))
    assert wdvv_residual(D) != 0


@pytest.mark.parametrize("src,names", [("z^4/4", None), ("x^3+y^4", ("x", "y"))])
def test_wdvv_residual_vanishes_at_t_orders_zero_and_one(src, names):
    for nt in (0, 1):
        assert wdvv_residual(build_flat_potential(unfold(src, names), nt=nt)) == 0


def _plain_wdvv_residual(D):
    """The associativity residual at the potential's t-order with every
    index written out: no symmetry of F_abc or eta^{ef} is used."""
    nt, mu = D.nt, D.unfolding.mu
    inv = invert_exact(D.eta0)
    idx = range(mu)
    F = {t: truncate(D.potential.diff(t[0]).diff(t[1]).diff(t[2]), nt)
         for t in itertools.product(idx, repeat=3)}
    worst = Fraction(0)
    for a, b, c, d in itertools.product(idx, repeat=4):
        res = Polynomial.zero(D.potential.names)
        for e, f_ in itertools.product(idx, repeat=2):
            res = res + (F[a, b, e] * F[f_, c, d]
                         - F[a, c, e] * F[f_, b, d]) * inv[e][f_]
        for v in truncate(res, nt).coeffs.values():
            worst = max(worst, abs(v))
    return worst


def test_wdvv_residual_matches_the_all_index_contraction():
    D = build_flat_potential(unfold("x^2*y+y^4", ("x", "y")), nt=2)
    flat = D.potential
    assert wdvv_residual(D) == _plain_wdvv_residual(D) == 0
    # each breaks associativity only through terms with mixed indices
    for extra in ("s0*s1^2*s3", "s1*s2*s3*s4"):
        D.potential = flat + parse_polynomial(extra, flat.names)
        broken = wdvv_residual(D)
        assert broken != 0
        assert broken == _plain_wdvv_residual(D)


_FLAT = {src: build_flat_potential(unfold(src, names), nt=1)
         for src, names in [("z^4/4", None), ("x^3+y^3", ("x", "y"))]}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_wdvv_residual_matches_the_all_index_contraction_on_random_potentials(data):
    D = _FLAT[data.draw(st.sampled_from(sorted(_FLAT)))]
    snames = D.potential.names
    monos = [m for m in itertools.product(range(4), repeat=len(snames))
             if 3 <= sum(m) <= 4]
    extra = data.draw(st.dictionaries(st.sampled_from(monos),
                                      st.fractions(-3, 3, max_denominator=3),
                                      max_size=3))
    broken = FrobeniusData(**{**vars(D), "potential":
                              D.potential + Polynomial(extra, snames)})
    assert wdvv_residual(broken) == _plain_wdvv_residual(broken)
