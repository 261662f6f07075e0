"""Top-level acceptance checks, one test per shipped guarantee.

Each test exercises a full pipeline at its production tolerance; the
conftest hook prints a one-line pass/fail digest per criterion at the
end of the run.  Numeric bounds are the shipped contract, not tuned to
the current implementation's best case.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab.brieskorn import (
    BrieskornLattice,
    PairingSeries,
    PVField,
    bv_bracket,
    contract_gradient,
    divergence,
    wedge,
)
from lglab.ellipticity import (
    check_laurent_nondegenerate,
    check_quasihomogeneous_ellipticity,
)
from lglab.frobenius import build_flat_potential, universal_unfolding, wdvv_residual
from lglab.groebner import milnor_ring
from lglab.poly import Polynomial, parse_polynomial
from lglab.spectral import (
    DiscreteForm,
    SpectralContext,
    build_grid,
    derham_compare,
    eigensolve_lowest,
    hodge_decompose,
    homotopy_identity_check,
    norm,
    splitting_map,
)
from lglab.spectral.analysis import HARMONIC_TOL, form_distance
from lglab.spectral.forms import random_smooth_form


def Pz(text):
    return parse_polynomial(text, names=["z"])


def P(text, names):
    return parse_polynomial(text, names=names)


def random_pv(rng, names, max_deg=4, nterms=3):
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


def random_homogeneous_pv(rng, names, size, max_deg=4):
    n = len(names)
    I = tuple(sorted(rng.sample(range(n), size)))
    m = tuple(rng.randint(0, max_deg) for _ in range(n))
    c = Fraction(rng.randint(1, 4))
    return PVField({I: Polynomial.monomial(m, c, tuple(names))}, tuple(names))


def test_c01_quadratic_ground_state_is_unique_and_gaussian():
    # Degree-1 spectrum of the quadratic potential on the production
    # grid: one near-zero mode, a clean gap, and the ground profile is
    # the unit-width Gaussian anti-diagonal 1-form, within 5% in L².
    start = time.monotonic()
    grid = build_grid(4.0, 129)
    res = eigensolve_lowest(Pz("z^2/2"), grid, degree=1, k=6, backend="fd1")
    below = [v for v in res.eigenvalues if v < 1e-3]
    assert len(below) == 1
    assert res.eigenvalues[1] >= 0.5
    profile = np.exp(-np.abs(grid.z) ** 2)
    target = DiscreteForm(grid)
    target.comps[1] = profile
    target.comps[2] = -profile
    assert form_distance(res.eigenforms[0], target) <= 0.05
    assert time.monotonic() - start <= 60.0


def test_c02_kernel_dimension_equals_milnor_number_across_grids():
    cases = [(Pz("z^2/2"), 1), (Pz("z^3/3"), 2), (Pz("z^4/4"), 3)]
    settings = [(4.0, 129), (5.0, 129), (4.0, 161)]
    for f, mu in cases:
        for half_width, points in settings:
            res = eigensolve_lowest(f, build_grid(half_width, points),
                                    degree=1, k=6, backend="fd1")
            assert res.kernel_dim == mu, (str(f), half_width, points)
            assert res.reliable


def test_c03_hodge_pieces_reconstruct_and_stay_orthogonal():
    grid = build_grid(4.0, 65)
    for seed, f in ((101, Pz("z^2/2")), (103, Pz("z^3/3")), (107, Pz("z^4/4"))):
        ctx = SpectralContext(f, grid, backend="fd1")
        rng = random.Random(seed)
        for _ in range(20):
            a = random_smooth_form(grid, rng)
            split = hodge_decompose(f, grid, a, backend="fd1", context=ctx)
            assert split.relative_residual <= 1e-9, str(f)
            assert split.max_cross <= 1e-9, str(f)


def test_c04_splitting_lift_closes_order_by_order():
    # fd1 at (3.5, 109) is the smallest grid from 97² to 129² at which every
    # kernel vector of z²/2, z³/3, z⁴/4 and z³/3+z²/2 is harmonic to a tenth
    # of HARMONIC_TOL; no radius-4.5 grid in that range gets z⁴/4 there
    f = Pz("z^3/3")
    grid = build_grid(3.5, 109)
    ctx = SpectralContext(f, grid, backend="fd1")
    res = ctx.eigensolve(1, k=6)
    lifted = 0
    for phi in res.eigenforms[:res.kernel_dim]:
        series = splitting_map(f, grid, phi, orders=5, context=ctx)
        assert series.harmonic_defect <= HARMONIC_TOL / 10
        assert all(r <= 1e-8 for r in series.residuals)
        assert len(series.coefficients) == 6
        lifted += 1
    assert lifted == milnor_ring(f).mu


def test_c05_polyvector_calculus_identities_hold_exactly():
    rings = [(("z",), Pz("z^3/3")),
             (("x", "y"), P("x^3 + y^3", ("x", "y"))),
             (("x", "y", "w"), P("x^3 + y^3 + w^3", ("x", "y", "w")))]
    rng = random.Random(509)
    fields = 0
    for names, f in rings:
        for _ in range(34):
            v = random_pv(rng, names)
            fields += 1
            assert contract_gradient(f, contract_gradient(f, v)).is_zero()
            assert divergence(divergence(v)).is_zero()
            anti = contract_gradient(f, divergence(v)) + \
                divergence(contract_gradient(f, v))
            assert anti.is_zero()
        for _ in range(10):
            ka, kb = rng.randint(0, len(names)), rng.randint(0, len(names))
            a = random_homogeneous_pv(rng, names, ka)
            b = random_homogeneous_pv(rng, names, kb)
            c = random_pv(rng, names, nterms=2)
            sign = -1 if ((ka + 1) * kb) % 2 else 1
            lhs = bv_bracket(a, wedge(b, c))
            rhs = wedge(bv_bracket(a, b), c) + sign * wedge(b, bv_bracket(a, c))
            assert (lhs - rhs).is_zero()
    assert fields >= 100


C05_RINGS = {"z^3/3": ("z",), "x^3 + y^3": ("x", "y"),
             "x^3 + y^3 + w^3": ("x", "y", "w")}


def drawn_pv(data, names, size=None, max_deg=4):
    """A PV field with up to three index sets, all of `size` when given."""
    n = len(names)
    lo, hi = (0, n) if size is None else (size, size)
    index = st.sets(st.integers(0, n - 1), min_size=lo, max_size=hi)
    mono = st.tuples(*[st.integers(0, max_deg)] * n)
    coeffs = st.dictionaries(mono, st.fractions(-4, 4, max_denominator=3),
                             min_size=1, max_size=3)
    parts = data.draw(st.dictionaries(index.map(lambda I: tuple(sorted(I))),
                                      coeffs, max_size=3))
    return PVField({I: Polynomial(c, names) for I, c in parts.items()}, names)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_c05_polyvector_identities_hold_on_drawn_fields(data):
    text = data.draw(st.sampled_from(sorted(C05_RINGS)))
    names = C05_RINGS[text]
    f = P(text, names)
    v = drawn_pv(data, names)
    assert contract_gradient(f, contract_gradient(f, v)).is_zero()
    assert divergence(divergence(v)).is_zero()
    anti = contract_gradient(f, divergence(v)) + divergence(contract_gradient(f, v))
    assert anti.is_zero()
    ka = data.draw(st.integers(0, len(names)))
    kb = data.draw(st.integers(0, len(names)))
    a = drawn_pv(data, names, ka)
    b = drawn_pv(data, names, kb)
    c = drawn_pv(data, names)
    sign = -1 if ((ka + 1) * kb) % 2 else 1
    lhs = bv_bracket(a, wedge(b, c))
    rhs = wedge(bv_bracket(a, b), c) + sign * wedge(b, bv_bracket(a, c))
    assert (lhs - rhs).is_zero()


def test_c06_cubic_lattice_reduction_and_antidiagonal_pairing():
    L = BrieskornLattice(Pz("z^3/3"), order=8)
    assert L.reduce(Pz("z^2")).is_zero()
    assert L.reduce(Pz("z^3")).coords == {1: (Fraction(-1), Fraction(0))}
    M = L.pairing_matrix()
    zero = PairingSeries({}, 8)
    unit = PairingSeries({0: Fraction(1)}, 8)
    assert M[0][0] == zero and M[1][1] == zero
    assert M[0][1] == unit and M[1][0] == unit


def test_c07_residue_pairing_has_full_rank():
    cases = [(Pz("z^3/3"), 2), (P("x^3 + y^3", ("x", "y")), 4),
             (Pz("z^4/4"), 3)]
    for f, mu in cases:
        L = BrieskornLattice(f, order=5)
        assert L.mu == mu
        assert L.residue_matrix_rank() == mu


def test_c08_connection_compatibility_and_spectrum():
    for f in (Pz("z^3/3"), Pz("z^4/4")):
        n = 1
        L = BrieskornLattice(f, order=8)
        for p in range(L.mu):
            for q in range(L.mu):
                K = L.pairing(L.basis_element(p), L.basis_element(q))
                lhs = PairingSeries(
                    {k: Fraction(k) * v for k, v in K.coeffs.items()}, K.order)
                lhs = lhs + PairingSeries(
                    {k: Fraction(n) * v for k, v in K.coeffs.items()}, K.order)
                rhs = L.pairing(L.connection(L.basis_element(p)),
                                L.basis_element(q)) + \
                    L.pairing(L.basis_element(p),
                              L.connection(L.basis_element(q)))
                assert lhs == rhs, (str(f), p, q)
    L2 = BrieskornLattice(Pz("z^3/3"), order=8)
    assert L2.connection_spectrum() == [Fraction(1, 3), Fraction(2, 3)]


def test_c09_wdvv_residuals_vanish_exactly():
    start = time.monotonic()
    quad = build_flat_potential(universal_unfolding(Pz("z^2/2")), nt=4)
    assert quad.potential == parse_polynomial("s0^3/6", ("s0",))
    cubic = build_flat_potential(universal_unfolding(Pz("z^3/3")), nt=6)
    assert wdvv_residual(cubic) == 0
    quartic = build_flat_potential(universal_unfolding(Pz("z^4/4")), nt=5)
    assert wdvv_residual(quartic) == 0
    assert time.monotonic() - start <= 120.0


def test_c10_localization_identity_converges_at_second_order():
    report = homotopy_identity_check(Pz("z^2/2"), build_grid(4.0, 65),
                                     levels=3, backend="fd2")
    assert len(report["ratios"]) == 2
    for ratio in report["ratios"]:
        assert 3.5 <= ratio <= 4.5


def test_c11_full_twist_comparison_agrees():
    grid = build_grid(4.0, 129)
    for f, mu in ((Pz("z^2/2"), 1), (Pz("z^3/3"), 2)):
        report = derham_compare(f, grid, backend="fd1")
        assert report["dims_agree"], str(f)
        assert report["dolbeault_dim"] == mu
        assert report["max_angle_degrees"] <= 2.0, str(f)


def test_c12_ellipticity_verdicts_match_expectations():
    suite = [("z^2/2", ("z",)), ("z^3/3", ("z",)), ("z^4/4", ("z",)),
             ("z^5/5", ("z",)), ("x^3+y^3", ("x", "y")),
             ("x^4+y^4", ("x", "y")), ("x^3+y^4", ("x", "y")),
             ("x^2*y+y^4", ("x", "y")), ("x^2+y^2+w^2", ("x", "y", "w")),
             ("x^3+y^3+w^3", ("x", "y", "w"))]
    for text, names in suite:
        report = check_quasihomogeneous_ellipticity(P(text, names))
        assert report.verdict == "Satisfied", text
    start = time.monotonic()
    shifted = check_laurent_nondegenerate(
        parse_polynomial("z+2+z^-1", ("z",), laurent=True))
    assert shifted.verdict == "Violated"
    assert shifted.witness == (complex(-1),)
    pure = check_laurent_nondegenerate(
        parse_polynomial("z+z^-1", ("z",), laurent=True))
    assert pure.verdict == "Satisfied"
    torus = check_laurent_nondegenerate(
        parse_polynomial("x+y+x^-1*y^-1", ("x", "y"), laurent=True))
    assert torus.verdict == "Satisfied"
    xyw = ("x", "y", "w")
    torus3 = check_laurent_nondegenerate(
        parse_polynomial("x+y+w+x^-1*y^-1*w^-1", xyw, laurent=True))
    assert torus3.verdict == "Satisfied"
    shifted3 = check_laurent_nondegenerate(
        parse_polynomial("x+y+w+x^-1*y^-1*w^-1-4", xyw, laurent=True))
    assert shifted3.verdict == "Violated"
    assert shifted3.witness == (1 + 0j, 1 + 0j, 1 + 0j)
    assert time.monotonic() - start <= 10.0


def test_c13_exceptional_frobenius_data_agree_with_the_lattice():
    # E6, E7, E8 and the simple elliptic E~6: WDVV holds exactly, the flat
    # metric at the base point is the lattice's residue pairing, and the
    # Euler degrees d_a = 1 - deg phi_a and the connection exponents
    # alpha_a = deg phi_a + sum q_i add up to 1 + sum q_i
    start = time.monotonic()
    xy, xyw = ("x", "y"), ("x", "y", "w")
    cases = [("x^3+y^4", xy, 3), ("x^3+x*y^3", xy, 3), ("x^3+y^5", xy, 3),
             ("x^3+y^3+w^3", xyw, 2)]
    for text, names, nt in cases:
        f = P(text, names)
        D = build_flat_potential(universal_unfolding(f), nt=nt)
        assert wdvv_residual(D) == 0, text
        L = BrieskornLattice(f)
        assert D.eta0 == L.residue_matrix(), text
        total = 1 + sum(D.unfolding.ring.weights.q)
        spectrum = L.connection_spectrum()
        assert len(spectrum) == len(D.euler_degrees) == D.unfolding.mu
        for d, alpha in zip(D.euler_degrees, spectrum):
            assert d + alpha == total, text
    assert time.monotonic() - start <= 120.0
