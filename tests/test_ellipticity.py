import random
from fractions import Fraction

import numpy as np
import pytest

from lglab.ellipticity import (
    LIKELY,
    SATISFIED,
    UNKNOWN,
    VIOLATED,
    _face_system,
    check_laurent_nondegenerate,
    check_quasihomogeneous_ellipticity,
    growth_table_csv,
    newton_polytope,
    numeric_growth_table,
)
from lglab.poly import Polynomial, parse_polynomial
from lglab.util import PrecondError


def P(text, names, laurent=False):
    return parse_polynomial(text, names=names, laurent=laurent)


SUITE = [
    ("z^2/2", ("z",)),
    ("z^3/3", ("z",)),
    ("z^4/4", ("z",)),
    ("z^5/5", ("z",)),
    ("z^6/6", ("z",)),
    ("x^3 + y^3", ("x", "y")),
    ("x^4 + y^4", ("x", "y")),
    ("x^3 + y^5", ("x", "y")),
    ("x^3 + x*y^3", ("x", "y")),
    ("x^2 + y^4", ("x", "y")),
]


class TestQuasihomogeneous:
    def test_suite_all_satisfied(self):
        for text, names in SUITE:
            rep = check_quasihomogeneous_ellipticity(P(text, names))
            assert rep.verdict == SATISFIED, (text, rep.reason)

    def test_simplest_case_details(self):
        rep = check_quasihomogeneous_ellipticity(P("z^2/2", ("z",)))
        assert rep.verdict == SATISFIED
        assert rep.details["weights"] == (Fraction(1, 2),)
        assert rep.details["mu"] == 1

    def test_heavy_weight_is_unknown(self):
        rep = check_quasihomogeneous_ellipticity(P("x^3 + x*y", ("x", "y")))
        assert rep.verdict == UNKNOWN
        assert "2/3" in rep.reason

    def test_no_weights_is_unknown(self):
        rep = check_quasihomogeneous_ellipticity(P("x^3 + y^3 + x^2*y^2", ("x", "y")))
        assert rep.verdict == UNKNOWN

    def test_nonisolated_is_unknown(self):
        rep = check_quasihomogeneous_ellipticity(P("x^2*y^2", ("x", "y")))
        assert rep.verdict == UNKNOWN


class TestNewtonPolytope:
    def test_segment(self):
        poly = newton_polytope(P("z + z^-1", ("z",), laurent=True))
        assert poly.vertices == [(-1,), (1,)]
        assert poly.convenient
        assert [f.dim for f in poly.faces] == [0, 0, 1]

    def test_single_monomial_not_convenient(self):
        poly = newton_polytope(P("z", ("z",), laurent=True))
        assert poly.vertices == [(1,)]
        assert not poly.convenient

    def test_triangle(self):
        poly = newton_polytope(P("x + y + x^-1*y^-1", ("x", "y"), laurent=True))
        assert sorted(poly.vertices) == [(-1, -1), (0, 1), (1, 0)]
        assert poly.convenient
        dims = [f.dim for f in poly.faces]
        assert dims.count(0) == 3 and dims.count(1) == 3 and dims.count(2) == 1

    def test_offset_segment_not_convenient(self):
        poly = newton_polytope(P("z + z^3", ("z",), laurent=True))
        assert not poly.convenient

    def test_lower_dimensional_hull_not_convenient(self):
        poly = newton_polytope(P("x*y + x^-1*y^-1", ("x", "y"), laurent=True))
        assert poly.dim == 1
        assert not poly.convenient

    def test_support_contained_in_hull(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 3)
            names = tuple(f"z{i}" for i in range(n))
            coeffs = {}
            for _ in range(rng.randint(2, 7)):
                m = tuple(rng.randint(-3, 3) for _ in range(n))
                coeffs[m] = Fraction(rng.randint(1, 5))
            f = Polynomial(coeffs, names, "laurent")
            poly = newton_polytope(f)
            for m in f.coeffs:
                assert poly.contains(m)

    def test_interior_point_not_a_vertex(self):
        f = Polynomial({(-1,): Fraction(1), (0,): Fraction(2), (1,): Fraction(1)},
                       ("z",), "laurent")
        poly = newton_polytope(f)
        assert poly.vertices == [(-1,), (1,)]


class TestLaurentNondegeneracy:
    def test_balanced_segment_satisfied(self):
        rep = check_laurent_nondegenerate(P("z + z^-1", ("z",), laurent=True))
        assert rep.verdict == SATISFIED

    def test_shifted_segment_violated_with_witness(self):
        rep = check_laurent_nondegenerate(P("z + 2 + z^-1", ("z",), laurent=True))
        assert rep.verdict == VIOLATED
        assert rep.witness is not None
        assert abs(rep.witness[0] - (-1)) < 1e-12

    def test_mirror_triangle_satisfied(self):
        rep = check_laurent_nondegenerate(
            P("x + y + x^-1*y^-1", ("x", "y"), laurent=True))
        assert rep.verdict == SATISFIED

    @pytest.mark.parametrize("text, names", [
        ("x^2 + 2*x*y + y^2 + w + x^-1*y^-1*w^-1", ("x", "y", "w")),
        ("x^2 + y^2 + 2*x*y + x^-1*y^-1", ("x", "y")),
    ])
    def test_witness_is_a_torus_point_or_none(self, text, names):
        f = P(text, names, laurent=True)
        rep = check_laurent_nondegenerate(f)
        assert rep.verdict == VIOLATED
        if rep.witness is None:
            assert "no torus witness" in rep.reason
            return
        assert all(1e-3 <= abs(z) <= 1e3 for z in rep.witness)
        residual = min(max(abs(s.eval_complex(rep.witness)) for s in _face_system(f, F))
                       for F in newton_polytope(f).faces)
        assert residual < 1e-8

    def test_not_convenient_rejected(self):
        with pytest.raises(PrecondError):
            check_laurent_nondegenerate(P("z", ("z",), laurent=True))

    def test_grid_search_agrees_with_exact_verdict(self):
        cases = [("z + z^-1", SATISFIED), ("z + 2 + z^-1", VIOLATED)]
        moduli = np.exp(np.linspace(-1.0, 1.0, 41))
        phases = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for text, expected in cases:
            f = P(text, ("z",), laurent=True)
            rep = check_laurent_nondegenerate(f)
            assert rep.verdict == expected
            poly = newton_polytope(f)
            best = np.inf
            for face in poly.faces:
                system = _face_system(f, face)
                for m in moduli:
                    zs = m * np.exp(1j * phases)
                    tot = np.zeros_like(phases)
                    for s in system:
                        tot = tot + np.array([abs(s.eval_complex((z,))) ** 2 for z in zs])
                    best = min(best, float(tot.min()))
            if expected == VIOLATED:
                assert best < 1e-10
            else:
                assert best > 1e-2


class TestNumericGrowth:
    def test_quadratic_margin_closed_form(self):
        # on the sphere of radius r: |f'| = r, |f''| = 1 and f''' = 0
        rep = numeric_growth_table(P("z^2/2", ("z",)))
        assert rep.verdict == LIKELY
        assert {k for k, _, _ in rep.table} == {2, 3}
        for k, r, m in rep.table:
            want = 0.1 * r * r - 1.0 if k == 2 else 0.1 * r ** 3
            assert abs(m - want) < 1e-9

    def test_linear_fails(self):
        rep = numeric_growth_table(P("z", ("z",)))
        assert rep.verdict == UNKNOWN

    def test_laurent_log_coordinates(self):
        rep = numeric_growth_table(P("z + z^-1", ("z",), laurent=True))
        assert rep.verdict == LIKELY

    def test_symbolic_implies_numeric(self):
        for text, names in [("z^2/2", ("z",)), ("z^3/3", ("z",)),
                            ("x^3 + y^3", ("x", "y")), ("x^3 + x*y^3", ("x", "y"))]:
            f = P(text, names)
            assert check_quasihomogeneous_ellipticity(f).verdict == SATISFIED
            assert numeric_growth_table(f).verdict == LIKELY, text

    def test_csv_shape(self):
        rep = numeric_growth_table(P("z^3/3", ("z",)))
        csv = growth_table_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "k,radius,min_margin"
        assert len(lines) == 1 + 2 * 5
