"""The call shapes the benchmark under ``perfbench/`` makes into lglab,
and the attributes it reads from what they return.

Each shape is bound against the current signature, so a change that
drops or renames a parameter the benchmark passes fails here, in a
second, rather than in a benchmark run; the attributes are read from one
small eigensolve and one small context on the grid half, and from the
cusp's ring, lattice, verdicts and potential on the exact half.  Keep
both in step with ``perfbench/workloads.py``.
"""

import inspect
from fractions import Fraction

import pytest

from lglab import cli
from lglab.brieskorn import BrieskornLattice, twisted_differential
from lglab.ellipticity import (check_laurent_nondegenerate,
                               check_quasihomogeneous_ellipticity)
from lglab.frobenius import (build_flat_potential, universal_unfolding,
                             wdvv_residual)
from lglab.groebner import milnor_ring
from lglab.poly import Polynomial, parse_polynomial
from lglab.spectral import (DiscreteForm, Operators, SpectralContext,
                            build_grid, derham_compare, eigensolve_lowest,
                            hodge_decompose, homotopy_identity_check,
                            splitting_map)
from lglab.spectral.forms import random_smooth_form

F, GRID, FORM, SELF = object(), object(), object(), object()

SHAPES = [
    (eigensolve_lowest, (F, GRID),
     dict(degree=1, k=6, backend="fd1", seed=3, operators=None)),
    (SpectralContext, (F, GRID), dict(backend="fd1", seed=3)),
    (SpectralContext.eigensolve, (SELF, 1), dict(k=6)),
    (SpectralContext.kernel_matrix, (SELF, 0), {}),
    (SpectralContext.solver, (SELF, 2), {}),
    (hodge_decompose, (F, GRID, FORM), dict(backend="fd1", context=None)),
    (splitting_map, (F, GRID, FORM), dict(orders=5, context=None)),
    (derham_compare, (F, GRID), dict(backend="fd1", seed=3)),
    (homotopy_identity_check, (F, GRID), dict(levels=3, backend="fd2")),
    (random_smooth_form, (GRID, object()), {}),
    (milnor_ring, (F,), {}),
    (BrieskornLattice, (F,), dict(order=4)),
    (BrieskornLattice.reduce_with_certificate, (SELF, F, 4), {}),
    (twisted_differential, (F, object()), {}),
    (check_quasihomogeneous_ellipticity, (F,), {}),
    (check_laurent_nondegenerate, (F,), {}),
    (universal_unfolding, (F,), {}),
    (build_flat_potential, (object(),), dict(nt=3)),
    (wdvv_residual, (object(),), {}),
    (cli.main, (["analyze", "z^3/3"],), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", SHAPES,
                         ids=[fn.__qualname__ for fn, _, _ in SHAPES])
def test_benchmark_call_shape_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_reads_of_results_resolve():
    f = parse_polynomial("z^2/2", ("z",))
    grid = build_grid(4.0, 17)
    res = eigensolve_lowest(f, grid, degree=1, k=6, backend="fd1", seed=3)
    assert all(isinstance(phi, DiscreteForm) for phi in res.eigenforms)
    assert len(res.eigenforms) == len(res.eigenvalues) == 6
    assert isinstance(res.kernel_dim, int) and isinstance(res.reliable, bool)
    ctx = SpectralContext(f, grid, backend="fd1", seed=3)
    assert isinstance(ctx.ops, Operators)
    assert ctx.ops.laplacian_matrix("dbar_f", 1).nnz > 0
    assert Operators.sparse and ctx.ops.sparse
    for d in (0, 1, 2):
        assert len(ctx.eigensolve(d).eigenvalues) > 0


def test_benchmark_reads_of_exact_results_resolve():
    f = parse_polynomial("z^3/3", ("z",))
    ring = milnor_ring(f)
    assert len(ring.gb.elements) == len(ring.gb.cofactors) == 1
    assert ring.weights.q == (Fraction(1, 3),)
    L = BrieskornLattice(f, order=4)
    el, eta = L.reduce_with_certificate(parse_polynomial("z^3", ("z",)), 4)
    assert el.coords[1] == (Fraction(-1), Fraction(0))
    assert all(isinstance(p, Polynomial) for k in eta.coeffs
               for p in eta.coeffs[k].parts.values())
    r = check_quasihomogeneous_ellipticity(f)
    assert r.verdict == "Satisfied" and r.witness is None
    r = check_laurent_nondegenerate(
        parse_polynomial("z+2+z^-1", ("z",), laurent=True))
    assert r.verdict == "Violated" and len(r.witness) == 1
    D = build_flat_potential(universal_unfolding(f), nt=3)
    assert isinstance(D.potential, Polynomial) and wdvv_residual(D) == 0
