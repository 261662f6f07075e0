"""The call shapes the benchmark under ``perfbench/`` makes into lglab,
and the attributes it reads from what they return.

Each shape is bound against the current signature, so a change that
drops or renames a parameter the benchmark passes fails here, in a
second, rather than in a benchmark run; the attributes are read from one
small eigensolve and one small context.  Keep both in step with
``perfbench/workloads.py``.
"""

import inspect

import pytest

from lglab.poly import parse_polynomial
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
