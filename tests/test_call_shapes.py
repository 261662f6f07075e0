"""The call shapes the benchmark under ``perfbench/`` makes into lglab.

Each shape is bound against the current signature, so a change that
drops or renames a parameter the benchmark passes fails here, in a
second, rather than in a benchmark run.  Keep this list in step with
``perfbench/workloads.py``.
"""

import inspect

import pytest

from lglab.spectral import (SpectralContext, derham_compare,
                            eigensolve_lowest, hodge_decompose,
                            homotopy_identity_check, splitting_map)
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
