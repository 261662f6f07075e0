"""Reference computations that time how fast the host runs at the moment.

On a shared host the speed of a CPU drifts by up to 1.6x for a minute or
more.  A drift that long slows every pass of a run, so no statistic over
one run's job times can remove it.  The benchmark therefore times a fixed
computation of its own just before every job, and reports each job as a
multiple of that time.  The reference does the same kind of work as the
workload, so that contention slows both alike: exact rational arithmetic
for ``exact``, a sparse LU factorization and its solves for the grid
workloads.  It calls nothing in lglab, so a change to the program cannot
move it.  A threaded dense solve was tried for the grid workloads and
dropped: its own time swung by 30x from one call to the next.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def rational_reference() -> Callable[[], object]:
    """Product of two fixed 8x8-term polynomials with 13-digit Fractions."""
    rng = random.Random(5)
    poly = {(i, j): Fraction(rng.randrange(10**12, 10**13),
                             rng.randrange(1, 10**6))
            for i in range(8) for j in range(8)}

    def run():
        out: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in poly.items():
            for (d, e), g in poly.items():
                key = (a + d, b + e)
                out[key] = out.get(key, 0) + c * g
        return out
    return run


def sparse_reference() -> Callable[[], object]:
    """SuperLU factorization of a fixed complex 5-point Laplacian on a 40x40
    grid, and three solves with it.

    A 64x64 grid, closer to the jobs' 65 points a side, was tried: over ten
    seeds it left ``grid-kernel`` spread 0.14 where this one left 0.06."""
    n = 40
    t = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.eye(n)
    matrix = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc().astype(complex)
    rhs = np.ones(n * n, complex)

    def run():
        lu = spla.splu(matrix)
        for _ in range(3):
            lu.solve(rhs)
    return run


REFERENCES = {"grid-kernel": sparse_reference, "grid-reuse": sparse_reference,
              "exact": rational_reference}


def timed(run: Callable[[], object]) -> float:
    """Seconds one call of ``run`` takes."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
