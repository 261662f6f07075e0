"""Small shared helpers: the canonical form of exact rationals, exact
rational linear algebra, JSON encoding and misc formatting.

The exact half keeps an integral rational as an ``int`` and any other
rational as a ``Fraction`` whose denominator exceeds 1 (``canon``).  An
``int`` product costs nanoseconds where a ``Fraction`` product costs
microseconds, and about half the products the exact half forms have two
integral operands.  Every division of one rational by another, such as
a factor in ``groebner.divide`` or the pivot scaling of ``rref``, goes
through ``Fraction`` so that two ints never divide to a float.

``rref`` returns its rows in canonical form whatever form its input is
in, so ``exact_rank``, ``invert_exact`` and ``solve_exact`` do too: an
integer matrix stays in ``int`` arithmetic until a pivot other than 1
has to be divided out.
"""

from __future__ import annotations

import json
from fractions import Fraction


class PrecondError(ValueError):
    """Input violates a documented precondition (CLI exit code 3)."""


class ComputeError(RuntimeError):
    """A computation failed to reach its goal (CLI exit code 1)."""


def canon(x):
    """x in canonical form: an integral Fraction becomes its int; an int,
    a Fraction with a denominator above 1, or a non-rational value (such
    as complex) is returned as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


# -- exact rational linear algebra -------------------------------------------


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot
    columns), every entry in canonical form.

    A pivot row is scaled only when its pivot is not 1, and a row
    operation touches only the columns where the pivot row is nonzero, so
    an integer matrix is eliminated in ints until a pivot divides."""
    rows = [[canon(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if rows[r][col] != 1:
            # Fraction on the left: int * Fraction would take the reflected
            # operator, which makes an ABC check on the int
            inv = Fraction(1) / rows[r][col]
            rows[r] = [canon(inv * x) for x in rows[r]]
        support = [(j, b) for j, b in enumerate(rows[r]) if b != 0]
        for k in range(len(rows)):
            f = rows[k][col]
            if k != r and f != 0:
                row = rows[k]
                for j, b in support:
                    row[j] = canon(row[j] - f * b)
        pivots.append(col)
        r += 1
    return rows, pivots


def exact_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def invert_exact(A: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix of ints and Fractions, or None if
    singular; the entries of the inverse are in canonical form."""
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b over the rationals (free variables zero), or
    None.  The entries of the solution are in canonical form."""
    if not A:
        return [] if all(x == 0 for x in b) else None
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    red, pivots = rref(aug)
    ncols = len(A[0])
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        if col == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[col] = red[i][-1]
    return x


def cofactor_det(M):
    """Determinant of a square matrix over any commutative ring whose
    elements support + - *, by cofactor expansion along the first row."""

    def det(rows, cols):
        if len(rows) == 1:
            return M[rows[0]][cols[0]]
        total = None
        for k, c in enumerate(cols):
            term = M[rows[0]][c] * det(rows[1:], cols[:k] + cols[k + 1:])
            total = term if total is None else (total - term if k % 2 else total + term)
        return total

    n = len(M)
    return det(list(range(n)), list(range(n)))


def frac_str(x: Fraction | int) -> str:
    """Render a rational as 'p' or 'p/q'."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def jsonable(obj):
    """Recursively convert Fractions (and complex) into JSON-safe values.

    Fractions become 'p/q' strings so round trips stay exact; ints pass
    through as JSON numbers, so a report that wants an integral rational
    as the string 'p' formats it with ``frac_str`` first; complex numbers
    become [re, im] pairs; dict keys are stringified.
    """
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
