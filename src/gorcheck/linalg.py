"""Exact integer linear algebra for the lattice oracle.

Everything here is arbitrary-precision: fraction-free Gauss-Jordan
elimination over integer rows, and an exact double-description computation
of the extreme rays of a dual cone.  Fractions appear only as the final
quotients that solve_unique and invert return, and only those two import
them.  No floating point anywhere.

The oracle's lattices need no Hermite normal form: they are read off the
graph's blocks (oracle._block_lattice).  The general HNF route is the
reference the tests check those lattices against.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Optional


def primitive(vec) -> tuple:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _eliminate(mat, ncols) -> list:
    """Fraction-free Gauss-Jordan on the first ncols columns of integer rows, in place.

    Returns the pivot columns.  Pivot row i holds the i-th pivot column's only
    nonzero entry among the rows.  A row is only ever replaced by an integer
    combination a row_i - b row_pivot with a != 0, made primitive, so each row
    stays a nonzero multiple of the row rational Gauss-Jordan would hold: the
    pivot columns, the zero pattern and every ratio x / pivot are the same.
    The scan stops once every row holds a pivot.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                mat[i] = primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
    return pivots


def solve_unique(rows, rhs) -> Optional[list]:
    """Solve A x = b exactly for integer A and b.

    Returns the Fraction solution vector, None when inconsistent, and raises
    ValueError when the system is underdetermined.
    """
    from fractions import Fraction

    ncols = len(rows[0]) if rows else 0
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _eliminate(mat, ncols)
    if any(row[ncols] for row in mat[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return [Fraction(row[ncols], row[i]) for i, row in enumerate(mat[:ncols])]


def invert(rows) -> list:
    """Exact inverse of a square integer matrix (Fraction entries)."""
    from fractions import Fraction

    n = len(rows)
    mat = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if len(_eliminate(mat, n)) < n:
        raise ValueError("singular matrix")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(mat)]


def dual_extreme_rays(points) -> list:
    """Extreme rays of {y : y . p >= 0 for all p in points}, exact.

    Requires the points to span the ambient space (the dual cone is then
    pointed).  Double-description: start from a simplicial cone cut out by a
    spanning subset, insert the remaining constraints one at a time, tracking
    zero-sets for the combinatorial adjacency test.  Returns primitive integer
    rays, sorted.
    """
    pts = sorted({primitive(p) for p in points if any(p)})
    if not pts:
        raise ValueError("no nonzero points")
    n = len(pts[0])

    # greedy spanning subset for the initial simplicial cone: with the points
    # as columns, a point is a pivot column exactly when it is independent of
    # the points before it
    cols = [[p[i] for p in pts] for i in range(n)]
    chosen = [pts[c] for c in _eliminate(cols, len(pts))]
    if len(chosen) < n:
        raise ValueError("points do not span the ambient space")
    # column k of the inverse is orthogonal to every chosen point but the
    # k-th: the ray of the facet opposite it
    minv = invert(chosen)
    scale = lcm(*(x.denominator for row in minv for x in row))
    full = (1 << n) - 1
    rays = [
        (
            primitive([row[k].numerator * (scale // row[k].denominator) for row in minv]),
            full & ~(1 << k),
        )
        for k in range(n)
    ]

    chosen_set = set(chosen)
    rest = [p for p in pts if p not in chosen_set]
    for idx, p in enumerate(rest, start=n):
        vals = [sum(map(mul, r, p)) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, z | (1 << idx) if v == 0 else z)
                for (r, z), v in zip(rays, vals)
            ]
            continue
        plus = [(r, z, v) for (r, z), v in zip(rays, vals) if v > 0]
        minus = [(r, z, v) for (r, z), v in zip(rays, vals) if v < 0]
        kept = [(r, z | (1 << idx)) for (r, z), v in zip(rays, vals) if v == 0]
        kept.extend((r, z) for r, z, _ in plus)
        all_zsets = [z for _, z in rays]
        for rp, zp, vp in plus:
            for rm, zm, vm in minus:
                common = zp & zm
                if common.bit_count() < n - 2:
                    continue
                # adjacent unless a third ray's zero set contains the common one
                for z in all_zsets:
                    if (z & common) == common and z != zp and z != zm:
                        break
                else:
                    new = primitive([vp * b - vm * a for a, b in zip(rp, rm)])
                    kept.append((new, common | (1 << idx)))
        rays = kept
    return sorted(r for r, _ in rays)
