"""Exact integer/rational linear algebra for the lattice oracle.

Everything here is arbitrary-precision: integer Hermite-normal-form bases,
Fraction Gaussian elimination, and an exact double-description computation of
the extreme rays of a dual cone.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def primitive(vec) -> tuple:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def hnf_rows(rows) -> list:
    """Row-style Hermite normal form basis of the lattice generated by rows.

    Returns the nonzero rows: pivots positive, strictly right-descending, and
    entries above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        # clear column c below row r with Euclidean row operations
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat[:r]]


def coords_in_basis(basis, vec) -> list:
    """Integer coordinates of vec in an HNF row basis.

    Raises ValueError when vec is not in the generated lattice.
    """
    residual = list(vec)
    coords = []
    for row in basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        if residual[p] % row[p] != 0:
            raise ValueError("vector not in lattice")
        c = residual[p] // row[p]
        coords.append(c)
        if c:
            residual = [a - c * b for a, b in zip(residual, row)]
    if any(residual):
        raise ValueError("vector not in lattice")
    return coords


def _eliminate(mat, ncols) -> list:
    """Gauss-Jordan on the first ncols columns of a Fraction matrix, in place.

    Returns the pivot columns; pivot row i (for the i-th pivot) is scaled to 1
    there and every other row is cleared in that column.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots


def solve_unique(rows, rhs) -> Optional[list]:
    """Solve A x = b exactly.

    Returns the Fraction solution vector, None when inconsistent, and raises
    ValueError when the system is underdetermined.
    """
    ncols = len(rows[0]) if rows else 0
    mat = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _eliminate(mat, ncols)
    if any(row[ncols] != 0 for row in mat[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return [row[ncols] for row in mat[:ncols]]


def invert(rows) -> list:
    """Exact inverse of a square integer/Fraction matrix (Fraction entries)."""
    n = len(rows)
    mat = [
        [Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    if len(_eliminate(mat, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in mat]


def _fraction_row_to_int(row) -> tuple:
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return primitive([int(x * denom) for x in row])


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
    cols = [[Fraction(p[i]) for p in pts] for i in range(n)]
    chosen = [list(pts[c]) for c in _eliminate(cols, len(pts))]
    if len(chosen) < n:
        raise ValueError("points do not span the ambient space")
    minv = invert(chosen)
    rays = []
    full = (1 << n) - 1
    for k in range(n):
        col = [minv[i][k] for i in range(n)]
        rays.append((_fraction_row_to_int(col), full & ~(1 << k)))

    processed = [tuple(p) for p in chosen]
    chosen_set = {tuple(p) for p in chosen}
    rest = [p for p in pts if p not in chosen_set]

    for p in rest:
        idx = len(processed)
        vals = [sum(a * b for a, b in zip(r, p)) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, z | (1 << idx) if v == 0 else z)
                for (r, z), v in zip(rays, vals)
            ]
            processed.append(p)
            continue
        plus = [(r, z, v) for (r, z), v in zip(rays, vals) if v > 0]
        zero = [(r, z) for (r, z), v in zip(rays, vals) if v == 0]
        minus = [(r, z, v) for (r, z), v in zip(rays, vals) if v < 0]
        kept = [(r, z | (1 << idx)) for r, z in zero]
        kept.extend((r, z) for r, z, _ in plus)
        all_zsets = [z for _, z in rays]
        for rp, zp, vp in plus:
            for rm, zm, vm in minus:
                common = zp & zm
                if bin(common).count("1") < n - 2:
                    continue
                if any(
                    z != zp and z != zm and (common & z) == common
                    for z in all_zsets
                ):
                    continue
                new = primitive(
                    [vp * b - vm * a for a, b in zip(rp, rm)]
                )
                kept.append((new, (common | (1 << idx))))
        rays = kept
        processed.append(p)
    return sorted(r for r, _ in rays)
