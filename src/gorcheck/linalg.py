"""Exact integer linear algebra for the lattice oracle.

Everything here is arbitrary-precision: integer Hermite-normal-form bases,
fraction-free Gauss-Jordan elimination over integer rows, and an exact
double-description computation of the extreme rays of a dual cone.  Fractions
appear only as the final quotients that solve_unique and invert return, and
only those two import them.  No floating point anywhere.

lattice_coords grows an HNF basis one generator at a time instead of running
hnf_rows over every generator at once.  The row-style HNF of a lattice is
unique, and the grown basis generates the same lattice as all the generators,
so the two bases are equal row for row.  Every coordinate vector is still read
off the final basis by an exact reduction that raises when a vector is not in
the lattice, except once the basis is the identity, where every integer
vector is its own coordinate vector.
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


def _coords(rows, free, vec) -> list:
    """Integer coordinates of vec in an HNF basis held as sparse rows.

    rows holds each basis row as (pivot column, pivot, the (column, value)
    pairs right of the pivot), in pivot order, so each coordinate is read at
    its pivot column; free lists the other columns, where a vector of the
    lattice leaves no residual.  Raises ValueError when vec is not in the
    lattice.
    """
    residual = list(vec)
    coords = []
    for p, a, tail in rows:
        c = residual[p]
        if c:
            if a != 1:
                c, r = divmod(c, a)
                if r:
                    raise ValueError("vector not in lattice")
            for j, x in tail:
                residual[j] -= c * x
        coords.append(c)
    if any(residual[j] for j in free):
        raise ValueError("vector not in lattice")
    return coords


def lattice_coords(vectors) -> tuple:
    """HNF basis of the lattice a list of vectors generates, and each vector's coordinates.

    Returns (basis, coords): basis equals hnf_rows(vectors), and coords[i] is
    the integer vector with coords[i] . basis == vectors[i].  A vector that
    the current basis does not reduce to zero grows it by hnf_rows(basis +
    [vector]); each growth raises the rank or at least doubles the lattice, so
    there are few (20 for the 16,807 vertices of the base polytope of K7).
    Since the HNF of a lattice is unique, the grown basis is hnf_rows(vectors)
    itself.  The vectors are taken
    last to first: sorted vertex differences then reach the leftmost columns,
    where the pivots lie, first, so the basis is complete early and few of the
    vectors reduced before the last growth have to be reduced again against
    the final basis.  Every coordinate vector comes from an exact reduction
    against the final basis, which raises ValueError when a vector is not in
    its lattice.  The one exception: a grown basis of full rank whose pivots
    are all 1 is the identity, since the HNF of Z^n is unique, and then every
    vector is its own coordinate vector: coords holds the vectors themselves,
    with nothing left to reduce.
    """
    basis: list = []
    rows: list = []
    free = range(len(vectors[0])) if vectors else ()
    coords = [None] * len(vectors)
    stale = len(vectors)  # vectors from here on were reduced against an older basis
    for i in range(len(vectors) - 1, -1, -1):
        try:
            coords[i] = _coords(rows, free, vectors[i])
        except ValueError:
            basis = hnf_rows(basis + [list(vectors[i])])
            rows = []
            for row in basis:
                p = next(j for j, x in enumerate(row) if x)
                rows.append((p, row[p], [(j, row[j]) for j in range(p + 1, len(row)) if row[j]]))
            if len(rows) == len(vectors[i]) and all(a == 1 for _, a, _ in rows):
                return basis, list(vectors)
            pivots = {p for p, _, _ in rows}
            free = [j for j in range(len(vectors[i])) if j not in pivots]
            stale = i + 1
            coords[i] = _coords(rows, free, vectors[i])
    for i in range(stale, len(vectors)):
        coords[i] = _coords(rows, free, vectors[i])
    return basis, coords


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
