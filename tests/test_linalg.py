import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import guarded_atlas_polytopes
from gorcheck.linalg import _eliminate, dual_extreme_rays, invert, primitive, solve_unique


# References: the rational routines the integer ones replaced, kept verbatim
# apart from their names.


def _eliminate_by_fractions(mat, ncols) -> list:
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


def _solve_by_fractions(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    mat = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _eliminate_by_fractions(mat, ncols)
    if any(row[ncols] != 0 for row in mat[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return [row[ncols] for row in mat[:ncols]]


def _invert_by_fractions(rows):
    n = len(rows)
    mat = [
        [Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    if len(_eliminate_by_fractions(mat, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in mat]


def _fraction_row_to_int(row) -> tuple:
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return primitive([int(x * denom) for x in row])


def _dual_extreme_rays_by_fractions(points) -> list:
    pts = sorted({primitive(p) for p in points if any(p)})
    if not pts:
        raise ValueError("no nonzero points")
    n = len(pts[0])

    cols = [[Fraction(p[i]) for p in pts] for i in range(n)]
    chosen = [list(pts[c]) for c in _eliminate_by_fractions(cols, len(pts))]
    if len(chosen) < n:
        raise ValueError("points do not span the ambient space")
    minv = _invert_by_fractions(chosen)
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


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _random_matrix(rng, nrows, ncols):
    """Entries in [-4, 4]; about a third of the rows combine earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(ncols)])
    return rows


def test_fraction_rank():
    def rank(rows):
        mat = [list(r) for r in rows]
        return len(_eliminate(mat, len(mat[0]) if mat else 0))

    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2  # row 2 = 2 * row 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([]) == 0


def test_invert():
    A = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv = invert(A)
    product = [[sum(inv[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])


def test_solve_unique():
    # consistent, with a redundant row
    assert solve_unique([[1, 1], [1, -1], [2, 2]], [3, 1, 6]) == [2, 1]
    assert solve_unique([[3]], [1]) == [Fraction(1, 3)]
    # inconsistent: the redundant row disagrees
    assert solve_unique([[1, 1], [1, -1], [2, 2]], [3, 1, 7]) is None
    # underdetermined
    with pytest.raises(ValueError):
        solve_unique([[1, 1]], [2])


def test_integer_elimination_matches_fractions():
    rng = random.Random(20261018)
    seen = {"consistent": 0, "inconsistent": 0, "underdetermined": 0, "singular": 0}
    matrices = [[]] + [
        _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(400)
    ]
    for rows in matrices:
        ncols = len(rows[0]) if rows else 0
        mat = [list(r) for r in rows]
        ref = [[Fraction(x) for x in r] for r in rows]
        pivots = _eliminate(mat, ncols)
        assert pivots == _eliminate_by_fractions(ref, ncols), rows
        # each pivot row is its rational counterpart times its pivot
        for i, c in enumerate(pivots):
            assert [Fraction(x, mat[i][c]) for x in mat[i]] == ref[i], rows

        # a consistent right-hand side from an integer point, and a random one
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        for rhs in (
            [sum(a * b for a, b in zip(r, x)) for r in rows],
            [rng.randint(-5, 5) for _ in rows],
        ):
            got = _outcome(solve_unique, rows, rhs)
            assert got == _outcome(_solve_by_fractions, rows, rhs), (rows, rhs)
            if got is None:
                seen["inconsistent"] += 1
            elif isinstance(got, tuple):
                seen["underdetermined"] += 1
            else:
                seen["consistent"] += 1

        if rows and len(rows) == ncols:
            got = _outcome(invert, rows)
            assert got == _outcome(_invert_by_fractions, rows), rows
            seen["singular"] += isinstance(got, tuple)
    assert min(seen.values()) >= 10, seen


def test_dual_rays_match_fractions_on_atlas_polytopes():
    for G, kind, P in guarded_atlas_polytopes():
        points = [c + (1,) for c in P.vertex_coords]
        assert dual_extreme_rays(points) == _dual_extreme_rays_by_fractions(points), (
            G.edges, kind,
        )


def test_dual_rays_match_fractions_on_random_points():
    # matroid polytopes only have 0/1 vertices; these points exercise the
    # general arithmetic (entries beyond +-1, negative pivots, large rays).
    # Every other set has a positive last coordinate, a cone over a polytope,
    # so that its dual cone is more than the origin.
    rng = random.Random(7)
    nontrivial = 0
    for dim in range(2, 6):
        for trial in range(60):
            last = (1, 3) if trial % 2 else (-3, 3)
            points = [
                tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (rng.randint(*last),)
                for _ in range(rng.randint(dim, dim + 8))
            ]
            want = _outcome(_dual_extreme_rays_by_fractions, points)
            assert _outcome(dual_extreme_rays, points) == want, points
            nontrivial += len(want) > dim and not isinstance(want, tuple)
    assert nontrivial >= 80, nontrivial
