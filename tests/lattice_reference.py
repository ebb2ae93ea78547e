"""Reference: the general Hermite-normal-form route to a polytope's lattice.

The package reads the lattice of a graph polytope off the graph's blocks
(oracle._block_lattice) and that of a product off its parts.  This module
keeps the route it replaced, which rests on no theorem about matroids: the
row-style HNF of every vertex difference, grown one generator at a time, and
each vertex's coordinates read off it by exact reduction.  The tests hold the
package's lattices to it, and build polytopes from arbitrary point sets with
it.
"""

from gorcheck.oracle import LatticePolytope


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
    itself.  The vectors are taken last to first: sorted vertex differences
    then reach the leftmost columns,
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


def _polytope_from_vertices(kind: str, verts: list, graph=None) -> LatticePolytope:
    return _polytope_of_sorted(kind, sorted(set(tuple(v) for v in verts)), graph)


def _polytope_of_sorted(kind: str, verts: list, graph=None) -> LatticePolytope:
    """The polytope of verts, distinct integer tuples in increasing order.

    The lattice comes from the differences from the first vertex, which for
    an independence polytope is 0: the vertices are then their own
    differences.
    """
    v0 = verts[0]
    diffs = [[a - b for a, b in zip(v, v0)] for v in verts] if any(v0) else verts
    basis, coords = lattice_coords(diffs)
    # saturation: the HNF of the differences has all pivots 1 exactly when the
    # affine lattice equals the full ambient lattice restricted to the hull
    saturated = all(
        row[next(i for i, x in enumerate(row) if x)] == 1 for row in basis
    )
    return LatticePolytope(
        kind=kind,
        ambient_dim=len(v0),
        vertices=tuple(verts),
        dim=len(basis),
        lattice_basis=tuple(tuple(r) for r in basis),
        vertex_coords=tuple(tuple(c) for c in coords),
        lattice_saturated=saturated,
        graph=graph,
    )
