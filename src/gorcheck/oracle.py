"""Exact lattice-polytope oracle: the ground truth the checkers are tested against.

Polytopes are built straight from their definition (indicator vectors of
spanning forests / forests), and the Gorenstein witness, Ehrhart counts,
h*-vector, and normality probe all work in exact integer arithmetic.  The
affine lattice is read off the graph's blocks and proved on the forests
(_block_lattice), and a product's is the direct sum of its parts'; no
Hermite normal form is computed.  The general HNF of the vertex
differences is the reference the tests check these lattices against.

Facets come by one of two exact routes, picked by what the polytope holds.  A
polytope that polytope_of built keeps its graph, and facets_from_flats reads
its facets off Edmonds' inequalities (Edmonds 1970): P(M) is cut out by
x >= 0 and x(F) <= r(F) for every flat F, and B(M) adds x(E) = r(E), so every
facet is one of those inequalities, and each one kept is proved a facet by the
rank of its tight vertices.  Any other polytope (product_polytope's) goes
through facets_bruteforce, the dual-cone double description of the vertices
alone.  That route rests on no theorem about matroids, so it also stays as
the reference the tests hold facets_from_flats to.  Both refuse a polytope
over FACET_VERTEX_GUARD vertices.
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import NamedTuple, Optional

from .errors import GuardExceeded, InternalContradiction, NotTwoConnected
from .graph import (
    Multigraph, bases_and_forests, is_two_connected, low_link, normalize,
)
from .linalg import _eliminate, dual_extreme_rays, primitive

FACET_VERTEX_GUARD = 512
POINT_NODE_GUARD = 10**7


class Facet(NamedTuple):
    """Primitive functional h(c, t) = a . c + b t on the cone, in lattice coordinates.

    h >= 0 on the cone over the polytope and h vanishes on a facet; the gcd of
    (a, b) is 1, so h maps the cone lattice onto Z.
    """

    a: tuple
    b: int

    def value(self, coords, t: int = 1) -> int:
        return sum(x * y for x, y in zip(self.a, coords)) + self.b * t


class GorensteinWitness(NamedTuple):
    delta: int
    v: tuple  # ambient integer vector in delta * P


class HStarVector(NamedTuple):
    coefficients: tuple

    @property
    def palindromic(self) -> bool:
        return self.coefficients == tuple(reversed(self.coefficients))


class LatticePolytope:
    """An explicit lattice polytope; require_facets stores its facets."""

    def __init__(self, kind, ambient_dim, vertices, dim, lattice_basis, vertex_coords,
                 lattice_saturated, facets=None, graph=None):
        self.kind = kind  # "base" | "independence" | "product"
        self.ambient_dim = ambient_dim
        self.vertices = vertices  # ambient integer vectors
        self.dim = dim
        self.lattice_basis = lattice_basis  # HNF rows: the affine lattice of differences
        self.vertex_coords = vertex_coords  # lattice coordinates relative to vertices[0]
        # affine lattice == ambient one on the hull: True for every graph
        # polytope and so for every product of them, since each HNF pivot
        # of a block lattice is 1
        self.lattice_saturated = lattice_saturated
        self.facets: Optional[tuple] = facets
        # the loop-free graph whose forests are the vertices; ambient
        # coordinate j is its j-th smallest edge id.  None for a polytope
        # given by its vertices alone
        self.graph: Optional[Multigraph] = graph

    @property
    def origin(self) -> tuple:
        return self.vertices[0]

    def to_ambient(self, coords, t: int = 1):
        out = [t * x for x in self.origin]
        for c, row in zip(coords, self.lattice_basis):
            for j, x in enumerate(row):
                out[j] += c * x
        return tuple(out)

    def require_facets(self) -> tuple:
        """The sorted facets, computed on first use and kept.

        A polytope with a graph takes facets_from_flats, any other the double
        description facets_bruteforce; both give the same tuple, and both
        refuse a polytope over FACET_VERTEX_GUARD vertices.
        """
        if self.facets is None:
            if self.graph is None:
                self.facets = facets_bruteforce(self)
            else:
                self.facets = facets_from_flats(self)
        return self.facets


# "0" -> byte 0, "1" -> byte 1: a binary numeral read as a 0/1 vector
_BINARY_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _block_lattice(G: Multigraph, kind: str, masks: list) -> list:
    """The lattice of differences of the forests in masks, read off G's blocks and proved.

    The components of a loopless cycle matroid are its blocks, and the
    lattice of B(M) is the direct sum over the components E_i of
    {x in Z^(E_i) : sum x = 0} (Edmonds 1970; Feichtner-Sturmfels 2005),
    so dim B(M) = |E| - c; that of P(M) is Z^E.  Returns the basis as
    sorted (pivot, last) column pairs, row i being e_pivot - e_last: for
    B(M), each block with edge columns j_1 < ... < j_k gives a row for each
    j < j_k with last = j_k, and for P(M) each column j gives a unit row,
    with last = m standing for no column.  Every pivot is 1 and no pivot is
    another row's last column, so this is the row-style HNF.  It is proved
    on masks alone, and a failed proof raises InternalContradiction.  For
    P(M), 0 and every unit vector are listed.  For B(M), the blocks cover
    every edge and every forest has the same number of edges in each block,
    so every difference lies in the lattice, and each row is the difference
    of two listed forests.
    """
    m = G.m
    listed = set(masks)
    if kind == "independence":
        if 0 not in listed or any(1 << j not in listed for j in range(m)):
            raise InternalContradiction("the empty forest or a single edge is not listed")
        return [(j, m) for j in range(m)]
    col = {eid: j for j, eid in enumerate(sorted(G.edge_by_id))}
    ends, covered = [], 0
    for block in low_link(G).blocks:
        cols = sorted(col[eid] for eid in block)
        last = cols[-1]
        inside = sum(1 << j for j in cols)
        covered |= inside
        size = (masks[0] & inside).bit_count()
        if any((s & inside).bit_count() != size for s in masks):
            raise InternalContradiction(
                f"two spanning forests differ in their edge count on the block of column {last}"
            )
        for j in cols[:-1]:
            pair = 1 << j | 1 << last
            if not any(s & pair == 1 << j and s ^ pair in listed for s in masks):
                raise InternalContradiction(
                    f"no two spanning forests differ by e_{j} - e_{last}"
                )
            ends.append((j, last))
    if covered != (1 << m) - 1:
        raise InternalContradiction("the blocks do not cover every edge")
    ends.sort()
    return ends


def polytope_of(G: Multigraph, kind: str, guard: int = 10**6) -> LatticePolytope:
    """B(M(G)) or P(M(G)) as an explicit lattice polytope.

    Each forest's edge mask from bases_and_forests is written out as one
    binary numeral, low bit first, and read as the bytes of its 0/1 vertex.
    The masks come in decreasing lexicographic order of their vertices, so
    the reversed list is already sorted.  The lattice comes from
    _block_lattice; a vertex's coordinates are its differences from the
    first vertex at the pivot columns, and for P(M), whose first vertex is
    0 and whose basis is the identity, the vertex itself.
    """
    G = normalize(G)
    if kind == "base":
        masks = list(bases_and_forests(G, "spanning_trees", guard=guard))
    elif kind == "independence":
        masks = list(bases_and_forests(G, "forests", guard=guard))
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")
    m = G.m
    if m == 0:
        # format(0, "00b") is "0": an edgeless graph's one forest is the point ()
        verts = [() for _ in masks]
    else:
        spec = f"0{m}b"
        verts = [tuple(format(s, spec)[::-1].encode().translate(_BINARY_BYTES)) for s in masks]
        verts.reverse()
    ends = _block_lattice(G, kind, masks)
    basis = []
    for p, last in ends:
        row = [0] * (m + 1)
        row[p], row[last] = 1, -1
        basis.append(tuple(row[:m]))
    if kind == "independence":
        coords = verts
    else:
        at = [(p, verts[0][p]) for p, _ in ends]
        coords = [tuple([v[p] - x for p, x in at]) for v in verts]
    return LatticePolytope(
        kind, m, tuple(verts), len(ends), tuple(basis), tuple(coords), True, graph=G
    )


def product_polytope(parts) -> LatticePolytope:
    """Cartesian product with concatenated coordinates.

    The differences of the product's vertices generate the direct sum of
    the parts' lattices, whose HNF is the block-diagonal one of the parts'
    bases; the coordinates concatenate too.  Each part's vertices are
    sorted, so the nested loop lists the product's in lexicographic order.
    """
    verts, coords, basis, width = [()], [()], [], 0
    for p in parts:
        verts = [v + w for v in verts for w in p.vertices]
        coords = [c + d for c in coords for d in p.vertex_coords]
        basis = [row + (0,) * p.ambient_dim for row in basis]
        basis += [(0,) * width + row for row in p.lattice_basis]
        width += p.ambient_dim
    return LatticePolytope(
        "product", width, tuple(verts), len(basis), tuple(basis), tuple(coords),
        all(p.lattice_saturated for p in parts),
    )


def facets_bruteforce(P: LatticePolytope) -> tuple:
    """Facets from the polytope alone: extreme rays of the dual of the cone over P.

    Vertices are homogenized to height 1 in lattice coordinates; an exact
    double description yields the primitive facet functionals.
    """
    _facet_guard(P)
    points = [c + (1,) for c in P.vertex_coords]
    rays = dual_extreme_rays(points)
    return tuple(sorted(Facet(tuple(r[:-1]), r[-1]) for r in rays))


def _facet_guard(P: LatticePolytope) -> None:
    if len(P.vertices) > FACET_VERTEX_GUARD:
        raise GuardExceeded(
            f"facet computation guarded at {FACET_VERTEX_GUARD} vertices "
            f"(polytope has {len(P.vertices)})"
        )


def _basis_ends(P: LatticePolytope) -> list:
    """The (pivot, last) pairs of _block_lattice, read back off a graph polytope's basis."""
    m = P.ambient_dim
    return [(row.index(1), row.index(-1) if -1 in row else m) for row in P.lattice_basis]


def _lattice_facet(P: LatticePolytope, ends, u, c: int = 0) -> Facet:
    """The ambient functional u . x + c as a primitive Facet in P's lattice coordinates.

    At height t a point of the cone is x = t origin + sum_i coords_i basis_i,
    so the functional reads a_i = u . basis_i and b = u . origin + c.  Row i
    of a graph polytope's basis is e_p - e_last for the pair ends[i], so
    a_i = u_p - u_last, where u_m = 0 stands for no column.
    """
    u = [*u, 0]
    a = tuple(u[p] - u[last] for p, last in ends)
    b = sum(map(mul, u, P.origin)) + c
    vec = primitive(a + (b,))
    return Facet(vec[:-1], vec[-1])


# byte 0 -> "0", byte 1 -> "1": a 0/1 column read as one binary numeral
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _connected_flats(G: Multigraph) -> list:
    """The flats E(S) for S inside one block with G[S] connected, as (edge mask, rank).

    G has no loops, and bit j of a mask is G's j-th smallest edge id.  For
    such an S with |S| >= 2, E(S) is a flat of rank |S| - 1: an edge outside
    it has an end outside S.  Every flat on which the cycle matroid is
    connected is one of them, since its edges form a 2-connected subgraph,
    which lies in one block.  Each S is grown one neighbouring vertex at a
    time from a single vertex, over a work list of vertex bitmasks, carrying
    E(S), the block edges at S, and the neighbours of S as bitmasks.  The
    count is polynomial where all flats are not: a cycle C_n has about n^2
    such sets against 2^n flats.  An S on which G[S] is a tree of two or
    more edges is grown through but not returned, since its flat splits
    into its single edges; on C_n that leaves n + 1 flats.
    """
    col = {eid: j for j, eid in enumerate(sorted(G.edge_by_id))}
    index = {v: i for i, v in enumerate(G.vertices)}
    out = []
    for block in low_link(G).blocks:
        at: dict = {}  # vertex -> mask of the block's edges at it
        near: dict = {}  # vertex -> vertex mask of its neighbours in the block
        for eid in block:
            u, v = (index[x] for x in G.edge_by_id[eid])
            for x, y in ((u, v), (v, u)):
                at[x] = at.get(x, 0) | 1 << col[eid]
                near[x] = near.get(x, 0) | 1 << y
        todo = [(1 << v, 0, at[v], near[v]) for v in at]
        seen = {S for S, _, _, _ in todo}
        while todo:
            S, inside, touching, around = todo.pop()
            rank = S.bit_count() - 1
            if inside.bit_count() > rank or rank == 1:
                out.append((inside, rank))
            grow = around & ~S
            while grow:
                bit = grow & -grow
                grow ^= bit
                if S | bit not in seen:
                    seen.add(S | bit)
                    w = bit.bit_length() - 1
                    todo.append(
                        (S | bit, inside | (at[w] & touching), touching | at[w], around | near[w])
                    )
    return out


def _tight_at(columns, mask: int, r: int, every: int) -> int:
    """The vertices x with x(F) = r, as a bitmask, for the flat F = mask.

    columns[j] is the bitmask of the vertices with x_j = 1.  The count x(F)
    of every vertex at once is bit-sliced: planes[i] holds bit i of every
    count, and each edge of F is added by a ripple carry across the planes.
    """
    planes: list = []
    for j in range(mask.bit_length()):
        if not mask >> j & 1:
            continue
        carry = columns[j]
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    if r >> len(planes):
        return 0
    tight = every
    for i, plane in enumerate(planes):
        tight &= plane if r >> i & 1 else ~plane
    return tight


def _reaches_rank(columns, members: int, coords, need: int) -> bool:
    """Whether the 0/1 points in members (a bitmask) have affine rank >= need.

    columns[j] is the bitmask of the points with coordinate j equal to 1.  The
    affine rank is the rank of the differences from one member, which is also
    the rank of the columns of that difference matrix: over GF(2) the
    difference is an XOR, so column j restricted to the members is
    columns[j] & members, flipped wholesale where the first member has a 1.
    Its GF(2) rank, from an XOR basis keyed by the leading bit, is at most the
    rational rank, so reaching need settles it without a loop over points.
    Otherwise the exact elimination runs on the points' lattice coordinates.
    """
    if need <= 0:
        return True
    first = (members & -members).bit_length() - 1
    basis: dict = {}
    for col in columns:
        col &= members
        if col >> first & 1:
            col ^= members
        while col:
            top = col.bit_length() - 1
            if top not in basis:
                basis[top] = col
                break
            col ^= basis[top]
        if len(basis) >= need:
            return True
    origin = coords[first]
    rows = []
    rest = members ^ (1 << first)
    while rest:
        bit = rest & -rest
        point = coords[bit.bit_length() - 1]
        rows.append([x - y for x, y in zip(point, origin)])
        rest ^= bit
    return len(_eliminate(rows, len(origin))) >= need


def facets_from_flats(P: LatticePolytope) -> tuple:
    """Facets of a polytope_of polytope from Edmonds' inequalities, sorted.

    By Edmonds' theorem the facets are among x_e >= 0 and x(F) <= r(F) for
    the nonempty flats F (for B(M), x(E) = r(E) holds on every vertex and
    such an inequality is dropped below).  A flat on which the matroid
    splits as F1 + F2 has r(F) = r(F1) + r(F2), so its inequality is the sum
    of theirs and its tight set the intersection of theirs: the connected
    flats of _connected_flats suffice.  Each candidate's tight vertices
    form a bitmask over P.vertices.  A set that is empty or holds every
    vertex names no facet, equal sets name one face, and a face inside a
    larger one is no facet, so the facets are the maximal proper nonempty
    sets.  Each of those is proved a facet: its affine rank reaches dim - 1.
    A shortfall would mean Edmonds' list missed a facet, and raises
    InternalContradiction.  Returns the tuple facets_bruteforce returns.
    """
    _facet_guard(P)
    if P.dim == 0:
        # a point: the lone facet of its cone is the height functional
        return (Facet((), 1),)
    m = P.ambient_dim
    every = (1 << len(P.vertices)) - 1
    columns = [
        int(bytes(col[::-1]).translate(_BINARY_DIGITS), 2) for col in zip(*P.vertices)
    ]
    # tight vertex set -> the first candidate with that set, as (sign, edge
    # mask, c) for the functional sign * x(mask) + c >= 0
    faces: dict = {}
    for j in range(m):
        faces.setdefault(every & ~columns[j], (1, 1 << j, 0))
    for mask, r in _connected_flats(P.graph):
        faces.setdefault(_tight_at(columns, mask, r, every), (-1, mask, r))
    faces.pop(0, None)
    faces.pop(every, None)
    kept = []
    for tight in sorted(faces, key=int.bit_count, reverse=True):
        # a proper subset of a face lies inside a larger kept one
        if not any(tight & other == tight for other in kept):
            kept.append(tight)
    out = []
    ends = _basis_ends(P)
    for tight in kept:
        if not _reaches_rank(columns, tight, P.vertex_coords, P.dim - 1):
            raise InternalContradiction(
                f"a maximal Edmonds face of {len(P.vertices)} vertices has "
                f"affine rank below {P.dim - 1}: a facet is missing from the flats"
            )
        sign, mask, c = faces[tight]
        out.append(_lattice_facet(P, ends, [sign * (mask >> j & 1) for j in range(m)], c))
    return tuple(sorted(out))


def facets_from_cor33(G: Multigraph, P: Optional[LatticePolytope] = None) -> tuple:
    """The two explicit facet families of the base polytope of a 2-connected graph.

    Type (1): x_e >= 0 whenever G minus e stays 2-connected.  Type (2):
    (|S|-1) sum_E x - (|V|-1) sum_{E(S)} x >= 0 for every good flat S.  Both
    are converted to primitive functionals in the polytope's own lattice
    coordinates, so the output is directly comparable with facets_bruteforce.
    """
    from .flats import good_flats, induced_edge_ids

    if not is_two_connected(G):
        raise NotTwoConnected("facets_from_cor33 requires a 2-connected graph")
    if P is None:
        P = polytope_of(G, "base")
    if P.dim == 0:
        # single-edge graph: the polytope is a point and the only facet of its
        # cone is the height functional
        return (Facet((), 1),)
    order = sorted(G.edge_by_id)
    pos = {eid: i for i, eid in enumerate(order)}
    rank = G.n - 1  # G is connected
    functionals = []
    for eid in order:
        if is_two_connected(G.without_edges([eid])):
            u = [0] * len(order)
            u[pos[eid]] = 1
            functionals.append(u)
    for flat in good_flats(G):
        s = len(flat.S) - 1
        u = [s] * len(order)
        for eid in flat.induced_edges:
            u[pos[eid]] -= rank
        functionals.append(u)
    ends = _basis_ends(P)
    return tuple(sorted(_lattice_facet(P, ends, u) for u in functionals))


def gorenstein_search(P: LatticePolytope) -> Optional[GorensteinWitness]:
    """First (delta, v) with h(v) = 1 for every facet, delta <= dim + 1, if any.

    For each delta the system "every facet equals 1" is linear with at most
    one solution (the facet normals span); the codegree bound dim + 1 makes
    the search complete for normal polytopes.  The right-hand side 1 - b delta
    is affine in delta, so [A | 1 | b] is eliminated once and each delta's
    reduced right-hand side is read off as col_1 - delta col_b.
    """
    facets = P.require_facets()
    if P.dim == 0:
        # point polytope: the lone facet of its cone is the height functional
        return GorensteinWitness(1, P.origin)
    n = P.dim
    mat = [list(f.a) + [1, f.b] for f in facets]
    rank = len(_eliminate(mat, n))
    for delta in range(1, n + 2):
        # same order of outcomes as solve_unique: inconsistent, then
        # underdetermined, then the unique solution
        if any(row[n] != delta * row[n + 1] for row in mat[rank:]):
            continue
        if rank < n:
            raise ValueError("underdetermined system")
        # row i reads pivot * x_i = col_1 - delta col_b
        sol = [divmod(row[n] - delta * row[n + 1], row[i]) for i, row in enumerate(mat[:n])]
        if not any(r for _, r in sol):
            coords = [q for q, _ in sol]
            return GorensteinWitness(delta, P.to_ambient(coords, t=delta))
    return None


def _walk_tables(P: LatticePolytope):
    """_point_intervals' tables at k = 1, which the walk over kP scales by k.

    Each facet's root slack (b plus its best cases), and per coordinate i
    the box lo_i..hi_i and, over the facets live at i (all at i = 0, then
    those nonzero at or past i), their best cases, their cut lists, and
    which of them stay live at i + 1.
    """
    facets = P.require_facets()
    lo = list(map(min, zip(*P.vertex_coords)))
    hi = list(map(max, zip(*P.vertex_coords)))
    levels, live = [], range(len(facets))
    for i in range(P.dim):
        col = [facets[j].a[i] for j in live]
        stay = [p for p, j in enumerate(live) if any(facets[j].a[i + 1:])]
        levels.append((
            lo[i], hi[i], [a * (hi[i] if a > 0 else lo[i]) for a in col],
            [(p, a) for p, a in enumerate(col) if a > 0],
            [(p, -a) for p, a in enumerate(col) if a < 0],
            [(p, col[p]) for p in stay],
        ))
        live = [live[p] for p in stay]
    return [f.b + sum(a * (h if a > 0 else l) for a, l, h in zip(f.a, lo, hi)) for f in facets], levels


def _point_intervals(P: LatticePolytope, k: int, node_guard: int, interior: bool,
                     merge: bool, tables=None):
    """Lattice points of k*P (dim >= 1), level by level, as (tag, first, last) intervals.

    Branch and bound over the box spanned by the vertices: a node fixes a
    prefix of the coordinates and survives while every facet's slack (its
    partial sum plus the best box corner of the free coordinates) is >= 0;
    its surviving children form one interval, cut by one division per facet.
    A facet that is zero past the prefix is settled and never cuts again,
    so a node's depth and its live facets' slacks fix its completions.
    With merge, a level's nodes with equal live slacks are one state, tagged
    with its number of prefixes; without, each prefix is a state tagged with
    itself, and the intervals come in lex order.  Every child of a state
    counts against node_guard, pruned or not, checked as each level starts.
    With interior, every slack starts 1 lower: a point survives when every
    facet value is >= 1.
    """
    root, levels = tables or _walk_tables(P)
    slack = tuple(k * r - interior for r in root)
    nodes = 1  # the root
    level = [(slack, 1 if merge else ())] if min(slack) >= 0 else []
    d = len(levels)
    for i, (lo, hi, best, lower, upper, keep) in enumerate(levels):
        lo, hi, best = k * lo, k * hi, [k * b for b in best]
        nodes += len(level) * (hi - lo + 1)
        if nodes > node_guard:
            raise GuardExceeded(f"lattice points of {'the interior of ' if interior else ''}{k}P: "
                                f"guarded at {node_guard} nodes (reached {nodes})")
        children = {} if merge else []
        for slack, tag in level:
            # slack without coordinate i's best case: child x survives facet
            # p exactly when rest[p] + a_p[i] x >= 0
            rest = [s - b for s, b in zip(slack, best)]
            first = max([lo] + [-(rest[p] // a) for p, a in lower])
            last = min([hi] + [rest[p] // a for p, a in upper])
            if i == d - 1:
                yield tag, first, last
                continue
            for x in range(first, last + 1):
                child = tuple([rest[p] + a * x for p, a in keep])
                if merge:
                    children[child] = children.get(child, 0) + tag
                else:
                    children.append((child, tag + (x,)))
        level = children.items() if merge else children


def lattice_points(P: LatticePolytope, k: int, node_guard: int = POINT_NODE_GUARD):
    """All lattice points of k*P, in lattice coordinates, in lexicographic order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if P.dim == 0:
        return [()]
    intervals = _point_intervals(P, k, node_guard, False, False)
    return [prefix + (x,) for prefix, first, last in intervals for x in range(first, last + 1)]


def _count_points(P: LatticePolytope, k: int, interior=False, node_guard=POINT_NODE_GUARD, tables=None):
    """The number of lattice points of k*P, or of its relative interior."""
    if P.dim == 0:
        # a point is its own relative interior, except at k = 0
        return 0 if interior and k == 0 else 1
    intervals = _point_intervals(P, k, node_guard, interior, True, tables)
    return sum(mult * max(last - first + 1, 0) for mult, first, last in intervals)


def hstar(P: LatticePolytope) -> HStarVector:
    """Ehrhart h*-vector from lattice-point counts up to the dilate ceil(d/2).

    L(k) counts the lattice points of kP, L°(k) those of its relative interior:
    a point is interior when every facet value is > 0, which is >= 1 since the
    facets have integer coefficients in lattice coordinates.  By
    Ehrhart-Macdonald reciprocity (Ehrhart 1967; Macdonald 1971),
    L(-k) = (-1)^d L°(k), so h* read backwards is the binomial transform of
    L° (with L°(0) = 0) that gives h* from L.  With b = floor(d/2) and
    a = d - b, h*_0..h*_b come from L(0..b) and h*_(b+1)..h*_d from L°(1..a).
    Each count merges the walk's nodes by the slacks of the facets still live
    (see _point_intervals), so its node guard counts the children of each
    merged state, not of every prefix; the walk's tables serve every dilate.
    """
    d = P.dim
    a, b = d - d // 2, d // 2
    tables = _walk_tables(P)
    closed = [_count_points(P, k, tables=tables) for k in range(b + 1)]
    interior = [0] + [_count_points(P, k, True, tables=tables) for k in range(1, a + 1)]

    def transform(counts, j):
        return sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))

    coeffs = [transform(closed, j) for j in range(b + 1)]
    coeffs += [transform(interior, j) for j in range(a, 0, -1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    h = HStarVector(tuple(coeffs))
    # both hold for every lattice polytope; checked without assert so that
    # they also run under python -O
    if h.coefficients[0] != 1:
        raise InternalContradiction(f"h*_0 must be 1, got {h.coefficients}")
    if any(c < 0 for c in h.coefficients):
        raise InternalContradiction(f"h* entries must be nonnegative, got {h.coefficients}")
    return h


def normality_probe(P: LatticePolytope, kmax: int):
    """Check every point of kP (k <= kmax) is a sum of k points of P.

    Returns None on pass, otherwise the first non-decomposable point as
    (k, ambient vector).  A failure would contradict the normality theorem for
    matroid polytopes, so tests treat it as a hard failure.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    ones = set(lattice_points(P, 1))
    sums = set(ones)
    for k in range(2, kmax + 1):
        sums = {
            tuple(a + b for a, b in zip(p, q)) for p in sums for q in ones
        }
        for pt in lattice_points(P, k):
            if pt not in sums:
                return (k, P.to_ambient(list(pt), t=k))
    return None

