import itertools
import json
import random
from functools import cache
from math import comb, prod

import pytest

from conftest import complete, cycle, guarded_atlas_polytopes
from gorcheck.construct import blow_up
from gorcheck.errors import GuardExceeded, InternalContradiction
from gorcheck.graph import Multigraph, normalize
import gorcheck.linalg as linalg
import gorcheck.oracle as oracle
import lattice_reference
from gorcheck.linalg import dual_extreme_rays, primitive, solve_unique
from gorcheck.oracle import (
    Facet,
    GorensteinWitness,
    _count_points,
    _reaches_rank,
    facets_bruteforce,
    facets_from_cor33,
    facets_from_flats,
    gorenstein_search,
    hstar,
    lattice_points,
    normality_probe,
    polytope_of,
    product_polytope,
)
from gorcheck.smallgraphs import two_connected_graphs
from lattice_reference import _polytope_from_vertices, hnf_rows, lattice_coords
from test_acceptance import _hstar_family
from test_graph import _forests_by_frozensets, forest_walk_cases


def test_hnf_basics(monkeypatch):
    assert hnf_rows([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    assert hnf_rows([[0, 0]]) == []
    vectors = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    basis, coords = lattice_coords(vectors)
    assert basis == hnf_rows(vectors[:2])
    for vec, c in zip(vectors, coords):
        assert [sum(x * row[j] for x, row in zip(c, basis)) for j in range(3)] == vec
    assert lattice_coords([]) == ([], [])
    assert lattice_coords([[0, 0], [0, 0]]) == ([], [[], []])
    # every coordinate is read by an exact reduction: a basis that misses a
    # vector raises instead of returning wrong coordinates
    monkeypatch.setattr(lattice_reference, "hnf_rows", lambda rows: hnf_rows(rows[:-1]))
    with pytest.raises(ValueError, match="vector not in lattice"):
        lattice_coords([[2, 0], [1, 0]])


def _coords_in_basis(basis, vec) -> list:
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


def _lattice_by_full_hnf(vectors):
    """Reference: the route lattice_coords replaced, hnf_rows over every
    vector at once, then a dense reduction of each vector."""
    basis = hnf_rows(vectors)
    return basis, [_coords_in_basis(basis, v) for v in vectors]


def _assert_lattice_matches_full_hnf(P):
    v0 = P.vertices[0]
    basis, coords = _lattice_by_full_hnf([[a - b for a, b in zip(v, v0)] for v in P.vertices])
    assert P.lattice_basis == tuple(map(tuple, basis)), P.vertices
    assert P.vertex_coords == tuple(map(tuple, coords)), P.vertices
    assert P.dim == len(basis)
    pivots = [next(x for x in row if x) for row in basis]
    assert P.lattice_saturated == all(p == 1 for p in pivots)
    return pivots


def test_lattice_coords_match_full_hnf():
    # every atlas polytope up to 6 vertices, both kinds, the ones over the
    # facet guard included
    sizes = []
    for G in two_connected_graphs(6):
        for kind in ("base", "independence"):
            P = polytope_of(G, kind)
            _assert_lattice_matches_full_hnf(P)
            sizes.append(len(P.vertices))
    assert len(sizes) == 142 and max(sizes) > 1000
    # a seeded sample of the 7-vertex atlas, and multigraphs with several
    # blocks: a 2-cycle, bridges only, and disconnected graphs
    seven = [G for G in two_connected_graphs(7) if G.n == 7]
    assert len(seven) == 468
    dims = set()
    for G in random.Random(29).sample(seven, 40) + [
        Multigraph.build(range(2), [(0, 1), (0, 1)]),
        Multigraph.build(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)]),
        Multigraph.build(range(7), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 5)]),
        Multigraph.build(range(8), [(0, 1), (0, 1), (1, 2), (2, 3), (3, 1), (4, 5), (6, 7), (6, 7)]),
    ]:
        for kind in ("base", "independence"):
            P = polytope_of(G, kind, guard=10**5)
            _assert_lattice_matches_full_hnf(P)
            dims.add((kind, P.dim, P.ambient_dim))
    assert {("base", 0, 4), ("base", 4, 8), ("independence", 4, 4)} <= dims
    # the product polytopes with facet coefficients beyond {-1, 0, 1}
    for verts in [
        [(0, 0), (1, 0), (0, 1), (3, 5)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)],
        [(0, 0, 0), (2, 0, 1), (0, 3, 1), (1, 1, 0), (4, 1, 3)],
    ]:
        _assert_lattice_matches_full_hnf(_polytope_from_vertices("product", verts))
    # seeded point sets whose lattices are not saturated (pivots > 1), in
    # polytopes and as bare vectors with repeats and zeros
    rng = random.Random(13)
    unsaturated = 0
    for _ in range(300):
        ambient = rng.randint(1, 6)
        scale = [rng.choice([1, 1, 2, 3]) for _ in range(ambient)]
        points = [
            [s * rng.randint(-3, 3) for s in scale] for _ in range(rng.randint(1, 10))
        ]
        pivots = _assert_lattice_matches_full_hnf(_polytope_from_vertices("product", points))
        unsaturated += any(p > 1 for p in pivots)
        assert lattice_coords(points) == _lattice_by_full_hnf(points), points
    assert unsaturated >= 100, unsaturated


def test_block_lattice_proof_refuses_a_wrong_forest_list(monkeypatch):
    # the lattice is proved on the forests listed: a list whose differences
    # miss a basis row, or leave the block lattice, raises instead of
    # returning a wrong dim or basis
    real = oracle.bases_and_forests

    def one_tree(G, kind, guard):
        return [next(real(G, kind, guard=guard))]

    monkeypatch.setattr(oracle, "bases_and_forests", one_tree)
    with pytest.raises(InternalContradiction, match=r"differ by e_0 - e_2"):
        polytope_of(cycle(3), "base")

    def with_a_non_spanning_forest(G, kind, guard):
        return [*real(G, kind, guard=guard), 0b11]

    monkeypatch.setattr(oracle, "bases_and_forests", with_a_non_spanning_forest)
    with pytest.raises(InternalContradiction, match="edge count on the block of column 5"):
        polytope_of(complete(4), "base")

    def without_one_edge(G, kind, guard):
        return [s for s in real(G, kind, guard=guard) if s != 0b10]

    monkeypatch.setattr(oracle, "bases_and_forests", without_one_edge)
    with pytest.raises(InternalContradiction, match="a single edge is not listed"):
        polytope_of(cycle(3), "independence")


def test_product_lattice_is_the_direct_sum():
    # the product's basis, coordinates and vertex order equal the HNF route
    # over its vertices: base x base, base x independence, point parts, a
    # part whose lattice is not saturated, and no part at all
    c3, k2, path = cycle(3), complete(2), Multigraph.build(range(3), [(0, 1), (1, 2)])
    unsaturated = _polytope_from_vertices("product", [(0, 0), (2, 0), (0, 2)])
    assert not unsaturated.lattice_saturated
    cases = [
        [polytope_of(c3, "base"), polytope_of(k2, "base")],
        [polytope_of(c3, "base"), polytope_of(k2, "independence")],
        [polytope_of(path, "base"), polytope_of(c3, "independence"), polytope_of(path, "base")],
        [polytope_of(complete(4), "base"), unsaturated, polytope_of(c3, "independence")],
        [],
    ]
    for parts in cases:
        P = product_polytope(parts)
        want = _polytope_from_vertices("product", P.vertices)
        got = (P.kind, P.ambient_dim, P.vertices, P.dim, P.lattice_basis, P.vertex_coords,
               P.lattice_saturated, P.graph)
        assert got == (want.kind, want.ambient_dim, want.vertices, want.dim, want.lattice_basis,
                       want.vertex_coords, want.lattice_saturated, None), [p.vertices for p in parts]
        assert len(P.vertices) == len(set(P.vertices)) == prod(len(p.vertices) for p in parts)


def _polytope_by_frozensets(G, kind):
    """Reference: the route polytope_of replaced, as (vertices, dim,
    lattice_basis, vertex_coords, lattice_saturated).  Each frozenset forest
    is set into a zero vector, the vectors are sorted, and the lattice is
    hnf_rows over every difference from the first vertex."""
    G = normalize(G)
    walk = "spanning_trees" if kind == "base" else "forests"
    pos = {eid: i for i, eid in enumerate(sorted(G.edge_by_id))}
    verts = []
    for s in _forests_by_frozensets(G, walk):
        vec = [0] * len(pos)
        for eid in s:
            vec[pos[eid]] = 1
        verts.append(tuple(vec))
    verts = sorted(set(verts))
    basis, coords = _lattice_by_full_hnf([[a - b for a, b in zip(v, verts[0])] for v in verts])
    saturated = all(next(x for x in row if x) == 1 for row in basis)
    return (tuple(verts), len(basis), tuple(map(tuple, basis)), tuple(map(tuple, coords)),
            saturated)


def test_polytope_of_matches_the_frozenset_route():
    # every atlas graph up to 6 vertices, the polytopes over the facet guard
    # included, and the multigraph, disconnected, loop-only and seeded cases
    # of the forest walk's reference test
    for G in forest_walk_cases():
        for kind in ("base", "independence"):
            P = polytope_of(G, kind)
            got = (P.vertices, P.dim, P.lattice_basis, P.vertex_coords, P.lattice_saturated)
            assert got == _polytope_by_frozensets(G, kind), (G.edges, kind)
            assert (P.kind, P.ambient_dim, P.graph) == (kind, normalize(G).m, normalize(G))


def test_an_edgeless_graph_is_the_point_polytope():
    # format(0, "00b") is "0": the one forest of a loop-only graph is (), not (0,)
    for G in (Multigraph.build([0], [(0, 0)]), Multigraph.build([0, 1], [])):
        for kind in ("base", "independence"):
            P = polytope_of(G, kind)
            assert (P.vertices, P.dim, P.ambient_dim) == (((),), 0, 0)
            assert gorenstein_search(P) == (1, ())


def test_primitive():
    assert primitive([2, 4, -6]) == (1, 2, -3)
    assert primitive([0, 0]) == (0, 0)


def test_dual_rays_square():
    # cone over the unit square: 4 facets
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    rays = dual_extreme_rays(pts)
    assert sorted(rays) == [(-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0)]


def test_polytope_of_c3(c3):
    P = polytope_of(c3, "base")
    assert sorted(P.vertices) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert P.dim == 2 and P.lattice_saturated
    assert len(P.require_facets()) == 3


def test_polytope_of_k2_indep(k2):
    P = polytope_of(k2, "independence")
    assert sorted(P.vertices) == [(0,), (1,)]
    assert P.dim == 1
    assert len(P.require_facets()) == 2


def test_polytope_of_k4(k4):
    P = polytope_of(k4, "base")
    assert len(P.vertices) == 16 and P.dim == 5
    assert len(P.require_facets()) == 16


def test_base_polytope_invariants(k4):
    P = polytope_of(k4, "base")
    r = k4.n - 1
    assert all(sum(v) == r for v in P.vertices)
    assert P.dim == k4.m - 1
    # adjacent-looking vertex pairs differ by e_i - e_j
    for a, b in itertools.combinations(P.vertices, 2):
        d = [x - y for x, y in zip(a, b)]
        if sum(abs(x) for x in d) == 2:
            assert sorted(d) == [-1, 0, 0, 0, 0, 1]


def test_facet_dual_routes_agree_exhaustively():
    for G in two_connected_graphs(5):
        P = polytope_of(G, "base")
        assert set(facets_from_cor33(G, P)) == set(P.require_facets()), G.edges


def test_cor33_facet_census(c3, c4, k4):
    from gorcheck.graph import is_two_connected

    def census(G):
        facets = facets_from_cor33(G, polytope_of(G, "base"))
        type1 = sum(
            1 for eid in G.edge_by_id
            if is_two_connected(G.without_edges([eid]))
        )
        return len(facets), type1

    assert census(c3) == (3, 0)
    assert census(c4) == (4, 0)
    assert census(k4) == (16, 6)


def test_gorenstein_search(c3, k2, c5_chord):
    w = gorenstein_search(polytope_of(c3, "base"))
    assert (w.delta, w.v) == (3, (2, 2, 2))
    w2 = gorenstein_search(polytope_of(k2, "independence"))
    assert (w2.delta, w2.v) == (2, (1,))
    assert gorenstein_search(polytope_of(c5_chord, "base")) is None


def _gorenstein_by_solve_unique(P):
    """Reference: one solve_unique per delta, as gorenstein_search once did."""
    facets = P.require_facets()
    if P.dim == 0:
        return GorensteinWitness(1, P.origin)
    rows = [list(f.a) for f in facets]
    for delta in range(1, P.dim + 2):
        sol = solve_unique(rows, [1 - f.b * delta for f in facets])
        if sol is None:
            continue
        if all(x.denominator == 1 for x in sol):
            return GorensteinWitness(delta, P.to_ambient([int(x) for x in sol], t=delta))
    return None


def test_gorenstein_search_matches_per_delta_solve():
    polytopes = guarded_atlas_polytopes()
    for G, kind, P in polytopes:
        assert gorenstein_search(P) == _gorenstein_by_solve_unique(P), (G.edges, kind)
    assert len(polytopes) > 100


def test_gorenstein_search_outcome_order():
    # one facet normal cannot pin down two coordinates: the first consistent
    # delta raises, as solve_unique does
    P = polytope_of(cycle(3), "base")
    P.facets = (Facet((1, 0), 0),)
    with pytest.raises(ValueError):
        gorenstein_search(P)
    with pytest.raises(ValueError):
        _gorenstein_by_solve_unique(P)
    # ... but a delta that is inconsistent is skipped before the rank matters
    P.facets = (Facet((1, 0), 0), Facet((1, 0), -1))
    assert gorenstein_search(P) is None
    assert _gorenstein_by_solve_unique(P) is None


def test_witness_equals_weight_vector(k4_minus_e):
    from gorcheck.baseck import weight_function

    P = polytope_of(k4_minus_e, "base")
    w = gorenstein_search(P)
    weights = weight_function(k4_minus_e, 3)
    assert w.v == tuple(weights[e] for e in sorted(weights))


def test_lattice_points(c3, k2):
    B = polytope_of(c3, "base")
    assert len(lattice_points(B, 1)) == 3
    assert len(lattice_points(B, 2)) == 6
    assert len(lattice_points(B, 0)) == 1
    P = polytope_of(k2, "independence")
    assert len(lattice_points(P, 3)) == 4


def test_lattice_point_guard(k4):
    with pytest.raises(GuardExceeded):
        lattice_points(polytope_of(k4, "base"), 3, node_guard=10)


def _lattice_points_by_recursion(P, k):
    """Reference: box recursion that rescans every facet at every node.

    Returns the points in visiting order and the number of nodes visited.
    """
    facets = P.require_facets()
    d = P.dim
    if d == 0:
        return [()], 0
    lo = [k * min(c[i] for c in P.vertex_coords) for i in range(d)]
    hi = [k * max(c[i] for c in P.vertex_coords) for i in range(d)]
    out = []
    nodes = [0]

    def rec(prefix):
        nodes[0] += 1
        i = len(prefix)
        for f in facets:
            best = sum(x * y for x, y in zip(f.a, prefix)) + f.b * k
            for j in range(i, d):
                best += f.a[j] * (hi[j] if f.a[j] > 0 else lo[j])
            if best < 0:
                return
        if i == d:
            out.append(tuple(prefix))
            return
        for x in range(lo[i], hi[i] + 1):
            rec(prefix + [x])

    rec([])
    return out, nodes[0]


def _small_polytopes(max_vertices, min_vertices=2):
    for G in two_connected_graphs(max_vertices, min_vertices=min_vertices):
        for kind in ("base", "independence"):
            yield G, kind, polytope_of(G, kind)


def test_lattice_points_match_recursion():
    cases = [(4, 2, range(4)), (5, 5, range(2))]
    for max_v, min_v, ks in cases:
        for G, kind, P in _small_polytopes(max_v, min_v):
            for k in ks:
                points, _ = _lattice_points_by_recursion(P, k)
                assert lattice_points(P, k) == points, (G.edges, kind, k)
    # the polytopes above only have facet coefficients in {-1, 0, 1}; these
    # have larger ones, so the interval ends are real ceil/floor divisions
    for verts in [
        [(0, 0), (1, 0), (0, 1), (3, 5)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)],
        [(0, 0, 0), (2, 0, 1), (0, 3, 1), (1, 1, 0), (4, 1, 3)],
    ]:
        P = _polytope_from_vertices("product", verts)
        assert max(abs(a) for f in P.require_facets() for a in f.a) > 1
        for k in range(5):
            points, nodes = _lattice_points_by_recursion(P, k)
            assert lattice_points(P, k) == points, (verts, k)
            with pytest.raises(GuardExceeded):
                lattice_points(P, k, node_guard=nodes - 1)


def test_lattice_point_guard_trips_at_recursion_node_count():
    for G, kind, P in _small_polytopes(4):
        if P.dim == 0:  # a point: no node is visited
            continue
        points, nodes = _lattice_points_by_recursion(P, 2)
        with pytest.raises(GuardExceeded, match=f"reached {nodes}"):
            lattice_points(P, 2, node_guard=nodes - 1)
        assert lattice_points(P, 2, node_guard=nodes) == points, (G.edges, kind)
        # the count merges nodes, so it walks no more of them than the list;
        # it trips one below its own total, which the message names
        total = _count_node_total(P, 2)
        assert total <= nodes, (G.edges, kind)
        message = rf"lattice points of 2P: guarded at {total - 1} nodes \(reached {total}\)"
        with pytest.raises(GuardExceeded, match=message):
            _count_points(P, 2, node_guard=total - 1)
        assert _count_points(P, 2, node_guard=total) == len(points), (G.edges, kind)
    # B(K4) is Gorenstein of codegree 2: the interior of 2P is one point
    with pytest.raises(GuardExceeded, match=r"lattice points of the interior of 2P: guarded at 1 nodes"):
        _count_points(polytope_of(complete(4), "base"), 2, interior=True, node_guard=1)


def _count_node_total(P, k, interior=False):
    """The nodes the merged count of kP walks: the least guard it passes at."""
    lo, hi = 0, oracle.POINT_NODE_GUARD
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _count_points(P, k, interior, node_guard=mid)
            hi = mid
        except GuardExceeded:
            lo = mid + 1
    return lo


def _count_by_prefixes(P, k, interior=False, node_guard=oracle.POINT_NODE_GUARD):
    """Reference: the depth-first count that visits every lattice prefix of kP.

    Each node carries every facet's slack (its partial sum plus the best box
    corner of the free coordinates), and the surviving children of a node
    form one interval; no two prefixes share a node.
    """
    facets = P.require_facets()
    d = P.dim
    if d == 0:
        return 0 if interior and k == 0 else 1
    lo = [k * min(c[i] for c in P.vertex_coords) for i in range(d)]
    hi = [k * max(c[i] for c in P.vertex_coords) for i in range(d)]
    cols = [[f.a[i] for f in facets] for i in range(d)]
    best = [[a * (hi[i] if a > 0 else lo[i]) for a in cols[i]] for i in range(d)]
    lower = [[(j, a) for j, a in enumerate(cols[i]) if a > 0] for i in range(d)]
    upper = [[(j, -a) for j, a in enumerate(cols[i]) if a < 0] for i in range(d)]
    slack = [f.b * k + sum(b) - interior for f, b in zip(facets, zip(*best))]
    count, nodes = 0, 1
    stack = [(0, slack)] if min(slack) >= 0 else []
    while stack and nodes <= node_guard:
        i, slack = stack.pop()
        nodes += hi[i] - lo[i] + 1
        rest = [s - b for s, b in zip(slack, best[i])]
        first = max([lo[i]] + [-(rest[j] // a) for j, a in lower[i]])
        last = min([hi[i]] + [rest[j] // a for j, a in upper[i]])
        if i == d - 1:
            count += max(last - first + 1, 0)
            continue
        for x in range(last, first - 1, -1):
            stack.append((i + 1, [r + a * x for r, a in zip(rest, cols[i])]))
    if nodes > node_guard:
        raise GuardExceeded(f"prefix count of {k}P: reached {nodes} nodes")
    return count


def _hstar_by_direct_counts(P):
    """Reference: the binomial transform of the counts L(0..d) of kP itself."""
    d = P.dim
    counts = [len(lattice_points(P, k)) for k in range(d + 1)]
    coeffs = [
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    ]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@cache
def _reciprocity_polytopes():
    """The criterion-7 family, the atlas up to 5 vertices with dim <= 6, and
    three polytopes with facet coefficients beyond {-1, 0, 1}, each once."""
    polytopes = {}
    for G, kind in _hstar_family():
        P = polytope_of(G, kind)
        polytopes.setdefault(P.vertices, P)
    for _, _, P in _small_polytopes(5):
        if P.dim <= 6:
            polytopes.setdefault(P.vertices, P)
    for verts in [
        [(0, 0), (1, 0), (0, 1), (3, 5)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)],
        [(0, 0, 0), (2, 0, 1), (0, 3, 1), (1, 1, 0), (4, 1, 3)],
    ]:
        P = _polytope_from_vertices("product", verts)
        polytopes.setdefault(P.vertices, P)
    return tuple(polytopes.values())


def test_hstar_matches_direct_counts():
    polytopes = _reciprocity_polytopes()
    assert {P.dim for P in polytopes} == set(range(7))
    for P in polytopes:
        assert hstar(P).coefficients == _hstar_by_direct_counts(P), P.vertices


def test_merged_counts_match_the_prefix_walk():
    cases = [(P, range(4)) for P in _reciprocity_polytopes()]
    cases += [
        (polytope_of(cycle(7), "independence"), range(3)),
        (polytope_of(complete(5).without_edges([9]), "base"), range(3)),
    ]
    assert (cases[-1][0].dim, len(cases[-1][0].vertices)) == (8, 75)
    for P, ks in cases:
        for k in ks:
            for interior in (False, True):
                assert _count_points(P, k, interior) == _count_by_prefixes(P, k, interior), (
                    P.vertices, k, interior
                )


def test_count_merges_the_prefixes_of_p_c9():
    # 4P of P(C9) is 0 <= x <= 4 with sum(x) <= 32: every prefix of length
    # <= 8 in the box survives, so the list walk and _count_by_prefixes visit
    # 1 + 5 + ... + 5^9 = 2,441,406 nodes, while the count merges prefixes
    # with the same live slacks into under 1,000.  The points are the box
    # but the 220 with sum(4 - x) <= 3
    P = polytope_of(cycle(9), "independence")
    assert _count_points(P, 4, node_guard=999) == 5**9 - comb(12, 9)
    with pytest.raises(GuardExceeded, match=r"reached 3906\)"):
        lattice_points(P, 4, node_guard=999)


def test_interior_count_matches_filtered_points():
    # dim 6 is left to test_hstar_matches_direct_counts, whose hstar counts
    # interiors too; the point lists grow fast with dim
    polytopes = [P for P in _reciprocity_polytopes() if P.dim <= 5]
    assert any(P.dim == 0 for P in polytopes)
    for P in polytopes:
        facets = P.require_facets()
        for k in range(4):
            points = lattice_points(P, k)
            # a point polytope is its own relative interior for k >= 1
            inside = [p for p in points if all(f.value(p, k) >= 1 for f in facets)]
            assert _count_points(P, k, interior=True) == len(inside), (P.vertices, k)
            assert _count_points(P, k) == len(points), (P.vertices, k)


def test_base_hstar_of_k5_matches_direct_counts():
    # B(K5) has 125 vertices and dim 9: its h* gives L(k) = sum_i h*_i
    # C(k + d - i, d), which the listed lattice points of kP reproduce
    P = polytope_of(complete(5), "base")
    h, d = hstar(P).coefficients, P.dim
    counts = [len(lattice_points(P, k)) for k in (1, 2, 3)]
    assert counts == [125, 3425, 40275]
    assert counts == [
        sum(c * comb(k + d - i, d) for i, c in enumerate(h)) for k in (1, 2, 3)
    ], h


def test_hstar(c3, k2, c5_chord):
    assert hstar(polytope_of(c3, "base")).coefficients == (1,)
    assert hstar(polytope_of(k2, "independence")).coefficients == (1,)
    h = hstar(polytope_of(c5_chord, "base"))
    assert not h.palindromic


def test_normality(c3, k4):
    assert normality_probe(polytope_of(c3, "base"), 3) is None
    assert normality_probe(polytope_of(k4, "base"), 2) is None
    assert normality_probe(polytope_of(c3, "independence"), 2) is None


def test_product_polytope(c3, k2):
    P = product_polytope([polytope_of(c3, "base"), polytope_of(k2, "base")])
    assert P.ambient_dim == 4
    # the K2 factor is a point: the product is lattice-isomorphic to B(C3)
    w = gorenstein_search(P)
    assert w.delta == 3


def test_facet_guard():
    P = polytope_of(complete(5), "base")  # 125 vertices
    import gorcheck.oracle as om

    old = om.FACET_VERTEX_GUARD
    om.FACET_VERTEX_GUARD = 10
    try:
        with pytest.raises(GuardExceeded, match=r"guarded at 10 vertices \(polytope has 125\)"):
            facets_bruteforce(P)
        with pytest.raises(GuardExceeded, match=r"guarded at 10 vertices \(polytope has 125\)"):
            P.require_facets()
    finally:
        om.FACET_VERTEX_GUARD = old


def _edmonds_cases():
    """Graphs off the 2-connected atlas: multigraphs, cut vertices, loops, and
    the polytopes of dimension 0 and 1."""
    return {
        "doubled triangle": blow_up(cycle(3), 2),  # the h* family's multigraph
        "bridge": Multigraph.build(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
        "disconnected": Multigraph.build(
            range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 5)]
        ),
        "loop": Multigraph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (0, 2)]),
        "K2": Multigraph.build(range(2), [(0, 1)]),  # dim 0 and 1
        "2-cycle": Multigraph.build(range(2), [(0, 1), (0, 1)]),  # dim 1 and 2
        "single vertex": Multigraph.build([0], []),  # dim 0, no coordinates
    }


def test_flats_route_matches_double_description():
    polytopes = guarded_atlas_polytopes()
    assert len(polytopes) == 121
    for G, kind, P in polytopes:
        assert facets_from_flats(P) == facets_bruteforce(P), (G.edges, kind)
    dims = set()
    for name, G in _edmonds_cases().items():
        for kind in ("base", "independence"):
            P = polytope_of(G, kind)
            assert P.graph is not None and not any(u == v for _, u, v in P.graph.edges)
            assert facets_from_flats(P) == facets_bruteforce(P), (name, kind)
            dims.add(P.dim)
    assert {0, 1, 2} <= dims
    # base polytopes with few vertices but 2^24 flats: the route grows about
    # n^2 connected vertex sets here, not every flat
    tail = [(i, i + 1) for i in range(2, 26)]
    for G in (cycle(24), Multigraph.build(range(27), [(0, 1), (1, 2), (2, 0)] + tail)):
        P = polytope_of(G, "base")
        assert facets_from_flats(P) == facets_bruteforce(P), G.edges


def test_require_facets_picks_the_route_by_graph(monkeypatch, c3, k2):
    def refuse(P):
        raise AssertionError("wrong facet route")

    expected = facets_bruteforce(polytope_of(c3, "base"))
    monkeypatch.setattr(oracle, "facets_bruteforce", refuse)
    assert polytope_of(c3, "base").require_facets() == expected
    monkeypatch.undo()
    # a product has no graph and no masks: the double description runs, as
    # it does for a polytope given its vertices and a graph, since the
    # Edmonds route reads the masks' columns
    P = product_polytope([polytope_of(c3, "base"), polytope_of(k2, "independence")])
    assert P.graph is None
    expected = facets_bruteforce(P)
    monkeypatch.setattr(oracle, "facets_from_flats", refuse)
    assert P.require_facets() == expected
    Q = _polytope_from_vertices("base", polytope_of(c3, "base").vertices, graph=c3)
    assert Q.graph is c3 and Q.masks is None
    assert Q.require_facets() == facets_bruteforce(Q)


def test_rank_proof_falls_back_to_exact_elimination(monkeypatch):
    # 000, 110, 011, 101: the three differences from 000 sum to 0 over GF(2)
    # (rank 2) but are independent over Q (rank 3)
    points = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    columns = [sum(p[j] << i for i, p in enumerate(points)) for j in range(3)]
    calls = []

    def counting(mat, ncols):
        calls.append(len(mat))
        return linalg._eliminate(mat, ncols)

    monkeypatch.setattr(oracle, "_eliminate", counting)
    assert _reaches_rank(columns, 0b1111, 2) and calls == []
    assert _reaches_rank(columns, 0b1111, 3) and calls == [3]
    assert not _reaches_rank(columns, 0b1111, 4)
    assert not _reaches_rank(columns, 0b0011, 2)
    assert _reaches_rank(columns, 0b0001, 0)


def _no_vertex_tuples(monkeypatch):
    def decode(rows):
        raise AssertionError("vertex tuples decoded")

    # a property on the class wins over a cached_property value already kept
    monkeypatch.setattr(oracle._VertexRows, "rows", property(decode))


def test_cross_validation_builds_no_vertex_tuple(monkeypatch, tmp_path, capsys):
    # every 2-connected atlas graph up to 6 vertices, both kinds: the facets,
    # the Gorenstein search and `gorcheck oracle` read the edge columns and
    # the masks only, and the GF(2) rank proves every facet without the
    # exact fallback, the facet route's only elimination
    from gorcheck.cli import main

    _no_vertex_tuples(monkeypatch)

    def no_fallback(mat, ncols):
        raise AssertionError("exact rank fallback ran")

    answered = 0
    for i, G in enumerate(two_connected_graphs(6)):
        path = tmp_path / f"g{i}.txt"
        path.write_text("".join(f"{u} {v}\n" for _, u, v in G.edges))
        for kind in ("base", "independence"):
            P = polytope_of(G, kind)
            if len(P.vertices) > oracle.FACET_VERTEX_GUARD:
                continue
            with monkeypatch.context() as m:
                m.setattr(oracle, "_eliminate", no_fallback)
                P.require_facets()
            gorenstein_search(P)
            code = main(["oracle", "base" if kind == "base" else "indep", str(path)])
            assert code == 0, capsys.readouterr().err
            assert json.loads(capsys.readouterr().out)["polytope"]["vertices"] == len(P.vertices)
            answered += 1
    assert answered == 121


def test_a_polytope_over_the_facet_guard_builds_no_column(monkeypatch):
    # the guard counts the masks: neither the columns nor a vertex tuple
    # exists when it trips, in either facet route or the search
    def build(P):
        raise AssertionError("columns built")

    _no_vertex_tuples(monkeypatch)
    monkeypatch.setattr(oracle.LatticePolytope, "columns", property(build))
    P = polytope_of(complete(6), "base")
    for run in (P.require_facets, lambda: facets_bruteforce(P), lambda: gorenstein_search(P)):
        with pytest.raises(GuardExceeded, match=r"guarded at 512 vertices \(polytope has 1296\)"):
            run()
    assert len(P.vertices) == 1296 and P.facets is None


def test_missing_flat_is_a_contradiction(monkeypatch, c3):
    # without the flats, B(C3)'s candidates x_e >= 0 are each tight at one
    # vertex only: maximal, but of affine rank 0 in a triangle
    monkeypatch.setattr(oracle, "_connected_flats", lambda G: [])
    with pytest.raises(InternalContradiction, match="affine rank below 1"):
        facets_from_flats(polytope_of(c3, "base"))
