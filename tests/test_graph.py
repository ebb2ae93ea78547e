import itertools
import random
import time
from typing import NamedTuple

import pytest

from conftest import complete, cycle, random_multigraphs
from ladder import attach_positive
from gorcheck import graph
from gorcheck.errors import GuardExceeded, ParseError
from gorcheck.graph import (
    Multigraph,
    bases_and_forests,
    blocks,
    blow_up_factor,
    components,
    format_edge_list,
    induced_cycles,
    is_k4_minor_free,
    is_connected,
    is_two_connected,
    label_key,
    low_link,
    normalize,
    parse_graph,
)
from gorcheck.smallgraphs import two_connected_graphs


def test_parse_roundtrip():
    text = "a b\nb c 2\nc a\n"
    G = parse_graph(text)
    assert G.n == 3 and G.m == 4
    assert parse_graph(format_edge_list(G)).m == 4


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("a\n")
    with pytest.raises(ParseError):
        parse_graph("a b 0\n")
    with pytest.raises(ParseError):
        parse_graph("# only comments\n")
    try:
        parse_graph("a b\nbogus\n")
    except ParseError as exc:
        assert exc.line == 2


def test_parse_guards_the_running_edge_count():
    # the count runs over the lines, and a line that takes it past 10^6 is
    # refused before its pairs are listed (test_cli runs "1 2 1000000000"
    # under an address-space limit)
    with pytest.raises(GuardExceeded, match=r"^edge list guarded at 1000000 edges; line 3 brings it to 1000001$"):
        parse_graph("a b 999999\n# the count so far is 999999\nb c 2\n")


def test_normalize_strips_loops():
    G = parse_graph("a a\na b\n")
    N = normalize(G)
    assert N.m == 1 and N.edges == ((1, "a", "b"),)


def test_normalize_is_linear_in_the_loops():
    # normalize rebuilt the set of loops once per edge: 11 s on 20,000 loops
    G = parse_graph("a a 20000\na b\n")
    t0 = time.perf_counter()
    N = normalize(G)
    assert time.perf_counter() - t0 < 1.0
    assert (N.m, G.m - N.m) == (1, 20000)


def test_two_connected():
    assert is_two_connected(complete(4))
    assert is_two_connected(cycle(3))
    assert is_two_connected(Multigraph.build(range(2), [(0, 1)]))
    # path has a cut vertex
    assert not is_two_connected(Multigraph.build(range(3), [(0, 1), (1, 2)]))
    assert not is_two_connected(Multigraph.build(range(4), [(0, 1), (2, 3)]))


def _is_two_connected_by_deletion(G):
    """Reference definition: connected, and connected after deleting any vertex."""
    if G.n < 2 or not is_connected(G):
        return False
    if G.n == 2:
        return G.m >= 1
    return all(is_connected(G.without_vertices([v])) for v in G.vertices)


def test_two_connected_edge_cases():
    assert not is_two_connected(Multigraph.build([], []))
    assert not is_two_connected(Multigraph.build([0], [(0, 0)]))
    assert is_two_connected(Multigraph.build(range(2), [(0, 1), (0, 1)]))
    assert not is_two_connected(Multigraph.build(range(2), [(0, 0), (1, 1)]))
    # a loop at the cut vertex of a path does not hide the cut
    assert not is_two_connected(Multigraph.build(range(3), [(0, 1), (1, 1), (1, 2)]))
    # a doubled path is still cut at its middle vertex
    assert not is_two_connected(
        Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2), (1, 2)])
    )


def test_two_connected_matches_deletion_definition():
    graphs = two_connected_graphs(7) + random_multigraphs(3000, seed=20261018)
    for G in graphs:
        assert is_two_connected(G) == _is_two_connected_by_deletion(G), G.edges
        # every vertex-deleted subgraph too: these are mostly not 2-connected
        for v in G.vertices[:2]:
            H = G.without_vertices([v])
            assert is_two_connected(H) == _is_two_connected_by_deletion(H), H.edges


def _is_two_connected_reference(G):
    """Reference: the low-link pass is_two_connected ran before blocks and it
    shared one, stopping at the first cut vertex."""
    if G.n < 2:
        return False
    if G.n == 2:
        return len(components(G)) == 1
    adj = G.adjacency
    root = G.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    work = [(root, None, iter(adj[root]))]
    while work:
        v, parent, it = work[-1]
        for _, w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                work.append((w, v, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            work.pop()
            if parent is None:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            if disc[parent] == 0:
                root_children += 1
                if root_children > 1:
                    return False
            elif low[v] >= disc[parent]:
                return False
    return len(disc) == G.n


def _blocks_reference(G):
    """Reference: the edge-stack DFS blocks ran over sorted adjacency lists
    before it shared the low-link pass with is_two_connected."""
    disc: dict = {}
    low: dict = {}
    stack: list = []  # edge ids
    out: list = []
    counter = itertools.count()

    def emit_from(marker_eid):
        comp = []
        while True:
            eid = stack.pop()
            comp.append(eid)
            if eid == marker_eid:
                break
        out.append(tuple(sorted(comp)))

    def dfs(root):
        disc[root] = low[root] = next(counter)
        work = [(root, None, iter(sorted(G.adjacency[root])))]
        while work:
            v, in_eid, it = work[-1]
            advanced = False
            for eid, w in it:
                if eid == in_eid:
                    continue
                if w not in disc:
                    stack.append(eid)
                    disc[w] = low[w] = next(counter)
                    work.append((w, eid, iter(sorted(G.adjacency[w]))))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    stack.append(eid)
                    low[v] = min(low[v], disc[w])
            if not advanced:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        emit_from(in_eid)

    for v in G.sorted_vertices:
        if v not in disc and G.adjacency[v]:
            dfs(v)

    result = []
    for comp in sorted(out):
        vs = {x for eid in comp for x in G.edge_by_id[eid]}
        edges = tuple((eid,) + G.edge_by_id[eid] for eid in comp)
        result.append(Multigraph(tuple(sorted(vs, key=label_key)), edges))
    return result


def _count_components_without(H, vertex=None, edge=None):
    """Deletion definition: components of H - vertex - edge, by plain search."""
    seen = set() if vertex is None else {vertex}
    count = 0
    for s in H.vertices:
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            for eid, w in H.adjacency[stack.pop()]:
                if eid != edge and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def test_low_link_matches_references_and_deletion_definitions():
    # over G - skip for skip = None and every vertex, the one pass gives the
    # component count, the cut vertices (removing v adds a component), the
    # bridges (removing e adds a component) and the blocks, and the routines
    # built on it agree with the references they replaced
    graphs = two_connected_graphs(7) + random_multigraphs(3000, seed=20261019)
    checked = 0
    for G in graphs:
        for skip in (None,) + G.vertices:
            H = G if skip is None else G.without_vertices([skip])
            ll = low_link(G, skip=skip)
            count = _count_components_without(H)
            assert ll.components == count == len(components(H)), (G.edges, skip)
            assert ll.cut_vertices == {
                v for v in H.vertices if _count_components_without(H, vertex=v) > count
            }, (G.edges, skip)
            assert ll.bridges == {
                eid for eid, _, _ in H.edges if _count_components_without(H, edge=eid) > count
            }, (G.edges, skip)
            reference = _blocks_reference(H)
            assert blocks(H) == reference, (G.edges, skip)
            assert sorted(tuple(sorted(b)) for b in ll.blocks) == [
                tuple(eid for eid, _, _ in b.edges) for b in reference
            ]
            assert is_two_connected(H) == _is_two_connected_reference(H), (G.edges, skip)
            assert is_connected(H) == (count == 1), (G.edges, skip)
            checked += 1
    assert checked > 20000


def test_blocks_bowtie():
    # two triangles sharing vertex 2
    G = Multigraph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blks = blocks(G)
    assert len(blks) == 2
    assert all(b.n == 3 and b.m == 3 for b in blks)


def test_blocks_bridge_is_k2():
    G = Multigraph.build(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    sizes = sorted((b.n, b.m) for b in blocks(G))
    assert sizes == [(2, 1), (3, 3)]


def test_components():
    G = Multigraph.build(range(5), [(0, 1), (2, 3)])
    assert components(G) == [(0, 1), (2, 3), (4,)]


def test_contract(k4):
    contracted, _ = k4.contract([0])
    assert contracted.n == 3 and contracted.m == 5  # K4/e keeps parallel edges


class Ear(NamedTuple):
    """Path whose inner vertices have degree 2 in the host graph."""

    path: tuple  # vertex sequence (v_0, ..., v_s)
    edge_ids: tuple

    @property
    def length(self) -> int:
        return len(self.path) - 1

    @property
    def inner(self) -> tuple:
        return self.path[1:-1]


class EarScan(NamedTuple):
    is_cycle: bool
    ears: tuple


def ears(G: Multigraph) -> EarScan:
    """Reference: all maximal ears of a 2-connected graph, pairwise
    edge-disjoint, by a full scan; the peels keep their runs up to date
    instead of rescanning.

    A cycle has no ears in this sense and is flagged via is_cycle instead.
    Only ears with at least one inner vertex (length >= 2) are reported,
    each read from its smaller end, sorted by label-key path.
    """
    deg = {v: G.degree(v) for v in G.vertices}
    if all(d == 2 for d in deg.values()):
        return EarScan(is_cycle=True, ears=())
    used_edges: set = set()
    found = []
    anchors = [v for v in G.sorted_vertices if deg[v] != 2]
    for a in anchors:
        for eid, w in sorted(G.adjacency[a]):
            if eid in used_edges or deg[w] != 2:
                continue
            path = [a, w]
            eids = [eid]
            prev_eid, cur = eid, w
            while deg[cur] == 2:
                nxt = next(
                    (e, x) for e, x in sorted(G.adjacency[cur]) if e != prev_eid
                )
                prev_eid, cur = nxt
                path.append(cur)
                eids.append(prev_eid)
            if any(e in used_edges for e in eids):
                continue
            used_edges.update(eids)
            keyed = tuple(label_key(v) for v in path)
            if tuple(reversed(keyed)) < keyed:
                path.reverse()
                eids.reverse()
            found.append(Ear(tuple(path), tuple(eids)))
    found.sort(key=lambda e: tuple(label_key(v) for v in e.path))
    return EarScan(is_cycle=False, ears=tuple(found))


def test_ears():
    # K4-e drawn as two triangles: ears are the 2 paths through c and d
    G = Multigraph.build(
        "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    scan = ears(G)
    assert not scan.is_cycle
    assert sorted(e.path for e in scan.ears) == [("a", "c", "b"), ("a", "d", "b")]
    assert ears(cycle(5)).is_cycle


def test_chordless_cycles(k4, c5_chord):
    assert sorted(len(c) for c in induced_cycles(k4)) == [3, 3, 3, 3]
    assert sorted(len(c) for c in induced_cycles(c5_chord)) == [3, 4]
    assert len(induced_cycles(cycle(6))) == 1


def _induced_cycles_by_subsets(G):
    """Reference: test every vertex subset for all degrees 2 and connectivity,
    by size, then lexicographically, and walk each cycle the way
    induced_cycles does."""
    cycles = []
    for r in range(3, G.n + 1):
        for S in itertools.combinations(G.sorted_vertices, r):
            sset = set(S)
            local_adj = {v: [w for _, w in G.adjacency[v] if w in sset] for v in S}
            if any(len(nb) != 2 for nb in local_adj.values()):
                continue
            order = [S[0], local_adj[S[0]][0]]
            while True:
                a, b = order[-2], order[-1]
                nxt = local_adj[b][0] if local_adj[b][0] != a else local_adj[b][1]
                if nxt == order[0]:
                    break
                order.append(nxt)
            if len(order) == r:  # one cycle through all of S: G[S] is connected
                cycles.append(tuple(order))
    return cycles


def _random_simple_graphs(per_size, max_vertices, seed):
    """per_size simple graphs of each size 3..max_vertices, with shuffled
    string labels, vertex order and edge order, each at its own edge density."""
    rng = random.Random(seed)
    for n in [n for n in range(3, max_vertices + 1) for _ in range(per_size)]:
        labels = [f"v{i}" for i in range(n)]
        rng.shuffle(labels)
        p = rng.uniform(0.1, 0.5)
        pairs = [(a, b) for a, b in itertools.combinations(labels, 2) if rng.random() < p]
        rng.shuffle(pairs)
        yield Multigraph.build(labels, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs])


def test_induced_cycles_match_the_subset_walk():
    # the bit tables find the same chordless cycles as a loop over every
    # subset, in the same order, each walked from the same start the same way
    graphs = two_connected_graphs(7) + list(_random_simple_graphs(2, 16, seed=20261019))
    for G in graphs:
        assert induced_cycles(G) == _induced_cycles_by_subsets(G), G.edges
    assert max(G.n for G in graphs) == 16


def test_k4_minor():
    assert not is_k4_minor_free(complete(4))
    assert is_k4_minor_free(cycle(5))
    assert is_k4_minor_free(
        Multigraph.build(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    )
    assert not is_k4_minor_free(complete(5))


def has_k4_minor_bruteforce(G: Multigraph) -> bool:
    """Independent oracle: search for 4 disjoint connected, pairwise-adjacent sets.

    Restricted-growth enumeration over branch-set assignments; intended for
    graphs with at most ~8 vertices.
    """
    verts = G.sorted_vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for eid, u, v in G.edges:
        if u != v:
            nbr[idx[u]] |= 1 << idx[v]
            nbr[idx[v]] |= 1 << idx[u]

    def mask_connected(mask: int) -> bool:
        if mask == 0:
            return False
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= nbr[b.bit_length() - 1]
            frontier = nxt & mask & ~seen
            seen |= frontier
        return seen == mask

    def rec(i: int, classes: list, used: int) -> bool:
        if n - i < 4 - used:
            return False
        if i == n:
            if used < 4:
                return False
            for a in range(4):
                if not mask_connected(classes[a]):
                    return False
            adj = [0] * 4
            for a in range(4):
                m = classes[a]
                acc = 0
                while m:
                    b = m & -m
                    m ^= b
                    acc |= nbr[b.bit_length() - 1]
                adj[a] = acc
            return all(
                adj[a] & classes[b]
                for a in range(4)
                for b in range(a + 1, 4)
            )
        bit = 1 << i
        for c in range(min(used + 1, 4)):
            classes[c] |= bit
            if rec(i + 1, classes, max(used, c + 1)):
                classes[c] ^= bit
                return True
            classes[c] ^= bit
        return rec(i + 1, classes, used)

    return rec(0, [0, 0, 0, 0], 0)


def test_k4_minor_bruteforce_agrees_exhaustively():
    for G in two_connected_graphs(6):
        assert has_k4_minor_bruteforce(G) == (not is_k4_minor_free(G)), G.edges


def test_spanning_trees_counts(c3, k4):
    assert len(list(bases_and_forests(c3, "spanning_trees"))) == 3
    assert len(list(bases_and_forests(k4, "spanning_trees"))) == 16
    assert len(list(bases_and_forests(c3, "forests"))) == 7
    assert len(list(bases_and_forests(complete(5), "spanning_trees"))) == 125


def test_enumeration_guard(k4):
    with pytest.raises(GuardExceeded):
        list(bases_and_forests(k4, "spanning_trees", guard=5))


def _forests_by_frozensets(G, kind, guard=10**6):
    """Reference: the walk bases_and_forests replaced, a rollback union-find
    over label dicts that yields each forest as a frozenset of edge ids."""
    edges = sorted(G.edges)
    target = G.n - low_link(G).components
    trees = kind == "spanning_trees"
    parent = {v: v for v in G.vertices}
    size = {v: 1 for v in G.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen: list = []
    count = 0
    stack: list = [0]
    while stack:
        i = stack.pop()
        if type(i) is tuple:
            ru, rv, i = i
            chosen.pop()
            parent[rv] = rv
            size[ru] -= size[rv]
            stack.append(i + 1)
        elif (len(chosen) == target) if trees else (i == len(edges)):
            count += 1
            if count > guard:
                raise GuardExceeded(f"more than {guard} {'spanning forests' if trees else 'forests'}")
            yield frozenset(chosen)
        elif i < len(edges) and (not trees or len(chosen) + len(edges) - i >= target):
            eid, u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                stack.append(i + 1)
                continue
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            chosen.append(eid)
            stack += [(ru, rv, i), i + 1]


def forest_walk_cases():
    """Graphs for the forest walk's reference tests: every 2-connected atlas
    graph up to 6 vertices, a multigraph, a disconnected graph with a
    parallel edge, a loop-only graph, and seeded small multigraphs with loops
    and mixed labels."""
    return [
        *two_connected_graphs(6),
        Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (0, 1)]),
        Multigraph.build(range(7), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 5)]),
        Multigraph.build([0], [(0, 0)]),
        *(G for G in random_multigraphs(60, seed=27) if G.m <= 10),
    ]


def test_forest_masks_match_the_frozenset_walk():
    # bit j of a mask is the j-th smallest edge id; the walk takes each edge
    # before leaving it out, so the 0/1 vectors strictly decrease
    for G in forest_walk_cases():
        col = {eid: j for j, eid in enumerate(sorted(G.edge_by_id))}
        for kind in ("spanning_trees", "forests"):
            masks = list(bases_and_forests(G, kind))
            assert masks == [
                sum(1 << col[eid] for eid in s) for s in _forests_by_frozensets(G, kind)
            ], (G.edges, kind)
            vectors = [[mask >> j & 1 for j in range(G.m)] for mask in masks]
            assert all(a > b for a, b in zip(vectors, vectors[1:])), (G.edges, kind)


def test_enumeration_guard_trips_after_guard_yields(k4):
    for kind, what, guard in (("spanning_trees", "spanning forests", 15), ("forests", "forests", 37)):
        walk = bases_and_forests(k4, kind, guard=guard)
        assert len([next(walk) for _ in range(guard)]) == guard
        with pytest.raises(GuardExceeded, match=f"^more than {guard} {what}$"):
            next(walk)
        assert len(list(bases_and_forests(k4, kind, guard=guard + 1))) == guard + 1


def test_union_find_users_match_components():
    # contract merges each class into components()' smallest label: check it
    # on graphs with loops, parallel edges and mixed labels
    for G in random_multigraphs(300, seed=20261020):
        comps = components(G)
        H, mapping = G.contract(G.edge_by_id)
        assert (H.n, H.m) == (len(comps), 0)
        for comp in comps:
            assert {mapping[v] for v in comp} == {comp[0]}


def test_blow_up_factor():
    doubled = Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    f = blow_up_factor(doubled)
    assert f.multiplicity == 2 and f.base_graph.m == 3
    uneven = Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert blow_up_factor(uneven) is None


def _blocks_by_label_key(G):
    """Reference: blocks() as it sorted every block's vertices by label_key."""
    result = []
    for comp in sorted(tuple(sorted(b)) for b in low_link(G).blocks):
        edges = tuple((eid,) + G.edge_by_id[eid] for eid in comp)
        vs = {x for _, u, v in edges for x in (u, v)}
        result.append(Multigraph(tuple(sorted(vs, key=label_key)), edges))
    return result


def _blow_up_factor_by_label_key(G):
    """Reference: blow_up_factor() as it sorted frozenset parallel classes
    by label_key."""
    if G.m == 0:
        raise ValueError("blow_up_factor requires at least one edge")
    if any(u == v for _, u, v in G.edges):
        raise ValueError("blow_up_factor requires a normalized (loop-free) graph")
    mults = {len(eids) for eids in G.parallel_classes.values()}
    if len(mults) != 1:
        return None
    (m,) = mults
    H = Multigraph.build(
        G.vertices,
        [tuple(sorted(pair, key=label_key)) for pair in sorted(
            G.parallel_classes, key=lambda p: tuple(sorted(label_key(x) for x in p))
        )],
    )
    return m, H


def _label_order_cases():
    """Graphs whose blocks and base graphs cover: the 2-connected atlas up to
    6 vertices blown up 1-, 2- and 3-fold, mixed labels on which label_key
    puts 9 < 10 < "10" < "9", bridges, disconnected graphs, non-uniform
    classes, loops, and a block that misses an isolated vertex."""
    rng = random.Random(20261020)
    pool = [9, 10, "10", "9", 0, "a", 100, "b", -3, "-3"]
    out = []
    for H in two_connected_graphs(6):
        for mult in (1, 2, 3):
            labels = rng.sample(pool, H.n)
            pairs = [(labels[u], labels[v]) for _, u, v in H.edges for _ in range(mult)]
            rng.shuffle(pairs)
            out.append(Multigraph.build(labels, [p if rng.random() < 0.5 else p[::-1] for p in pairs]))
    for _ in range(300):
        labels = rng.sample(pool, rng.randint(1, len(pool)))
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 2 * len(labels)))]
        out.append(Multigraph.build(labels, [(u, v) for u, v in pairs if u != v or rng.random() < 0.1]))
    out += [
        Multigraph.build(["9", 10, 9, "10"], [(9, 10), (10, "10"), ("10", "9")]),  # a path: bridges only
        Multigraph.build([10, "9", 9, "10", "a"], [(10, 9), (9, "9"), ("9", 10), ("10", "a")]),  # disconnected
        Multigraph.build([10, "9", 9], [(10, 9), (10, 9), (9, "9"), ("9", 10)]),  # non-uniform classes
        Multigraph.build(["10", 9, 10, "9"], [(9, 10), (10, "10"), ("10", 9), (9, 9)]),  # a loop
        Multigraph.build(["10", 9, 10, "9"], [(9, 10), (10, "10"), ("10", 9)]),  # "9" is isolated
    ]
    return out


def _check_records(G):
    """G's sorted_vertices and its recorded simplicity and 2-connectivity
    agree with a fresh copy that has no records."""
    fresh = Multigraph(G.vertices, G.edges)
    assert G.sorted_vertices == tuple(sorted(G.vertices, key=label_key)), G.edges
    if "_simple" in G.__dict__:
        assert G.__dict__["_simple"] == fresh.is_simple(), G.edges
    if "_two_connected" in G.__dict__:
        assert G.__dict__["_two_connected"] == is_two_connected(fresh), G.edges
    # a one-block graph's block shares G's tables; the adjacency's keys stay
    # in G.vertices order, so only its mapping is compared
    if "edge_by_id" in G.__dict__:
        assert list(G.edge_by_id.items()) == list(fresh.edge_by_id.items()), G.edges
    if "adjacency" in G.__dict__:
        assert G.adjacency == fresh.adjacency, G.edges


def _blow_up_outcome(factor, G):
    try:
        f = factor(G)
    except ValueError as err:
        return str(err)
    return None if f is None else (f[0], f[1].vertices, f[1].edges)


def test_blocks_and_base_graphs_inherit_the_label_order():
    # blocks() and blow_up_factor() read positions in G.sorted_vertices where
    # they sorted labels; their output is the label_key references', and the
    # sorted_vertices, _simple and _two_connected they hand down are right
    checked, errors = 0, set()
    for G in _label_order_cases():
        for known_simple in (False, True):
            G = Multigraph(G.vertices, G.edges)
            if known_simple:
                G.is_simple()
            blks = blocks(G)
            assert [(b.vertices, b.edges) for b in blks] == [
                (b.vertices, b.edges) for b in _blocks_by_label_key(G)
            ], G.edges
            for b in [G, *blks]:
                _check_records(b)
                outcome = _blow_up_outcome(blow_up_factor, b)
                assert outcome == _blow_up_outcome(_blow_up_factor_by_label_key, b), b.edges
                if isinstance(outcome, tuple):
                    H = blow_up_factor(b).base_graph
                    assert H.__dict__["_simple"] is True
                    _check_records(H)
                elif isinstance(outcome, str):
                    errors.add(outcome)
                checked += 1
    assert checked > 2500
    assert errors == {
        "blow_up_factor requires at least one edge",
        "blow_up_factor requires a normalized (loop-free) graph",
    }


def test_one_label_sort_per_graph(monkeypatch):
    # blocks() sorts G's labels once and every block and base graph reuses
    # that order: no block builds parallel classes or calls label_key again
    vertices, edges, _ = attach_positive(2, 2000, seed=5)
    G = Multigraph.build(vertices, [e for e in edges for _ in range(2)])
    calls = []

    def counted(x):
        calls.append(x)
        return label_key(x)

    monkeypatch.setattr(graph, "label_key", counted)
    blks = blocks(G)
    bases = [blow_up_factor(b).base_graph for b in blks]
    assert len(calls) == G.n
    assert all("parallel_classes" not in g.__dict__ for g in blks + bases)


def _is_simple_by_parallel_classes(G):
    return not any(u == v for _, u, v in G.edges) and all(
        len(c) == 1 for c in G.parallel_classes.values())


def test_is_simple_matches_the_parallel_classes():
    # is_simple counts pairs of vertex positions; the parallel classes it
    # used to build give the same answer on every atlas graph, the same
    # graph with an edge doubled or a loop added, and seeded multigraphs
    from networkx.generators.atlas import graph_atlas_g

    cases = random_multigraphs(1000, seed=20261020)
    for g in graph_atlas_g():
        if g.number_of_edges():
            pairs = sorted(tuple(sorted(e)) for e in g.edges())
            n = g.number_of_nodes()
            cases += [
                Multigraph.build(range(n), pairs),
                Multigraph.build(range(n), pairs + pairs[-1:]),
                Multigraph.build(range(n), pairs + [(n - 1, n - 1)]),
            ]
    answers = set()
    for G in cases:
        want = _is_simple_by_parallel_classes(Multigraph(G.vertices, G.edges))
        assert G.is_simple() == want, G.edges
        assert "parallel_classes" not in G.__dict__
        answers.add(want)
    assert answers == {True, False}


def _two_connected_with_mixed_labels():
    # a triangle with two ears, its labels out of label_key order
    return Multigraph.build(["9", 10, "10", 9, "a"], [
        ("9", 10), (10, "10"), ("10", "9"), ("9", 9), (9, 10), (10, "a"), ("a", "10"),
    ])


def test_a_second_blocks_or_low_link_call_runs_no_pass(monkeypatch):
    G = Multigraph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    ll = low_link(G)
    assert low_link(G) is ll
    passes = []

    def counted(H, skip=None):
        if skip is not None or "_low_link" not in H.__dict__:
            passes.append(skip)
        return low_link(H, skip)

    monkeypatch.setattr(graph, "low_link", counted)
    G = Multigraph(G.vertices, G.edges)
    first = blocks(G)
    second = blocks(G)
    assert passes == [None]
    assert [(b.vertices, b.edges) for b in first] == [(b.vertices, b.edges) for b in second]
    assert len(first) == 3


def test_a_graph_with_loops_keeps_one_loop_free_graph():
    G = Multigraph.build(range(3), [(0, 1), (1, 1), (1, 2), (0, 2), (2, 2)])
    H = normalize(G)
    assert normalize(G) is H and H.edges == ((0, 0, 1), (2, 1, 2), (3, 0, 2))
    assert normalize(H) is H and "_loop_free" not in H.__dict__


def test_low_link_without_a_vertex_is_never_kept():
    G = _two_connected_with_mixed_labels()
    for x in G.vertices:
        a, b = low_link(G, skip=x), low_link(G, skip=x)
        assert a == b and a is not b
        assert "_low_link" not in G.__dict__
    assert low_link(G).cut_vertices == frozenset()
    assert G.__dict__["_low_link"] is low_link(G)


def test_a_one_block_graph_shares_its_tables_with_its_block():
    G = _two_connected_with_mixed_labels()
    (b,) = blocks(G)
    assert b.adjacency is G.adjacency and b.edge_by_id is G.edge_by_id
    assert b.edges is G.edges
    assert b.vertices is b.sorted_vertices is G.sorted_vertices
    assert b.vertices == (9, 10, "10", "9", "a")
    # edges out of id order, or an isolated vertex: the block has its own tables
    for H in (
        Multigraph(G.vertices, G.edges[::-1]),
        Multigraph(G.vertices + ("b",), G.edges),
    ):
        (c,) = blocks(H)
        assert c.adjacency is not H.adjacency and c.edge_by_id is not H.edge_by_id
        assert c.edges == G.edges and c.vertices == b.vertices
        _check_records(c)


def test_atlas_enumeration_counts():
    # 2-connected simple graphs up to iso: known counts
    assert len(two_connected_graphs(4)) == 1 + 1 + 3  # K2, C3, {C4, K4-e, K4}
    assert len(two_connected_graphs(5)) == 15
    assert len(two_connected_graphs(6)) == 71
    assert len(two_connected_graphs(7)) == 539
    # per vertex count, n = 2..7: OEIS A002218
    per_n = [len(two_connected_graphs(n, min_vertices=n)) for n in range(2, 8)]
    assert per_n == [1, 1, 3, 10, 56, 468]


def test_the_frozen_list_is_the_atlas():
    # the package data is what tests/freeze_graphs.py writes from the atlas,
    # and each graph list read from it is the atlas's, graph by graph and
    # edge by edge, with networkx deciding 2-connectivity
    import freeze_graphs
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    from gorcheck import smallgraphs

    with open(smallgraphs._DATA) as f:
        assert f.read() == freeze_graphs.text(freeze_graphs.masks())
    atlas = [  # as the package read the atlas: labels 0..n-1, edges sorted
        Multigraph.build(range(g.number_of_nodes()), sorted(tuple(sorted(e)) for e in g.edges()))
        for g in graph_atlas_g() if g.number_of_nodes() >= 2 and nx.is_biconnected(g)
    ]
    for max_vertices in range(2, 8):
        for min_vertices in range(2, max_vertices + 1):
            for max_edges in (None, 6, 9):
                got = two_connected_graphs(max_vertices, max_edges, min_vertices)
                assert got == [
                    G for G in atlas
                    if min_vertices <= G.n <= max_vertices and (max_edges is None or G.m <= max_edges)
                ]
    with pytest.raises(ValueError):
        two_connected_graphs(8)
