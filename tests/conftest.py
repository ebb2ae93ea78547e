import random
from functools import cache

import networkx as nx
import pytest

from gorcheck.errors import GuardExceeded
from gorcheck.graph import Multigraph
from gorcheck.oracle import FACET_VERTEX_GUARD, polytope_of
from gorcheck.smallgraphs import two_connected_graphs
from ladder import positive


def cycle(n, labels=None):
    labels = list(labels) if labels is not None else list(range(n))
    return Multigraph.build(
        labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    )


def complete(n):
    return Multigraph.build(
        range(n), [(a, b) for a in range(n) for b in range(a + 1, n)]
    )


def isomorphic(G1, G2):
    """networkx VF2 on MultiGraphs, exact.

    Nodes carry colour-refinement labels, which every isomorphism preserves;
    they only prune the search, which is otherwise slow on the many
    interchangeable paths of an attach-cycle graph.
    """
    def convert(G):
        M = nx.MultiGraph()
        M.add_nodes_from(G.vertices)
        M.add_edges_from((u, v) for _, u, v in G.edges)
        color = {v: M.degree(v) for v in M}
        for _ in range(3):
            color = {
                v: hash((color[v], tuple(sorted(color[w] for w in M.neighbors(v)))))
                for v in M
            }
        nx.set_node_attributes(M, color, "color")
        return M

    return nx.is_isomorphic(
        convert(G1), convert(G2), node_match=lambda a, b: a["color"] == b["color"]
    )


def ladder_positive(kind, n, seed=0):
    """ladder.positive as (graph, delta, ids of its weight-1 edges)."""
    vertices, edges, delta, light = positive(kind, n, seed)
    return Multigraph.build(vertices, edges), delta, light


def cycle_with_chord(n):
    """C_n plus the chord 0 -- n//2: no cycle block, so its chordless cycles
    come from the subset tables."""
    return cycle(n).with_edge(0, n // 2)[0]


def stuck_past_the_guard():
    """A 29-vertex block that does not decompose at its one candidate delta,
    4: the atlas graph 0-1 0-3 0-4 1-2 2-3 3-4, a flat_equality_violated
    case, with six Glue steps of two 3-edge paths each, every one on a
    heavy edge of the last."""
    pairs = [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]
    u, v, n = 1, 2, 5
    for _ in range(6):
        pairs += [(u, n), (n, n + 1), (n + 1, v), (u, n + 2), (n + 2, n + 3), (n + 3, v)]
        u, v, n = n, n + 1, n + 4
    return Multigraph.build(range(n), pairs)


def random_multigraphs(count, seed):
    """Seeded multigraphs on 1-9 vertices, for equivalence tests.

    Labels are ints, strings or a mix; edges are drawn with replacement, so
    parallel edges and loops occur, and sparse draws are disconnected.  Half
    the graphs start from a Hamiltonian cycle, so many are 2-connected.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 9)
        kind = rng.choice(["int", "str", "mixed"])
        labels = [
            i if kind == "int" or (kind == "mixed" and i % 2) else f"v{i}"
            for i in range(n)
        ]
        rng.shuffle(labels)
        pairs = []
        if n >= 2 and rng.random() < 0.5:
            pairs += [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u = rng.choice(labels)
            v = u if rng.random() < 0.1 else rng.choice(labels)
            pairs.append((u, v))
        out.append(Multigraph.build(labels, pairs))
    return out


@cache
def guarded_atlas_polytopes():
    """(G, kind, P) for both polytopes of every 2-connected atlas graph up to
    6 vertices under FACET_VERTEX_GUARD, the polytopes both facet routes
    take, built once per test session: 121 of the 142.

    Callers only read them; the facets P.require_facets() caches on first use
    come from facets_from_flats, since each P has its graph, and are the same
    whichever test computes them.  Tests that need the double description
    call facets_bruteforce(P), which caches nothing.
    """
    out = []
    for G in two_connected_graphs(6):
        for kind in ("base", "independence"):
            try:
                out.append((G, kind, polytope_of(G, kind, guard=FACET_VERTEX_GUARD)))
            except GuardExceeded:  # more vertices than either facet route takes
                continue
    return out


@pytest.fixture
def k2():
    return Multigraph.build(range(2), [(0, 1)])


@pytest.fixture
def c3():
    return cycle(3)


@pytest.fixture
def c4():
    return cycle(4)


@pytest.fixture
def c5():
    return cycle(5, labels=[1, 2, 3, 4, 5])


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def k4_minus_e():
    # vertices a,b,c,d with cd missing
    return Multigraph.build(
        "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


@pytest.fixture
def c5_chord(c5):
    # C5 on 1..5 plus the chord {1,3}
    G, _ = c5.with_edge(1, 3)
    return G


@pytest.fixture
def k23():
    return Multigraph.build(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
