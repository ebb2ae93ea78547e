"""Flat families quantified over by the polytope equality systems.

Good flats index the second facet family of the base polytope; vertex sets
inducing 2-connected subgraphs index the independence-polytope equalities and
the k(S)-corrected base equalities.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GuardExceeded, NotTwoConnected
from .graph import Multigraph, blocks, is_connected, is_two_connected, label_key

SUBSET_GUARD_VERTICES = 24


class GoodFlat(NamedTuple):
    """Vertex set S whose restriction and whose E(S)-contraction are 2-connected."""

    S: tuple
    induced_edges: tuple  # sorted edge ids of E(S)


def _subset_kernel(G: Multigraph) -> tuple:
    """Connectivity of every induced subgraph of G at once, as two big integers.

    Vertex i is G.sorted_vertices[i], and a vertex set is the bitmask S with
    bit i set for each member.  A table over all 2^n masks is one 2^n-bit
    integer whose bit S is that mask's entry, so one integer operation works
    on every subset together.  Returns (conn, biconn): bit S of conn is set
    when G[S] is nonempty and connected, and of biconn when G[S] is
    2-connected (an edge for |S| = 2).  Loops and parallel edges are ignored:
    neither changes connectivity.  Memory is about 2n integers of 2^n bits.
    """
    if G.n > SUBSET_GUARD_VERTICES:
        raise GuardExceeded(
            f"subset enumeration guarded at {SUBSET_GUARD_VERTICES} vertices"
        )
    n = G.n
    index = {v: i for i, v in enumerate(G.sorted_vertices)}
    nbrs = [set() for _ in range(n)]
    for _, u, v in G.edges:
        if u != v:
            nbrs[index[u]].add(index[v])
            nbrs[index[v]].add(index[u])
    size = 1 << n
    table_all = (1 << size) - 1
    # member[i]: masks containing vertex i, i.e. 2^i clear bits then 2^i set
    # bits, repeated
    member = []
    for i in range(n):
        period = 2 << i
        x = ((1 << (1 << i)) - 1) << (1 << i)
        while period < size:
            x |= x << period
            period *= 2
        member.append(x)
    # reach[i]: masks in which vertex i is reached from the lowest member;
    # it starts as the masks whose lowest member is i and grows edge by edge
    reach = []
    lower = 0
    for i in range(n):
        reach.append(member[i] & ~lower)
        lower |= member[i]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = 0
            for j in nbrs[i]:
                grown |= reach[j]
            grown = reach[i] | (grown & member[i])
            if grown != reach[i]:
                reach[i] = grown
                changed = True
    conn = table_all ^ 1  # the empty mask is not connected
    for i in range(n):
        conn &= reach[i] | ~member[i]
    # G[S] is 2-connected when it is connected and so is G[S - v] for every
    # v in S; bit S of conn << 2^v is conn's bit S - v
    biconn = conn
    for v in range(n):
        biconn &= (conn << (1 << v)) | ~member[v]
    # a singleton fails: removing its vertex leaves the empty mask
    return conn, biconn & table_all


def _complement_table(table: int, n: int) -> int:
    """The table whose bit S is bit (V - S) of the given table."""
    size = 1 << n
    return int(format(table, f"0{size}b")[::-1], 2)


def _vertex_sets(G: Multigraph, table: int) -> list:
    """The masks set in a table, as vertex tuples by size, then lexicographically.

    That is the itertools.combinations order over sorted_vertices.
    """
    verts = G.sorted_vertices
    bits = format(table, "b")[::-1]
    masks = []
    S = bits.find("1")
    while S >= 0:
        masks.append(tuple(i for i in range(G.n) if S >> i & 1))
        S = bits.find("1", S + 1)
    masks.sort(key=lambda idx: (len(idx), idx))
    return [tuple(verts[i] for i in idx) for idx in masks]


def induced_edge_ids(G: Multigraph, S) -> tuple:
    keep = set(S)
    return tuple(sorted(eid for eid, u, v in G.edges if u in keep and v in keep))


def good_flats(G: Multigraph) -> list:
    """All good flats of a 2-connected graph, sorted by size then lexicographically.

    S = V is excluded: contracting everything leaves a single vertex, which is
    not 2-connected.  For a 2-connected G and a connected G[S] with S != V,
    G/E(S) is 2-connected exactly when G - S is connected: the merged vertex
    is a cut vertex iff G - S is disconnected, and no other vertex x is one,
    because G - x is connected and stays so under contraction.
    """
    if not is_two_connected(G):
        raise NotTwoConnected("good_flats requires a 2-connected graph")
    conn, biconn = _subset_kernel(G)
    # bit V of the complement table is the empty mask's, which is clear
    flats = biconn & _complement_table(conn, G.n)
    return [GoodFlat(S, induced_edge_ids(G, S)) for S in _vertex_sets(G, flats)]


def indecomposable_flats(G: Multigraph) -> list:
    """All S with |S| >= 2 inducing a 2-connected subgraph; S = V is allowed."""
    return _vertex_sets(G, _subset_kernel(G)[1])


def block_count_after_contraction(G: Multigraph, S) -> int:
    """Number of blocks of G with all of E(S) contracted (S merged to a point).

    Returns 0 for S = V, matching the convention k(V) = 0.
    """
    S = tuple(sorted(S, key=label_key))
    if len(S) >= 2 and not is_connected(G.induced(S)):
        raise ValueError("S must induce a connected subgraph")
    if len(S) == G.n:
        return 0
    eids = induced_edge_ids(G, S)
    contracted, _ = G.contract(eids)
    return len(blocks(contracted))
