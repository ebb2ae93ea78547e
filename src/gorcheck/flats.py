"""Flat families quantified over by the polytope equality systems.

Good flats index the second facet family of the base polytope; vertex sets
inducing 2-connected subgraphs index the independence-polytope equalities and
the k(S)-corrected base equalities.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotTwoConnected
from .graph import Multigraph, blocks, is_connected, is_two_connected, label_key
from .graph import SUBSET_GUARD_VERTICES, _subset_kernel, _vertex_sets  # the guard is read here too


class GoodFlat(NamedTuple):
    """Vertex set S whose restriction and whose E(S)-contraction are 2-connected."""

    S: tuple
    induced_edges: tuple  # sorted edge ids of E(S)


def _complement_table(table: int, n: int) -> int:
    """The table whose bit S is bit (V - S) of the given table."""
    size = 1 << n
    return int(format(table, f"0{size}b")[::-1], 2)


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
    conn, biconn, _ = _subset_kernel(G)
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
