"""Exhaustive enumeration of small graphs for sweeps and cross-validation."""

from __future__ import annotations

from functools import lru_cache

from .graph import Multigraph, is_two_connected


@lru_cache(maxsize=None)
def _atlas():
    # networkx is imported here, not at module level: only sweeps need it
    from networkx.generators.atlas import graph_atlas_g

    return graph_atlas_g()


def two_connected_graphs(
    max_vertices: int,
    max_edges: int = None,
    min_vertices: int = 2,
) -> list:
    """All 2-connected simple graphs up to iso, up to 7 vertices.

    Deterministic order (atlas order); vertex labels are 0..n-1.
    """
    if max_vertices > 7:
        raise ValueError("exhaustive enumeration is available up to 7 vertices")
    out = []
    for g in _atlas():
        n = g.number_of_nodes()
        if n < min_vertices or n > max_vertices:
            continue
        if max_edges is not None and g.number_of_edges() > max_edges:
            continue
        if g.number_of_edges() == 0:
            continue
        M = Multigraph.build(range(n), sorted(tuple(sorted(e)) for e in g.edges()))
        if is_two_connected(M):
            out.append(M)
    return out
