"""Exhaustive enumeration of small graphs for sweeps and cross-validation.

two_connected.txt, written by tests/freeze_graphs.py, holds one hex edge mask
per line, whose bit j(j-1)/2 + i is the edge {i, j}, i < j.
"""

from __future__ import annotations

import os

from .graph import Multigraph

_DATA = os.path.join(os.path.dirname(__file__), "two_connected.txt")


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
    with open(_DATA) as f:
        for line in f:
            mask = int(line, 16)
            pairs = [(i, j) for j in range(1, 8) for i in range(j) if mask >> (j * (j - 1) // 2 + i) & 1]
            n = pairs[-1][1] + 1  # no vertex is isolated
            if min_vertices <= n <= max_vertices and (max_edges is None or len(pairs) <= max_edges):
                out.append(Multigraph.build(range(n), sorted(pairs)))
    return out
