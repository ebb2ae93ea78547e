"""Freeze the 2-connected graphs of the graph atlas into package data.

    PYTHONPATH=src python tests/freeze_graphs.py

writes src/gorcheck/two_connected.txt: every 2-connected simple graph with 2
to 7 vertices, up to isomorphism, in the order of networkx's copy of the
Read-Wilson Atlas of Graphs (1998), one graph per line as a hexadecimal edge
mask.  Bit j(j-1)/2 + i stands for the edge {i, j}, i < j, so the bit order
does not depend on the vertex count: a graph's vertices are 0..n-1, n being
its largest vertex plus one (a 2-connected graph has no isolated vertex),
and graphs with more vertices can be appended in the same format.  The
counts per vertex count, 1, 1, 3, 10, 56 and 468, are OEIS A002218.

The graphs pass gorcheck.graph.is_two_connected, the filter the package
applied to the atlas before the list was frozen; tests/test_graph.py checks
the file against masks() and an independent 2-connectivity reference.
"""

from __future__ import annotations

from pathlib import Path

from gorcheck.graph import Multigraph, is_two_connected

DATA = Path(__file__).resolve().parents[1] / "src" / "gorcheck" / "two_connected.txt"


def edge_mask(edges) -> int:
    """The mask of an edge list whose vertices are ints."""
    mask = 0
    for u, v in edges:
        i, j = sorted((u, v))
        mask |= 1 << (j * (j - 1) // 2 + i)
    return mask


def masks(max_vertices: int = 7) -> list:
    """The edge mask of each 2-connected atlas graph on 2 to max_vertices
    vertices, in atlas order."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if 2 <= n <= max_vertices and is_two_connected(Multigraph.build(range(n), g.edges())):
            out.append(edge_mask(g.edges()))
    return out


def text(graphs: list) -> str:
    """The data file's contents for a list of edge masks."""
    return "".join(f"{mask:x}\n" for mask in graphs)


if __name__ == "__main__":
    graphs = masks()
    DATA.write_text(text(graphs))
    print(f"wrote {len(graphs)} graphs to {DATA}")
