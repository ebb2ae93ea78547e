import itertools

import pytest

from conftest import complete, cycle, random_multigraphs
from gorcheck.errors import GuardExceeded, NotTwoConnected
from gorcheck.flats import (
    SUBSET_GUARD_VERTICES,
    GoodFlat,
    block_count_after_contraction,
    good_flats,
    indecomposable_flats,
    induced_edge_ids,
)
from gorcheck.graph import Multigraph, is_two_connected
from gorcheck.smallgraphs import two_connected_graphs


def test_good_flats_c3(c3):
    flats = good_flats(c3)
    # exactly the three edges; no vertex triple qualifies (S=V is excluded)
    assert [f.S for f in flats] == [(0, 1), (0, 2), (1, 2)]
    assert all(len(f.induced_edges) == 1 for f in flats)


def test_good_flats_k4(k4):
    flats = good_flats(k4)
    # all 6 edges and all 4 triangles: contracting a triangle of K4 leaves a
    # triple edge, which is 2-connected
    assert len(flats) == 10
    assert sum(1 for f in flats if len(f.S) == 2) == 6
    assert sum(1 for f in flats if len(f.S) == 3) == 4


def test_good_flats_k4_minus_e(k4_minus_e):
    flats = good_flats(k4_minus_e)
    # contracting ab leaves two parallel classes sharing the merged vertex (a
    # cut vertex), so (a,b) does NOT qualify; the 4 other edges and the 2
    # triangles do
    assert [f.S for f in flats] == [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("a", "b", "c"), ("a", "b", "d"),
    ]


def test_good_flats_requires_two_connected():
    path = Multigraph.build(range(3), [(0, 1), (1, 2)])
    with pytest.raises(NotTwoConnected):
        good_flats(path)


def test_good_flat_c5_chord(c5_chord):
    flats = good_flats(c5_chord)
    assert (1, 3, 4, 5) in [f.S for f in flats]


def test_indecomposable_flats_k4_minus_e(k4_minus_e):
    flats = indecomposable_flats(k4_minus_e)
    # 5 edges + 2 triangles + V
    assert len(flats) == 8
    assert ("a", "b", "c", "d") in flats


def test_indecomposable_flats_include_v(c4):
    assert (0, 1, 2, 3) in indecomposable_flats(c4)


def test_block_count(k4, c5):
    assert block_count_after_contraction(k4, (0, 1, 2, 3)) == 0  # S = V
    assert block_count_after_contraction(k4, (0, 1)) == 1
    # contracting one edge of C5 leaves C4: one block
    assert block_count_after_contraction(c5, (1, 2)) == 1
    # contracting a path of C5 (2 edges) leaves C3
    assert block_count_after_contraction(c5, (1, 2, 3)) == 1


def test_block_count_bowtie_center():
    G = Multigraph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    # contracting one triangle leaves the other triangle: 1 block
    assert block_count_after_contraction(G, (0, 1, 2)) == 1


def test_induced_edge_ids(k4):
    assert induced_edge_ids(k4, (0, 1, 2)) == (0, 1, 3)


def _subsets(G, max_size):
    for r in range(2, max_size + 1):
        yield from itertools.combinations(G.sorted_vertices, r)


def _good_flats_by_contraction(G):
    """Reference definition: build G[S] and G/E(S) for every subset and test both."""
    if not is_two_connected(G):
        raise NotTwoConnected("good_flats requires a 2-connected graph")
    out = []
    for S in _subsets(G, G.n - 1):
        eids = induced_edge_ids(G, S)
        if not eids or not is_two_connected(G.induced(S)):
            continue
        if is_two_connected(G.contract(eids)[0]):
            out.append(GoodFlat(S, eids))
    return out


def _indecomposable_flats_by_induction(G):
    return [S for S in _subsets(G, G.n) if is_two_connected(G.induced(S))]


def test_flats_match_subset_definitions():
    graphs = two_connected_graphs(7) + random_multigraphs(2000, seed=20261019)
    two_connected = 0
    for G in graphs:
        assert indecomposable_flats(G) == _indecomposable_flats_by_induction(G), G.edges
        if is_two_connected(G):
            two_connected += 1
            assert good_flats(G) == _good_flats_by_contraction(G), G.edges
        else:
            with pytest.raises(NotTwoConnected):
                good_flats(G)
    assert two_connected > 1000


def test_subset_guard_trips_before_enumeration():
    # the flat tables take 2^n bits per vertex; past the guard none is built
    G = cycle(SUBSET_GUARD_VERTICES + 1)
    with pytest.raises(GuardExceeded):
        good_flats(G)
    with pytest.raises(GuardExceeded):
        indecomposable_flats(G)
