import random
import time

import pytest

from conftest import complete, cycle, ladder_positive, random_multigraphs, stuck_past_the_guard
from gorcheck import baseck, construct
from gorcheck.baseck import (
    ALL_DELTAS,
    AllDeltas,
    Witness,
    base_verdict,
    candidate_deltas,
    check_heart,
    check_spade,
    edge_facet_profile,
    weight_function,
)
from gorcheck.construct import Seed, decompose_base
from gorcheck.errors import GuardExceeded, SimpleGraphRequired, WeightConflict
from gorcheck.graph import Multigraph, _sp_reducible, blocks, normalize
from gorcheck.smallgraphs import two_connected_graphs
from ladder import edge_swap
from test_graph import _is_two_connected_reference


def test_edge_profile_k4(k4):
    profile = edge_facet_profile(k4)
    # every K4 edge: deletion and contraction both stay 2-connected
    assert all(profile[e] == (True, True) for e in profile)


def test_edge_profile_cycle(c5):
    profile = edge_facet_profile(c5)
    # cycle edges: deletion breaks 2-connectivity, contraction keeps it
    assert all(profile[e] == (False, True) for e in profile)


def test_edge_profile_matches_deletion_and_contraction():
    # reference definition: build G-e and G/e and test them for 2-connectivity
    # with the reference routine, not the low-link pass the profile runs on
    graphs = two_connected_graphs(7) + [
        b for G in random_multigraphs(3000, seed=20261021)
        for b in blocks(normalize(G)) if b.is_simple() and b.m >= 2
    ]
    checked = 0
    for G in graphs:
        if G.m < 2:
            continue
        for eid, flags in edge_facet_profile(G).items():
            want = (
                _is_two_connected_reference(G.without_edges([eid])),
                _is_two_connected_reference(G.contract([eid])[0]),
            )
            assert flags == want, (G.edges, eid)
            checked += 1
    assert checked > 9000


def test_weight_function_conflict(k4):
    # both flags on a K4 edge force weights 1 and delta-1 at once
    with pytest.raises(WeightConflict):
        weight_function(k4, 3)
    w = weight_function(k4, 2)
    assert sum(w.values()) == 6


def test_weight_function_k4_minus_e(k4_minus_e):
    w = weight_function(k4_minus_e, 3)
    # ab (edge 0) deletes to C4: weight 1; the rest contract only: weight 2
    assert w[0] == 1
    assert all(w[e] == 2 for e in w if e != 0)


def test_candidate_deltas(k4, k4_minus_e, c5, k2):
    assert candidate_deltas(k4) == frozenset({2})
    assert candidate_deltas(k4_minus_e) == frozenset({3})
    assert candidate_deltas(c5) == frozenset({5})
    assert candidate_deltas(k2) is ALL_DELTAS
    assert 17 in ALL_DELTAS


def _candidate_deltas_by_loop(G):
    """Reference definition: try every delta in [2, |E|+1] and keep those
    whose weight function exists and totals delta(|V|-1)."""
    if G.n == 2 and G.m == 1:
        return ALL_DELTAS
    found = []
    for delta in range(2, G.m + 2):
        try:
            w = weight_function(G, delta)
        except WeightConflict:
            continue
        if sum(w.values()) == delta * (G.n - 1):
            found.append(delta)
    return frozenset(found)


def test_candidate_deltas_match_loop():
    for G in two_connected_graphs(7):
        assert candidate_deltas(G) == _candidate_deltas_by_loop(G), G.edges


def test_candidate_deltas_match_loop_on_any_profile():
    # random profile flags in place of the computed ones, including flags no
    # graph up to 7 vertices has: a = b = |V|-1 weight-1 and weight-(delta-1)
    # edges make every delta >= 3 a candidate
    rng = random.Random(20261018)
    flags = [(True, False), (False, True), (True, True)]
    for G in two_connected_graphs(6, min_vertices=4):
        for _ in range(20):
            profile = {eid: rng.choice(flags) for eid in sorted(G.edge_by_id)}
            if rng.random() < 0.5:
                profile = {eid: (f[0], not f[0]) for eid, f in profile.items()}
            H = Multigraph(G.vertices, G.edges)
            H.__dict__["_edge_facet_profile"] = profile
            assert candidate_deltas(H) == _candidate_deltas_by_loop(H), profile


def test_check_spade_cycle(c5):
    assert check_spade(c5, 5) is None
    bad = check_spade(c5, 4)
    assert bad.kind == "total_weight_mismatch"


def test_check_spade_c5_chord_witness(c5_chord):
    # candidates allow 4, but the flat {1,3,4,5} violates: w(E(S))+1 = 11 != 12
    assert candidate_deltas(c5_chord) == frozenset({4})
    w = check_spade(c5_chord, 4)
    assert w.kind == "flat_equality_violated"
    assert w.flat == (1, 3, 4, 5)
    assert (w.lhs, w.rhs) == (11, 12)


def test_base_verdict_named(k4, k4_minus_e, c5_chord):
    assert (base_verdict(k4).status, base_verdict(k4).delta) == ("gorenstein", 2)
    assert base_verdict(k4_minus_e).delta == 3
    for n in range(3, 8):
        assert base_verdict(cycle(n)).delta == n
    v = base_verdict(c5_chord)
    assert v.status == "not_gorenstein"
    assert v.witness.flat == (1, 3, 4, 5)


def test_base_verdict_blocks():
    # bowtie: two C3 blocks, both at delta 3
    bowtie = Multigraph.build(
        range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    )
    assert base_verdict(bowtie).delta == 3
    # C3 and C4 sharing a vertex: no common delta
    mixed = Multigraph.build(
        range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 2)]
    )
    v = base_verdict(mixed)
    assert v.status == "not_gorenstein"
    assert v.witness.kind == "no_candidate_delta"


def test_base_verdict_bridges_are_wildcards():
    # C4 plus a pendant edge: the K2 block is compatible with the C4's delta
    G = Multigraph.build(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert base_verdict(G).delta == 4
    tree = Multigraph.build(range(3), [(0, 1), (1, 2)])
    v = base_verdict(tree)
    assert v.is_gorenstein and v.delta is None  # point polytope


def test_base_verdict_rejects_multigraph():
    doubled = Multigraph.build(range(2), [(0, 1), (0, 1)])
    with pytest.raises(SimpleGraphRequired):
        base_verdict(doubled)


def test_spade_heart_agree_exhaustively():
    # the two equality systems agree for every graph <= 6 vertices, all deltas
    for G in two_connected_graphs(6, min_vertices=3):
        for delta in range(2, G.m + 2):
            try:
                s = check_spade(G, delta) is None
            except WeightConflict:
                s = "conflict"
            try:
                h = check_heart(G, delta) is None
            except WeightConflict:
                h = "conflict"
            assert s == h, (G.edges, delta)


def test_check_heart_k_v_zero(k4):
    # S = V uses k(V) = 0: w(E) + 0 = 2 * 3
    assert check_heart(k4, 2) is None


def _base_verdict_by_spade(G):
    """Reference decision by the good-flat system, block by block:
    (status, delta, witness), trying the common candidate deltas in order."""
    blks = blocks(normalize(G))
    candidates = [candidate_deltas(b) for b in blks]
    real = [(b, c) for b, c in zip(blks, candidates) if not isinstance(c, AllDeltas)]
    if not real:
        return "gorenstein", None, None
    common = frozenset.intersection(*(c for _, c in real))
    if not common:
        return "not_gorenstein", None, Witness("no_candidate_delta")
    first_witness = None
    for delta in sorted(common):
        witness = None
        for b, _ in real:
            witness = check_spade(b, delta)
            if witness is not None:
                break
        if witness is None:
            return "gorenstein", delta, None
        if first_witness is None:
            first_witness = witness
    return "not_gorenstein", None, first_witness


def _atlas_graphs_with_an_edge():
    from networkx.generators.atlas import graph_atlas_g

    return [
        Multigraph.build(range(g.number_of_nodes()), sorted(tuple(sorted(e)) for e in g.edges()))
        for g in graph_atlas_g() if g.number_of_edges()
    ]


def test_decomposition_decides_as_the_good_flat_system_on_the_atlas():
    # every atlas graph up to 7 vertices with an edge, connected or not;
    # a Gorenstein verdict keeps one certificate per block, the one
    # decompose_base builds for that block
    graphs = _atlas_graphs_with_an_edge()
    positives = 0
    for G in graphs:
        v = base_verdict(G)
        status, delta, witness = _base_verdict_by_spade(G)
        assert (v.status, v.delta) == (status, delta), G.edges
        assert (v.witness and v.witness.as_dict()) == (witness and witness.as_dict()), G.edges
        if v.is_gorenstein:
            positives += 1
            blks = blocks(normalize(G))
            assert len(v.certificates) == len(blks)
            for cert, b in zip(v.certificates, blks):
                want = Seed("k2", b.sorted_vertices) if b.n == 2 else decompose_base(b, v.delta)
                assert cert == want, G.edges
        else:
            assert v.certificates == ()
    assert (len(graphs), positives) == (1245, 372)


def test_one_edge_profile_per_block(monkeypatch):
    # the decomposition's parts inherit their weights, so base_verdict reads
    # one profile per block however many parts the block splits into: one
    # series-parallel reduction on a K4-minor-free block, and the per-vertex
    # passes only after a reduction that gets stuck; a delta=2 positive
    # reads none, since the Collide peel decides it first, and a block with
    # m = 2(n-1) reads its profile only once the peel fails
    events = []
    real_sp, real_passes = baseck._sp_reducible, baseck._profile_by_passes
    real_peel = construct._collide_peel
    for module, name, event, real in (
        (baseck, "_sp_reducible", "reduction", real_sp),
        (baseck, "_profile_by_passes", "passes", real_passes),
        (construct, "_collide_peel", "peel", real_peel),
    ):
        monkeypatch.setattr(module, name, lambda G, e=event, f=real: events.append(e) or f(G))
    two_c4s = Multigraph.build(range(8), [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4),
                                          (4, 5), (5, 6), (6, 7), (7, 4)])
    graphs = [(two_c4s, 4, ["reduction"] * 2)]  # and the bridge 3-4, a K2 block
    for kind in (2, 3, 4, "chain"):
        for n in (10, 22, 60):
            G, delta, _ = ladder_positive(kind, n, seed=n)
            graphs.append((G, delta, ["peel"] if delta == 2 else ["reduction"]))
    G, _, _ = ladder_positive(2, 16, seed=16)
    swapped = edge_swap(random.Random(16), list(G.vertices), [(u, v) for _, u, v in G.edges])
    graphs.append((Multigraph.build(G.vertices, swapped), None, ["peel", "reduction", "passes"]))
    for G, delta, want in graphs:
        events.clear()
        assert base_verdict(G).delta == delta
        assert events == want, (G.n, delta, events)


def test_reduction_profile_matches_the_per_vertex_passes():
    # on every K4-minor-free block of the atlas up to 7 vertices, the pools
    # and the ladder, with one-chord negatives, the profile read off the
    # series-parallel reduction is the one the per-vertex passes compute
    from test_constructions import _agreement_inputs

    checked = 0
    for G in _agreement_inputs():
        for b in blocks(G):
            if b.m >= 2 and _sp_reducible(b) is not None:
                assert edge_facet_profile(b) == baseck._profile_by_passes(b), b.edges
                checked += 1
    assert checked > 700


def test_delta2_weights_read_no_profile(monkeypatch):
    # every weight is 1 at delta = 2, so a 30-vertex delta=2 edge swap, whose
    # Collide peel gets stuck, reaches the subset guard without a profile
    def no_profile(G):
        raise AssertionError("edge_facet_profile called")

    monkeypatch.setattr(baseck, "edge_facet_profile", no_profile)
    G, _, _ = ladder_positive(2, 30, seed=30)
    swapped = edge_swap(random.Random(30), list(G.vertices), [(u, v) for _, u, v in G.edges])
    with pytest.raises(
        GuardExceeded, match=r"^subset enumeration guarded at 24 vertices, graph has 30$"
    ):
        base_verdict(Multigraph.build(G.vertices, swapped))
    with pytest.raises(ValueError, match="at least 2 edges"):
        weight_function(Multigraph.build(range(2), [(0, 1)]), 2)


def test_blocks_carry_their_two_connectivity(monkeypatch):
    # blocks() records that each block is 2-connected, and blow_up_factor
    # hands the record on, so the checkers run one low-link pass, the one
    # in blocks(), on a delta=3 positive and on an attach-cycle tree
    from gorcheck import graph, indepck
    from ladder import attach_positive

    calls = []
    real = graph.low_link
    for module in (graph, baseck):
        monkeypatch.setattr(module, "low_link", lambda *a, **k: calls.append(1) or real(*a, **k))
    G, delta, _ = ladder_positive(3, 200, seed=200)
    assert base_verdict(G).delta == delta and len(calls) == 1
    calls.clear()
    vertices, edges, delta = attach_positive(3, 200, seed=200)
    assert indepck.indep_verdict(Multigraph.build(vertices, edges)).delta == delta
    assert len(calls) == 1


def test_base_verdict_guards_large_blocks():
    # a stuck block over the subset guard trips it where check_spade would
    # name its flat, after a polynomial decomposition
    t0 = time.perf_counter()
    with pytest.raises(
        GuardExceeded, match=r"^subset enumeration guarded at 24 vertices, graph has 29$"
    ):
        base_verdict(stuck_past_the_guard())
    assert time.perf_counter() - t0 < 1
