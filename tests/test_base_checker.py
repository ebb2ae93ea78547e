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


def test_candidate_deltas_match_loop_on_any_light_set():
    # random light sets in place of the reduction's on the K4-minor-free
    # blocks up to 7 vertices: the loop reads the same set through
    # weight_function, so the closed form is checked on counts of light and
    # heavy edges that no block has
    rng = random.Random(20261018)
    found = []
    for G in two_connected_graphs(7):
        if G.m < 2 or _sp_reducible(G) is None:
            continue
        for _ in range(20):
            H = Multigraph(G.vertices, G.edges)
            H.__dict__["_light"] = light = frozenset(rng.sample(sorted(G.edge_by_id), rng.randint(0, G.m)))
            found.append(candidate_deltas(H))
            assert found[-1] == _candidate_deltas_by_loop(H), (G.edges, light)
    assert len(found) > 1400 and sum(map(bool, found)) > 200


def _fully_subdivided_k4():
    """K4 with every edge subdivided once: 10 vertices, every edge heavy."""
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return Multigraph.build(range(10), [e for i, (a, b) in enumerate(pairs) for e in ((a, 4 + i), (4 + i, b))])


def _lemma_inputs():
    """_decomposition_inputs (the atlas up to 7 vertices, the simple pool
    graphs, ladder positives up to 24 vertices with one-chord negatives) and
    ladder edge swaps at delta = 3, 4, 5 and the chain."""
    from test_constructions import _decomposition_inputs

    out = [G for G, _ in _decomposition_inputs()]
    for kind in (3, 4, 5, "chain"):
        for n in (8, 16, 24):
            G, _, _ = ladder_positive(kind, n, seed=n)
            swapped = edge_swap(random.Random(n), list(G.vertices), [(u, v) for _, u, v in G.edges])
            out.append(Multigraph.build(G.vertices, swapped))
    return out


def test_candidates_follow_the_k4_minor_lemma():
    # a block with a K4 minor is Gorenstein only at delta = 2, so its
    # candidates are the loop's cut down to {2}, and a K4-minor-free block
    # keeps the loop's.  No block of these inputs loses a candidate that
    # way; the fully subdivided K4 is the one known block that does: the
    # loop gives {4}, B(M) (128 vertices) has no Gorenstein point, and the
    # verdict, flat_equality_violated at 4 by the loop, is no_candidate_delta
    from gorcheck.oracle import gorenstein_search, polytope_of

    lost, counts = [], [0, 0]
    for G in _lemma_inputs():
        for b in (b for b in blocks(G) if b.n > 2):
            loop = _candidate_deltas_by_loop(b)
            k4_minor = _sp_reducible(b) is None
            assert candidate_deltas(b) == (loop & {2} if k4_minor else loop), b.edges
            counts[k4_minor] += 1
            if k4_minor and loop - {2}:
                lost.append(b.edges)
    assert lost == [] and min(counts) > 300, counts
    G = _fully_subdivided_k4()
    assert (_candidate_deltas_by_loop(G), candidate_deltas(G)) == ({4}, frozenset())
    assert base_verdict(G) == ("not_gorenstein", None, Witness("no_candidate_delta"), ())
    P = polytope_of(G, "base")
    assert len(P.vertices) == 128 and gorenstein_search(P) is None


def test_base_verdict_runs_no_per_vertex_passes(monkeypatch):
    # the candidates of a block with a K4 minor read no edge profile, and no
    # delta above 2 is tried on it, so base_verdict never reaches the
    # per-vertex passes: over _agreement_inputs (with ladder positives and
    # one-chord negatives up to 150 vertices) and edge swaps of them
    from test_constructions import _agreement_inputs

    def no_passes(G):
        raise AssertionError("_profile_by_passes called")

    monkeypatch.setattr(baseck, "_profile_by_passes", no_passes)
    graphs = _agreement_inputs() + _lemma_inputs()[-12:]
    for kind in (3, 4, 5, "chain"):
        for n in (40, 150):
            G, _, _ = ladder_positive(kind, n, seed=n)
            swapped = edge_swap(random.Random(n), list(G.vertices), [(u, v) for _, u, v in G.edges])
            graphs.append(Multigraph.build(G.vertices, swapped))
    witnesses = {}
    for G in graphs:
        v = base_verdict(G)
        kind = v.witness.kind if v.witness else v.status
        witnesses[kind] = witnesses.get(kind, 0) + 1
    assert witnesses.get("no_candidate_delta", 0) > 100, witnesses


@pytest.mark.parametrize("kind", [3, 4, "chain"])
def test_k4_minor_swaps_answer_in_linear_time(kind):
    # an edge swap of a delta >= 3 positive has a K4 minor or the wrong
    # counts: its block's candidates come off one reduction, where one
    # low-link pass per vertex took 2.4-3.0 s at 2,000 vertices
    G, _, _ = ladder_positive(kind, 2000, seed=2000)
    swapped = Multigraph.build(
        G.vertices, edge_swap(random.Random(2000), list(G.vertices), [(u, v) for _, u, v in G.edges])
    )
    t0 = time.perf_counter()
    v = base_verdict(swapped)
    assert time.perf_counter() - t0 < 0.2
    assert v == ("not_gorenstein", None, Witness("no_candidate_delta"), ())


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
    # the decomposition's parts inherit their weights, so base_verdict runs
    # one series-parallel reduction per block however many parts the block
    # splits into, and the Glue/Subdivide peel reads the one the candidates
    # ran; a delta=2 positive runs none, since the Collide peel decides it
    # first, a block with m = 2(n-1) runs its reduction only once the peel
    # fails, and a reduction that gets stuck runs no per-vertex passes
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
    graphs.append((Multigraph.build(G.vertices, swapped), None, ["peel", "reduction"]))
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
