import json
import random
import sys
import time
from pathlib import Path

import pytest

from conftest import complete, cycle, isomorphic, ladder_positive
from gorcheck import construct
from gorcheck.baseck import base_verdict, candidate_deltas, check_spade, weight_function
from gorcheck.construct import (
    AttachCycle,
    BlowUp,
    Collide,
    Glue,
    Seed,
    Subdivide,
    attach_cycle,
    blow_up,
    cert_from_dict,
    cert_from_json,
    cert_to_dict,
    cert_to_json,
    check_replay,
    collide,
    decompose_base,
    glue,
    replay,
    replay_matches,
    subdivide,
)
from gorcheck.errors import ConstructionError, GuardExceeded, InternalContradiction, WeightConflict
from gorcheck.graph import (
    Multigraph,
    blocks,
    blow_up_factor,
    components,
    is_two_connected,
    label_key,
    low_link,
)
from gorcheck.indepck import indep_verdict, recognize_cycle_construction
from gorcheck.smallgraphs import two_connected_graphs
from ladder import attach_positive, edge_swap, in_order_chain, with_chord
from test_graph import ears


def test_replay_seeds():
    assert isomorphic(replay(Seed("cycle", range(5))), cycle(5))
    assert isomorphic(replay(Seed("k4")), complete(4))
    assert replay(Seed("k2")).m == 1
    # a label-free K2 seed stays an isomorphism match for any K2 block
    assert replay_matches(Seed("k2"), Multigraph.build("xy", [("y", "x")]))[0]


def test_glue_c3_c3_is_k4_minus_e(c3, k4_minus_e):
    G = glue([(c3, 0), (c3, 0)], 3)
    assert isomorphic(G, k4_minus_e)
    # edge-order independence
    G2 = glue([(c3, 1), (c3, 2)], 3)
    assert isomorphic(G, G2)
    assert check_spade(G, 3) is None


def test_glue_arity_error(c3):
    with pytest.raises(ConstructionError):
        glue([(c3, 0)] * 3, 3)


def test_glue_rejects_failing_part(c4):
    with pytest.raises(ConstructionError):
        glue([(c4, 0), (c4, 0)], 3)  # C4 fails the equalities at 3


def test_forward_parts_past_the_subset_guard():
    # parts are checked by decomposition, so a positive part over 24 vertices
    # no longer trips the good-flat tables' guard
    c26 = cycle(26)
    G = glue([(c26, 0)] * 25, 26)
    assert (G.n, G.m) == (2 + 25 * 24, 25 * 25 + 1)
    with pytest.raises(ConstructionError, match="total_weight_mismatch"):
        glue([(c26, 0)] * 24, 25)


def test_subdivide_makes_g5(k4_minus_e):
    G5 = subdivide(k4_minus_e, 0, 3)  # edge ab has weight 1
    assert (G5.n, G5.m) == (5, 6)
    assert base_verdict(G5).delta == 3
    assert all(wt == 2 for wt in weight_function(G5, 3).values())


def test_subdivide_rejects_heavy_edge(c3):
    with pytest.raises(ConstructionError):
        subdivide(c3, 0, 3)  # all C3 edges have weight 2


def test_subdivide_delta2_identity(k4):
    assert subdivide(k4, 0, 2) is k4


def test_collide(k4, c3):
    G = collide(k4, 0, k4, 0)
    assert (G.n, G.m) == (6, 10)
    assert check_spade(G, 2) is None
    G2 = collide(k4, 0, G, 0)
    assert (G2.n, G2.m) == (8, 14)
    assert check_spade(G2, 2) is None
    with pytest.raises(ConstructionError):
        collide(k4, 0, c3, 0)


def test_a_k2_part_is_a_construction_error(k2, k4, c3):
    # K2's point polytope forces no weight on its edge; the edge profile's
    # ValueError used to leak out of all three constructions
    with pytest.raises(ConstructionError, match=r"^collide part 2 is K2: "):
        collide(k4, 0, k2, 0)
    with pytest.raises(ConstructionError, match=r"^glue part 1 is K2: "):
        glue([(k2, 0), (c3, 0)], 3)
    with pytest.raises(ConstructionError, match=r"^subdivide part 1 is K2: "):
        subdivide(k2, 0, 3)


def test_attach_cycle(k2, c4):
    assert isomorphic(attach_cycle(k2, 0, 3), c4)
    assert isomorphic(attach_cycle(k2, 0, 2), cycle(3))
    G = attach_cycle(c4, 0, 3)
    assert (G.n, G.m) == (6, 7)


def test_blow_up_roundtrip(c4):
    doubled = blow_up(c4, 2)
    assert doubled.m == 8
    f = blow_up_factor(doubled)
    assert f.multiplicity == 2 and isomorphic(f.base_graph, c4)
    assert blow_up(c4, 1).m == c4.m


def test_forward_constructions_use_replay_labels():
    # subdivide, attach_cycle and blow_up replay one step on the input
    # relabelled 0..n-1 in sorted_vertices order; new vertices come after
    G = Multigraph.build("dcba", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])

    def pairs(H):
        assert H.vertices == tuple(range(H.n))
        return sorted((u, v) for _, u, v in H.edges)

    ring = [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert pairs(subdivide(G, 4, 3)) == sorted(ring + [(0, 4), (2, 4)])
    assert pairs(attach_cycle(G, 4, 2)) == sorted(ring + [(0, 2), (0, 4), (2, 4)])
    assert pairs(blow_up(G, 2)) == sorted(2 * (ring + [(0, 2)]))


def test_decompose_named(k4, k4_minus_e):
    # every node names vertices of the input: K4-e is the triangles abd
    # and abc glued at ab; G5, made by subdividing ab (0 1) with 4, is the
    # triangles 014 and 013 glued at 01, with 01 subdivided by 2
    assert decompose_base(k4, 2) == Seed("k4", range(4))
    glued = Glue(3, (Seed("cycle", "abd"), Seed("cycle", "abc")), "ab")
    assert decompose_base(k4_minus_e, 3) == glued
    G5 = subdivide(k4_minus_e, 0, 3)
    assert sorted(G5.edge_by_id.values()) == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    cert5 = decompose_base(G5, 3)
    glued5 = Glue(3, (Seed("cycle", (0, 1, 4)), Seed("cycle", (0, 1, 3))), (0, 1))
    assert cert5 == Subdivide(3, glued5, (0, 2, 1))
    assert replay(cert5) == G5


def test_decompose_collide(k4):
    G = collide(k4, 0, k4, 0)
    cert = decompose_base(G, 2)
    assert cert == Collide((Seed("k4", (2, 3, 4, 5)), Seed("k4", (0, 1, 4, 5))), (4, 5))
    assert replay(cert) == G


def test_decompose_rejects_negative(c5_chord):
    with pytest.raises(ConstructionError):
        decompose_base(c5_chord, 4)


def _step(G, light, delta):
    """Reference: one decomposition step at delta >= 3 of a part G with
    weight-1 edges light (None for the input: weight_function reads them
    off its profile): (step, the parts it splits G into, in child order,
    each with its light set).  Each step splits at the least light edge,
    into the components of G minus its ends, or shrinks the first
    (delta-1)-ear of a full ears rescan to an edge.

    A part inherits its weights: an edge it keeps has the same two profile
    flags there as in G, which is the 2-sum of the Glue parts along uv, or
    the Subdivide part with one other edge subdivided.  A Glue part is
    connected off uv, so uv weighs delta-1 there unless its deletion keeps
    the part 2-connected too (WeightConflict), and the edge v0 vs a
    Subdivide part gains weighs 1 exactly when its deletion, rest, is
    2-connected and its contraction is not: vs cuts rest - v0.
    """
    if G.n == G.m:
        if G.n != delta:
            raise InternalContradiction(f"C{G.n} is no {delta}-cycle")
        walk = [min(G.vertices, key=label_key)]
        walk.append(min((w for _, w in G.adjacency[walk[0]]), key=label_key))
        while len(walk) < G.n:
            walk.append(next(w for _, w in G.adjacency[walk[-1]] if w != walk[-2]))
        return construct.Node("seed", labels=tuple(walk), seed="cycle"), []

    if light is None:
        light = {eid for eid, wt in weight_function(G, delta).items() if wt == 1}
    if light:
        uv = min(light, key=lambda e: (tuple(sorted(label_key(x) for x in G.endpoints(e))), e))
        pair = tuple(sorted(G.endpoints(uv), key=label_key))
        parts = [(p, light.intersection(p.edge_by_id) - {uv}) for p in _split(G, pair, delta - 1)]
        if any(is_two_connected(p.without_edges((uv,))) for p, _ in parts):
            raise WeightConflict(uv, delta)
        return construct.Node("glue", labels=pair, delta=delta), parts

    candidates = [e for e in ears(G).ears if e.length == delta - 1]
    if not candidates:
        raise InternalContradiction(f"no ({delta - 1})-ear in an all-heavy graph")
    ear = candidates[0]
    v0, vs = ear.path[0], ear.path[-1]
    if G.has_edge(v0, vs):
        raise InternalContradiction("ear endpoints are adjacent")
    rest = G.without_vertices(ear.inner)
    if not (is_two_connected(rest) and vs in low_link(rest, skip=v0).cut_vertices):
        raise InternalContradiction(f"an ear shrinks to an edge of weight {delta - 1}, not 1")
    shrunk, new = rest.with_edge(v0, vs)
    return construct.Node("subdivide", labels=ear.path, delta=delta), [(shrunk, {new})]


def _split(G, pair, want):
    """Reference: the parts of G at a separating pair, one per component of
    G - pair in components order, each with the pair; InternalContradiction
    unless there are want of them."""
    comps = components(G.without_vertices(pair))
    if len(comps) != want:
        raise InternalContradiction(f"{len(comps)} components at a separating pair, not {want}")
    return [G.induced(set(comp).union(pair)) for comp in comps]


def _decompose_by_steps(G, delta):
    """Reference for the Glue/Subdivide peel: decompose(G, delta) at delta
    >= 3 by a work stack of _step parts, root first; (cert, None), or
    (None, check_spade's witness) when a part gets stuck."""
    steps, parts = [], [(G, None)]
    try:
        while parts:
            step, split = _step(*parts.pop(), delta)
            steps.append(step)
            parts += split
    except (InternalContradiction, WeightConflict):
        return None, check_spade(G, delta)
    cert = construct.post_order(reversed(steps))
    construct.check_replay(G, cert)
    return cert, None


def test_decompose_checks_the_subdivided_edge_weight(monkeypatch, k4_minus_e):
    # G5 is Subdivide-rooted: its 2-ear shrinks to the weight-1 edge of K4-e.
    # A low-link pass that finds no cut vertex in rest - v0 makes that edge
    # contract to a 2-connected graph, so the reference step reads it as heavy.
    G5 = subdivide(k4_minus_e, 0, 3)
    assert _decompose_by_steps(G5, 3)[0][-1].op == "subdivide"
    real = low_link

    def no_cut_vertex_off_a_vertex(G, skip=None):
        ll = real(G, skip)
        return ll if skip is None else ll._replace(cut_vertices=frozenset())

    monkeypatch.setattr(sys.modules[__name__], "low_link", no_cut_vertex_off_a_vertex)
    with pytest.raises(InternalContradiction, match="weight 2, not 1"):
        _step(G5, None, 3)


def _separating_pair(G):
    """Reference: the first (a, b) in sorted_vertices order, a before b,
    that separates a 2-connected G, or None.  G-a is connected, so {a, b}
    separates G exactly when b is a cut vertex of G-a: one low-link pass
    per vertex a."""
    verts = G.sorted_vertices
    for i, a in enumerate(verts[:-1]):
        cuts = low_link(G, skip=a).cut_vertices
        b = next((b for b in verts[i + 1:] if b in cuts), None)
        if b is not None:
            return a, b
    return None


def _decompose_by_pairs(G):
    """Reference for the delta=2 peel: decompose(G, 2) by splitting each
    part at its first separating pair, the two parts each gaining the edge
    the pair lacks, down to 3-connected parts that must be K4.  (cert,
    None), or (None, check_spade's witness) when a part gets stuck."""
    steps, parts = [], [G]
    try:
        while parts:
            part = parts.pop()
            pair = _separating_pair(part)
            if pair is None:
                if not (part.n == 4 and part.m == 6):
                    raise InternalContradiction("a 3-connected part that is not K4")
                steps.append(construct.Node("seed", labels=part.sorted_vertices, seed="k4"))
                continue
            split = _split(part, pair, 2)
            if part.has_edge(*pair):
                raise InternalContradiction("separating pair joined by an edge")
            steps.append(construct.Node("collide", labels=pair))
            parts += [p.with_edge(*pair)[0] for p in split]
    except InternalContradiction:
        return None, check_spade(G, 2)
    cert = construct.post_order(reversed(steps))
    construct.check_replay(G, cert)
    return cert, None


def _separating_pair_by_components(G):
    """Reference: the scan the delta=2 step ran before the low-link pass,
    components(G-{a,b}) for every vertex pair in sorted_vertices order."""
    verts = G.sorted_vertices
    pairs = ((a, b) for i, a in enumerate(verts) for b in verts[i + 1:])
    return next(
        (p for p in pairs if len(components(G.without_vertices(p))) > 1), None
    )


def _collide_chain(rng, levels):
    """A delta=2 chain: K4, then `levels` Collide steps each adding a K4 on a
    random edge; 4 + 2 * levels vertices, relabelled at random."""
    cert = Seed("k4")
    for n in range(4, 4 + 2 * levels, 2):
        _, a, b = rng.choice(replay(cert).edges)
        kids = [cert, Seed("k4", (a, b, n, n + 1))]
        rng.shuffle(kids)
        cert = Collide(kids, (a, b))
    rep = replay(cert)
    labels = list(range(rep.n))
    rng.shuffle(labels)
    return Multigraph.build(labels, [(labels[u], labels[v]) for _, u, v in rep.edges])


def test_separating_pair_matches_the_pair_scan():
    graphs = two_connected_graphs(7, min_vertices=3)
    rng = random.Random(20261019)
    graphs += [_collide_chain(rng, rng.randint(1, 60)) for _ in range(40)]
    separated = 0
    for G in graphs:
        pair = _separating_pair(G)
        assert pair == _separating_pair_by_components(G), G.edges
        separated += pair is not None
    assert separated > 300


def test_decompose_deep_collide_chain(monkeypatch):
    # 100 Collide levels, 204 vertices, peeled off one K4 at a time
    G = _collide_chain(random.Random(100), 100)
    checked = []
    real = construct.check_replay

    def spy(H, cert):
        real(H, cert)
        checked.append((H, cert))

    monkeypatch.setattr(construct, "check_replay", spy)
    cert = decompose_base(G, 2)
    assert cert[-1].op == "collide"
    assert checked == [(G, cert)] and (G.n, G.m) == (204, 6 + 4 * 100)
    rep = replay(cert)
    assert set(rep.vertices) == set(G.vertices) and rep.m == G.m


def test_decompose_does_not_recurse_along_a_deep_chain():
    # the decomposition is a loop over a work stack, so its depth does not
    # follow the input's: 50 frames above the caller's are enough at any size
    n, edges, _ = in_order_chain(49)
    G = Multigraph.build(range(n), edges)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        cert = decompose_base(G, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert G.n == 101 and cert[-1].op == "subdivide"
    assert replay(cert).m == G.m


def _decomposition_inputs():
    """Simple graphs base_verdict decomposes: the atlas up to 7 vertices, the
    simple graphs of the benchmark pools, and ladder positives up to 24
    vertices, each with a one-chord negative; the ladder ones come with
    their delta and weight-1 edges, the others with None."""
    out = [(G, None) for G in two_connected_graphs(7, min_vertices=3)]
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    for name in ("base-certify", "indep-certify", "oracle-xval"):
        for item in json.loads((corpus / f"{name}.json").read_text())["items"]:
            vertices, edges = item["graph"]
            G = Multigraph.build(vertices, [tuple(e) for e in edges])
            if G.is_simple():
                out.append((G, None))
    rng = random.Random(20261019)
    for kind in (2, 3, 4, 5, "chain"):
        for n in range(5, 25):
            G, delta, light = ladder_positive(kind, n, seed=n)
            if G.n <= 24:
                out.append((G, (delta, light)))
                chorded = with_chord(rng, list(G.vertices), [(u, v) for _, u, v in G.edges])
                if chorded is not None:
                    out.append((Multigraph.build(G.vertices, chorded), None))
    return out


def test_collide_peel_agrees_with_the_split_at_the_first_pair():
    # over every input of _decomposition_inputs and delta=2 ladder edge swaps
    # up to 22 vertices, every block decomposes at delta=2 by the peel
    # exactly when it does by splitting at the first separating pair, with
    # the same witness when it does not; every peel certificate replays to
    # its block exactly
    graphs = [G for G, _ in _decomposition_inputs()]
    rng = random.Random(20261019)
    for n in range(6, 23, 2):
        for seed in range(3):
            G, _, _ = ladder_positive(2, n, seed=100 * n + seed)
            swapped = edge_swap(rng, list(G.vertices), [(u, v) for _, u, v in G.edges])
            graphs.append(Multigraph.build(G.vertices, swapped))
    decided = []
    for b in (b for G in graphs for b in blocks(G) if b.n > 2):
        cert, witness = construct.decompose(b, 2)
        ref_cert, ref_witness = _decompose_by_pairs(b)
        assert (cert is None, witness) == (ref_cert is None, ref_witness), b.edges
        if cert is not None:
            construct.check_replay(b, cert)
        decided.append(cert is not None)
    assert decided.count(True) > 200 and decided.count(False) > 1400


def test_parts_inherit_their_weights(monkeypatch):
    # a part's weight-1 edges come down from its parent, not from its own
    # profile; at every part of the reference decomposition of every block
    # base_verdict decides at delta >= 3, they are the ones weight_function
    # reads off the part
    real = _step
    parts = []

    def spy(G, light, delta):
        if light is not None:
            assert light == {e for e, w in weight_function(G, delta).items() if w == 1}, G.edges
            parts.append(G.n == G.m)
        return real(G, light, delta)

    monkeypatch.setattr(sys.modules[__name__], "_step", spy)
    for G, built in _decomposition_inputs():
        delta = base_verdict(G).delta
        if built is not None:  # the ladder tracks the weights it builds with
            light = {e for e, w in weight_function(G, built[0]).items() if w == 1}
            assert (delta, light) == built
        if delta is not None and delta > 2:
            for b in (b for b in blocks(G) if b.n > 2):
                assert _decompose_by_steps(b, delta)[0] is not None, b.edges
    assert parts.count(False) > 700 and parts.count(True) > 1100  # non-cycle and cycle parts


def _agreement_inputs():
    """_decomposition_inputs and ladder positives at delta = 3, 4, 5 and
    the chain up to 150 vertices, each with a one-chord negative."""
    out = [G for G, _ in _decomposition_inputs()]
    rng = random.Random(20261020)
    for kind in (3, 4, 5, "chain"):
        for n in (40, 80, 150):
            G, _, _ = ladder_positive(kind, n, seed=n)
            out.append(G)
            chorded = with_chord(rng, list(G.vertices), [(u, v) for _, u, v in G.edges])
            out.append(Multigraph.build(G.vertices, chorded))
    return out


def test_glue_peel_agrees_with_the_step_reference():
    # every block of every agreement input, at each of its candidate deltas
    # above 2: the peel decomposes it exactly when the _step work stack
    # does, with the same witness when it does not, and every peel
    # certificate replays to its block exactly
    decided = []
    for G in _agreement_inputs():
        for b in (b for b in blocks(G) if b.n > 2):
            for delta in sorted(candidate_deltas(b) - {2}):
                cert, witness = construct.decompose(b, delta)
                ref_cert, ref_witness = _decompose_by_steps(b, delta)
                assert (cert is None, witness) == (ref_cert is None, ref_witness), (b.edges, delta)
                if cert is not None:
                    construct.check_replay(b, cert)
                decided.append(cert is not None)
    assert decided.count(True) > 500 and decided.count(False) > 100


def _check_every_node(cert, delta):
    """Per-node oracle: every child replays to a graph satisfying the
    good-flat equalities, and the edge ab each node names has the weight the
    node needs there (delta-1 for Glue, 1 for Subdivide).  Decomposition runs no
    good-flat check at all; it checks the step hypotheses the paper's
    construction theorems need, so this oracle checks the theorems too."""
    reps = []  # replayed graph of every node, in certificate order
    for i, node in enumerate(cert):
        reps.append(replay(cert[: i + 1]))  # node i is the last one replayed
        d = 2 if node.op == "collide" else delta
        for k in node.children:
            assert check_spade(reps[k], d) is None, (node, cert[k])
            ab = reps[k].edge_between(node.labels[0], node.labels[-1])
            if node.op == "glue":
                assert weight_function(reps[k], d)[ab] == d - 1
            elif node.op == "subdivide":
                assert weight_function(reps[k], d)[ab] == 1


def test_decompose_completeness_small():
    # every checker-positive 2-connected graph <= 6 vertices decomposes and
    # replays isomorphically (7 vertices covered by the acceptance run), and
    # every node of its certificate passes the per-node oracle
    kinds = set()
    for G in two_connected_graphs(6, min_vertices=3):
        v = base_verdict(G)
        if v.is_gorenstein:
            cert = decompose_base(G, v.delta)
            assert replay_matches(cert, G)[0], G.edges
            _check_every_node(cert, v.delta)
            kinds.add(cert[-1].op)
    assert kinds == {"seed", "glue", "subdivide", "collide"}


@pytest.mark.parametrize(
    "G, delta, corrupt",
    [
        # K4: one vertex listed twice, so the seed is no K4
        (complete(4), 2, lambda labels: (labels[0], labels[0], *labels[2:])),
        # C5: its vertices, but two non-adjacent ones swapped moves edges
        (cycle(5), 5, lambda labels: (labels[2], labels[1], labels[0], *labels[3:])),
    ],
    ids=["k4-not-bijective", "c5-edges-moved"],
)
def test_decompose_rejects_a_corrupted_vertex_map(monkeypatch, G, delta, corrupt):
    # both certificates are a single seed, whose vertex list places the
    # input's vertices; a wrong one fails the exact replay check
    real = construct.post_order

    def corrupted_seed(nodes):
        (node,) = real(nodes)
        return (node._replace(labels=corrupt(node.labels)),)

    monkeypatch.setattr(construct, "post_order", corrupted_seed)
    with pytest.raises(InternalContradiction, match="^certificate"):
        decompose_base(G, delta)


def _renamed(cert, names):
    """cert with every label x in names replaced by names[x]."""
    return tuple(
        nd._replace(labels=tuple(names.get(x, x) for x in nd.labels)) for nd in cert
    )


def random_cert(rng, depth, delta, fresh=None):
    """Random certificate of bounded depth; base kinds for delta, indep via
    attach.  Its labels are ints drawn from fresh, so the parts of a glue or
    collide share only the edge they are renamed to meet at."""
    fresh = fresh if fresh is not None else iter(range(10**9))
    if depth == 0 or rng.random() < 0.3:
        if delta == 2:
            return Seed("k4", [next(fresh) for _ in range(4)])
        return Seed("cycle", [next(fresh) for _ in range(delta)])

    def meeting(kids, weight):
        """kids renamed to meet at one new edge ab, each at an edge picked
        from those of the given weight (any edge when weight is None)."""
        a, b = next(fresh), next(fresh)
        out = []
        for c in kids:
            rep = replay(c)
            if weight is None:
                # collide needs a glued edge; any edge of a spade-positive graph works
                ids = sorted(rep.edge_by_id)
            else:
                ids = [e for e, wt in weight_function(rep, delta).items() if wt == weight]
            u, v = rep.endpoints(rng.choice(ids))
            out.append(_renamed(c, {u: a, v: b}))
        return out, (a, b)

    if delta == 2:
        kids, edge = meeting([random_cert(rng, depth - 1, 2, fresh) for _ in range(2)], None)
        return Collide(kids, edge)
    kind = rng.choice(["glue", "subdivide"])
    if kind == "glue":
        kids = [random_cert(rng, depth - 1, delta, fresh) for _ in range(delta - 1)]
        kids, edge = meeting(kids, delta - 1)
        return Glue(delta, kids, edge)
    child = random_cert(rng, depth - 1, delta, fresh)
    rep = replay(child)
    light = [
        e for e, wt in weight_function(rep, delta).items() if wt == 1
    ]
    if not light:
        return child  # seeds have no weight-1 edge to subdivide
    u, v = rep.endpoints(rng.choice(light))
    return Subdivide(delta, child, (u, *(next(fresh) for _ in range(delta - 2)), v))


def test_random_certificate_closure():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        delta = rng.randint(2, 5)
        cert = random_cert(rng, rng.randint(1, 3), delta)
        G = replay(cert)
        while G.n > 40:  # keeps the run short
            cert = random_cert(rng, 1, delta)
            G = replay(cert)
        if rng.random() < 0.3:
            m = rng.randint(2, 3)
            v = indep_verdict(blow_up(replay(Seed("cycle", range(m))), m))
            # independence-side closure: blow-ups of attach chains
            H = replay(AttachCycle(m + 1, Seed("k2"), (0, *range(2, m + 2), 1)))
            vi = indep_verdict(blow_up(H, m))
            assert vi.is_gorenstein and vi.delta == m + 1
        v = base_verdict(G)
        assert v.is_gorenstein and v.delta == delta, (cert, v.status)
        if G.n <= 14:  # good_flats walks all 2^n vertex subsets
            assert check_spade(G, delta) is None
        checked += 1
    assert checked == 200


def test_cert_json_roundtrip(k4_minus_e):
    cert = decompose_base(k4_minus_e, 3)
    text = cert_to_json(cert)
    assert cert_from_json(text) == cert
    assert cert_from_dict({**cert_to_dict(cert), "replay_matched": True}) == cert
    for schema in ("bogus/9", "gorcheck.cert/1"):
        with pytest.raises(ConstructionError):
            cert_from_json(json.dumps({"schema": schema, "root": {"op": "seed", "seed": "k2"}}))
    # no /2 reader is kept: its edge ids pointed into renumbered replays
    with pytest.raises(ConstructionError, match="unsupported certificate schema"):
        cert_from_json(json.dumps({"schema": "gorcheck.cert/2", "nodes": [{"op": "seed"}]}))


def test_fingerprint_large_replay():
    # 4 pentagons glued along one edge: 14 vertices, matched edge by edge
    c5g = cycle(5)
    G = glue([(c5g, 0)] * 4, 5)
    cert = decompose_base(G, 5)
    assert G.n == 14
    assert replay_matches(cert, G) == (True, "isomorphism")


def test_replay_matches_is_exact():
    # C18 plus the chord (0, 9) is two C10s on an edge, constructible at
    # delta = 9; with the chord (0, 5) it has the same size and degrees but
    # is another graph
    A = cycle(18).with_edge(0, 9)[0]
    B = cycle(18).with_edge(0, 5)[0]
    cert = recognize_cycle_construction(A, 9)
    assert replay_matches(cert, A) == (True, "isomorphism")
    assert replay_matches(cert, B) == (False, "isomorphism")
    # a cycle seed pairs its labels with the graph's, not any cyclic order
    assert not replay_matches(Seed("cycle", range(5)), cycle(5, [0, 2, 4, 1, 3]))[0]
    # a label-free K2 seed matches any K2
    assert replay_matches(Seed("k2"), Multigraph.build("xy", [("x", "y")]))[0]
    vertices, edges, _ = attach_positive(2, 10000, seed=10000)
    G = Multigraph.build(vertices, edges)
    cert = recognize_cycle_construction(G, 2)
    start = time.perf_counter()
    assert replay_matches(cert, G)[0]
    assert time.perf_counter() - start < 1.0


def test_replay_refuses_a_graph_over_the_guard(k2):
    # the replay state of a 10^9-fold blow-up is one count per edge; only
    # the Multigraph would hold every copy
    cert = BlowUp(Seed("k2"), 10**9)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match=r"^replay guarded at 1000000 edges; this one has 1000000000$"):
        replay(cert)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InternalContradiction, match="another graph"):
        check_replay(k2, cert)


def _attach_chain(depth):
    cert = Seed("k2")
    for x in range(2, depth + 2):
        cert = AttachCycle(2, cert, (0, x, 1))
    return cert


def test_deep_certificate_roundtrip():
    # two 10,000-deep AttachCycle chains built apart, without replay: a
    # certificate is a flat node tuple, so nothing below recurses along it
    a, b = _attach_chain(10_000), _attach_chain(10_000)
    assert a is not b
    text = cert_to_json(a)
    nodes = json.loads(text)["nodes"]
    assert len(nodes) == 10_001 and nodes[-1]["child"] == 9_999
    assert cert_from_json(text) == a
    assert a == b and hash(a) == hash(b)
    assert repr(a).count("attach_cycle") == 10_000


def test_replay_deep_chain():
    # a 10,000-deep AttachCycle chain, far past the recursion limit
    G = replay(_attach_chain(10_000))
    assert (G.n, G.m) == (2 + 10_000, 1 + 2 * 10_000)


K2 = {"op": "seed", "seed": "k2", "vertices": [0, 1]}


def _attach(child):
    return {"op": "attach_cycle", "delta": 2, "child": child, "path": [0, 2, 1]}


@pytest.mark.parametrize(
    "node",  # the "nodes" field of a /3 document whose only fault is named
    [
        [{"op": "subdivide", "delta": 3}],  # no child, no path
        [{"op": "glue", "children": []}],  # no delta, no edge
        [K2, {"op": "attach_cycle", "delta": 3, "child": 0}],  # no path
        [{"op": "glue", "delta": 3, "children": "x", "edge": [0, 1]}],
        [_attach(1), K2],  # child index points forward
        [K2, _attach(2)],  # out of range
        [K2, _attach(-1)],  # negative
        [K2, _attach(0), _attach(0)],  # taken twice
        [K2, {"op": "collide", "children": [0, 0], "edge": [0, 1]}],
        [K2, _attach("0")],  # not an int
        [K2, _attach(True)],
        [K2, _attach(0.0)],
        [],
        "x",
        {"0": K2},
        [K2, K2],  # two roots
        [K2, K2, _attach(1)],
        [K2, 5],  # a node that is not an object
        [{"op": "contract", "child": 0}],  # unknown op
        [K2, {**_attach(0), "path": [0, True, 1]}],  # a label that is a bool
        [{**K2, "vertices": [0, 1.0]}],  # a float
        [{**K2, "vertices": [0, [1]]}],  # a list
        [{**K2, "vertices": "01"}],  # not a list
        [K2, {**K2, "vertices": [0, 3]}, {"op": "collide", "children": [0, 1], "edge": [0]}],
    ],
)
def test_cert_from_dict_malformed(node):
    with pytest.raises(ConstructionError):
        cert_from_dict({"schema": "gorcheck.cert/3", "nodes": node})


def _cycle(*vertices):
    return {"op": "seed", "seed": "cycle", "vertices": list(vertices)}


def _k4(*vertices):
    return {"op": "seed", "seed": "k4", "vertices": list(vertices)}


def _glue3(a, b):
    return {"op": "glue", "delta": 3, "children": [0, 1], "edge": [a, b]}


@pytest.mark.parametrize(
    "nodes",  # a /3 document that parses, whose one step is no construction
    [
        # glue parts that overlap: both triangles hold 2
        [_cycle(0, 1, 2), _cycle(0, 1, 2), _glue3(0, 1)],
        # collide children that share a third vertex, 2
        [_k4(0, 1, 2, 3), _k4(0, 1, 2, 4), {"op": "collide", "children": [0, 1], "edge": [0, 1]}],
        # a glue edge that one child lacks: 034 has no edge 01
        [_cycle(0, 1, 2), _cycle(0, 3, 4), _glue3(0, 1)],
        # a subdivide path through a vertex the child has
        [_cycle(0, 1, 2), {"op": "subdivide", "delta": 3, "child": 0, "path": [0, 2, 1]}],
        # an attach_cycle path that repeats its new vertex
        [K2, {"op": "attach_cycle", "delta": 3, "child": 0, "path": [0, 2, 2, 1]}],
        # a subdivide path one vertex too long for delta = 3
        [_cycle(0, 1, 2), {"op": "subdivide", "delta": 3, "child": 0, "path": [0, 3, 4, 1]}],
        # a seed that lists a vertex twice
        [_cycle(0, 1, 0)],
        [{**K2, "vertices": [0, 0]}],
    ],
    ids=[
        "glue-parts-overlap", "collide-children-share-a-vertex", "glue-edge-missing",
        "subdivide-through-a-vertex", "attach-repeats-a-vertex", "path-too-long",
        "cycle-repeats-a-vertex", "k2-repeats-a-vertex",
    ],
)
def test_replay_refuses_a_step_that_is_no_construction(nodes):
    cert = cert_from_dict({"schema": "gorcheck.cert/3", "nodes": nodes})
    with pytest.raises(ConstructionError):
        replay(cert)


def test_replay_refuses_a_glue_below_delta_3():
    # the forward glue refuses delta < 3, and so does replay: a one-child
    # glue at delta = 2 over C3 used to replay as C3 itself
    glue2 = {"op": "glue", "delta": 2, "children": [0], "edge": [0, 1]}
    cert = cert_from_dict({"schema": "gorcheck.cert/3", "nodes": [_cycle(0, 1, 2), glue2]})
    with pytest.raises(ConstructionError, match="delta > 2"):
        replay(cert)


def test_a_k4_seed_is_its_four_vertices():
    # no count field is read: a k4 seed lists its four vertices, and a list
    # of another length is refused
    cert = cert_from_dict({"schema": "gorcheck.cert/3", "nodes": [{**_k4(0, 1, 2, 3), "n": 7}]})
    assert replay(cert) == complete(4)
    for vertices in ([0, 1, 2], [0, 1, 2, 3, 4]):
        cert = cert_from_dict({"schema": "gorcheck.cert/3", "nodes": [_k4(*vertices)]})
        with pytest.raises(ConstructionError, match="k4 seed needs 4 vertices"):
            replay(cert)


def test_a_cycle_seed_is_as_large_as_its_vertex_list():
    # a length field would be unbounded (n = 10**9 once parsed and would have
    # replayed 10**9 pairs); a /3 cycle is its vertex list, and a seed
    # without one does not parse
    huge = {"op": "seed", "seed": "cycle", "n": 10**9}
    with pytest.raises(ConstructionError, match="'vertices'"):
        cert_from_dict({"schema": "gorcheck.cert/3", "nodes": [huge]})
    cert = cert_from_dict({"schema": "gorcheck.cert/3", "nodes": [{**huge, "vertices": [0, 1, 2]}]})
    assert (replay(cert).n, replay(cert).m) == (3, 3)
