import random
import time

import pytest

from conftest import complete, cycle, cycle_with_chord, isomorphic
from gorcheck import indepck
from gorcheck.baseck import Witness
from gorcheck.construct import (
    AttachCycle,
    BlowUp,
    Node,
    Seed,
    blow_up,
    check_replay,
    post_order,
    replay,
    replay_matches,
)
from gorcheck.errors import GuardExceeded, InternalContradiction, NotTwoConnected
from gorcheck.graph import Multigraph, induced_cycles, is_two_connected, label_key
from gorcheck.indepck import (
    check_chordal_k4free,
    check_club,
    indep_verdict,
    recognize_cycle_construction,
)
from gorcheck.smallgraphs import two_connected_graphs
from ladder import attach_positive
from test_graph import ears


def test_check_club_examples(k4_minus_e, c4, c3):
    assert check_club(k4_minus_e, 2) is None
    assert check_club(c4, 3) is None
    bad = check_club(c3, 3)
    assert bad.kind == "club_violated"
    assert bad.flat == (0, 1, 2) and (bad.lhs, bad.rhs) == (7, 6)


def test_check_club_k2_any_delta(k2):
    for delta in range(2, 9):
        assert check_club(k2, delta) is None


def test_check_chordal_examples(k4, k4_minus_e, c4):
    assert check_chordal_k4free(k4_minus_e, 2) is None
    assert check_chordal_k4free(k4, 2).kind == "k4_minor_found"
    w = check_chordal_k4free(c4, 2)
    assert w.kind == "wrong_chordless_cycle" and w.lhs == 4


def test_check_chordal_excess_cycles(k23):
    # K_{2,3} is 3-chordal (three chordless 4-cycles) and K4-minor-free, but
    # its cycle rank is only 2; it fails the flat equalities, so the
    # structural check must reject it too
    assert check_club(k23, 3) is not None
    w = check_chordal_k4free(k23, 3)
    assert w.kind == "excess_chordless_cycles" and (w.lhs, w.rhs) == (3, 2)


def test_recognize_examples(k4, k4_minus_e, c4):
    # C4 is 0123, its path 0123 attached at 03; K4-e on abcd lacks cd: the
    # triangle abd on ad, then acb on ab
    c4_cert = AttachCycle(3, Seed("k2", (0, 3)), (0, 1, 2, 3))
    assert recognize_cycle_construction(c4, 3) == c4_cert
    cert2 = recognize_cycle_construction(k4_minus_e, 2)
    assert cert2 == AttachCycle(2, AttachCycle(2, Seed("k2", "ad"), "abd"), "acb")
    assert replay_matches(cert2, k4_minus_e) == (True, "isomorphism")
    assert recognize_cycle_construction(k4, 2) is None


def test_recognize_needs_backtracking_or_memo(k23):
    assert recognize_cycle_construction(k23, 3) is None


def test_indep_verdict_doubled_c4(c4):
    v = indep_verdict(blow_up(c4, 2))
    assert (v.status, v.delta, v.multiplicity) == ("gorenstein", 3, 2)
    assert all(H.m == b.m // 2 for b, H in v.per_block)


def test_indep_verdict_k4(k4):
    v = indep_verdict(k4)
    assert v.status == "not_gorenstein"
    assert v.witness.kind == "k4_minor_found"


def test_indep_verdict_non_uniform():
    G = Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert indep_verdict(G).witness.kind == "non_uniform_multiplicity"
    # uniform within blocks but different multiplicities across blocks
    H = Multigraph.build(range(3), [(0, 1), (0, 1), (1, 2)])
    assert indep_verdict(H).witness.kind == "non_uniform_multiplicity"


def test_indep_verdict_bridges():
    # doubled C4 plus a doubled pendant edge: bridge block shares m = 2
    G = Multigraph.build(
        range(5),
        [(0, 1), (1, 2), (2, 3), (3, 0)] * 2 + [(3, 4), (3, 4)],
    )
    v = indep_verdict(G)
    assert (v.status, v.delta) == ("gorenstein", 3)
    # one certificate per block, blown up like the block
    c4 = AttachCycle(3, Seed("k2", (0, 3)), (0, 1, 2, 3))
    assert v.certificates == (BlowUp(c4, 2), BlowUp(Seed("k2", (3, 4)), 2))
    for cert, (b, _) in zip(v.certificates, v.per_block):
        assert replay_matches(cert, b) == (True, "isomorphism")
    # a lone doubled edge is the 2-blow-up of K2
    lone = Multigraph.build(range(2), [(0, 1), (0, 1)])
    assert indep_verdict(lone).delta == 3


def test_indep_verdict_guards_the_chordless_cycle_walk():
    # C30 plus a chord passes the K4-minor test and is no cycle block, so its
    # witness search reaches the 2^n subset tables behind induced_cycles;
    # the subset guard stops it before any table is built
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match="guarded at 24 vertices, graph has 30"):
        indep_verdict(cycle_with_chord(30))
    assert time.perf_counter() - t0 < 1


def test_chordless_cycle_witness_reaches_the_subset_guard():
    # a cycle block is its one chordless cycle, at any length and blown up,
    # of length n where delta + 1 = m + 2; other blocks answer up to the
    # 24-vertex subset guard
    for n, m in [(22, 1), (50, 1), (400, 1), (40, 2)]:
        t0 = time.perf_counter()
        witness = indep_verdict(blow_up(cycle(n), m)).witness
        assert time.perf_counter() - t0 < 1, n
        assert witness == Witness("wrong_chordless_cycle", lhs=n, rhs=m + 2)
    with pytest.raises(
        GuardExceeded, match=r"^subset enumeration guarded at 24 vertices, graph has 25$"
    ):
        indep_verdict(cycle_with_chord(25))


def test_simple_gorenstein_only_at_two(c3):
    # simple graphs have m = 1, so delta = 2 is the only possibility
    v = indep_verdict(c3)
    assert (v.status, v.delta) == ("gorenstein", 2)


def test_three_way_equivalence_small():
    # exhaustive at <= 6 vertices here (the 7-vertex run is in acceptance)
    for H in two_connected_graphs(6):
        for delta in range(2, 9):
            club = check_club(H, delta) is None
            chordal = check_chordal_k4free(H, delta) is None
            constructible = recognize_cycle_construction(H, delta) is not None
            assert club == chordal == constructible, (H.edges, delta)


def test_recognized_cert_blowup_roundtrip(c4):
    doubled = blow_up(c4, 2)
    cert = recognize_cycle_construction(c4, 3)
    assert replay_matches(BlowUp(cert, 2), doubled)[0]


def _recognize_by_backtracking(H, delta):
    """Reference recognizer: inverse search with backtracking and a failure memo.

    Find a chordless (delta+1)-cycle whose delta-1 freshly attached vertices
    appear as a run of consecutive degree-2 vertices, remove them, recurse;
    backtrack over the choice of cycle.
    """
    dead = set()

    def search(G):
        if G.n == 2 and G.m == 1:
            return Seed("k2", G.vertices)
        key = frozenset(G.vertices)
        if key in dead:
            return None
        for cyc in induced_cycles(G):
            if len(cyc) != delta + 1:
                continue
            doubled = cyc + cyc
            for direction in (doubled, tuple(reversed(doubled))):
                for start in range(delta + 1):
                    window = direction[start : start + delta - 1]
                    if any(G.degree(x) != 2 for x in window):
                        continue
                    v = direction[(start - 1) % (delta + 1)]
                    u = direction[(start + delta - 1) % (delta + 1)]
                    rest = G.without_vertices(window)
                    if not is_two_connected(rest):
                        continue
                    got = search(rest)
                    if got is not None:
                        return AttachCycle(delta, got, (v, *window, u))
        dead.add(key)
        return None

    return search(H)


def _recognize_by_rescan(H, delta):
    """Reference peel: rescan every ear with graph.ears after each step and
    take the first removable one of the sorted list, on a new graph each
    time; the certificate is built and checked as the checker builds it."""
    peeled = []
    G = H
    while not (G.n == 2 and G.m == 1):
        scan = ears(G)
        if scan.is_cycle:
            if G.n != delta + 1:
                return None
            path = [G.sorted_vertices[0]]
            while len(path) < G.n:
                path.append(next(w for _, w in G.adjacency[path[-1]] if w not in path[-2:]))
        else:
            path = next(
                (
                    e.path for e in scan.ears
                    if e.length == delta and G.has_edge(e.path[0], e.path[-1])
                ),
                None,
            )
            if path is None:
                return None
        peeled.append(path)
        G = G.without_vertices(path[1:-1])
    nodes = [Node("seed", labels=G.sorted_vertices, seed="k2")]
    nodes += [Node("attach_cycle", labels=tuple(path), delta=delta) for path in reversed(peeled)]
    cert = post_order(nodes)
    check_replay(H, cert)
    return cert


def _random_attach_chain(rng, delta, steps):
    """K2 plus `steps` (delta+1)-cycles attached to random edges.

    Labels are shuffled strings; vertex order, edge order and edge
    orientation are shuffled too.
    """
    labels = [f"v{i}" for i in range(2 + steps * (delta - 1))]
    rng.shuffle(labels)
    edges = [(labels[0], labels[1])]
    for k in range(steps):
        u, v = rng.choice(edges)
        fresh = labels[2 + k * (delta - 1) : 2 + (k + 1) * (delta - 1)]
        chain = [u] + fresh + [v]
        edges += zip(chain, chain[1:])
    rng.shuffle(edges)
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(labels)
    return Multigraph.build(labels, edges)


def _with_random_chord(rng, H):
    """H plus one edge between a random non-adjacent pair, or None if complete."""
    pairs = [
        (a, b) for i, a in enumerate(H.vertices) for b in H.vertices[i + 1 :]
        if not H.has_edge(a, b)
    ]
    return H.with_edge(*rng.choice(pairs))[0] if pairs else None


def test_greedy_matches_backtracking_atlas():
    # every 2-connected graph up to 7 vertices, delta = 2..8
    for H in two_connected_graphs(7):
        for delta in range(2, 9):
            cert = recognize_cycle_construction(H, delta)
            ref = _recognize_by_backtracking(H, delta)
            assert (cert is None) == (ref is None), (H.edges, delta)
            if cert is not None:
                assert replay_matches(cert, H) == (True, "isomorphism")


def test_greedy_matches_backtracking_random_chains():
    # large chains replay isomorphically; small ones, and the same with one
    # extra chord (never constructible), agree with the backtracking search
    rng = random.Random(20261019)
    compared = 0
    for _ in range(60):
        delta = rng.randint(2, 6)
        steps = rng.randint(1, 148 // (delta - 1))
        H = _random_attach_chain(rng, delta, steps)
        cert = recognize_cycle_construction(H, delta)
        assert (cert[0].op, cert[0].seed) == ("seed", "k2")
        assert [(nd.op, nd.delta) for nd in cert[1:]] == [("attach_cycle", delta)] * steps
        assert isomorphic(replay(cert), H), (delta, H.edges)
        small = _random_attach_chain(rng, delta, rng.randint(1, 9 // (delta - 1)))
        chord = _with_random_chord(rng, small)
        for G in (small, chord):
            if G is None:
                continue
            got = recognize_cycle_construction(G, delta)
            assert (got is None) == (_recognize_by_backtracking(G, delta) is None), G.edges
            if got is not None:
                assert isomorphic(replay(got), G)
            compared += 1
    assert compared > 100


def test_indep_verdict_witness_comes_from_chordal_check(k4, monkeypatch):
    # a block that fails the peel is explained by check_chordal_k4free; if
    # that finds nothing, the two characterizations disagree
    assert indep_verdict(k4).witness == check_chordal_k4free(k4, 2)
    monkeypatch.setattr(indepck, "check_chordal_k4free", lambda H, delta: None)
    with pytest.raises(InternalContradiction):
        indep_verdict(k4)


def test_peel_matches_the_rescan():
    # the worklist peel takes the removable runs in its own order, so it
    # agrees with a full rescan on which inputs are constructible, and each
    # of its certificates replays to its input exactly: every 2-connected
    # graph up to 7 vertices at delta = 2..8, random chains up to 148 steps
    # and each with one chord (never constructible)
    def agree(G, delta):
        got = recognize_cycle_construction(G, delta)
        assert (got is None) == (_recognize_by_rescan(G, delta) is None), (delta, G.edges)
        if got is not None:
            check_replay(G, got)
        return got

    for H in two_connected_graphs(7):
        for delta in range(2, 9):
            agree(H, delta)
    rng = random.Random(20261021)
    for _ in range(60):
        delta = rng.randint(2, 6)
        H = _random_attach_chain(rng, delta, rng.randint(1, 148 // (delta - 1)))
        for G in (H, _with_random_chord(rng, H)):
            if G is not None:
                assert (agree(G, delta) is None) == (G is not H)


def test_attach_tree_of_5000_vertices(monkeypatch):
    # a 5,000-vertex delta = 2 ladder positive answers Gorenstein, and its
    # certificate's replay is checked exactly against the block
    vertices, edges, _ = attach_positive(2, 5000, seed=5000)
    G = Multigraph.build(vertices, edges)
    checked = []
    real = indepck.check_replay

    def spy(H, cert):
        real(H, cert)
        checked.append((H, cert))

    monkeypatch.setattr(indepck, "check_replay", spy)
    v = indep_verdict(G)
    assert (v.status, v.delta, v.multiplicity) == ("gorenstein", 2, 1)
    ((cert,), ((H, checked_cert),)) = v.certificates, checked
    assert checked_cert is cert and (H.n, H.m) == (G.n, G.m) == (5000, 1 + 2 * 4998)
    rep = replay(cert)
    assert set(rep.vertices) == set(G.vertices) and rep.m == G.m


def test_the_verdict_checks_no_base_graph_again(c4):
    # a block's base graph is recorded simple and 2-connected by
    # blow_up_factor, so the public function's checks on it read those
    # records and build no parallel classes; on a graph without them the
    # public function keeps both checks
    vertices, edges, _ = attach_positive(2, 10000, seed=10000)
    v = indep_verdict(Multigraph.build(vertices, edges))
    assert v.status == "gorenstein" and len(v.per_block) == 1
    assert all("parallel_classes" not in H.__dict__ for _, H in v.per_block)
    with pytest.raises(ValueError, match="simple"):
        recognize_cycle_construction(blow_up(c4, 2), 3)
    with pytest.raises(NotTwoConnected):
        recognize_cycle_construction(Multigraph.build(range(3), [(0, 1), (1, 2)]), 2)
