"""Generative operations, replayable certificates, and their inverses.

A certificate is a tuple of construction steps in post-order, the root last:
the gorcheck.cert/2 node list itself, in memory as on disk.  Each Node is
flat, naming its children by their indexes in the tuple, so ==, hash and
repr are flat tuple operations at any depth.  Replay is deterministic:
every node's output uses canonical integer vertex labels and re-assigned edge
ids, so an edge reference (id plus orientation flag) inside a node always
refers to the replayed child, keeping certificates self-contained.

A node's replay state is (n, pairs): vertices 0..n-1 and the sorted list
of its edges as (low, high) pairs, an edge's id being its index there.
Each state is used once, by its parent: Subdivide and AttachCycle extend
their child's list in place, with bisect, and a Multigraph is built only
for the root.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections import deque
from typing import NamedTuple, Optional

from .baseck import check_spade, weight_function
from .errors import ConstructionError, GuardExceeded, InternalContradiction, WeightConflict
from .flats import good_flats
from .graph import Multigraph, blocks, is_isomorphic, is_two_connected, label_key

SCHEMA = "gorcheck.cert/2"


class EdgeRef(NamedTuple):
    """Edge of a replayed child: id plus whether the stored endpoint order is reversed."""

    edge_id: int
    flipped: bool = False


class Node(NamedTuple):
    """One construction step; the fields are the gorcheck.cert/2 keys, and
    children (child on disk) are indexes of earlier nodes."""

    op: str  # "seed" | "glue" | "subdivide" | "collide" | "attach_cycle" | "blow_up"
    children: tuple = ()
    refs: tuple = ()  # one EdgeRef per child; none for seed and blow_up
    delta: Optional[int] = None
    seed: Optional[str] = None  # "cycle" | "k4" | "k2"
    n: Optional[int] = None  # cycle length
    m: Optional[int] = None  # blow-up multiplicity


def _join(certs, op: str, **fields) -> tuple:
    """One certificate from child certificates and a root step: the children's
    nodes one after another, each child's indexes shifted by its offset,
    then the root, which takes the children's roots."""
    nodes, kids = (), []
    for cert in certs:
        shift = len(nodes)
        if shift:
            cert = tuple(nd._replace(children=tuple(i + shift for i in nd.children)) for nd in cert)
        nodes += cert
        kids.append(len(nodes) - 1)
    return nodes + (Node(op, tuple(kids), **fields),)


# the steps by name: each returns a certificate, that step over its children
def Seed(kind: str, n: Optional[int] = None) -> tuple:
    return (Node("seed", seed=kind, n=n),)


def Glue(delta: int, children, refs) -> tuple:
    return _join(children, "glue", refs=tuple(refs), delta=delta)


def Subdivide(delta: int, child: tuple, ref: EdgeRef) -> tuple:
    return _join((child,), "subdivide", refs=(ref,), delta=delta)


def Collide(children, refs) -> tuple:
    return _join(children, "collide", refs=tuple(refs))


def AttachCycle(delta: int, child: tuple, ref: EdgeRef) -> tuple:
    return _join((child,), "attach_cycle", refs=(ref,), delta=delta)


def BlowUp(child: tuple, m: int) -> tuple:
    return _join((child,), "blow_up", m=m)


# -- replay ------------------------------------------------------------------


def _graph(n: int, pairs: list) -> Multigraph:
    """The replayed graph of a replay state: vertices 0..n-1, edge i = pairs[i]."""
    return Multigraph(tuple(range(n)), tuple((i, a, b) for i, (a, b) in enumerate(pairs)))


def _sorted_pairs(pairs) -> list:
    return sorted((a, b) if a <= b else (b, a) for a, b in pairs)


def _oriented(state, ref: EdgeRef):
    pairs = state[1]
    if not 0 <= ref.edge_id < len(pairs):
        raise ConstructionError(f"certificate references missing edge {ref.edge_id}")
    u, v = pairs[ref.edge_id]
    return (v, u) if ref.flipped else (u, v)


def _merge_along(states, oriented_edges, drop_merged_edge: bool):
    """Disjoint union with one oriented edge per part identified into a single edge.

    The parts' other vertices are numbered part by part, each part's in
    increasing order, and the identified ends u, v become n-2 and n-1.
    Returns (state, embeddings) where embeddings[i] maps part i's vertex
    labels into the result.
    """
    embeddings, n = [], 0
    for (size, _), (_, u, v) in zip(states, oriented_edges):
        others = [x for x in range(size) if x != u and x != v]
        embeddings.append(dict(zip(others, range(n, n + len(others)))))
        n += len(others)
    pairs = [] if drop_merged_edge else [(n, n + 1)]
    for (_, part), emb, (eid, u, v) in zip(states, embeddings, oriented_edges):
        emb[u], emb[v] = n, n + 1
        pairs += [(emb[a], emb[b]) for e, (a, b) in enumerate(part) if e != eid]
    return (n + 2, _sorted_pairs(pairs)), embeddings


def replay_step(node: Node, reps: list):
    """Replay one node from its children's replay states, (n, sorted
    pairs) each, so edge ids depend only on the edge multiset; returns
    (state, child embedding maps).  A one-child step keeps its child's
    labels and numbers its new vertices after them: it embeds by the
    identity and returns None for the maps.  Subdivide and AttachCycle
    extend the child's pair list in place, so a child is used once."""
    op = node.op
    if op == "seed":
        if node.seed == "cycle":
            if node.n is None or node.n < 2:
                raise ConstructionError("cycle seed needs length >= 2")
            n, pairs = node.n, [(i, (i + 1) % node.n) for i in range(node.n)]
        elif node.seed == "k4":
            n, pairs = 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
        elif node.seed == "k2":
            n, pairs = 2, [(0, 1)]
        else:
            raise ConstructionError(f"unknown seed kind {node.seed!r}")
        return (n, _sorted_pairs(pairs)), []

    if op in ("glue", "collide"):
        is_glue = op == "glue"
        want = node.delta - 1 if is_glue else 2
        if len(reps) != want or len(node.refs) != want:
            what = f"glue at delta={node.delta}" if is_glue else "collide"
            raise ConstructionError(f"{what} needs exactly {want} children")
        oriented = [(r.edge_id,) + _oriented(st, r) for st, r in zip(reps, node.refs)]
        return _merge_along(reps, oriented, drop_merged_edge=not is_glue)

    if op not in ("subdivide", "attach_cycle", "blow_up"):
        raise ConstructionError(f"unknown certificate op {op!r}")
    ((n, pairs),) = reps
    if op == "blow_up":
        if node.m < 1:
            raise ConstructionError("blow-up multiplicity must be >= 1")
        return (n, [p for p in pairs for _ in range(node.m)]), None

    # Subdivide replaces the referenced edge by a path of delta-1 edges (the
    # identity at delta=2); AttachCycle adds a path of delta edges beside it
    attach = op == "attach_cycle"
    if node.delta < 2:
        raise ConstructionError(f"{'attach_cycle' if attach else 'subdivide'} needs delta >= 2")
    (ref,) = node.refs
    u, v = _oriented(reps[0], ref)
    chain = [u, *range(n, n + node.delta - 2 + attach), v]
    if not attach:
        del pairs[ref.edge_id]
    for a, b in zip(chain, chain[1:]):
        insort(pairs, (a, b) if a <= b else (b, a))
    return (n + len(chain) - 2, pairs), None


def replay_detail(cert: tuple):
    """Replay a certificate; returns (graph, child embedding maps) of its root.

    One forward pass over the nodes: a child's replay state is dropped
    once its parent has used it, so a chain holds one state at a time, and
    the graph is built once, at the root.
    """
    pending = {}  # node index -> replay state no parent has used yet
    for i, node in enumerate(cert):
        kids = [pending.pop(k) for k in node.children]
        state, embeds = replay_step(node, kids)
        pending[i] = state
    if embeds is None:
        embeds = [{x: x for x in range(kids[0][0])}]
    return _graph(*state), embeds


def replay(cert: tuple) -> Multigraph:
    """Deterministic reconstruction of the graph a certificate describes."""
    return replay_detail(cert)[0]


# -- forward construction operations ----------------------------------------


def part_weights(G: Multigraph, delta: int, part: str) -> dict:
    """weight_function(G, delta) for a construction's part, named like
    "glue part 1"; ConstructionError naming it when it is K2, whose point
    polytope forces no weight on its edge."""
    if G.n == 2 and G.m == 1:
        raise ConstructionError(f"{part} is K2: a construction part needs at least 2 edges")
    return weight_function(G, delta)


def _weights_of_part(G: Multigraph, delta: int, part: str) -> dict:
    """G's weights at delta, once G decomposes at delta; else ConstructionError
    naming the good flat that fails."""
    w = part_weights(G, delta, part)
    viol = decompose(G, delta)[1]
    if viol is not None:
        raise ConstructionError(
            f"{part} must satisfy the good-flat equalities at delta={delta}; "
            f"violation: {viol.as_dict()}"
        )
    return w


def glue(parts, delta: int) -> Multigraph:
    """Glue delta-1 graphs along one weight-(delta-1) edge each.

    parts is a list of (graph, edge id); the chosen edges are identified
    into a single edge of the result (its weight becomes 1).  Output labels
    are canonical integers.
    """
    if delta < 3:
        raise ConstructionError("glue is a delta > 2 construction")
    if len(parts) != delta - 1:
        raise ConstructionError(
            f"glue at delta={delta} needs exactly {delta - 1} parts, got {len(parts)}"
        )
    for i, (g, eid) in enumerate(parts, 1):
        w = _weights_of_part(g, delta, f"glue part {i}")
        if w[eid] != delta - 1:
            raise ConstructionError(f"glued edge {eid} has weight {w[eid]}, needs {delta - 1}")
    refs = tuple(EdgeRef(eid) for _, eid in parts)
    return _forward([g for g, _ in parts], Node("glue", refs=refs, delta=delta))


def subdivide(G: Multigraph, eid: int, delta: int) -> Multigraph:
    """Replace a weight-1 edge by a path of delta-1 edges (identity at delta=2)."""
    w = _weights_of_part(G, delta, "subdivide part 1")
    if w[eid] != 1:
        raise ConstructionError(f"subdivision target {eid} has weight {w[eid]}, needs 1")
    if delta == 2:
        return G
    return _forward([G], Node("subdivide", refs=(EdgeRef(eid),), delta=delta))


def collide(G1: Multigraph, e1: int, G2: Multigraph, e2: int) -> Multigraph:
    """Glue two graphs along the given edges, then remove the identified edge."""
    for i, g in enumerate((G1, G2), 1):
        _weights_of_part(g, 2, f"collide part {i}")
    return _forward([G1, G2], Node("collide", refs=(EdgeRef(e1), EdgeRef(e2))))


def attach_cycle(H: Multigraph, eid: int, delta: int) -> Multigraph:
    """Add a fresh path of delta edges between the endpoints of an existing edge.

    Together with the edge this creates a new (delta+1)-cycle; replay_step
    refuses delta < 2.
    """
    if not H.is_simple():
        raise ConstructionError("attach_cycle requires a simple graph")
    if eid not in H.edge_by_id:
        raise KeyError(f"unknown edge id {eid}")
    return _forward([H], Node("attach_cycle", refs=(EdgeRef(eid),), delta=delta))


def blow_up(H: Multigraph, m: int) -> Multigraph:
    """Replace every edge by m parallel copies; replay_step refuses m < 1."""
    return _forward([H], Node("blow_up", m=m))


def _forward(graphs, step: Node) -> Multigraph:
    """Replay one step on the graphs relabelled to replay labels, 0..n-1 in
    sorted_vertices order: each graph's pairs sorted, and each ref, an
    unflipped input edge id, moved to its edge's rank there, flipped when
    the edge's stored ends run high to low.  The step names no children,
    since replay_step reads only the replayed ones."""
    reps, refs = [], list(step.refs)
    for k, G in enumerate(graphs):
        lab = {x: i for i, x in enumerate(G.sorted_vertices)}
        ranked = sorted(
            (min(lab[u], lab[v]), max(lab[u], lab[v]), eid, lab[u] > lab[v]) for eid, u, v in G.edges
        )
        reps.append((G.n, [(a, b) for a, b, _, _ in ranked]))
        if refs:
            rank = {eid: (i, flip) for i, (_, _, eid, flip) in enumerate(ranked)}
            if refs[k].edge_id not in rank:
                raise ConstructionError(f"certificate references missing edge {refs[k].edge_id}")
            refs[k] = EdgeRef(*rank[refs[k].edge_id])
    return _graph(*replay_step(step._replace(refs=tuple(refs)), reps)[0])


# -- decomposition (inverse construction) ------------------------------------


class Step(NamedTuple):
    """One construction step of a part, before build places it in the
    certificate: its node without children or refs, and what build needs
    to fill those in and to map the part's vertices to replay labels."""

    node: Node
    arity: int = 0  # how many parts the step splits its part into
    ends: tuple = ()  # (a, b): each child's ref names its copy of the edge ab
    new: tuple = ()  # a seed's vertices, or a new path's inner ones, in replay-label order


def _edge_ref(state, a, b) -> EdgeRef:
    """Reference to the edge ab of a replayed child, oriented from a to b:
    the first of its copies in the child's sorted pairs."""
    pairs, pair = state[1], (a, b) if a <= b else (b, a)
    eid = bisect_left(pairs, pair)
    if eid == len(pairs) or pairs[eid] != pair:
        raise InternalContradiction("replayed child lost a referenced edge")
    return EdgeRef(eid, flipped=a > b)


def _collide_peel(G: Multigraph) -> list:
    """The steps of G's decomposition at delta = 2, in the post-order build
    wants, by peeling Collides off; InternalContradiction when the peel
    stops short of K4.

    A peel takes two adjacent vertices x, y of degree 3 whose other
    neighbours are the same two vertices u, v, with u and v not adjacent;
    it deletes x and y and adds the edge uv.  {u, v} is a separating pair,
    one of its components being {x, y}, so a peel is a split at that pair
    into the parts G[x, y, u, v] + uv, which is K4, and G - {x, y} + uv: G
    is their Collide along uv.  The peel stops when no such pair is left
    (K4 has none), and G decomposes when four vertices remain and they form
    K4; a peel keeps m - 2(n-1), so that takes m = 2(n-1).  The certificate
    is the peel order read backwards: a K4 seed for the four, then per peel
    a K4 seed on x, y, u, v and a collide with ends (u, v) of the rest and
    that seed.  decompose checks its vertex map like any other, and sends a
    stuck peel to check_spade, which names the violated flat or leaves the
    contradiction standing, so a peel that stopped early could not turn a
    positive into a negative verdict.

    The peel runs on a mutable adjacency, each vertex's neighbours in G's
    adjacency order, with a worklist of vertices of degree 3 seeded in
    G.vertices order, so no step depends on hash order.  A peel changes
    only the degrees and neighbours of u and v, and the pairs it makes
    contain u or v, which go back on the worklist at degree 3.
    """
    adj = {v: dict.fromkeys(w for _, w in G.adjacency[v]) for v in G.vertices}
    work = deque(v for v in G.vertices if len(adj[v]) == 3)
    peeled = []  # (u, v, x, y) in peel order: the last Collide first
    while work:
        x = work.popleft()
        if len(adj.get(x, ())) != 3:
            continue  # peeled, or its degree has changed since it was queued
        for y in adj[x]:
            u, v = (w for w in adj[x] if w != y)
            if len(adj[y]) == 3 and u in adj[y] and v in adj[y] and v not in adj[u]:
                break
        else:
            continue
        for z in (x, y):
            for w in adj.pop(z):
                del adj[w][z]
        adj[u][v] = adj[v][u] = None
        u, v = sorted((u, v), key=label_key)
        peeled.append((u, v, x, y))
        work.extend(w for w in (u, v) if len(adj[w]) == 3)
    if len(adj) != 4 or any(len(nbrs) != 3 for nbrs in adj.values()):
        raise InternalContradiction(
            f"the Collide peel stops at {len(adj)} vertices, not at K4"
        )
    k4 = Node("seed", seed="k4")
    steps = [Step(k4, new=tuple(sorted(adj, key=label_key)))]
    for u, v, x, y in reversed(peeled):
        steps.append(Step(k4, new=tuple(sorted((u, v, x, y), key=label_key))))
        steps.append(Step(Node("collide"), 2, (u, v)))
    return steps


def _cycle_seed(ring) -> Step:
    """The cycle seed on ring's vertices, given in cycle order: walked from
    its least label, via its least neighbour."""
    i = min(range(len(ring)), key=lambda j: label_key(ring[j]))
    walk = min(ring[i:] + ring[:i], ring[i::-1] + ring[:i:-1], key=lambda w: label_key(w[1]))
    return Step(Node("seed", seed="cycle", n=len(ring)), new=tuple(walk))


def _glue_peel(G: Multigraph, delta: int) -> list:
    """The steps of G's decomposition at delta >= 3, in the post-order build
    wants, by peeling Glues and Subdivides off; InternalContradiction when
    the peel stops short of C_delta, WeightConflict from G's weights.

    A run is a maximal path a, x_1 .. x_(delta-2), b whose inner vertices
    have degree 2 and whose edges are heavy, with ends a != b of other
    degrees.  A reverse Subdivide takes a run whose ends are not adjacent:
    its inner vertices go and the edge ab comes in, light.  A reverse Glue
    takes delta-2 runs joining the ends of a light edge ab: their inner
    vertices go and ab turns heavy.  G decomposes when the peel ends at
    C_delta with every edge heavy, and the certificate is the peel read
    backwards: that cycle's seed, then per step a subdivide with ends
    (a, b), or a cycle seed per glued run and a glue with the rest as child
    0.  It is a proof.  Read forward from the all-heavy seed, each step
    gives its new edges the weights the peel gave them (path edges heavy, a
    glued edge light) and keeps every other edge's flags, so each step
    meets its hypothesis (a Subdivide target weighs 1, a glued edge delta-1
    in every part), and check_vertex_map proves that the replay is G.

    The peel runs on a mutable adjacency, each vertex's neighbours in G's
    adjacency order, with a worklist of vertices of degree 2 seeded in
    G.vertices order, so no step depends on hash order.  No step raises a
    degree, so a walked path changes only when an end drops to degree 2,
    which queues it, and a heavy edge between ends stays.  Each run is
    taken when it is found, and a map from end pairs to their runs holds
    those waiting at a light edge for a Glue.
    """
    adj = {v: dict.fromkeys(w for _, w in G.adjacency[v]) for v in G.vertices}
    weights = {} if G.n == G.m else weight_function(G, delta)  # a cycle's edges are all heavy
    light = {frozenset(G.endpoints(e)) for e, wt in weights.items() if wt == 1}
    runs = {}  # frozenset({a, b}) of a light edge -> the runs waiting there
    walked = set()  # vertices walked through; degree 2 until deleted
    work = deque(v for v in G.vertices if len(adj[v]) == 2)
    peeled = []  # (run, runs glued or None) in peel order: the last step first

    def run_through(x):
        """The run through x, read from its smaller end, or None."""
        sides = []
        for cur in adj[x]:  # walk each way, at most delta steps
            prev, side = x, []
            while len(adj[cur]) == 2 and cur != x and len(side) < delta:
                side.append(cur)
                prev, cur = cur, next(w for w in adj[cur] if w != prev)
            sides.append((side, cur))
        (left, a), (right, b) = sides
        walked.update(left, right, (x,))
        path = (a, *reversed(left), x, *right, b)
        if len(path) != delta or a == b or len(adj[a]) == 2 or len(adj[b]) == 2 or any(
            frozenset(e) in light for e in zip(path, path[1:])
        ):
            return None  # too long, too short, a cycle, or with a light edge
        return path if label_key(a) < label_key(b) else path[::-1]

    while work:
        x = work.popleft()
        if len(adj.get(x, ())) != 2 or x in walked:
            continue
        run = run_through(x)
        if run is None:
            continue
        a, b = run[0], run[-1]
        pair = frozenset((a, b))
        if b not in adj[a]:
            glued = None
            light.add(pair)
            adj[a][b] = adj[b][a] = None
        elif pair in light:  # a Glue turns ab heavy, so no more than delta-2 wait
            runs.setdefault(pair, []).append(run)
            if len(runs[pair]) < delta - 2:
                continue
            glued = sorted(runs.pop(pair), key=lambda r: tuple(map(label_key, r)))
            light.discard(pair)
        else:
            continue  # ends joined by a heavy edge
        for r in glued or [run]:
            for z in r[1:-1]:
                for w in adj.pop(z):
                    del adj[w][z]
        peeled.append((run, glued))
        work.extend(w for w in (a, b) if len(adj[w]) == 2)
    if len(adj) != delta or light or any(len(nbrs) != 2 for nbrs in adj.values()):
        raise InternalContradiction(
            f"the Glue/Subdivide peel stops at {len(adj)} vertices, not at an all-heavy C{delta}"
        )
    ring = [next(iter(adj))]
    while len(ring) < delta:
        ring.append(next(w for w in adj[ring[-1]] if w not in ring[-2:]))
    steps = [_cycle_seed(ring)]
    for run, glued in reversed(peeled):
        if glued is None:
            steps.append(Step(Node("subdivide", delta=delta), 1, (run[0], run[-1]), run[1:-1]))
        else:
            steps += [_cycle_seed(list(r)) for r in glued]
            steps.append(Step(Node("glue", delta=delta), delta - 1, (run[0], run[-1])))
    return steps


def build(steps) -> tuple:
    """(certificate, vertex map, replayed graph) from steps in post-order:
    each step's children come before it, in child order, and the root last.

    One replay_step per node fills in its children and refs, and the map
    from the input's vertices to replay labels is composed as it goes.  A
    node's replay state (replay_step's (n, sorted pairs)) is used once, by
    its parent, which may extend it in place; the graph is built once, at
    the root.  A step with at most one child keeps its child's labels and
    numbers its new vertices after them, so the child's map is extended in
    place; the caller's check_vertex_map proves the composed map.
    """
    nodes, pending = [], []  # (index, map, state) of each node no parent has taken yet
    for step in steps:
        kids = pending[len(pending) - step.arity:]
        del pending[len(pending) - step.arity:]
        refs = ()
        if step.ends:
            a, b = step.ends
            refs = tuple(_edge_ref(st, vm[a], vm[b]) for _, vm, st in kids)
        node = step.node._replace(children=tuple(i for i, _, _ in kids), refs=refs)
        state, embeds = replay_step(node, [st for _, _, st in kids])
        if len(kids) > 1:
            vmap = {x: emb[y] for (_, vm, _), emb in zip(kids, embeds) for x, y in vm.items()}
        else:
            vmap, base = (kids[0][1], kids[0][2][0]) if kids else ({}, 0)
            vmap.update((x, base + j) for j, x in enumerate(step.new))
        pending.append((len(nodes), vmap, state))
        nodes.append(node)
    ((_, vmap, state),) = pending
    return tuple(nodes), vmap, _graph(*state)


def check_vertex_map(G: Multigraph, vmap: dict, rep: Multigraph) -> None:
    """InternalContradiction unless vmap is a bijection V(G) -> V(rep) that
    carries the edges of G exactly onto those of rep, parallel edges counted."""
    onto = set(vmap.values()) == set(rep.vertices)
    if vmap.keys() != set(G.vertices) or not onto or rep.n != G.n:
        raise InternalContradiction(
            "certificate vertex map is not a bijection onto the replayed graph"
        )
    # both sides are now in replay labels, ints, so the two edge multisets
    # compare as sorted lists of (low, high) pairs
    mapped = ((vmap[u], vmap[v]) for _, u, v in G.edges)
    mapped = sorted((a, b) if a <= b else (b, a) for a, b in mapped)
    if mapped != sorted((a, b) if a <= b else (b, a) for _, a, b in rep.edges):
        raise InternalContradiction(
            "certificate vertex map does not carry the input's edges onto the replay"
        )


def decompose(G: Multigraph, delta: int):
    """(certificate, None) if a 2-connected simple G decomposes at delta,
    else (None, witness).  The vertex map is checked exactly.  Only a stuck
    decomposition runs check_spade, to name the violated good flat; if it
    finds none, the stuck state stands as InternalContradiction.

    The steps come from _collide_peel at delta = 2 and from _glue_peel
    above it.
    """
    try:
        steps = _collide_peel(G) if delta == 2 else _glue_peel(G, delta)
    except (InternalContradiction, WeightConflict) as stuck:
        witness = check_spade(G, delta)
        if witness is None:
            raise InternalContradiction(str(stuck)) from stuck
        return None, witness
    cert, vmap, rep = build(steps)
    check_vertex_map(G, vmap, rep)
    return cert, None


def decompose_base(G: Multigraph, delta: int) -> tuple:
    """Certificate for a 2-connected simple graph satisfying the equalities at delta.

    Replaying it yields G up to the vertex map decompose checks; an input
    that does not decompose raises ConstructionError naming the violated flat.
    """
    if not is_two_connected(G):
        raise ConstructionError("decompose_base requires a 2-connected graph")
    if not G.is_simple():
        raise ConstructionError("decompose_base requires a simple graph")
    cert, viol = decompose(G, delta)
    if viol is not None:
        raise ConstructionError(
            f"input fails the good-flat equalities at delta={delta}: {viol.as_dict()}"
        )
    return cert


# -- fingerprints and replay checks ------------------------------------------


def fingerprint(G: Multigraph) -> tuple:
    """Invariant summary for graphs too large for brute-force isomorphism."""
    blks = blocks(G)
    flat_census = None
    if is_two_connected(G) and G.n <= 16:
        flat_census = tuple(
            sorted((len(f.S), len(f.induced_edges)) for f in good_flats(G))
        )
    return (
        G.n,
        G.m,
        tuple(sorted(G.degree(v) for v in G.vertices)),
        tuple(sorted((b.n, b.m) for b in blks)),
        flat_census,
    )


def replay_matches(cert: tuple, G: Multigraph) -> tuple:
    """Compare replay(cert) with G; returns (matched, method).

    Brute-force isomorphism up to 10 vertices, invariant fingerprint beyond
    (reported via method = "fingerprint").
    """
    H = replay(cert)
    try:
        return is_isomorphic(H, G), "isomorphism"
    except GuardExceeded:
        return fingerprint(H) == fingerprint(G), "fingerprint"


# -- serialization ------------------------------------------------------------


def _node_to_dict(node: Node) -> dict:
    """One node of the /2 list, keys in the order the format lists them."""
    op = node.op
    if op == "seed":
        return {"op": op, "seed": node.seed, **({} if node.n is None else {"n": node.n})}
    if op == "blow_up":
        return {"op": op, "m": node.m, "child": node.children[0]}
    out = {"op": op} if op == "collide" else {"op": op, "delta": node.delta}
    refs = [{"edge": r.edge_id, "flip": r.flipped} for r in node.refs]
    if op in ("glue", "collide"):
        return {**out, "children": list(node.children), "refs": refs}
    return {**out, "child": node.children[0], "ref": refs[0]}


def cert_to_dict(cert: tuple) -> dict:
    """JSON-ready dict: the nodes in post-order, the root last, each child
    named by its index in the list."""
    return {"schema": SCHEMA, "nodes": [_node_to_dict(node) for node in cert]}


def _field(d: dict, key: str, kind: type):
    """d[key] if it has JSON type kind, else ConstructionError."""
    value = d.get(key)
    if type(value) is not kind:
        raise ConstructionError(
            f"certificate field {key!r} is missing or not of type {kind.__name__}"
        )
    return value


def _ref_from_dict(r) -> EdgeRef:
    if type(r) is not dict:
        raise ConstructionError("certificate edge reference is missing or not an object")
    return EdgeRef(_field(r, "edge", int), _field(r, "flip", bool) if "flip" in r else False)


def cert_from_dict(doc: dict) -> tuple:
    """Inverse of cert_to_dict; keys it does not read are ignored, so a
    certify report entry parses too.  Malformed input raises
    ConstructionError: every child index must name an earlier node that no
    other node has taken, and the last node must be the only one left.
    """
    schema = doc.get("schema") if type(doc) is dict else None
    if schema != SCHEMA:
        raise ConstructionError(f"unsupported certificate schema {schema!r}")
    nodes = []
    free = set()  # indexes of the nodes no node has taken yet

    def take(i):
        if type(i) is not int or i not in free:
            raise ConstructionError(
                f"certificate child {i!r} is not the index of an earlier, untaken node"
            )
        free.remove(i)
        return i

    for d in _field(doc, "nodes", list):
        if type(d) is not dict:
            raise ConstructionError("certificate node is not an object")
        op = d.get("op")
        if op == "seed":
            seed = _field(d, "seed", str)
            node = Node(op, seed=seed, n=_field(d, "n", int) if "n" in d else None)
        elif op in ("glue", "collide"):
            children = tuple(take(i) for i in _field(d, "children", list))
            refs = tuple(_ref_from_dict(r) for r in _field(d, "refs", list))
            node = Node(op, children, refs, None if op == "collide" else _field(d, "delta", int))
        elif op in ("subdivide", "attach_cycle"):
            node = Node(
                op,
                delta=_field(d, "delta", int),
                children=(take(d.get("child")),),
                refs=(_ref_from_dict(d.get("ref")),),
            )
        elif op == "blow_up":
            node = Node(op, children=(take(d.get("child")),), m=_field(d, "m", int))
        else:
            raise ConstructionError(f"unknown certificate op {op!r}")
        free.add(len(nodes))
        nodes.append(node)
    if len(free) != 1:  # nothing can take the last node
        raise ConstructionError(f"certificate nodes form {len(free)} trees, not one")
    return tuple(nodes)


def cert_to_json(cert: tuple) -> str:
    return json.dumps(cert_to_dict(cert), indent=2)


def cert_from_json(text: str) -> tuple:
    return cert_from_dict(json.loads(text))
