"""Generative operations, replayable certificates, and their inverses.

A certificate is a tuple of construction steps in post-order, the root last:
the gorcheck.cert/3 node list itself, in memory as on disk.  Each Node is
flat, naming its children by their indexes in the tuple, so ==, hash and
repr are flat tuple operations at any depth.  Every node names vertices of
the graph it builds, the input's own labels: a seed its vertices, a glue or
collide the shared edge (a, b), a subdivide or attach_cycle its new path
(a, x.., b).  So a certificate is checked against its input by replaying it
and comparing vertex sets and edge multisets, with no vertex map.

A node's replay state is (vertex set, edge counts): the set of its labels
and a dict from each edge, the frozenset of its ends, to its multiplicity.  Each
state is used once, by its parent, which changes it in place: a one-child
step extends its child's, and glue and collide merge the smaller children
into the largest, so a replay is one forward pass, and a Multigraph is built
only for the root.
"""

from __future__ import annotations

import json
from collections import deque
from typing import NamedTuple, Optional

from .baseck import Witness, _require_block, check_spade, weight_function
from .errors import ConstructionError, GuardExceeded, InternalContradiction
from .graph import DEFAULT_GUARD, Multigraph, _sp_reducible, is_two_connected, label_key

SCHEMA = "gorcheck.cert/3"


class Node(NamedTuple):
    """One construction step; the fields are the gorcheck.cert/3 keys, and
    children (child on disk) are indexes of earlier nodes."""

    op: str  # "seed" | "glue" | "subdivide" | "collide" | "attach_cycle" | "blow_up"
    children: tuple = ()
    labels: tuple = ()  # a seed's vertices, an edge (a, b) or a path (a, x.., b)
    delta: Optional[int] = None
    seed: Optional[str] = None  # "cycle" | "k4" | "k2"
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


SEED_SIZES = {"k2": 2, "k4": 4}


# the steps by name: each returns a certificate, that step over its children
def Seed(kind: str, vertices=None) -> tuple:
    """A seed on the given vertices, in cycle order for a cycle; K2 and K4
    default to 0, 1 (, 2, 3)."""
    if vertices is None:
        vertices = range(SEED_SIZES.get(kind, 0))
    return (Node("seed", labels=tuple(vertices), seed=kind),)


def Glue(delta: int, children, edge) -> tuple:
    return _join(children, "glue", labels=tuple(edge), delta=delta)


def Subdivide(delta: int, child: tuple, path) -> tuple:
    return _join((child,), "subdivide", labels=tuple(path), delta=delta)


def Collide(children, edge) -> tuple:
    return _join(children, "collide", labels=tuple(edge))


def AttachCycle(delta: int, child: tuple, path) -> tuple:
    return _join((child,), "attach_cycle", labels=tuple(path), delta=delta)


def BlowUp(child: tuple, m: int) -> tuple:
    return _join((child,), "blow_up", m=m)


def post_order(nodes) -> tuple:
    """The certificate of nodes listed in post-order without their children:
    each node takes as children the last nodes no node has taken yet, as
    many as its op has (delta-1 for a glue, 2 for a collide)."""
    cert, free = [], []
    for node in nodes:
        arity = {"seed": 0, "glue": (node.delta or 0) - 1, "collide": 2}.get(node.op, 1)
        kids = tuple(free[len(free) - arity:])
        del free[len(free) - arity:]
        free.append(len(cert))
        cert.append(node._replace(children=kids))
    return tuple(cert)


# -- replay ------------------------------------------------------------------


def _edge_counts(pairs, counts=None) -> dict:
    """counts, a new dict by default, with the edge of each pair added."""
    counts = {} if counts is None else counts
    for e in map(frozenset, pairs):
        counts[e] = counts.get(e, 0) + 1
    return counts


def _drop(counts: dict, e: frozenset, k: int) -> None:
    counts[e] -= k
    if not counts[e]:
        del counts[e]


def _graph(vertices, edges: dict) -> Multigraph:
    """The Multigraph of a replay state: its vertices in label order, and
    its edges, ends in label order (a loop's frozenset holds one), sorted,
    with ids 0..m-1.  GuardExceeded, before any edge is built, for more
    than DEFAULT_GUARD edges."""
    m = sum(edges.values())
    if m > DEFAULT_GUARD:
        raise GuardExceeded(f"replay guarded at {DEFAULT_GUARD} edges; this one has {m}")
    pairs = []
    for e, count in edges.items():
        keys = [label_key(x) for x in e]
        pairs += [(min(keys), max(keys))] * count
    pairs.sort()
    return Multigraph(
        tuple(sorted(vertices, key=label_key)),
        tuple((i, u[1], v[1]) for i, (u, v) in enumerate(pairs)),
    )


def replay_step(node: Node, kids: list):
    """The replay state of node from its children's, which it changes in
    place; ConstructionError when the step is not a construction."""
    op, labels = node.op, node.labels
    if op == "seed":
        size, kind = len(labels), node.seed
        if kind == "cycle":
            if size < 2:
                raise ConstructionError("cycle seed needs length >= 2")
            pairs = zip(labels, labels[1:] + labels[:1])
        elif kind in SEED_SIZES:
            if size != SEED_SIZES[kind]:
                raise ConstructionError(f"{kind} seed needs {SEED_SIZES[kind]} vertices")
            pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        else:
            raise ConstructionError(f"unknown seed kind {kind!r}")
        if len(set(labels)) != size:
            raise ConstructionError("seed repeats a vertex")
        return set(labels), _edge_counts(pairs)

    if op == "blow_up":
        if node.m < 1:
            raise ConstructionError("blow-up multiplicity must be >= 1")
        ((vertices, edges),) = kids
        return vertices, {e: count * node.m for e, count in edges.items()}

    if op in ("glue", "collide"):
        is_glue = op == "glue"
        if is_glue and node.delta < 3:
            raise ConstructionError("glue is a delta > 2 construction")
        want = node.delta - 1 if is_glue else 2
        if len(kids) != want:
            what = f"glue at delta={node.delta}" if is_glue else "collide"
            raise ConstructionError(f"{what} needs exactly {want} children")
        ab = _child_edge(kids, *labels)
        kids = sorted(kids, key=lambda state: len(state[0]), reverse=True)
        vertices, edges = kids[0]
        for others, more in kids[1:]:  # the smaller children into the largest
            shared = [x for x in others if x in vertices and x not in ab]
            if shared:
                raise ConstructionError(f"{op} children share the vertex {shared[0]!r}")
            vertices |= others
            for e, count in more.items():
                edges[e] = edges.get(e, 0) + count
        # the children's copies of ab become one edge (glue) or none (collide)
        _drop(edges, ab, want - is_glue)
        return vertices, edges

    if op not in ("subdivide", "attach_cycle"):
        raise ConstructionError(f"unknown certificate op {op!r}")
    # Subdivide replaces the edge ab by its path of delta-1 edges (the
    # identity at delta=2); AttachCycle adds a path of delta edges beside it
    attach = op == "attach_cycle"
    if node.delta < 2:
        raise ConstructionError(f"{op} needs delta >= 2")
    if len(labels) != node.delta + attach:
        need = node.delta + attach
        raise ConstructionError(f"{op} at delta={node.delta} needs {need} path vertices")
    ((vertices, edges),) = kids
    ab = _child_edge(kids, labels[0], labels[-1])
    inner = labels[1:-1]
    if len(set(inner)) != len(inner) or not vertices.isdisjoint(inner):
        raise ConstructionError(f"{op} path runs through a vertex it does not add")
    if not attach:
        _drop(edges, ab, 1)
    vertices.update(inner)
    return vertices, _edge_counts(zip(labels, labels[1:]), edges)


def _child_edge(kids, a, b) -> frozenset:
    """The edge ab, which every child must have; else ConstructionError."""
    ab = frozenset((a, b))
    if any(ab not in edges for _, edges in kids):
        raise ConstructionError(f"a child lacks the edge ({a!r}, {b!r})")
    return ab


def _replay_state(cert: tuple):
    """The replay state of the certificate's last node: one forward pass, a
    child's state dropped once its parent has used it."""
    pending = {}  # node index -> replay state no parent has used yet
    for i, node in enumerate(cert):
        pending[i] = state = replay_step(node, [pending.pop(k) for k in node.children])
    return state


def replay(cert: tuple) -> Multigraph:
    """The graph a certificate describes, in its own labels."""
    return _graph(*_replay_state(cert))


def check_replay(G: Multigraph, cert: tuple) -> None:
    """InternalContradiction unless cert replays to G exactly: the same
    vertex set and the same edge multiset."""
    try:
        vertices, edges = _replay_state(cert)
    except ConstructionError as bad:
        raise InternalContradiction(f"certificate does not replay: {bad}") from bad
    if vertices != set(G.vertices) or edges != _edge_counts((u, v) for _, u, v in G.edges):
        raise InternalContradiction("certificate replays to another graph than its block")


def replay_matches(cert: tuple, G: Multigraph) -> tuple:
    """(matched, "isomorphism"): whether pairing the replay's vertices with
    G's, both in label order, renames the replay's edge multiset to G's.  A
    True answer comes with that isomorphism.  For a certificate in G's
    labels it is check_replay's test, and a label-free Seed("k2") or
    Seed("k4") pairs with any K2 or K4."""
    vertices, edges = _replay_state(cert)
    if len(vertices) != G.n:
        return False, "isomorphism"
    pair = dict(zip(sorted(vertices, key=label_key), G.sorted_vertices))
    renamed = {frozenset(map(pair.__getitem__, e)): count for e, count in edges.items()}
    return renamed == _edge_counts((u, v) for _, u, v in G.edges), "isomorphism"


# -- forward construction operations ----------------------------------------


def part_weights(G: Multigraph, delta: int, part: str) -> dict:
    """weight_function(G, delta) for a construction's part, named like
    "glue part 1", once G decomposes at delta.  ConstructionError naming
    the part when it is K2, whose point polytope forces no weight on its
    edge, or when it does not decompose, with decompose's witness.  G is
    checked as a block before decompose runs: a part that is not simple or
    not 2-connected gets that input error, not a replay mismatch."""
    if G.n == 2 and G.m == 1:
        raise ConstructionError(f"{part} is K2: a construction part needs at least 2 edges")
    _require_block(G)
    viol = decompose(G, delta)[1]
    if viol is not None:
        raise ConstructionError(f"{part} does not decompose at delta={delta}: {viol.as_dict()}")
    return weight_function(G, delta)


def glue(parts, delta: int) -> Multigraph:
    """Glue delta-1 graphs along one weight-(delta-1) edge each.

    parts is a list of (graph, edge id); the chosen edges are identified
    into a single edge of the result (its weight becomes 1).  An edge id of
    None picks the part's smallest edge id of weight delta - 1.  Output
    labels are canonical integers.
    """
    if delta < 3:
        raise ConstructionError("glue is a delta > 2 construction")
    if len(parts) != delta - 1:
        raise ConstructionError(
            f"glue at delta={delta} needs exactly {delta - 1} parts, got {len(parts)}"
        )
    chosen = []
    for i, (g, eid) in enumerate(parts, 1):
        w = part_weights(g, delta, f"glue part {i}")
        if eid is None:
            eid = min((e for e, wt in w.items() if wt == delta - 1), default=None)
            if eid is None:
                raise ConstructionError("part has no weight-(delta-1) edge to glue on")
        if w[eid] != delta - 1:
            raise ConstructionError(f"glued edge {eid} has weight {w[eid]}, needs {delta - 1}")
        chosen.append((g, eid))
    return _forward(Node("glue", delta=delta), chosen)


def subdivide(G: Multigraph, eid: int, delta: int) -> Multigraph:
    """Replace a weight-1 edge by a path of delta-1 edges (identity at delta=2).

    An edge id of None picks G's smallest edge id of weight 1."""
    w = part_weights(G, delta, "subdivide part 1")
    if eid is None:
        eid = min((e for e, wt in w.items() if wt == 1), default=None)
        if eid is None:
            raise ConstructionError("no weight-1 edge to subdivide")
    if w[eid] != 1:
        raise ConstructionError(f"subdivision target {eid} has weight {w[eid]}, needs 1")
    if delta == 2:
        return G
    return _forward(Node("subdivide", delta=delta), [(G, eid)])


def collide(G1: Multigraph, e1: int, G2: Multigraph, e2: int) -> Multigraph:
    """Glue two graphs along the given edges, then remove the identified edge."""
    for i, g in enumerate((G1, G2), 1):
        part_weights(g, 2, f"collide part {i}")
    return _forward(Node("collide"), [(G1, e1), (G2, e2)])


def attach_cycle(H: Multigraph, eid: int, delta: int) -> Multigraph:
    """Add a fresh path of delta edges between the endpoints of an existing edge.

    Together with the edge this creates a new (delta+1)-cycle; replay_step
    refuses delta < 2.
    """
    if not H.is_simple():
        raise ConstructionError("attach_cycle requires a simple graph")
    if eid not in H.edge_by_id:
        raise KeyError(f"unknown edge id {eid}")
    return _forward(Node("attach_cycle", delta=delta), [(H, eid)])


def blow_up(H: Multigraph, m: int) -> Multigraph:
    """Replace every edge by m parallel copies; replay_step refuses m < 1."""
    return _forward(Node("blow_up", m=m), [(H, None)])


def _forward(step: Node, parts) -> Multigraph:
    """Replay step on the parts, (graph, edge id or None) each, relabelled
    to integers: each part's vertices numbered part by part in
    sorted_vertices order, but for glued ends, which become N-2 (each
    edge's first stored end) and N-1.  A path of a one-part step runs from
    the edge's first stored end to its second through the next free
    integers."""
    glued = len(parts) > 1
    top = sum(G.n - 2 for G, _ in parts)  # where glued ends go
    states, labels, start = [], (), 0
    for G, eid in parts:
        lab = {}
        if eid is not None:
            if eid not in G.edge_by_id:
                raise ConstructionError(f"certificate references missing edge {eid}")
            u, v = G.endpoints(eid)
            if glued:
                lab, labels = {u: top, v: top + 1}, (top, top + 1)
        for x in G.sorted_vertices:
            if x not in lab:
                lab[x], start = start, start + 1
        states.append((set(lab.values()), _edge_counts((lab[a], lab[b]) for _, a, b in G.edges)))
    if not glued and eid is not None:
        new = step.delta - 2 + (step.op == "attach_cycle")  # the path's inner vertices
        labels = (lab[u], *range(start, start + new), lab[v])
    return _graph(*replay_step(step._replace(labels=labels), states))


# -- decomposition (inverse construction) ------------------------------------
# Each peel undoes construction steps on one mutable adjacency, with a
# worklist seeded in the graph's vertex order, so no step depends on hash
# order; the peel read backwards is the certificate, checked by the caller.


def _adjacency(G: Multigraph) -> dict:
    """The peels' mutable adjacency: each vertex's neighbours as dict keys,
    in G's adjacency order."""
    return {v: dict.fromkeys(w for _, w in G.adjacency[v]) for v in G.vertices}


def _delete(adj: dict, vertices) -> None:
    """Delete the vertices from adj, with their edges."""
    for z in vertices:
        for w in adj.pop(z):
            del adj[w][z]


def _run(adj: dict, x, limit: int, walked: set) -> Optional[tuple]:
    """The maximal run of degree-2 vertices through x, whose inner vertices
    join walked: the path (a, .., x, .., b) between its ends, read from the
    smaller.  Each way is walked at most limit steps and stops if it comes
    back to x.  None when x is deleted, walked or not of degree 2, and when
    the walk leaves an end of degree 2 or a == b."""
    if len(adj.get(x, ())) != 2 or x in walked:
        return None
    sides = []
    for cur in adj[x]:
        prev, side = x, []
        while len(adj[cur]) == 2 and cur != x and len(side) < limit:
            side.append(cur)
            prev, cur = cur, next(w for w in adj[cur] if w != prev)
        sides.append((side, cur))
    (left, a), (right, b) = sides
    walked.update(left, right, (x,))
    if a == b or len(adj[a]) == 2 or len(adj[b]) == 2:
        return None
    path = (a, *reversed(left), x, *right, b)
    return path if label_key(a) < label_key(b) else path[::-1]


def _ring(adj: dict) -> list:
    """The vertices of adj, a cycle, in cycle order: from its least label,
    to that vertex's first neighbour first."""
    ring = [min(adj, key=label_key)]
    while len(ring) < len(adj):
        ring.append(next(w for w in adj[ring[-1]] if w not in ring[-2:]))
    return ring


def _collide_peel(G: Multigraph) -> list:
    """The nodes of G's decomposition at delta = 2, in post-order without
    their children, by peeling Collides off; InternalContradiction when the
    peel stops short of K4.

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
    that seed.  decompose checks its replay like any other, and sends a
    stuck peel to check_spade, which names the violated flat or leaves the
    contradiction standing, so a peel that stopped early could not turn a
    positive into a negative verdict.

    The worklist holds vertices of degree 3.  A peel changes only the
    degrees and neighbours of u and v, and the pairs it makes contain u or
    v, which go back on the worklist at degree 3.
    """
    adj = _adjacency(G)
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
        _delete(adj, (x, y))
        adj[u][v] = adj[v][u] = None
        u, v = sorted((u, v), key=label_key)
        peeled.append((u, v, x, y))
        work.extend(w for w in (u, v) if len(adj[w]) == 3)
    if len(adj) != 4 or any(len(nbrs) != 3 for nbrs in adj.values()):
        raise InternalContradiction(
            f"the Collide peel stops at {len(adj)} vertices, not at K4"
        )
    nodes = [Node("seed", labels=tuple(sorted(adj, key=label_key)), seed="k4")]
    for u, v, x, y in reversed(peeled):
        nodes.append(Node("seed", labels=tuple(sorted((u, v, x, y), key=label_key)), seed="k4"))
        nodes.append(Node("collide", labels=(u, v)))
    return nodes


def _cycle_seed(ring) -> Node:
    """The cycle seed on ring's vertices, given in cycle order: walked from
    its least label, via its least neighbour."""
    i = min(range(len(ring)), key=lambda j: label_key(ring[j]))
    walk = min(ring[i:] + ring[:i], ring[i::-1] + ring[:i:-1], key=lambda w: label_key(w[1]))
    return Node("seed", labels=tuple(walk), seed="cycle")


def _glue_peel(G: Multigraph, delta: int) -> list:
    """The nodes of G's decomposition at delta >= 3, in post-order without
    their children, by peeling Glues and Subdivides off;
    InternalContradiction when the peel stops short of C_delta.  G is
    K4-minor-free, as decompose checks, so the series-parallel reduction
    reads its light edges.

    A run is a maximal path a, x_1 .. x_(delta-2), b whose inner vertices
    have degree 2 and whose edges are heavy, with ends a != b of other
    degrees.  A reverse Subdivide takes a run whose ends are not adjacent:
    its inner vertices go and the edge ab comes in, light.  A reverse Glue
    takes delta-2 runs joining the ends of a light edge ab: their inner
    vertices go and ab turns heavy.  G decomposes when the peel ends at
    C_delta with every edge heavy, and the certificate is the peel read
    backwards: that cycle's seed, then per step a subdivide along the run,
    or a cycle seed per glued run and a glue at (a, b) with the rest as
    child 0.  It is a proof.  Read forward from the all-heavy seed, each step
    gives its new edges the weights the peel gave them (path edges heavy, a
    glued edge light) and keeps every other edge's flags, so each step
    meets its hypothesis (a Subdivide target weighs 1, a glued edge delta-1
    in every part), and check_replay proves that the replay is G.

    The worklist holds vertices of degree 2, and a walked-vertex set skips
    those a run was already walked through.  No step raises a degree, so a
    walked path changes only when an end drops to degree 2, which queues
    it, and a heavy edge between ends stays.  Each run is taken when it is
    found, and a map from end pairs to their runs holds those waiting at a
    light edge for a Glue.
    """
    light = {frozenset(G.endpoints(e)) for e in _sp_reducible(G)}
    adj = _adjacency(G)
    runs = {}  # frozenset({a, b}) of a light edge -> the runs waiting there
    walked = set()  # vertices walked through; degree 2 until deleted
    work = deque(v for v in G.vertices if len(adj[v]) == 2)
    peeled = []  # (run, runs glued or None) in peel order: the last step first
    while work:
        run = _run(adj, work.popleft(), delta, walked)
        if run is None or len(run) != delta or any(frozenset(e) in light for e in zip(run, run[1:])):
            continue  # too long, too short, a cycle, or with a light edge
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
            _delete(adj, r[1:-1])
        peeled.append((run, glued))
        work.extend(w for w in (a, b) if len(adj[w]) == 2)
    if len(adj) != delta or light or any(len(nbrs) != 2 for nbrs in adj.values()):
        raise InternalContradiction(
            f"the Glue/Subdivide peel stops at {len(adj)} vertices, not at an all-heavy C{delta}"
        )
    nodes = [_cycle_seed(_ring(adj))]
    for run, glued in reversed(peeled):
        if glued is None:
            nodes.append(Node("subdivide", labels=run, delta=delta))
        else:
            nodes += [_cycle_seed(list(r)) for r in glued]
            nodes.append(Node("glue", labels=(run[0], run[-1]), delta=delta))
    return nodes


def _attach_peel(H: Multigraph, delta: int) -> Optional[tuple]:
    """The certificate of a simple 2-connected H's construction from K2 by
    attaching (delta+1)-cycles, its replay unchecked, or None when H has
    none.

    A peel removes the inner vertices of a removable run: a maximal run of
    delta-1 vertices of degree 2 whose ends are adjacent.  When none is
    left, C_{delta+1} peels down to K2, and H is constructible exactly when
    the peel reaches K2, whichever run each step takes.  Let L be the path
    attached last and R any other removable run: both are maximal runs of
    degree-2 vertices, so they are disjoint and R stays removable in H-L;
    by induction H-R = attach(H-L-R, L), except when H-L is C_{delta+1},
    and then H-R is C_{delta+1} as well.  The certificate, in H's labels,
    is a K2 seed on the two vertices left and one attach_cycle node per
    peeled path, the last peeled first.

    The worklist holds vertices of degree 2, and a walked-vertex set skips
    those a run was already walked through.  A peel adds no edge and
    changes only its ends' degrees, so a run changes only by growing
    through an end that drops to degree 2, and re-queuing that end finds
    every run that becomes removable.
    """
    adj = _adjacency(H)
    walked = set()  # vertices walked through; degree 2 until deleted
    work = deque(v for v in H.vertices if len(adj[v]) == 2)
    peeled = []  # paths (a, inner.., b) in peel order: the last attached first
    while work:
        path = _run(adj, work.popleft(), delta, walked)
        if path is None or len(path) != delta + 1 or path[-1] not in adj[path[0]]:
            continue  # too long, too short, a cycle, or ends that are not adjacent
        _delete(adj, path[1:-1])
        peeled.append(path)
        work.extend(w for w in (path[0], path[-1]) if len(adj[w]) == 2)
    if len(adj) == delta + 1 and all(len(nbrs) == 2 for nbrs in adj.values()):
        peeled.append(tuple(_ring(adj)))  # C_{delta+1}, whose ends are adjacent
        _delete(adj, peeled[-1][1:-1])
    if len(adj) != 2:
        return None
    nodes = [Node("seed", labels=tuple(sorted(adj, key=label_key)), seed="k2")]
    nodes += [Node("attach_cycle", labels=path, delta=delta) for path in reversed(peeled)]
    return post_order(nodes)


def decompose(G: Multigraph, delta: int):
    """(certificate, None) if a 2-connected simple G decomposes at delta,
    else (None, witness).  The replay is checked exactly.

    The nodes come from _collide_peel at delta = 2 and from _glue_peel
    above it.  A block with a K4 minor, on which the series-parallel
    reduction gets stuck, is Gorenstein only at delta = 2
    (baseck.base_verdict), so above 2 it answers no_candidate_delta before
    any peel.  Only a stuck peel runs check_spade, to name the violated
    good flat; if it finds none, the stuck state stands as
    InternalContradiction.
    """
    if delta >= 3 and _sp_reducible(G) is None:
        return None, Witness("no_candidate_delta")
    try:
        nodes = _collide_peel(G) if delta == 2 else _glue_peel(G, delta)
    except InternalContradiction as stuck:
        witness = check_spade(G, delta)
        if witness is None:
            raise InternalContradiction(str(stuck)) from stuck
        return None, witness
    cert = post_order(nodes)
    check_replay(G, cert)
    return cert, None


def decompose_base(G: Multigraph, delta: int) -> tuple:
    """Certificate for a 2-connected simple graph satisfying the equalities at delta.

    Replaying it yields G exactly, as decompose checks; an input
    that does not decompose raises ConstructionError naming decompose's
    witness.
    """
    if not is_two_connected(G):
        raise ConstructionError("decompose_base requires a 2-connected graph")
    if not G.is_simple():
        raise ConstructionError("decompose_base requires a simple graph")
    cert, viol = decompose(G, delta)
    if viol is not None:
        raise ConstructionError(
            f"input does not decompose at delta={delta}: {viol.as_dict()}"
        )
    return cert


# -- serialization ------------------------------------------------------------


def _node_to_dict(node: Node) -> dict:
    """One node of the /3 list, keys in the order the format lists them."""
    op = node.op
    if op == "seed":
        return {"op": op, "seed": node.seed, "vertices": list(node.labels)}
    if op == "blow_up":
        return {"op": op, "m": node.m, "child": node.children[0]}
    out = {"op": op} if op == "collide" else {"op": op, "delta": node.delta}
    if op in ("glue", "collide"):
        return {**out, "children": list(node.children), "edge": list(node.labels)}
    return {**out, "child": node.children[0], "path": list(node.labels)}


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


def _labels(d: dict, key: str) -> tuple:
    """d[key], a list of vertex labels, each an int or a string, as a tuple;
    an edge has two.  Else ConstructionError."""
    labels = _field(d, key, list)
    if any(type(x) not in (int, str) for x in labels) or (key == "edge" and len(labels) != 2):
        raise ConstructionError(
            f"certificate field {key!r} is not a list of int or string labels of the right length"
        )
    return tuple(labels)


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
            node = Node(op, labels=_labels(d, "vertices"), seed=_field(d, "seed", str))
        elif op in ("glue", "collide"):
            children = tuple(take(i) for i in _field(d, "children", list))
            delta = None if op == "collide" else _field(d, "delta", int)
            node = Node(op, children, _labels(d, "edge"), delta)
        elif op in ("subdivide", "attach_cycle"):
            delta = _field(d, "delta", int)
            node = Node(op, (take(d.get("child")),), _labels(d, "path"), delta)
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
