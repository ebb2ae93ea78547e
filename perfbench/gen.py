"""Seeded input generators for the four benchmark workloads.

Nothing here imports gorcheck: the inputs, and the delta each positive was
built for, come from the construction theorems alone, so they can serve as an
independent reference for the checkers.  Every pool generator takes its
seed and draws from its own ``random.Random``; the same seed gives the same
inputs.

A graph is a pair ``(vertices, edges)``: a list of labels and a list of
``(u, v)`` pairs, parallel edges repeated.  ``relabel`` applies a seeded
random permutation (and, for some inputs, string labels) and shuffles the edge
order, so no decomposition can lean on construction order.
"""

from __future__ import annotations

import itertools
import random

# -- small graph helpers -------------------------------------------------------


def _adj(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected(vs, adj, drop=None):
    vs = [v for v in vs if v != drop]
    if not vs:
        return False
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w != drop and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def two_connected(n, edges):
    """Connected, >= 2 vertices, no cut vertex; K2 counts as 2-connected."""
    adj = _adj(n, edges)
    vs = list(range(n))
    if n < 2 or not _connected(vs, adj):
        return False
    if n == 2:
        return bool(edges)
    return all(_connected(vs, adj, drop=v) for v in vs)


def _contract(n, edges, i):
    """Contract edge i: its endpoints merge; loops vanish, parallels stay."""
    a, b = edges[i]
    keep, gone = min(a, b), max(a, b)

    def f(x):
        x = keep if x == gone else x
        return x - 1 if x > gone else x

    out = [(f(u), f(v)) for j, (u, v) in enumerate(edges) if j != i]
    return n - 1, [(u, v) for u, v in out if u != v]


def edge_classes(n, edges):
    """(light, heavy) edge indices of a 2-connected simple graph.

    Light: deleting the edge keeps the graph 2-connected (weight 1).
    Heavy: only contracting it does (weight delta-1).
    """
    light, heavy = [], []
    for i in range(len(edges)):
        if two_connected(n, edges[:i] + edges[i + 1:]):
            light.append(i)
        elif two_connected(*_contract(n, edges, i)):
            heavy.append(i)
    return light, heavy


# -- base side: Glue / Subdivide / Collide certificates ---------------------------


def cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def k4():
    return 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _merge(parts, drop_edge):
    """Identify one oriented edge per part into a single edge (kept or dropped)."""
    n = 2
    edges = []
    for (pn, pedges), (u, v) in parts:
        lab = {u: 0, v: 1}
        for x in range(pn):
            if x not in lab:
                lab[x] = n
                n += 1
        edges.extend(
            (lab[a], lab[b]) for a, b in pedges if {a, b} != {u, v}
        )
    if not drop_edge:
        edges.append((0, 1))
    return n, edges


def random_base_graph(rng, depth, delta):
    """Replay a random certificate at delta; returns (n, edges).

    Seeds are C_delta (delta >= 3) or K4 (delta = 2); delta = 2 combines by
    Collide, larger delta by Glue of delta-1 parts along weight-(delta-1)
    edges or by Subdividing a weight-1 edge into delta-1 edges.
    """
    if depth == 0 or rng.random() < 0.3:
        return k4() if delta == 2 else cycle(delta)
    if delta == 2:
        kids = [random_base_graph(rng, depth - 1, 2) for _ in range(2)]
        parts = []
        for kn, kedges in kids:
            u, v = rng.choice(kedges)
            parts.append(((kn, kedges), (u, v) if rng.random() < 0.5 else (v, u)))
        return _merge(parts, drop_edge=True)
    if rng.random() < 0.5:
        parts = []
        for _ in range(delta - 1):
            kn, kedges = random_base_graph(rng, depth - 1, delta)
            _, heavy = edge_classes(kn, kedges)
            u, v = kedges[rng.choice(heavy)]
            parts.append(((kn, kedges), (u, v) if rng.random() < 0.5 else (v, u)))
        return _merge(parts, drop_edge=False)
    kn, kedges = random_base_graph(rng, depth - 1, delta)
    light, _ = edge_classes(kn, kedges)
    if not light:
        return kn, kedges  # seeds have no weight-1 edge to subdivide
    i = rng.choice(light)
    u, v = kedges[i]
    path = [u] + list(range(kn, kn + delta - 2)) + [v]
    edges = kedges[:i] + kedges[i + 1:] + list(zip(path, path[1:]))
    return kn + delta - 2, edges


def chain(blocks, rng, bridges):
    """Join 2-connected blocks in a chain: by a K2 bridge or a shared cut vertex."""
    n, edges = blocks[0]
    for (bn, bedges), bridge in zip(blocks[1:], bridges):
        hinge = rng.randrange(n)
        if bridge:
            # a bridge from the chain to a fresh copy of the block
            off = n
            edges = edges + [(hinge, off + rng.randrange(bn))]
            edges = edges + [(a + off, b + off) for a, b in bedges]
            n += bn
        else:
            pivot = rng.randrange(bn)
            lab = {pivot: hinge}
            nxt = n
            for x in range(bn):
                if x != pivot:
                    lab[x] = nxt
                    nxt += 1
            edges = edges + [(lab[a], lab[b]) for a, b in bedges]
            n = nxt
    return n, edges


def add_chord(rng, n, edges):
    """Add one edge between two non-adjacent vertices, or None if complete."""
    present = {frozenset(e) for e in edges}
    pairs = [
        (a, b) for a, b in itertools.combinations(range(n), 2)
        if frozenset((a, b)) not in present
    ]
    if not pairs:
        return None
    return n, edges + [rng.choice(pairs)]


# -- independence side: AttachCycle trees and blow-ups -----------------------------


def attach_tree(rng, delta, attaches):
    """K2 plus `attaches` (delta+1)-cycles, each on a random existing edge."""
    n, edges = 2, [(0, 1)]
    for _ in range(attaches):
        u, v = rng.choice(edges)
        path = [u] + list(range(n, n + delta - 1)) + [v]
        edges = edges + list(zip(path, path[1:]))
        n += delta - 1
    return n, edges


def blow_up(edges, m):
    return [e for e in edges for _ in range(m)]


# -- labels ------------------------------------------------------------------------


def relabel(rng, n, edges, strings):
    """Random vertex permutation (string labels if asked), shuffled edge list."""
    perm = list(range(n))
    rng.shuffle(perm)
    if strings:
        names = [f"{rng.choice('abcdefgh')}{i}" for i in perm]
    else:
        names = perm
    out = [
        (names[u], names[v]) if rng.random() < 0.5 else (names[v], names[u])
        for u, v in edges
    ]
    rng.shuffle(out)
    vertices = list(names)
    rng.shuffle(vertices)
    return vertices, out


# -- workload pools ------------------------------------------------------------------

BASE_SIZES = {6: 12, 7: 12, 8: 11, 9: 10, 10: 9, 11: 7, 12: 5, 13: 3, 14: 2}


def _size_ok(rng, n, weights):
    """Accept a graph of n vertices with probability weights[n] / max weight."""
    return n in weights and rng.random() * max(weights.values()) < weights[n]


def base_pool(seed, count):
    """Inputs for base-certify: ~3/4 certificate-built positives, ~1/4 chorded negatives.

    Each item: {"graph", "cert_delta" (positives only), "origin"}.  Vertex
    counts (6..14) are drawn with the weights in BASE_SIZES, skewed small so
    a run sees enough ops; some positives are multi-block chains with K2
    bridges.  Negatives are a positive plus one chord, or C_n plus a chord.
    """
    rng = random.Random(seed)
    items = []
    while len(items) < count:
        delta = rng.randint(2, 5)
        roll = rng.random()
        if roll < 0.15:
            # multi-block chain: two or three blocks, some joined by K2 bridges
            blocks = [
                random_base_graph(rng, rng.randint(0, 1), delta)
                for _ in range(rng.randint(2, 3))
            ]
            g = chain(blocks, rng, [rng.random() < 0.5 for _ in blocks[1:]])
            origin, cert_delta = "chain", delta
        elif roll < 0.80:
            g = random_base_graph(rng, rng.randint(1, 3), delta)
            origin, cert_delta = "cert", delta
        elif roll < 0.92:
            g = add_chord(rng, *random_base_graph(rng, rng.randint(1, 3), delta))
            origin, cert_delta = "cert+chord", None
        else:
            g = add_chord(rng, *cycle(rng.randint(6, 14)))
            origin, cert_delta = "cycle+chord", None
        if g is None or not _size_ok(rng, g[0], BASE_SIZES):
            continue
        items.append({
            "graph": relabel(rng, *g, strings=rng.random() < 0.3),
            "cert_delta": cert_delta,
            "origin": origin,
        })
    return items


INDEP_BASE_SIZES = {6: 10, 7: 10, 8: 10, 9: 9, 10: 8, 11: 6, 12: 4, 13: 3, 14: 2}


def indep_pool(seed, count):
    """Inputs for indep-certify: ~70% uniform blow-ups of attach trees, ~30% negatives.

    Positives are (delta-1)-fold blow-ups of AttachCycle trees with 6..14 base
    vertices, delta = 2..5; some are two trees sharing a cut vertex or joined
    by a bridge.  Negatives: a chord in the base graph (K4 minor or a wrong
    chordless cycle), one edge class with an extra copy (non-uniform
    multiplicity), or one parallel copy removed.
    """
    rng = random.Random(seed)
    sizes = [s for s, w in INDEP_BASE_SIZES.items() for _ in range(w)]
    items = []
    while len(items) < count:
        target = rng.choice(sizes)
        delta = rng.randint(2, 5)
        if (target - 2) % (delta - 1):
            continue
        attaches = (target - 2) // (delta - 1)
        if rng.random() < 0.15 and attaches >= 2:
            a = rng.randint(1, attaches - 1)
            t1 = attach_tree(rng, delta, a)
            t2 = attach_tree(rng, delta, attaches - a)
            bridge = rng.random() < 0.4
            g = chain([t1, t2], rng, [bridge])
            origin = "tree-chain"
        else:
            g = attach_tree(rng, delta, attaches)
            origin = "tree"
        n, base = g
        if not 6 <= n <= 14:
            continue
        m = delta - 1
        roll = rng.random()
        cert_delta = None
        if roll < 0.70:
            edges, cert_delta = blow_up(base, m), delta
        elif roll < 0.82:
            chorded = add_chord(rng, n, base)
            if chorded is None:
                continue
            edges, origin = blow_up(chorded[1], m), origin + "+chord"
        elif roll < 0.91 or m == 1:
            edges = blow_up(base, m) + [rng.choice(base)]
            origin += "+extra-copy"
        else:
            edges = blow_up(base, m)
            edges.remove(rng.choice(base))
            origin += "-one-copy"
        items.append({
            "graph": relabel(rng, n, edges, strings=rng.random() < 0.3),
            "cert_delta": cert_delta,
            "origin": origin,
        })
    return items


def atlas_two_connected(max_vertices, max_edges=None):
    """2-connected simple graphs up to isomorphism, in networkx atlas order."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if not 2 <= n <= max_vertices or g.number_of_edges() == 0:
            continue
        if max_edges is not None and g.number_of_edges() > max_edges:
            continue
        edges = sorted(tuple(sorted(e)) for e in g.edges())
        if two_connected(n, edges):
            out.append((n, edges))
    return out


def oracle_pool(seed):
    """Inputs for oracle-xval: every 2-connected graph on <= 6 vertices, both kinds,
    plus the h* family (<= 6 edges: base of G, independence of m-fold blow-ups
    with m |E| <= 6)."""
    rng = random.Random(seed)
    items = []
    for n, edges in atlas_two_connected(6):
        g = relabel(rng, n, edges, strings=rng.random() < 0.3)
        for kind in ("base", "independence"):
            items.append({"op": "xval", "kind": kind, "graph": g})
    for n, edges in atlas_two_connected(6, max_edges=6):
        g = relabel(rng, n, edges, strings=rng.random() < 0.3)
        items.append({"op": "hstar", "kind": "base", "graph": g})
        for m in (1, 2, 3):
            if m * len(edges) <= 6:
                vs, es = relabel(rng, n, blow_up(edges, m), strings=rng.random() < 0.3)
                items.append({"op": "hstar", "kind": "independence", "graph": (vs, es)})
    return items


def cli_pool(seed, count):
    """Invocations for cli-cold on <= 6-vertex inputs.

    Each item: {"argv": arguments after `-m gorcheck.cli`, with "{file}" for
    the input path, "text": input file contents}.  Mix: check and certify on
    both kinds, oracle base, a parse error, a multigraph given to
    `check base`, and `oracle base --normality 1`.
    """
    rng = random.Random(seed)
    small = atlas_two_connected(6)
    tiny = [g for g in small if len(g[1]) <= 6]
    items = []
    while len(items) < count:
        roll = rng.random()
        if roll < 0.40:
            kind = rng.choice(["base", "indep"])
            cmd = rng.choice(["check", "certify"])
            n, edges = rng.choice(small)
            if kind == "indep":
                edges = blow_up(edges, rng.randint(1, 2))
            argv = [cmd, kind, "{file}"]
        elif roll < 0.70:
            n, edges = rng.choice(tiny)
            argv = ["oracle", "base", "{file}"]
        elif roll < 0.80:
            items.append({"argv": ["check", rng.choice(["base", "indep"]), "{file}"],
                          "text": "# malformed\n1 2\n2 3 x\n"})
            continue
        elif roll < 0.90:
            n, edges = rng.choice(small)
            edges = blow_up(edges, 2)
            argv = ["check", "base", "{file}"]
        else:
            n, edges = rng.choice(tiny)
            argv = ["oracle", "base", "{file}", "--normality", "1"]
        vs, es = relabel(rng, n, edges, strings=rng.random() < 0.3)
        text = "".join(f"{u} {v}\n" for u, v in es)
        items.append({"argv": argv, "text": text})
    return items
