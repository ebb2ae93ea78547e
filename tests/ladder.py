"""Seeded base- and independence-polytope positives of any size.

Nothing here imports gorcheck: each positive is built by the paper's
constructions, so the delta it was built for and its weight-1 ("light")
edges follow from the construction theorems alone, with no 2-connectivity
test.  The tests compare the checkers with them; BENCH_20.json times
`gorcheck certify base` on them, and BENCH_21.json `indep_verdict` on the
attach-cycle trees.

A positive is (vertices, edges, delta, light): vertex labels, a list of
(u, v) pairs and the indexes of its light edges in that list.  Three kinds:
- delta >= 3: C_delta, grown at random by Glue (delta-2 fresh C_delta on a
  heavy edge, which becomes light) and Subdivide (a light edge becomes a
  path of delta-1 heavy edges)
- delta = 2: a chain of K4s joined by Collide, every edge light
- "chain": the in-order delta = 3 chain, labels and edge order unshuffled

An independence positive (kind "attach<delta>", delta >= 2) is the
(delta-1)-fold blow-up of an attach-cycle tree: K2, then paths of delta
edges attached to random edges, relabelled at random.

with_chord (one added non-edge) and edge_swap (one edge moved to a
non-edge) make negatives from a positive's edges; an edge swap can, rarely,
stay positive.

    python tests/ladder.py KIND N [SEED]

prints the positive of KIND (2, 3, 4, ..., chain, or attach2, attach3, ...)
with about N vertices as an edge list.
"""

from __future__ import annotations

import random
import sys
from itertools import islice


def grown(rng, delta: int, n: int):
    """(n', edges, light) for delta >= 3, with n <= n' < n + (delta-2)^2.

    Each step draws the k-th light or non-light edge index, k =
    rng.randrange(count), which is rng.choice's draw over the sorted
    indexes; a Fenwick tree over the light flags finds it in O(log m)."""
    edges = [(i, (i + 1) % delta) for i in range(delta)]
    light, size = set(), delta
    # a K4-minor-free simple graph has at most 2n'-3 edges
    tree = [0] * (2 * (n + (delta - 2) ** 2) + 1)  # Fenwick tree: 1 at light indexes

    def flip(i, d):
        i += 1
        while i < len(tree):
            tree[i] += d
            i += i & -i

    def kth(k, lit):
        """The k-th (from 0) index whose light flag is lit."""
        pos, step = 0, 1 << (len(tree) - 1).bit_length()
        while step:
            if pos + step < len(tree):
                count = tree[pos + step] if lit else step - tree[pos + step]
                if count <= k:
                    pos += step
                    k -= count
            step >>= 1
        return pos

    while size < n:
        if light and rng.random() < 0.5:
            i = kth(rng.randrange(len(light)), True)
            u, v = edges[i]
            path = [u, *range(size, size + delta - 2), v]
            edges[i] = (u, path[1])
            edges += list(zip(path[1:], path[2:]))
            light.remove(i)
            flip(i, -1)
            size += delta - 2
        else:
            i = kth(rng.randrange(len(edges) - len(light)), False)
            u, v = edges[i]
            for _ in range(delta - 2):
                path = [u, *range(size, size + delta - 2), v]
                edges += list(zip(path, path[1:]))
                size += delta - 2
            light.add(i)
            flip(i, 1)
    return size, edges, light


def k4_chain(rng, n: int):
    """(n', edges, light) for delta = 2: K4, then Collide with a fresh K4 on
    a random edge until there are n' >= n vertices."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    size = 4
    while size < n:
        u, v = edges.pop(rng.randrange(len(edges)))
        x, y = size, size + 1
        edges += [(u, x), (u, y), (v, x), (v, y), (x, y)]
        size += 2
    return size, edges, set(range(len(edges)))


def in_order_chain(rounds: int):
    """(n, edges, light) for the delta = 3 chain: C3, then `rounds` times glue
    a triangle on the newest edge and subdivide the edge it was glued on;
    3 + 2 * rounds vertices, every edge heavy."""
    edges = [(0, 1), (1, 2), (0, 2)]
    a, b, n = 1, 2, 3
    for r in range(rounds):
        del edges[-1 if r else 1]  # (a, b): C3's edge 1, then the last edge added
        edges += [(a, n), (n, b), (a, n + 1), (n + 1, b)]
        a, n = n + 1, n + 2
    return n, edges, set()


def relabel(rng, n: int, edges, light):
    """Random vertex labels, edge order and orientation; light follows its edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = []
    for i in order:
        u, v = edges[i]
        out.append((perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]))
    return perm, out, {k for k, i in enumerate(order) if i in light}


def positive(kind, n: int, seed: int = 0):
    """The positive of kind (a delta, or "chain") with about n vertices."""
    if kind == "chain":
        size, edges, light = in_order_chain(max(0, (n - 2) // 2))
        return list(range(size)), edges, 3, light
    rng = random.Random(seed)
    vertices, edges, light = relabel(rng, *(k4_chain(rng, n) if kind == 2 else grown(rng, kind, n)))
    return vertices, edges, kind, light


def attach_tree(rng, delta: int, n: int):
    """(n', edges) for an independence positive: K2, then a path of delta
    edges between the ends of a random edge until there are n' >= n
    vertices."""
    edges, size = [(0, 1)], 2
    while size < n:
        u, v = rng.choice(edges)
        path = [u, *range(size, size + delta - 1), v]
        edges += list(zip(path, path[1:]))
        size += delta - 1
    return size, edges


def attach_positive(delta: int, n: int, seed: int = 0):
    """(vertices, edges, delta): the (delta-1)-fold blow-up of an
    attach-cycle tree with about n vertices, whose independence polytope is
    Gorenstein at delta."""
    rng = random.Random(seed)
    size, edges = attach_tree(rng, delta, n)
    vertices, edges, _ = relabel(rng, size, [e for e in edges for _ in range(delta - 1)], set())
    return vertices, edges, delta


def with_chord(rng, vertices, edges):
    """edges plus one edge between two non-adjacent vertices, or None.

    The pair is rng.choice's draw over the non-adjacent pairs (a, b), a
    before b in vertices, listed by a then b: the k-th, k =
    rng.randrange(count), found from each vertex's count of later
    non-neighbours without listing the pairs."""
    pos = {v: i for i, v in enumerate(vertices)}
    later = [[] for _ in vertices]  # per vertex, the positions of its later neighbours
    for i, j in {tuple(sorted((pos[u], pos[v]))) for u, v in edges if u != v}:
        later[i].append(j)
    counts = [len(vertices) - 1 - i - len(js) for i, js in enumerate(later)]
    if not any(counts):
        return None
    k = rng.randrange(sum(counts))
    i = 0
    while k >= counts[i]:
        k -= counts[i]
        i += 1
    taken = set(later[i])
    j = next(islice((j for j in range(i + 1, len(vertices)) if j not in taken), k, None))
    return edges + [(vertices[i], vertices[j])]


def edge_swap(rng, vertices, edges):
    """with_chord, then one random edge of edges deleted, or None: the
    vertex and edge counts stay, so a delta = 2 positive keeps m = 2(n-1)."""
    out = with_chord(rng, vertices, edges)
    if out is not None:
        del out[rng.randrange(len(edges))]
    return out


if __name__ == "__main__":
    kind, n = sys.argv[1], int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    if kind.startswith("attach"):
        _, edges, _ = attach_positive(int(kind[len("attach"):]), n, seed)
    else:
        _, edges, _, _ = positive(kind if kind == "chain" else int(kind), n, seed)
    sys.stdout.write("".join(f"{u} {v}\n" for u, v in edges))
