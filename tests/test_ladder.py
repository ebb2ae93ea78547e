"""tests/ladder.py against its first, quadratic generators.

The references below list every candidate index or pair and draw with
rng.choice; the ladder draws the same k with rng.randrange and finds the
k-th candidate without the list.  Both must give the same output and leave
the generator in the same state, for every kind, size and seed.
"""

import random

from ladder import attach_positive, edge_swap, grown, in_order_chain, positive, with_chord


def _grown_reference(rng, delta: int, n: int):
    edges = [(i, (i + 1) % delta) for i in range(delta)]
    light, size = set(), delta
    while size < n:
        if light and rng.random() < 0.5:
            i = rng.choice(sorted(light))
            u, v = edges[i]
            path = [u, *range(size, size + delta - 2), v]
            edges[i] = (u, path[1])
            edges += list(zip(path[1:], path[2:]))
            light.remove(i)
            size += delta - 2
        else:
            i = rng.choice([j for j in range(len(edges)) if j not in light])
            u, v = edges[i]
            for _ in range(delta - 2):
                path = [u, *range(size, size + delta - 2), v]
                edges += list(zip(path, path[1:]))
                size += delta - 2
            light.add(i)
    return size, edges, light


def _in_order_chain_reference(rounds: int):
    edges = [(0, 1), (1, 2), (0, 2)]
    a, b, n = 1, 2, 3
    for _ in range(rounds):
        edges.remove((a, b))
        edges += [(a, n), (n, b), (a, n + 1), (n + 1, b)]
        a, n = n + 1, n + 2
    return n, edges, set()


def _with_chord_reference(rng, vertices, edges):
    present = {frozenset(e) for e in edges}
    pairs = [
        (a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]
        if frozenset((a, b)) not in present
    ]
    return edges + [rng.choice(pairs)] if pairs else None


def _edge_swap_reference(rng, vertices, edges):
    out = _with_chord_reference(rng, vertices, edges)
    if out is not None:
        del out[rng.randrange(len(edges))]
    return out


def _same_draws(fast, reference, *args, seed):
    """fast and reference give the same output from the same seed, and
    leave the generator in the same state."""
    rngs = random.Random(seed), random.Random(seed)
    assert fast(rngs[0], *args) == reference(rngs[1], *args), (fast.__name__, args, seed)
    assert rngs[0].getstate() == rngs[1].getstate()


def test_ladder_matches_its_quadratic_references():
    for delta in (3, 4, 5, 7):
        for n in [*range(0, 90, 7), 150, 400]:
            for seed in range(3):
                _same_draws(grown, _grown_reference, delta, n, seed=seed)
    for rounds in range(12):
        assert in_order_chain(rounds) == _in_order_chain_reference(rounds)
    made = [positive(kind, n, seed)[:2] for kind in (2, 3, 5, "chain") for n in (4, 13, 40)
            for seed in range(3)]
    made += [attach_positive(delta, n, seed)[:2] for delta in (2, 3) for n in (4, 13) for seed in range(2)]
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    made += [(list(range(5)), k5), (list(range(5)), k5[1:]), (["a", "b"], [("a", "a")])]
    for seed, (vertices, edges) in enumerate(made):
        _same_draws(with_chord, _with_chord_reference, vertices, edges, seed=seed)
        _same_draws(edge_swap, _edge_swap_reference, vertices, edges, seed=seed)
    assert with_chord(random.Random(0), *made[-3]) is None

