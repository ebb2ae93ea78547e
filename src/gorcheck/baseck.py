"""Combinatorial decision procedure for Gorensteinness of the base polytope.

The check is block-wise: each 2-connected block must carry the forced weight
function w: E -> {1, delta-1} (weight 1 when deleting the edge keeps the block
2-connected, delta-1 when contracting does) and satisfy the good-flat
equalities, all at one shared delta.  Bridges contribute point polytopes and
are compatible with every delta.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import InternalContradiction, NotTwoConnected, SimpleGraphRequired, WeightConflict
from .flats import good_flats, indecomposable_flats, block_count_after_contraction, induced_edge_ids
from .graph import Multigraph, _sp_reducible, blocks, is_two_connected, low_link, normalize


class AllDeltas:
    """Sentinel candidate set for blocks whose base polytope is a point."""

    def __repr__(self):
        return "ALL_DELTAS"

    def __contains__(self, item):
        return True


ALL_DELTAS = AllDeltas()


class Witness(NamedTuple):
    """Replayable violation: kind plus the offending object and both sides."""

    # base side: no_candidate_delta (no delta fits every block's counts; a
    #   block with a K4 minor fits only 2) | total_weight_mismatch
    #   | flat_equality_violated; independence side: club_violated
    #   | k4_minor_found | wrong_chordless_cycle | excess_chordless_cycles
    #   | non_uniform_multiplicity
    kind: str
    flat: Optional[tuple] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.flat is not None:
            out["flat"] = list(self.flat)
        if self.lhs is not None:
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        return out


class BaseVerdict(NamedTuple):
    status: str  # "gorenstein" | "not_gorenstein"
    delta: Optional[int]
    witness: Optional[Witness] = None
    certificates: tuple = ()  # one per block when Gorenstein, in blocks() order

    @property
    def is_gorenstein(self) -> bool:
        return self.status == "gorenstein"


def _require_block(G: Multigraph):
    """A graph whose edges get weights: 2-connected, simple, >= 2 edges."""
    if not is_two_connected(G):
        raise NotTwoConnected("checker operations require a 2-connected graph")
    if not G.is_simple():
        raise SimpleGraphRequired(
            "base checker requires a simple graph; use the oracle for multigraphs"
        )
    if G.m < 2:
        raise ValueError("edge_facet_profile requires at least 2 edges")


def edge_facet_profile(G: Multigraph) -> dict:
    """Per edge: (deletion stays 2-connected, contraction stays 2-connected).

    On a K4-minor-free block exactly one flag holds, and the series-parallel
    reduction reads it off (graph._sp_reducible); a block with a K4 minor
    takes one low-link pass per vertex (_profile_by_passes), which no
    verdict, decomposition or construction asks for.
    """
    _require_block(G)
    light = _sp_reducible(G)
    if light is None:
        return _profile_by_passes(G)
    return {eid: (eid in light, eid not in light) for eid in sorted(G.edge_by_id)}


def _profile_by_passes(G: Multigraph) -> dict:
    """edge_facet_profile by one low-link pass of G-x per vertex x, which
    gives both flags, because G is 2-connected, so G-x and G-e are
    connected (n >= 3 here):
    - G-e has a cut vertex x exactly when e is a bridge of G-x for some x
      outside e, since (G-e)-x = (G-x)-e.
    - G/e is 2-connected exactly when G-{u,v} is connected, e = uv, since
      (G/e)-x = (G-x)/e is connected for any other vertex x; and G-{u,v} is
      connected exactly when v is not a cut vertex of G-u.
    For a 2-connected simple graph with >= 2 edges at least one flag holds
    for every edge; both flags failing is an internal contradiction.
    """
    passes = {x: low_link(G, skip=x) for x in G.vertices}
    bridged = set().union(*(ll.bridges for ll in passes.values()))
    profile = {}
    for eid, u, v in sorted(G.edges):
        del_ok = eid not in bridged
        con_ok = v not in passes[u].cut_vertices
        if not (del_ok or con_ok):
            raise InternalContradiction(
                f"edge {eid}: neither deletion nor contraction is 2-connected"
            )
        profile[eid] = (del_ok, con_ok)
    return profile


def weight_function(G: Multigraph, delta: int) -> dict:
    """The forced weights at delta, {edge id: weight} in edge-id order, or
    WeightConflict.

    An edge whose deletion and contraction are both 2-connected is forced to
    weight 1 and to weight delta-1 simultaneously, which is consistent only
    for delta = 2.  At delta = 2 every weight is 1, so no profile is read;
    G is checked as edge_facet_profile checks it.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if delta == 2:
        _require_block(G)
        return dict.fromkeys(sorted(G.edge_by_id), 1)
    weights = {}
    for eid, (del_ok, con_ok) in edge_facet_profile(G).items():
        if del_ok and con_ok:
            raise WeightConflict(eid, delta)
        weights[eid] = 1 if del_ok else delta - 1
    return weights


def candidate_deltas(G: Multigraph) -> Union[frozenset, AllDeltas]:
    """The deltas at which the block G can be Gorenstein, by its edge counts.

    A K2 block has a point polytope and returns the ALL_DELTAS sentinel.
    A block with a K4 minor is Gorenstein only at delta = 2 (base_verdict),
    where its |E| weights of 1 must total 2(|V|-1); a simple K4-minor-free
    block has at most 2|V|-3 edges, so that count alone gives {2}, with no
    reduction.  Otherwise G's one series-parallel reduction decides: a block
    with a K4 minor has no candidate, and a K4-minor-free block has a light
    and b heavy edges, and a + b(delta-1) = delta(|V|-1) has one solution
    or none, counted in [3, |E|+1] since w(E) <= (delta-1)|E|: b = |V|-1
    would need a = b, so 2(|V|-1) edges, more than such a block has.
    """
    if G.n == 2 and G.m == 1:
        return ALL_DELTAS
    _require_block(G)
    if G.m == 2 * (G.n - 1):
        return frozenset({2})
    light = _sp_reducible(G)
    if light is None:
        return frozenset()
    a = len(light)
    b = G.m - a
    num, den = b - a, b - (G.n - 1)
    if den and num % den == 0 and 3 <= num // den <= G.m + 1:
        return frozenset({num // den})
    return frozenset()


def check_spade(G: Multigraph, delta: int) -> Optional[Witness]:
    """Verify the good-flat equality system at delta; None means pass.

    Checks w(E) = delta(|V|-1) and w(E(S)) + 1 = delta(|S|-1) for every good
    flat S, reporting the first failure in deterministic enumeration order.
    """
    w = weight_function(G, delta)
    total = sum(w.values())
    if total != delta * (G.n - 1):
        return Witness(
            "total_weight_mismatch", lhs=total, rhs=delta * (G.n - 1)
        )
    for flat in good_flats(G):
        lhs = sum(w[e] for e in flat.induced_edges) + 1
        rhs = delta * (len(flat.S) - 1)
        if lhs != rhs:
            return Witness("flat_equality_violated", flat=flat.S, lhs=lhs, rhs=rhs)
    return None


def check_heart(G: Multigraph, delta: int) -> Optional[Witness]:
    """Verify w(E(S)) + k(S) = delta(|S|-1) over all 2-connected S (S = V included)."""
    w = weight_function(G, delta)
    for S in indecomposable_flats(G):
        k = block_count_after_contraction(G, S)
        lhs = sum(w[e] for e in induced_edge_ids(G, S)) + k
        rhs = delta * (len(S) - 1)
        if lhs != rhs:
            return Witness("flat_equality_violated", flat=S, lhs=lhs, rhs=rhs)
    return None


def base_verdict(G: Multigraph) -> BaseVerdict:
    """Classify B(M(G)) for a simple graph, block by block.

    Gorenstein iff one delta works for every block simultaneously; K2 blocks
    are wildcards.  delta is None when every block is a wildcard (the polytope
    is a point, Gorenstein at every index).

    Each other block fixes its delta, as candidate_deltas reads it off: K4
    minors split the constructions, since C_delta is series-parallel, and
    Glue (a 2-sum) and Subdivide keep a graph K4-minor-free (Duffin 1965),
    while Collide keeps every K4 seed as a K4 subdivision.  So a block with
    a K4 minor is Gorenstein only at delta = 2, with |E| = 2(|V|-1), and a
    K4-minor-free block only at the one delta >= 3 its light and heavy edge
    counts give.  The blocks' candidate sets meet in at most one delta;
    when they meet in none the witness is no_candidate_delta.  Otherwise
    construct.decompose decides every block at that delta once, in blocks()
    order, and a Gorenstein verdict keeps their certificates; check_spade
    only names a stuck block's flat, the one place a block over
    SUBSET_GUARD_VERTICES raises GuardExceeded.
    """
    from .construct import Seed, decompose  # construct imports this module

    G = normalize(G)
    if not G.is_simple():
        raise SimpleGraphRequired(
            "base checker requires a simple graph; use the oracle for multigraphs"
        )
    blks = blocks(G)
    big = [b for b in blks if b.n > 2]
    if not big:
        certs = tuple(Seed("k2", b.sorted_vertices) for b in blks)
        return BaseVerdict("gorenstein", None, certificates=certs)
    common = frozenset.intersection(*map(candidate_deltas, big))
    if not common:
        return BaseVerdict("not_gorenstein", None, Witness("no_candidate_delta"))
    (delta,) = common
    certs = []
    for b in blks:
        cert, witness = (Seed("k2", b.sorted_vertices), None) if b.n == 2 else decompose(b, delta)
        if witness is not None:
            return BaseVerdict("not_gorenstein", None, witness)
        certs.append(cert)
    return BaseVerdict("gorenstein", delta, certificates=tuple(certs))
