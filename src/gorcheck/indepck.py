"""Combinatorial decision procedure for Gorensteinness of the independence polytope.

A graph qualifies exactly when it is the uniform (delta-1)-fold parallel
blow-up of a simple graph whose 2-connected blocks are all built from K2 by
repeatedly attaching (delta+1)-cycles to edges.  indep_verdict decides each
block's base graph by peeling such cycles off in any order
(construct._attach_peel; recognize_cycle_construction adds the input checks),
checks the replay, and explains a failing block with the chordality witness
of check_chordal_k4free.
The flat equalities (check_club) and the chordality test are equivalent
characterizations, kept for the sweeps and the tests.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .baseck import Witness
from .construct import BlowUp, _attach_peel, check_replay
from .errors import InternalContradiction, NotTwoConnected
from .flats import indecomposable_flats, induced_edge_ids
from .graph import (
    Multigraph,
    blocks,
    blow_up_factor,
    induced_cycles,
    is_k4_minor_free,
    is_two_connected,
    normalize,
)


def _require_simple_block(H: Multigraph):
    if not H.is_simple():
        raise ValueError("checker requires a simple graph")
    if not is_two_connected(H):
        raise NotTwoConnected("checker requires a 2-connected graph")


def check_club(H: Multigraph, delta: int) -> Optional[Witness]:
    """Verify (delta-1)|E(S)|+1 = delta(|S|-1) over all indecomposable flats.

    S = V is included; K2 passes for every delta.  None means pass, otherwise
    the first failing flat in deterministic enumeration order is reported.
    """
    _require_simple_block(H)
    if delta < 2:
        raise ValueError("delta must be >= 2")
    for S in indecomposable_flats(H):
        lhs = (delta - 1) * len(induced_edge_ids(H, S)) + 1
        rhs = delta * (len(S) - 1)
        if lhs != rhs:
            return Witness("club_violated", flat=S, lhs=lhs, rhs=rhs)
    return None


def check_chordal_k4free(H: Multigraph, delta: int) -> Optional[Witness]:
    """Structural equivalent of the flat equalities: chordality plus no K4 minor.

    H must have no K4 minor, every chordless cycle must have length delta+1,
    and the number of chordless cycles must equal the cycle rank |E|-|V|+1.
    The count condition is needed for the equivalence: each cycle attachment
    raises the cycle rank by one and contributes exactly one new chordless
    cycle, so any excess chordless cycle (e.g. the three 4-cycles of K_{2,3},
    whose rank is 2) betrays a graph that is not constructible.  K2 passes
    vacuously.  The minor check runs first, so K4 itself reports
    k4_minor_found rather than its wrong triangles.  A block with |V| = |E|
    is a cycle, its own one chordless cycle: no subset table is built.
    """
    _require_simple_block(H)
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not is_k4_minor_free(H):
        return Witness("k4_minor_found")
    cycles = [H.vertices] if H.n == H.m else induced_cycles(H)
    for cyc in cycles:
        if len(cyc) != delta + 1:
            return Witness("wrong_chordless_cycle", lhs=len(cyc), rhs=delta + 1)
    rank = H.m - H.n + 1
    if len(cycles) != rank:
        return Witness("excess_chordless_cycles", lhs=len(cycles), rhs=rank)
    return None


def recognize_cycle_construction(H: Multigraph, delta: int) -> Optional[tuple]:
    """Certificate building H from K2 by attaching (delta+1)-cycles, or None.

    H must be simple (else ValueError) and 2-connected (else
    NotTwoConnected), and delta >= 2.  The certificate comes from
    construct._attach_peel, in H's labels, and its replay is checked to be
    H exactly before returning.
    """
    _require_simple_block(H)
    if delta < 2:
        raise ValueError("delta must be >= 2")
    cert = _attach_peel(H, delta)
    if cert is not None:
        check_replay(H, cert)
    return cert


class IndepVerdict(NamedTuple):
    status: str  # "gorenstein" | "not_gorenstein"
    delta: Optional[int]
    multiplicity: Optional[int]
    per_block: tuple  # of (block, simple base graph H or None)
    witness: Optional[Witness] = None
    certificates: tuple = ()  # one per block when Gorenstein, in per_block order

    @property
    def is_gorenstein(self) -> bool:
        return self.status == "gorenstein"


def indep_verdict(G: Multigraph) -> IndepVerdict:
    """Classify P(M(G)) for a multigraph.

    Every block must be the m-fold blow-up of a simple graph for one shared m;
    delta = m+1 is forced, and every base block must be constructible from K2
    by attaching (delta+1)-cycles.  The first block that is not gets its
    witness from check_chordal_k4free; finding no violation there raises
    InternalContradiction.  A Gorenstein verdict keeps each block's checked
    certificate, wrapped in BlowUp when m > 1: the block is its base graph
    with every edge m-fold, and so is the BlowUp's replay of the base
    graph's replay.  A graph with no edge left after normalize has a point
    polytope, Gorenstein at every index: delta and m are None, as in
    base_verdict's all-wildcard verdict.
    """
    G = normalize(G)
    blks = blocks(G)
    if not blks:
        return IndepVerdict("gorenstein", None, None, ())
    factored = []
    for b in blks:
        f = blow_up_factor(b)
        if f is None:
            return IndepVerdict(
                "not_gorenstein",
                None,
                None,
                tuple((bb, None) for bb in blks),
                Witness("non_uniform_multiplicity"),
            )
        factored.append(f)
    mults = {f.multiplicity for f in factored}
    per_block = tuple((b, f.base_graph) for b, f in zip(blks, factored))
    if len(mults) > 1:
        return IndepVerdict(
            "not_gorenstein", None, None, per_block,
            Witness("non_uniform_multiplicity"),
        )
    m = mults.pop()
    delta = m + 1
    certs = []
    for _, H in per_block:  # simple by construction, 2-connected by its block's record
        cert = _attach_peel(H, delta)
        if cert is None:
            witness = check_chordal_k4free(H, delta)
            if witness is None:
                raise InternalContradiction(
                    f"a block that is not constructible at delta={delta} is "
                    f"chordal and K4-minor-free"
                )
            return IndepVerdict("not_gorenstein", None, m, per_block, witness)
        check_replay(H, cert)
        certs.append(BlowUp(cert, m) if m > 1 else cert)
    return IndepVerdict("gorenstein", delta, m, per_block, certificates=tuple(certs))
