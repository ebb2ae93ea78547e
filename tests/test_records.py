"""The record types are NamedTuples: what the rest of the code relies on.

Each record prints as `Name(field=value, ...)`, equal records hash equal,
fields cannot be assigned, and the records `sweep --jobs` sends between
processes survive pickling.
"""

import pickle

import pytest

from conftest import complete, cycle
from gorcheck.baseck import BaseVerdict, Witness, base_verdict, candidate_deltas
from gorcheck.flats import GoodFlat
from gorcheck.graph import BlowUpFactor, Multigraph
from gorcheck.indepck import IndepVerdict
from gorcheck.oracle import Facet, GorensteinWitness, HStarVector, polytope_of
from test_graph import Ear, EarScan

C3_REPR = "Multigraph(vertices=(0, 1, 2), edges=((0, 0, 1), (1, 1, 2), (2, 0, 2)))"
EAR_REPR = "Ear(path=('a', 'x', 'c'), edge_ids=(4, 5))"


def _records():
    """(build, repr) per record type; build() makes a fresh, equal record each call."""
    c3 = lambda: Multigraph.build(range(3), [(0, 1), (1, 2), (0, 2)])  # noqa: E731
    ear = lambda: Ear(("a", "x", "c"), (4, 5))  # noqa: E731
    return [
        (c3, C3_REPR),
        (ear, EAR_REPR),
        (lambda: EarScan(False, (ear(),)), f"EarScan(is_cycle=False, ears=({EAR_REPR},))"),
        (lambda: BlowUpFactor(2, c3()), f"BlowUpFactor(multiplicity=2, base_graph={C3_REPR})"),
        (lambda: GoodFlat((0, 1, 2), (0, 1, 2)), "GoodFlat(S=(0, 1, 2), induced_edges=(0, 1, 2))"),
        (lambda: Witness("flat_equality_violated", (0, 1), 3, 4),
         "Witness(kind='flat_equality_violated', flat=(0, 1), lhs=3, rhs=4)"),
        (lambda: BaseVerdict("not_gorenstein", None, Witness("no_candidate_delta")),
         "BaseVerdict(status='not_gorenstein', delta=None, witness=Witness("
         "kind='no_candidate_delta', flat=None, lhs=None, rhs=None), certificates=())"),
        (lambda: IndepVerdict("gorenstein", 3, 2, ((c3(), None),)),
         "IndepVerdict(status='gorenstein', delta=3, multiplicity=2, per_block=(("
         f"{C3_REPR}, None),), witness=None, certificates=())"),
        (lambda: Facet((0, 1), -1), "Facet(a=(0, 1), b=-1)"),
        (lambda: GorensteinWitness(2, (1, 1, 0)), "GorensteinWitness(delta=2, v=(1, 1, 0))"),
        (lambda: HStarVector((1, 2, 1)), "HStarVector(coefficients=(1, 2, 1))"),
    ]


@pytest.mark.parametrize(
    "build, text", _records(), ids=[text.partition("(")[0] for _, text in _records()]
)
def test_record_repr_hash_and_immutability(build, text):
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and a is not b and hash(a) == hash(b)
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    assert a == b


def test_facets_sort_by_a_then_b():
    facets = [Facet((1, 0), 0), Facet((0, 1), -1), Facet((-1, -1), 2), Facet((0, 1), 0),
              Facet((-1, 0), 1)]
    assert sorted(facets) == [
        Facet((-1, -1), 2), Facet((-1, 0), 1), Facet((0, 1), -1), Facet((0, 1), 0),
        Facet((1, 0), 0),
    ]


def test_multigraph_caches_fill_and_survive_pickling():
    G = complete(4).without_edges((0,))  # K4 - e: its candidates run the reduction
    assert "adjacency" not in G.__dict__
    adjacency = G.adjacency
    assert G.__dict__["adjacency"] is adjacency and G.adjacency is adjacency
    candidate_deltas(G)
    assert "_light" in G.__dict__
    H = pickle.loads(pickle.dumps(G))
    assert type(H) is Multigraph and H == G and repr(H) == repr(G)
    assert H.adjacency == adjacency and H.sorted_vertices == G.sorted_vertices


def test_base_verdict_survives_pickling():
    v = base_verdict(complete(4))
    assert v.is_gorenstein and v.certificates
    w = pickle.loads(pickle.dumps(v))
    assert type(w) is BaseVerdict and w == v and repr(w) == repr(v)


def test_lattice_polytope_stores_its_facets():
    P = polytope_of(cycle(3), "base")
    assert P.facets is None
    facets = P.require_facets()
    assert P.facets is facets and P.require_facets() is facets
