"""Gorenstein classification of graphic matroid base and independence polytopes."""

from .baseck import (
    ALL_DELTAS,
    BaseVerdict,
    WeightAssignment,
    Witness,
    base_verdict,
    candidate_deltas,
    check_heart,
    check_spade,
    edge_facet_profile,
    weight_function,
)
from .construct import (
    AttachCycle,
    BlowUp,
    Collide,
    EdgeRef,
    Glue,
    Node,
    Seed,
    Subdivide,
    attach_cycle,
    blow_up,
    cert_from_json,
    cert_to_json,
    collide,
    decompose_base,
    glue,
    replay,
    replay_matches,
    subdivide,
)
from .errors import (
    ConstructionError,
    GorcheckError,
    GuardExceeded,
    InternalContradiction,
    NotTwoConnected,
    ParseError,
    SimpleGraphRequired,
    WeightConflict,
)
from .flats import GoodFlat, good_flats, indecomposable_flats
from .graph import (
    Multigraph,
    blocks,
    blow_up_factor,
    format_edge_list,
    is_two_connected,
    normalize,
    parse_graph,
)
from .indepck import (
    IndepVerdict,
    check_chordal_k4free,
    check_club,
    indep_verdict,
    recognize_cycle_construction,
)
from .oracle import (
    Facet,
    GorensteinWitness,
    HStarVector,
    LatticePolytope,
    facets_bruteforce,
    facets_from_cor33,
    gorenstein_search,
    hstar,
    lattice_points,
    normality_probe,
    polytope_of,
    product_polytope,
)

__version__ = "0.1.0"
