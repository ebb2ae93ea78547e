"""Gorenstein classification of graphic matroid base and independence polytopes.

`import gorcheck` loads no submodule.  Each public name is imported from its
submodule on first use (PEP 562), so a process compiles and imports only the
layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baseck": (
        "ALL_DELTAS", "BaseVerdict", "Witness", "base_verdict", "candidate_deltas",
        "check_heart", "check_spade", "edge_facet_profile", "weight_function",
    ),
    "construct": (
        "AttachCycle", "BlowUp", "Collide", "Glue", "Node", "Seed", "Subdivide",
        "attach_cycle", "blow_up", "cert_from_json", "cert_to_json",
        "collide", "decompose_base", "glue", "replay", "replay_matches", "subdivide",
    ),
    "errors": (
        "ConstructionError", "GorcheckError", "GuardExceeded", "InternalContradiction",
        "NotTwoConnected", "ParseError", "SimpleGraphRequired", "WeightConflict",
    ),
    "flats": ("GoodFlat", "good_flats", "indecomposable_flats"),
    "graph": (
        "Multigraph", "blocks", "blow_up_factor", "format_edge_list",
        "is_two_connected", "normalize", "parse_graph",
    ),
    "indepck": (
        "IndepVerdict", "check_chordal_k4free", "check_club", "indep_verdict",
        "recognize_cycle_construction",
    ),
    "oracle": (
        "Facet", "GorensteinWitness", "HStarVector", "LatticePolytope",
        "facets_bruteforce", "facets_from_cor33", "gorenstein_search", "hstar",
        "lattice_points", "normality_probe", "polytope_of", "product_polytope",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
