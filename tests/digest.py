"""Verdict digest: one sha256 per input family over the verdicts of both kinds.

    PYTHONPATH=src python tests/digest.py [--certs] [--oracle] [--sweep]

prints one line per family: its name, its input count and the sha256 of one
record per input and kind, "base" then "indep".  A record holds the
verdict's status, delta, multiplicity (None on the base side) and witness
dict, or the type and message of the error the verdict raised.  With
--certs a record also holds each certificate's cert_to_json, so two trees
print the same digests exactly when their verdicts, witnesses and errors
(and, with --certs, their certificates) agree input by input.

With --oracle two more families follow, whose records come from the exact
oracle instead (oracle_record): both polytopes of each graph, with their
vertex count, dim, lattice basis, sorted facets and Gorenstein witness, the
facets and the witness under FACET_VERTEX_GUARD, or the error's type and
message.

The families:
- atlas: every networkx atlas graph up to 7 vertices with an edge
- pool:<name>: the graphs of each perfbench/corpus/<name>.json pool, which
  are only read; a cli-cold input that does not parse is left out
- ladder: the tests/ladder.py positives of 4 to 24 vertices at delta = 2..5
  and the in-order chain, and the attach-cycle trees at delta = 2 and 3,
  over three seeds, each with its with_chord and edge_swap negatives
- oracle:atlas: with --oracle, every 2-connected atlas graph up to 6
  vertices
- oracle:pool:oracle-xval: with --oracle, the graphs of that pool
- sweep: with --sweep, the exit code and stdout of each SWEEPS command, run
  in process through gorcheck.cli.main; its count is the number of commands

tests/test_cli.py runs it on the atlas up to 4 vertices.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from ladder import attach_positive, edge_swap, positive, with_chord

from gorcheck.baseck import base_verdict
from gorcheck.construct import cert_to_json
from gorcheck.errors import ParseError
from gorcheck.graph import Multigraph, parse_graph
from gorcheck.indepck import indep_verdict
from gorcheck.oracle import gorenstein_search, polytope_of

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SWEEPS = (
    ["--max-vertices", "7"],
    ["--max-vertices", "7", "--kind", "indep"],
    ["--max-vertices", "7", "--kind", "indep-equivalence"],
    ["--max-vertices", "7", "--jobs", "2"],
    ["--max-vertices", "5", "--cross-validate"],
    ["--max-vertices", "5", "--cross-validate", "--kind", "indep"],
)


def record(G: Multigraph, certs: bool) -> str:
    """The base and independence verdicts of G, one JSON line each."""
    lines = []
    for kind, verdict in (("base", base_verdict), ("indep", indep_verdict)):
        try:
            v = verdict(G)
        except Exception as err:  # every error is part of the record
            out = {"error": type(err).__name__, "message": str(err)}
        else:
            out = {
                "status": v.status,
                "delta": v.delta,
                "m": getattr(v, "multiplicity", None),
                "witness": v.witness.as_dict() if v.witness else None,
            }
            if certs:
                out["certificates"] = [cert_to_json(cert) for cert in v.certificates]
        lines.append(json.dumps({"kind": kind, **out}, sort_keys=True))
    return "\n".join(lines)


def oracle_record(G: Multigraph) -> str:
    """B(M(G)) and P(M(G)) as the oracle sees them, one JSON line each.

    polytope_of runs at its default guard, so a polytope over the facet
    guard still records its vertex count, dim and basis; its facets and
    witness are then the facet guard's error.
    """
    lines = []
    for kind in ("base", "independence"):
        out = {"kind": kind}
        try:
            P = polytope_of(G, kind)
            out.update(vertices=len(P.vertices), dim=P.dim, basis=P.lattice_basis)
            out["facets"] = P.require_facets()
            w = gorenstein_search(P)
            out["witness"] = None if w is None else [w.delta, w.v]
        except Exception as err:  # every error is part of the record
            out.update(error=type(err).__name__, message=str(err))
        lines.append(json.dumps(out, sort_keys=True))
    return "\n".join(lines)


def atlas(max_vertices: int = 7) -> list:
    """Every atlas graph up to max_vertices vertices with an edge."""
    from networkx.generators.atlas import graph_atlas_g

    return [
        Multigraph.build(range(g.number_of_nodes()), sorted(tuple(sorted(e)) for e in g.edges()))
        for g in graph_atlas_g()
        if 0 < g.number_of_edges() and g.number_of_nodes() <= max_vertices
    ]


def pool(path: Path) -> list:
    """The graphs of one perfbench corpus pool that parse, in item order."""
    out = []
    for item in json.loads(path.read_text())["items"]:
        if "graph" in item:
            out.append(Multigraph.build(item["graph"][0], [tuple(e) for e in item["graph"][1]]))
            continue
        try:
            out.append(parse_graph(item["text"]))
        except ParseError:
            pass
    return out


def ladder() -> list:
    """The ladder positives and attach trees, each followed by its negatives."""
    out = []
    for seed in SEEDS:
        made = [positive(kind, n, seed)[:2] for kind in (2, 3, 4, 5, "chain") for n in range(4, 25, 4)]
        made += [attach_positive(delta, n, seed)[:2] for delta in (2, 3) for n in range(4, 25, 4)]
        rng = random.Random(seed)
        for vertices, edges in made:
            out.append(Multigraph.build(vertices, edges))
            for negative in (with_chord, edge_swap):
                more = negative(rng, vertices, edges)
                if more is not None:
                    out.append(Multigraph.build(vertices, more))
    return out


def digest(graphs, certs: bool = False, of=None) -> str:
    """The sha256 of the records of graphs, in order; of, if given, makes
    each record in place of record."""
    h = hashlib.sha256()
    for G in graphs:
        h.update((of(G) if of else record(G, certs)).encode() + b"\n")
    return h.hexdigest()


def families() -> dict:
    """Each family's name and its graphs."""
    out = {"atlas": atlas()}
    for path in sorted((ROOT / "perfbench" / "corpus").glob("*.json")):
        out[f"pool:{path.stem}"] = pool(path)
    out["ladder"] = ladder()
    return out


def oracle_families() -> dict:
    """The --oracle families' names and graphs."""
    from gorcheck.smallgraphs import two_connected_graphs

    return {
        "oracle:atlas": two_connected_graphs(6),
        "oracle:pool:oracle-xval": pool(ROOT / "perfbench" / "corpus" / "oracle-xval.json"),
    }


def sweep_digest() -> str:
    """The sha256 of the exit code and stdout of each SWEEPS command."""
    import contextlib
    import io

    from gorcheck.cli import main

    h = hashlib.sha256()
    for argv in SWEEPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["sweep", *argv])
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


if __name__ == "__main__":
    certs = "--certs" in sys.argv[1:]
    for name, graphs in families().items():
        print(name, len(graphs), digest(graphs, certs), flush=True)
    if "--oracle" in sys.argv[1:]:
        for name, graphs in oracle_families().items():
            print(name, len(graphs), digest(graphs, of=oracle_record), flush=True)
    if "--sweep" in sys.argv[1:]:
        print("sweep", len(SWEEPS), sweep_digest(), flush=True)
