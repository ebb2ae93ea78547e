"""Verdict digest: one sha256 per input family over the verdicts of both kinds.

    PYTHONPATH=src python tests/digest.py [--certs]

prints one line per family: its name, its input count and the sha256 of one
record per input and kind, "base" then "indep".  A record holds the
verdict's status, delta, multiplicity (None on the base side) and witness
dict, or the type and message of the error the verdict raised.  With
--certs a record also holds each certificate's cert_to_json, so two trees
print the same digests exactly when their verdicts, witnesses and errors
(and, with --certs, their certificates) agree input by input.

The families:
- atlas: every networkx atlas graph up to 7 vertices with an edge
- pool:<name>: the graphs of each perfbench/corpus/<name>.json pool, which
  are only read; a cli-cold input that does not parse is left out
- ladder: the tests/ladder.py positives of 4 to 24 vertices at delta = 2..5
  and the in-order chain, and the attach-cycle trees at delta = 2 and 3,
  over three seeds, each with its with_chord and edge_swap negatives

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

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


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


def digest(graphs, certs: bool = False) -> str:
    """The sha256 of the records of graphs, in order."""
    h = hashlib.sha256()
    for G in graphs:
        h.update(record(G, certs).encode() + b"\n")
    return h.hexdigest()


def families() -> dict:
    """Each family's name and its graphs."""
    out = {"atlas": atlas()}
    for path in sorted((ROOT / "perfbench" / "corpus").glob("*.json")):
        out[f"pool:{path.stem}"] = pool(path)
    out["ladder"] = ladder()
    return out


if __name__ == "__main__":
    certs = "--certs" in sys.argv[1:]
    for name, graphs in families().items():
        print(name, len(graphs), digest(graphs, certs), flush=True)
