"""Command-line front end.

Subcommands: check (combinatorial checker), oracle (exact polytope oracle),
certify (construction certificate for positive instances), generate (run a
construction), sweep (exhaustive small-graph cross-validation).  Verdicts are
JSON on stdout; DOT drawings are optional side outputs.

Exit codes: 0 verdict produced, 1 parse error, 2 resource guard exceeded,
3 certify on a non-Gorenstein input, 4 typed input or usage error (e.g. the
base checker on a multigraph, or an option value out of range), 5 internal
contradiction (a state the classification theorems rule out).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

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
from .graph import DEFAULT_GUARD, Multigraph, blocks, format_edge_list, low_link, normalize, parse_graph

# Every command parses with .graph and main maps .errors to exit codes; the
# other layers are imported inside the commands that run them, so a process
# compiles and imports only what its subcommand needs.

VERDICT_SCHEMA = "gorcheck.verdict/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GUARD = 2
EXIT_NOT_GORENSTEIN = 3
EXIT_INPUT = 4
EXIT_CONTRADICTION = 5


def _checker(kind: str):
    """The verdict function of one polytope kind, imported when it runs."""
    if kind == "base":
        from .baseck import base_verdict

        return base_verdict
    from .indepck import indep_verdict

    return indep_verdict


def _load_graph(path: str) -> Multigraph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _header(args, G: Multigraph) -> dict:
    """The keys a check, oracle or certify report opens with."""
    H = normalize(G)  # the graph the verdict is about: parsing keeps loops
    summary = {
        "vertices": G.n,
        "edges": G.m,
        "loops_removed": G.m - H.m,
        "simple": G.is_simple(),
        "blocks": len(low_link(H).blocks),
    }
    return {"schema": VERDICT_SCHEMA, "command": args.command, "kind": args.kind, "input": summary}


def _write(text: str) -> None:
    """Write text to stdout and flush it.

    A reader that has gone away (`gorcheck ... | head`) is not an error: the
    rest of the output is dropped and the command keeps its own exit code.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that reach /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: dict) -> None:
    _write(json.dumps(report, indent=2, default=str) + "\n")


def _dot(G: Multigraph, delta=None) -> str:
    """DOT export; edges colored by weight (1 vs delta-1) when delta is given."""
    lines = ["graph G {"]
    weights = {}
    if delta is not None:
        from .baseck import weight_function

        try:
            for b in blocks(normalize(G)):
                if b.m >= 2:
                    weights.update(weight_function(b, delta))
        except GorcheckError:
            weights = {}
    for eid, u, v in sorted(G.edges):
        attrs = []
        if eid in weights:
            w = weights[eid]
            color = "black" if w == 1 else "red"
            attrs.append(f'color={color}, label="{w}"')
        attr = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{u}" -- "{v}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _maybe_dot(args, G: Multigraph, delta=None) -> None:
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(_dot(G, delta))


def cmd_check(args) -> int:
    G = _load_graph(args.file)
    verdict = _checker(args.kind)
    t0 = time.perf_counter()
    v = verdict(G)
    extra = {} if args.kind == "base" else {"m": v.multiplicity}
    report = {
        **_header(args, G),
        "status": v.status,
        "delta": v.delta,
        **extra,
        "witness": v.witness.as_dict() if v.witness else None,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report)
    _maybe_dot(args, G, v.delta)
    return EXIT_OK


def cmd_oracle(args) -> int:
    # normality_probe raises the same, but only after the polytope, its
    # facets, the Gorenstein search and h* are built
    if args.normality is not None and args.normality < 2:
        raise ValueError("kmax must be >= 2")
    from .oracle import FACET_VERTEX_GUARD, gorenstein_search, hstar, normality_probe, polytope_of

    G = _load_graph(args.file)
    t0 = time.perf_counter()
    kind = "independence" if args.kind == "indep" else "base"
    # every report needs facets: stop at the first vertex over
    # FACET_VERTEX_GUARD, which both facet routes refuse, before the block
    # lattice is read and proved and the coordinates are built
    P = polytope_of(G, kind, guard=FACET_VERTEX_GUARD)
    facets = P.require_facets()
    witness = gorenstein_search(P)
    report = {
        **_header(args, G),
        "polytope": {
            "vertices": len(P.vertices),
            "dim": P.dim,
            "facets": len(facets),
            "lattice_saturated": P.lattice_saturated,
        },
        "status": "gorenstein" if witness else "not_gorenstein",
        "delta": witness.delta if witness else None,
        "witness_point": list(witness.v) if witness else None,
    }
    if args.hstar:
        h = hstar(P)
        report["hstar"] = {
            "coefficients": list(h.coefficients),
            "palindromic": h.palindromic,
        }
    if args.normality is not None:
        bad = normality_probe(P, args.normality)
        report["normality"] = (
            "pass" if bad is None else {"k": bad[0], "point": list(bad[1])}
        )
    report["elapsed_s"] = round(time.perf_counter() - t0, 6)
    _emit(report)
    _maybe_dot(args, G)
    return EXIT_OK


def cmd_certify(args) -> int:
    from .construct import cert_to_dict

    G = _load_graph(args.file)
    v = _checker(args.kind)(G)
    if v.is_gorenstein:
        body = {
            "status": v.status,
            "delta": v.delta,
            # each certificate's replay was checked to be its block exactly
            # where the verdict built it (construct.decompose, or
            # indep_verdict for each base graph), which raises
            # InternalContradiction on a mismatch
            "certificates": [
                {**cert_to_dict(cert), "replay_matched": True, "replay_check": "exact"}
                for cert in v.certificates
            ],
        }
    else:
        body = {"status": v.status, "witness": v.witness.as_dict() if v.witness else None}
    # certificates grow with the graph: no indentation, no spaces
    _write(json.dumps({**_header(args, G), **body}, separators=(",", ":"), default=str) + "\n")
    _maybe_dot(args, G, v.delta)
    return EXIT_OK if v.is_gorenstein else EXIT_NOT_GORENSTEIN


# how many input graphs each generate op takes; None: one or more
GENERATE_INPUTS = {"seed": 0, "glue": None, "subdivide": 1, "collide": 2, "attach": 1, "blowup": 1}


def cmd_generate(args) -> int:
    want, got = GENERATE_INPUTS[args.op], len(args.inputs)
    if (got < 1) if want is None else (got != want):
        what = "at least 1 input graph" if want is None else f"{want} input graph{'s' * (want != 1)}"
        raise ValueError(f"generate {args.op} takes {what}, got {got}")
    from .construct import (
        Seed, attach_cycle, blow_up, collide, glue, part_weights, replay, subdivide,
    )

    if args.op == "seed":
        if args.cycle is not None and args.k4:
            raise ValueError("--cycle and --k4 are mutually exclusive")
        if args.cycle is not None:
            if args.cycle > DEFAULT_GUARD:  # before Seed lists its labels
                raise GuardExceeded(
                    f"cycle seed guarded at {DEFAULT_GUARD} vertices; asked for {args.cycle}"
                )
            G = replay(Seed("cycle", range(args.cycle)))
        elif args.k4:
            G = replay(Seed("k4"))
        else:
            G = replay(Seed("k2"))
    elif args.op == "glue":
        parts = [_load_graph(p) for p in args.inputs]
        chosen = []
        for i, g in enumerate(parts, 1):
            w = part_weights(g, args.delta, f"glue part {i}")
            heavy = [e for e, wt in sorted(w.items()) if wt == args.delta - 1]
            if not heavy:
                raise ConstructionError("part has no weight-(delta-1) edge to glue on")
            chosen.append((g, heavy[0]))
        G = glue(chosen, args.delta)
    elif args.op == "subdivide":
        g = _load_graph(args.inputs[0])
        w = part_weights(g, args.delta, "subdivide part 1")
        light = [e for e, wt in sorted(w.items()) if wt == 1]
        if not light:
            raise ConstructionError("no weight-1 edge to subdivide")
        G = subdivide(g, light[0], args.delta)
    elif args.op == "collide":
        g1, g2 = (_load_graph(p) for p in args.inputs)
        G = collide(g1, sorted(g1.edge_by_id)[0], g2, sorted(g2.edge_by_id)[0])
    elif args.op == "attach":
        g = _load_graph(args.inputs[0])
        G = attach_cycle(g, sorted(g.edge_by_id)[0], args.delta)
    else:
        G = blow_up(_load_graph(args.inputs[0]), args.m)
    text = format_edge_list(G)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _write(text)
    v = _checker("base" if G.is_simple() else "indep")(G)
    sys.stderr.write(f"verdict: {v.status} delta={v.delta}\n")
    _maybe_dot(args, G, v.delta)
    return EXIT_OK


def _sweep_one(payload):
    """Classify one graph; must stay top-level picklable for process pools."""
    idx, edges, kind, cross = payload
    G = Multigraph.build(sorted({x for _, u, v in edges for x in (u, v)}), [
        (u, v) for _, u, v in edges
    ])
    row = {"index": idx, "edges": [[u, v] for _, u, v in edges]}
    if kind == "indep-equivalence":
        from .indepck import check_chordal_k4free, check_club, recognize_cycle_construction

        agreements = []
        for d in range(2, 9):
            club = check_club(G, d) is None
            ch = check_chordal_k4free(G, d) is None
            rec = recognize_cycle_construction(G, d) is not None
            agreements.append(club == ch == rec)
        row["three_way_agree"] = all(agreements)
        row["mismatch"] = not row["three_way_agree"]
        return row
    v = _checker(kind)(G)
    row["status"] = v.status
    row["delta"] = v.delta
    row["mismatch"] = False
    if cross:
        from .oracle import FACET_VERTEX_GUARD, gorenstein_search, polytope_of

        P = polytope_of(
            G, "base" if kind == "base" else "independence", guard=FACET_VERTEX_GUARD
        )
        w = gorenstein_search(P)
        odelta = w.delta if w else None
        cdelta = v.delta
        if v.is_gorenstein and cdelta is None:
            cdelta = odelta  # point polytope: compatible with the oracle's delta
        row["oracle_delta"] = odelta
        row["mismatch"] = (v.is_gorenstein, cdelta) != (w is not None, odelta)
    return row


def cmd_sweep(args) -> int:
    if args.max_vertices < 2:
        raise ValueError("--max-vertices must be >= 2")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.cross_validate and args.kind == "indep-equivalence":
        raise ValueError("--cross-validate does not apply to --kind indep-equivalence")
    limit = 6 if args.cross_validate else 7
    if args.max_vertices > limit:
        raise GuardExceeded(
            f"sweep guarded at {limit} vertices"
            + (" with cross-validation" if args.cross_validate else "")
        )
    from .smallgraphs import two_connected_graphs

    graphs = two_connected_graphs(args.max_vertices)
    payloads = [
        (i, list(g.edges), args.kind, args.cross_validate)
        for i, g in enumerate(graphs)
    ]
    # a pool forks all its workers at the first submit: only those that can work
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, payloads))
    else:
        rows = [_sweep_one(p) for p in payloads]
    rows.sort(key=lambda r: r["index"])  # deterministic regardless of --jobs
    census: dict = {}
    for row in rows:
        if "delta" in row:
            if row.get("status") != "gorenstein":
                key = "none"
            elif row["delta"] is None:
                key = "any"  # point polytope, Gorenstein at every index
            else:
                key = str(row["delta"])
            census[key] = census.get(key, 0) + 1
    mismatches = [r for r in rows if r["mismatch"]]
    _emit(
        {
            "schema": VERDICT_SCHEMA,
            "command": "sweep",
            "kind": args.kind,
            "max_vertices": args.max_vertices,
            "graphs": len(rows),
            "census_by_delta": dict(sorted(census.items())),
            "mismatches": len(mismatches),
            "mismatch_rows": mismatches,
        }
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit EXIT_INPUT: exit 2 means a tripped guard."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gorcheck",
        description="Gorenstein classification of graphic matroid polytopes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--dot", help="write a DOT drawing to this path")

    c = sub.add_parser("check", help="combinatorial checker")
    c.add_argument("kind", choices=["base", "indep"])
    c.add_argument("file")
    add_common(c)
    c.set_defaults(func=cmd_check)

    o = sub.add_parser("oracle", help="exact lattice-polytope oracle")
    o.add_argument("kind", choices=["base", "indep"])
    o.add_argument("file")
    o.add_argument("--hstar", action="store_true")
    o.add_argument("--normality", type=int, default=None, metavar="KMAX")
    add_common(o)
    o.set_defaults(func=cmd_oracle)

    ct = sub.add_parser("certify", help="construction certificate")
    ct.add_argument("kind", choices=["base", "indep"])
    ct.add_argument("file")
    add_common(ct)
    ct.set_defaults(func=cmd_certify)

    g = sub.add_parser("generate", help="run a construction")
    g.add_argument("op", choices=list(GENERATE_INPUTS))
    g.add_argument("inputs", nargs="*")
    g.add_argument("--delta", type=int, default=3)
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--cycle", type=int, default=None)
    g.add_argument("--k4", action="store_true")
    g.add_argument("--output", "-o", default=None)
    add_common(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sweep", help="exhaustive small-graph verification")
    s.add_argument("--max-vertices", type=int, default=6)
    s.add_argument(
        "--kind", choices=["base", "indep", "indep-equivalence"], default="base"
    )
    s.add_argument("--cross-validate", action="store_true")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # on a large graph a command builds millions of small objects and frees
    # few of them before it ends, so the cyclic collector's passes, which
    # grow with the live heap, find next to nothing: pause it meanwhile
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except GuardExceeded as exc:
        sys.stderr.write(f"guard exceeded: {exc}\n")
        return EXIT_GUARD
    except (SimpleGraphRequired, NotTwoConnected, WeightConflict, ConstructionError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalContradiction as exc:
        sys.stderr.write(f"internal contradiction: {exc}\n")
        return EXIT_CONTRADICTION
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
