"""One op per workload: run an input through gorcheck and observe its answer.

Each ``observe_*`` function takes a corpus item and returns a JSON-like dict
of what the program answered; exceptions propagate to the caller, which
classifies them.  gorcheck is imported inside the functions, so the cli-cold
caller never loads it, and functions are looked up on their modules at call
time, so the tracer's wrappers see every call.  ``check`` compares an observation with
the frozen reference and with the independent expectations of the item.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def _witness(w):
    if w is None:
        return None
    return {"kind": w.kind, "flat": list(w.flat) if w.flat is not None else None}


def _build(item):
    from gorcheck import graph

    vertices, edges = item["graph"]
    return graph.Multigraph.build(vertices, [tuple(e) for e in edges])


def observe_base(item):
    """`certify base` in process: verdict, then decompose and replay every block."""
    from gorcheck import baseck, construct, graph

    G = _build(item)
    v = baseck.base_verdict(G)
    out = {"status": v.status, "delta": v.delta, "witness": _witness(v.witness)}
    if v.is_gorenstein:
        out["replay_matched"] = all(
            construct.replay_matches(
                construct.Seed("k2") if b.n == 2 else construct.decompose_base(b, v.delta),
                b,
            )[0]
            for b in graph.blocks(graph.normalize(G))
        )
    return out


def observe_indep(item):
    """`certify indep` in process: verdict, then factor, recognize, blow up, replay."""
    from gorcheck import construct, graph, indepck

    G = _build(item)
    v = indepck.indep_verdict(G)
    out = {
        "status": v.status,
        "delta": v.delta,
        "m": v.multiplicity,
        "witness": _witness(v.witness),
    }
    if v.is_gorenstein:
        matched = True
        for b in graph.blocks(graph.normalize(G)):
            f = graph.blow_up_factor(b)
            cert = indepck.recognize_cycle_construction(f.base_graph, v.delta)
            if f.multiplicity > 1:
                cert = construct.BlowUp(cert, f.multiplicity)
            matched = matched and construct.replay_matches(cert, b)[0]
        out["replay_matched"] = matched
    return out


def observe_oracle(item):
    """One graph of `sweep --cross-validate`, or one polytope of the h* family."""
    from gorcheck import baseck, indepck, oracle

    G = _build(item)
    kind = item["kind"]
    if item["op"] == "hstar":
        P = oracle.polytope_of(G, kind)
        h = oracle.hstar(P)
        w = oracle.gorenstein_search(P)
        return {"hstar": list(h.coefficients), "oracle_delta": w.delta if w else None}
    v = baseck.base_verdict(G) if kind == "base" else indepck.indep_verdict(G)
    out = {"status": v.status, "delta": v.delta}
    P = oracle.polytope_of(G, kind)
    facets = P.require_facets()
    w = oracle.gorenstein_search(P)
    out["oracle_delta"] = w.delta if w else None
    out["polytope"] = [len(P.vertices), P.dim, len(facets)]
    return out


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def observe_cli(item, path, root, env):
    """Run `python -m gorcheck.cli` on one input in a fresh process."""
    argv = [a.replace("{file}", path) for a in item["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "gorcheck.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    out = {"exit": proc.returncode, "traceback": "Traceback" in proc.stderr}
    if proc.returncode in (0, 3):
        doc = json.loads(proc.stdout)
        for key in ("status", "delta", "m", "witness"):
            if key in doc:
                out[key] = doc[key]
        if "certificates" in doc:
            out["replay_matched"] = all(c["replay_matched"] for c in doc["certificates"])
    return out


def normalized(obs):
    """Tuples to lists and the like, so observations compare with stored JSON."""
    return json.loads(json.dumps(obs))


def independent_problems(workload, item, obs):
    """Disagreements with what the item's construction or the oracle implies."""
    problems = []
    if obs.get("replay_matched") is False:
        problems.append("certificate replay does not match")
    if item.get("cert_delta") is not None:
        if (obs.get("status"), obs.get("delta")) != ("gorenstein", item["cert_delta"]):
            problems.append(f"built at delta={item['cert_delta']}, got {obs.get('status')} {obs.get('delta')}")
    if workload == "oracle-xval":
        odelta = obs.get("oracle_delta")
        if item["op"] == "hstar":
            h = obs["hstar"]
            if (h == h[::-1]) != (odelta is not None):
                problems.append("h* palindromicity disagrees with the Gorenstein witness")
        else:
            gor = obs["status"] == "gorenstein"
            cdelta = obs["delta"]
            if gor and cdelta is None:
                cdelta = odelta  # point polytope: Gorenstein at every index
            if (gor, cdelta) != (odelta is not None, odelta):
                problems.append(f"checker {obs['status']} {obs['delta']} vs oracle {odelta}")
    if workload == "cli-cold":
        if obs["traceback"]:
            problems.append("traceback on stderr")
        want = item.get("exit_in")
        if want is not None and obs["exit"] not in want:
            problems.append(f"exit code {obs['exit']} not in {want}")
    return problems


def check(workload, item, obs):
    """Problems with one observation: reference digest first, then independent checks."""
    obs = normalized(obs)
    problems = [
        f"{key}: expected {want!r}, got {obs.get(key)!r}"
        for key, want in item["expect"].items()
        if obs.get(key) != want
    ]
    return problems + independent_problems(workload, item, obs)


def probe():
    """Call every traced function once on a tiny input.

    Traced runs end with this, so each function's span count and self time
    are measured on every workload, not only the ones that reach it.  A
    function the package no longer has, or whose call fails, is reported on
    stderr and skipped.
    """
    from gorcheck import graph

    M = graph.Multigraph
    c3 = M.build(range(3), [(0, 1), (1, 2), (0, 2)])
    c4 = M.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    k4 = M.build(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    c4x2 = M.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)] * 2)
    calls = [
        ("graph.is_two_connected", (k4,)),
        ("graph.blocks", (k4,)),
        ("graph.components", (k4,)),
        ("graph.induced_cycles", (c4,)),
        ("graph.is_k4_minor_free", (k4,)),
        ("graph.blow_up_factor", (c4x2,)),
        ("graph.bases_and_forests", (c3, "forests")),
        ("graph.is_isomorphic", (c4, c4)),
        ("graph.Multigraph.contract", (k4, [0])),
        ("graph.Multigraph.induced", (k4, [0, 1, 2])),
        ("flats.good_flats", (c4,)),
        ("flats.indecomposable_flats", (c4,)),
        ("baseck.base_verdict", (k4,)),
        ("baseck.candidate_deltas", (k4,)),
        ("baseck.weight_function", (k4, 2)),
        ("baseck.edge_facet_profile", (k4,)),
        ("baseck.check_spade", (k4, 2)),
        ("indepck.indep_verdict", (c4x2,)),
        ("indepck.check_club", (c4, 3)),
        ("indepck.check_chordal_k4free", (c4, 3)),
        ("indepck.recognize_cycle_construction", (c4, 3)),
        ("construct.decompose_base", (k4, 2)),
        ("construct.replay_detail", (None,)),
        ("construct.replay_matches", (None, k4)),
        ("construct.fingerprint", (k4,)),
        ("linalg.hnf_rows", ([[1, 0], [0, 1]],)),
        ("linalg.dual_extreme_rays", ([(0, 0, 1), (1, 0, 1), (0, 1, 1)],)),
        ("linalg.solve_unique", ([[1, 0], [0, 1]], [1, 2])),
        ("oracle.polytope_of", (c3, "base")),
        ("oracle.facets_bruteforce", (None,)),
        ("oracle.gorenstein_search", (None,)),
        ("oracle.lattice_points", (None, 2)),
        ("oracle.hstar", (None,)),
    ]
    found = {}  # results reused as inputs: the certificate and the polytope
    for qual, args in calls:
        mod, _, name = qual.partition(".")
        owner = sys.modules.get(f"gorcheck.{mod}")
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            print(f"probe: {qual} not found, skipped", file=sys.stderr)
            continue
        if args and args[0] is None:
            args = (found.get(mod),) + args[1:]
        try:
            result = owner(*args)
            if qual == "graph.bases_and_forests":
                list(result)
        except Exception as exc:  # the probe must not end a traced run
            print(f"probe: {qual} raised {exc!r}", file=sys.stderr)
            continue
        if qual in ("construct.decompose_base", "oracle.polytope_of"):
            found[mod] = result
