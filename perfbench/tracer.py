"""Per-layer tracing from outside the package.

Every public function named in LAYERS is replaced, in every gorcheck module
that binds it, by a wrapper that records a span: function, start, end, parent
span and op id.  Spans are kept in flat arrays in memory and written out when
the run ends.  A function's self time is the sum of its spans' durations minus
the durations of their direct child spans.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter

LAYERS = {
    "graph": [
        "is_two_connected", "blocks", "components", "induced_cycles",
        "is_k4_minor_free", "blow_up_factor", "bases_and_forests",
        "is_isomorphic", "Multigraph.contract", "Multigraph.induced",
    ],
    "flats": ["good_flats", "indecomposable_flats"],
    "baseck": [
        "base_verdict", "candidate_deltas", "weight_function",
        "edge_facet_profile", "check_spade",
    ],
    "indepck": [
        "indep_verdict", "check_club", "check_chordal_k4free",
        "recognize_cycle_construction",
    ],
    "construct": ["decompose_base", "replay_detail", "replay_matches", "fingerprint"],
    "linalg": ["hnf_rows", "dual_extreme_rays", "solve_unique"],
    "oracle": [
        "polytope_of", "facets_bruteforce", "gorenstein_search",
        "lattice_points", "hstar",
    ],
}

# which wrapped function raises which guard of the oracle path
GUARDS = {
    "oracle.facets_bruteforce": "facet_vertices",
    "oracle.lattice_points": "point_nodes",
    "graph.bases_and_forests": "forests",
}

FUNCTIONS = [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counters = {
            "good_flats.returned": 0,
            "good_flats.tried": 0,
            "blocks_checked": 0,
            "replay_matches.exact": 0,
            "lattice_points.points": 0,
        }
        self.guard_trips = {g: 0 for g in GUARDS.values()}
        self._seen_guards = []

    # -- recording -----------------------------------------------------------

    def _open(self, fid):
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        return idx

    def _guard(self, qual, exc):
        from gorcheck.errors import GuardExceeded

        if isinstance(exc, GuardExceeded) and qual in GUARDS:
            if not any(e is exc for e in self._seen_guards):
                self._seen_guards.append(exc)
                self.guard_trips[GUARDS[qual]] += 1

    def _count(self, qual, args, result):
        c = self.counters
        if qual == "flats.good_flats":
            c["good_flats.returned"] += len(result)
            c["good_flats.tried"] += subsets_tried(args[0].n)
        elif qual == "baseck.candidate_deltas":
            G = args[0]
            if not (G.n == 2 and G.m == 1):
                c["blocks_checked"] += 1
        elif qual == "construct.replay_matches":
            c["replay_matches.exact"] += result[1] == "isomorphism"
        elif qual == "oracle.lattice_points":
            c["lattice_points.points"] += len(result)

    def wrap(self, qual, fn):
        fid = FUNCTIONS.index(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # busy time only: the span lasts as long as the generator ran,
            # not the consumer's work between items
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(fid)
                busy = 0.0
                it = fn(*args, **kwargs)
                try:
                    while True:
                        tracer.stack.append(idx)
                        t = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            tracer._guard(qual, exc)
                            raise
                        finally:
                            busy += perf_counter() - t
                            tracer.stack.pop()
                        yield item
                finally:
                    tracer.end[idx] = tracer.start[idx] + busy

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(fid)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._guard(qual, exc)
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            tracer._count(qual, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        import gorcheck.graph as graph_mod

        originals = {}
        for qual in FUNCTIONS:
            mod, _, name = qual.partition(".")
            if name.startswith("Multigraph."):
                fn = getattr(graph_mod.Multigraph, name.split(".")[1], None)
            else:
                fn = getattr(sys.modules.get(f"gorcheck.{mod}"), name, None)
            if fn is not None:  # a function the package dropped reports 0 calls
                originals[qual] = fn
        patches = []  # (owner, attribute, original)
        for qual, fn in originals.items():
            wrapped = self.wrap(qual, fn)
            name = qual.split(".")[-1]
            if qual.startswith("graph.Multigraph."):
                patches.append((graph_mod.Multigraph, name, fn))
                setattr(graph_mod.Multigraph, name, wrapped)
                continue
            for mname, module in list(sys.modules.items()):
                if mname.split(".")[0] != "gorcheck" or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn))
                        setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """Per function: (calls, self seconds)."""
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for i in range(n):
            f = self.fid[i]
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - child[i]
        return {q: (calls[i], self_s[i]) for i, q in enumerate(FUNCTIONS)}

    def metrics(self):
        out = {}
        per_fn = self.self_times()
        for qual, (calls, self_s) in per_fn.items():
            out[f"{qual}.calls"] = (calls, "count")
            out[f"{qual}.self_s"] = (self_s, "s")
        c = self.counters
        tried = c["good_flats.tried"]
        out["flats.good_flats.yield"] = (c["good_flats.returned"] / tried if tried else 0.0, "ratio")
        blocks = c["blocks_checked"]
        profiles = per_fn["baseck.edge_facet_profile"][0]
        out["baseck.edge_facet_profile.per_block"] = (profiles / blocks if blocks else 0.0, "ratio")
        checks = per_fn["construct.replay_matches"][0]
        out["construct.replay_matches.exact_frac"] = (
            c["replay_matches.exact"] / checks if checks else 0.0, "ratio")
        out["oracle.lattice_points.points"] = (c["lattice_points.points"], "count")
        for guard, trips in self.guard_trips.items():
            out[f"oracle.guard_trips.{guard}"] = (trips, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tfunction\tparent\top\tstart\tend\n")
            for i in range(len(self.fid)):
                fh.write(
                    f"{i}\t{FUNCTIONS[self.fid[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def subsets_tried(n):
    """Candidate subsets good_flats enumerates on n vertices: sizes 2..n-1."""
    return sum(comb(n, r) for r in range(2, n))
