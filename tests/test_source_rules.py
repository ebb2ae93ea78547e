import ast
from pathlib import Path

from gorcheck.graph import Multigraph

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gorcheck"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a correctness check written as
    # one would silently stop running; checks must raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []


def test_no_raise_of_the_base_error_class():
    # cli.main maps each typed subclass to a documented exit code; a bare
    # GorcheckError matches no handler and escapes as a traceback
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "GorcheckError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_isomorphism_oracles_stay_off_the_production_path():
    # every certificate names its input's vertices, so a replay is compared
    # with its graph edge by edge: the package has no isomorphism search and
    # no invariant fingerprint, and replay_matches, which pairs vertices in
    # label order, is a test and benchmark oracle no module calls
    gone = ("is_isomorphic", "_adj_mult", "fingerprint")
    found, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        found += [f"{path.name}:{name}" for name in gone if name in text]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "replay_matches" or getattr(
                    func, "attr", None
                ) == "replay_matches":
                    calls.append(f"{path.name}:{node.lineno}")
    assert found == [] and calls == []


def test_oracle_hot_path_stays_integer():
    # the elimination, the double description, the facet route from the
    # flats with the columns it reads, and the Gorenstein search run over
    # integer rows and bitmasks; Fractions appear only in the quotients
    # solve_unique and invert return
    routines = {
        "linalg.py": ("_eliminate", "dual_extreme_rays"),
        "oracle.py": (
            "_connected_flats", "_tight_at", "_reaches_rank", "_lattice_facet",
            "facets_from_flats", "_binary_text", "LatticePolytope.columns",
            "LatticePolytope.origin", "gorenstein_search",
        ),
    }
    found = []
    for module, names in routines.items():
        tree = ast.parse((PACKAGE / module).read_text(), filename=module)
        # top-level functions by name, methods as Class.method
        scopes = [(node, "") for node in tree.body]
        scopes += [
            (method, f"{node.name}.") for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body
        ]
        bodies = {
            prefix + node.name: node for node, prefix in scopes
            if isinstance(node, ast.FunctionDef) and prefix + node.name in names
        }
        assert sorted(bodies) == sorted(names)
        found += [
            f"{module}:{node.lineno}:{name}"
            for name, fn in bodies.items()
            for node in ast.walk(fn)
            if "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
    assert found == []


def test_lattices_are_read_off_structure():
    # polytope_of reads its lattice off the graph's blocks and
    # product_polytope takes the direct sum of its parts': the general HNF
    # route is a test reference, and oracle imports from linalg only what
    # it calls
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("hnf_rows", "lattice_coords")
    ]
    assert defined == []
    tree = ast.parse((PACKAGE / "oracle.py").read_text(), filename="oracle.py")
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "linalg"
        for alias in node.names
    }
    called = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert imported and imported <= called, imported - called


def _names(node) -> set:
    return {
        getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        for n in ast.walk(node)
    }


def test_base_side_decides_by_decomposition_only():
    # base_verdict decides by construct.decompose and certify emits the
    # verdict's certificates; the good-flat system only names a stuck
    # block's flat, from inside decompose
    cli = ast.parse((PACKAGE / "cli.py").read_text(), filename="cli.py")
    assert _names(cli) & {"decompose_base", "check_spade"} == set()
    baseck = ast.parse((PACKAGE / "baseck.py").read_text(), filename="baseck.py")
    (verdict,) = [
        node for node in baseck.body
        if isinstance(node, ast.FunctionDef) and node.name == "base_verdict"
    ]
    names = _names(verdict)
    assert "decompose" in names and "check_spade" not in names


def test_one_low_link_routine():
    # is_two_connected, blocks, is_connected and the edge profile all read
    # one low-link pass; a function that binds a `low` mapping of its own is
    # a second 2-connectivity DFS
    assert _binders("low") == ["graph.py:low_link"]


def test_one_vertex_order():
    # Multigraph.sorted_vertices is where a graph's labels are sorted:
    # blocks and blow_up_factor read positions in it and hand it down, and
    # count parallel classes on those positions
    tree = ast.parse((PACKAGE / "graph.py").read_text(), filename="graph.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("blocks", "blow_up_factor"):
        assert _names(functions[name]) & {"label_key", "parallel_classes"} == set(), name


def test_delta2_decides_by_the_collide_peel():
    # a delta = 2 block is decided by peeling Collides off, with no edge
    # profile and no low-link pass; the search for the first separating
    # pair, one low-link pass per vertex at every level, is a test reference
    found = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if "_separating_pair" in _names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    tree = ast.parse((PACKAGE / "construct.py").read_text(), filename="construct.py")
    (peel,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_collide_peel"
    ]
    assert _names(peel) & {"low_link", "edge_facet_profile"} == set()


def test_glue_peel_runs_no_low_link_pass():
    # a delta >= 3 block is decided by peeling Glues and Subdivides off one
    # mutable adjacency, with the weights the series-parallel reduction
    # read; the per-part steps (_step, _split) and the ear rescan (ears)
    # are test references
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = [
        f"{name}:{ident}"
        for name, tree in trees.items()
        for ident in sorted(_names(tree) & {"_step", "_split", "ears"})
    ]
    assert found == []
    (peel,) = [
        node for node in trees["construct.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_glue_peel"
    ]
    assert _names(peel) & {"low_link", "is_two_connected", "edge_facet_profile"} == set()


def test_replay_keeps_the_input_labels(monkeypatch):
    # a certificate names the input's own vertices, so replay renumbers
    # nothing and no vertex map is composed or checked: none of the names
    # of that machinery is left in the package, and one forward pass over
    # vertex sets and edge counts builds a Multigraph for the root alone
    gone = ("EdgeRef", "_merge_along", "_edge_ref", "check_vertex_map", "replay_detail")
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in gone
        if name in path.read_text()
    ]
    assert found == []
    from gorcheck import construct

    built = []

    class Counted(Multigraph):
        def __new__(cls, *args):
            built.append(args)
            return Multigraph.__new__(cls, *args)

    monkeypatch.setattr(construct, "Multigraph", Counted)
    cert = construct.Seed("cycle", range(4))
    for x in range(4, 40, 2):
        cert = construct.AttachCycle(3, cert, (0, x, x + 1, 1))
    k4 = construct.Seed("k4", (0, 1, 40, 41))
    cert = construct.BlowUp(construct.Collide((cert, k4), (0, 1)), 2)
    G = construct.replay(cert)
    assert len(built) == 1 and (G.n, G.m) == (42, 2 * (4 + 3 * 18 - 2 + 6))


def _functions():
    """(module, def) for each top-level function and method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        yield from ((path.name, fn) for fn in functions)


def _holders(match) -> list:
    """module:function for each top-level function or method with a node,
    nested functions' included, that match accepts."""
    return [f"{name}:{fn.name}" for name, fn in _functions() if any(map(match, ast.walk(fn)))]


def _binders(name: str) -> list:
    """module:function for each top-level function or method whose
    assignments bind `name`, as a plain name or subscripted."""

    def binds(node):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        return any(isinstance(n, ast.Name) and n.id == name for t in targets for n in ast.walk(t))

    return _holders(binds)


def test_one_union_find():
    # bases_and_forests holds the package's one union-find, the one that can
    # roll a union back; rank(E) for spanning forests comes from the graph's
    # one low-link pass; contract merges along components(); a function that
    # binds a `parent` mapping of its own is a second union-find
    assert _binders("parent") == ["graph.py:bases_and_forests"]
    gone = {"_find", "_union", "graphic_rank", "_is_cycle_graph"}
    found = [
        f"{path.name}:{ident}"
        for path in sorted(PACKAGE.glob("*.py"))
        for ident in sorted(_names(ast.parse(path.read_text(), filename=str(path))) & gone)
    ]
    assert found == []


def test_one_subset_kernel():
    # graph._subset_kernel's bit tables are the package's one subset
    # enumerator: no module walks itertools' combinations, the chordless
    # cycles' own vertex guard is gone, and one function holds the text of
    # the one subset guard
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    imports = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and "itertools" in [a.name for a in node.names])
        or (isinstance(node, ast.ImportFrom) and node.module == "itertools")
    ]
    assert imports == []
    assert [name for name, tree in trees.items() if "CYCLE_GUARD_VERTICES" in _names(tree)] == []
    holders = [
        f"{name}:{fn.name}"
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and "subset enumeration" in str(node.value)
    ]
    assert holders == ["graph.py:_subset_kernel"]


def test_the_peel_rescans_no_ears():
    # the independence peel (construct._attach_peel, which
    # recognize_cycle_construction runs) works on one mutable adjacency with
    # a worklist of degree-2 vertices; a call to graph.ears or a graph copy
    # per step makes it quadratic again
    for module in ("indepck.py", "construct.py"):
        tree = ast.parse((PACKAGE / module).read_text(), filename=module)
        assert _names(tree) & {"ears", "without_vertices"} == set()


def test_the_indep_verdict_runs_the_public_recognizer():
    # indep_verdict decides each base graph by recognize_cycle_construction,
    # whose input checks read the records blow_up_factor left, so the peel
    # and its replay check are not inlined a second time
    tree = ast.parse((PACKAGE / "indepck.py").read_text(), filename="indepck.py")
    (verdict,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "indep_verdict"
    ]
    names = _names(verdict)
    assert "recognize_cycle_construction" in names
    assert names & {"_attach_peel", "check_replay"} == set()


def test_one_run_walker():
    # the three peels share construct's one mutable adjacency and one walker
    # of degree-2 runs.  The independence peel keeps no heap: exact replay
    # proves a certificate in any peel order.  No peel carries a run walk or
    # an adjacency of its own.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    imports = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and "heapq" in [a.name for a in node.names])
        or (isinstance(node, ast.ImportFrom) and node.module == "heapq")
    ]
    assert imports == []
    nested = [
        f"{name}:{inner.lineno}"
        for name, tree in trees.items()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for inner in ast.walk(fn)
        if inner is not fn and isinstance(inner, ast.FunctionDef) and inner.name == "run_through"
    ]
    assert nested == []

    def builds_adjacency(node):
        # dict.fromkeys(... G.adjacency[v]): a vertex's neighbours as dict keys
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "fromkeys"
            and getattr(node.func.value, "id", None) == "dict"
            and "adjacency" in set().union(*map(_names, node.args))
        )

    def walks_a_run(node):
        # while len(adj[cur]) == 2 ...: a walk along vertices of degree 2
        return isinstance(node, ast.While) and any(
            isinstance(cmp, ast.Compare)
            and getattr(cmp.left, "func", None) is not None
            and getattr(cmp.left.func, "id", None) == "len"
            and [type(op) for op in cmp.ops] == [ast.Eq]
            and [getattr(c, "value", None) for c in cmp.comparators] == [2]
            for cmp in ast.walk(node.test)
        )

    assert _holders(builds_adjacency) == ["construct.py:_adjacency"]
    assert _holders(walks_a_run) == ["construct.py:_run"]


def test_a_multigraph_is_its_vertices_and_edges():
    # equality and hashing do not depend on how a graph was made: contracting
    # a triangle to a point leaves no trace of the loop it dropped
    assert Multigraph._fields == ("vertices", "edges")
    k3 = Multigraph.build(range(3), [(0, 1), (1, 2), (0, 2)])
    point = Multigraph.build([0], [])
    assert k3.contract([0, 1])[0] == point
    assert hash(k3.contract([0, 1])[0]) == hash(point)


def test_no_function_recurses():
    # no input can raise RecursionError: no function's calls lead back to
    # itself.  Calls resolve by name, so the graph over-approximates: f(...)
    # may be any plain function named f, nested or top-level, and x.f(...)
    # any method named f.
    functions, methods = {}, {}  # qualified name -> def, for plain functions and methods

    def collect(node, prefix, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                (methods if in_class else functions)[name] = child
                collect(child, name)
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}.{child.name}", in_class=True)
            else:
                collect(child, prefix, in_class)

    for path in sorted(PACKAGE.glob("*.py")):
        collect(ast.parse(path.read_text(), filename=str(path)), path.stem)
    every = {**functions, **methods}

    def callees(fn):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                yield from (q for q in functions if q.rsplit(".", 1)[1] == func.id)
            elif isinstance(func, ast.Attribute) and not (
                isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"
            ):
                yield from (q for q in methods if q.rsplit(".", 1)[1] == func.attr)

    calls = {name: set(callees(fn)) for name, fn in every.items()}

    def leads_back(name):
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee == name:
                return True
            if callee not in seen:
                seen.add(callee)
                todo += calls[callee]
        return False

    assert len(every) > 150
    assert [name for name in every if leads_back(name)] == []


def test_one_lattice_point_walk():
    # hstar counts through the branch and bound without building the point
    # lists, and the list and the counts share one walk: the interval cut, a
    # floor division of a facet's slack `rest[j] // a`, appears in one
    # function only
    tree = ast.parse((PACKAGE / "oracle.py").read_text(), filename="oracle.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "lattice_points" not in _names(functions["hstar"])
    cuts = [
        name for name, fn in functions.items()
        if any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.Subscript)
            for node in ast.walk(fn)
        )
    ]
    assert cuts == ["_point_intervals"]


def test_records_are_not_dataclasses():
    # records are NamedTuples: importing dataclasses costs a cold process the
    # inspect module and about a millisecond of generated code per class
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _module_caches(tree) -> list:
    """The lines of a module where a function is memoized by functools or
    writes into a name bound at module level."""
    names = {
        t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name)
    }
    found = []
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("cache", "lru_cache"):
                found.append(dec.lineno)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(node.lineno)
            written = (
                [t.value for t in node.targets if isinstance(t, ast.Subscript)]
                if isinstance(node, ast.Assign) else
                [node.func.value] if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update", "add", "append", "extend", "__setitem__")
                else []
            )
            if any(isinstance(w, ast.Name) and w.id in names for w in written):
                found.append(node.lineno)
    return found


def test_no_cache_outlives_its_graph():
    # what is derived from a graph (its low-link pass, a block's light edges)
    # is kept in the graph's instance __dict__ and dies with it.
    # A functools cache or a module-level mapping would keep every graph
    # alive for the life of the process, and let a later bench pass reuse an
    # earlier pass's work.  No function is memoized at all, not even one
    # that takes no argument: the package reads its one data file per call
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _module_caches(tree)]
    assert found == []
    memoized = ast.parse("from functools import lru_cache\n@lru_cache\ndef f(G):\n    return G\n")
    table = ast.parse("_SEEN = {}\ndef f(G):\n    _SEEN[G] = 1\n")
    loaded_once = ast.parse("import functools\n@functools.cache\ndef f():\n    return 1\n")
    assert _module_caches(memoized) == [2] and _module_caches(table) == [3]
    assert _module_caches(loaded_once) == [2]


def _dict_writes(tree) -> list:
    """The lines where an instance __dict__ is written: a store into or a
    deletion from x.__dict__[...], or a call of one of its mutating
    methods."""
    def is_dict(node):
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and is_dict(node.value)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and is_dict(node.func.value)
        and node.func.attr in ("__setitem__", "clear", "pop", "popitem", "setdefault", "update")
    ]


def test_only_graph_writes_a_graphs_dict():
    # graph.py keeps what it derives from a graph (its low-link pass, its
    # loop-free graph, a block's light edges) in the graph's instance
    # __dict__; no other module writes there, so every cache on a graph is
    # one graph.py function's, and the checkers read the graph's one
    # series-parallel reduction instead of keeping a profile of their own
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "graph.py"
        for line in _dict_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert len(_dict_writes(ast.parse((PACKAGE / "graph.py").read_text()))) > 5
    kept_profile = ast.parse(
        "def _profile(G):\n"
        "    profile = G.__dict__.get('_edge_facet_profile')\n"
        "    if profile is None:\n"
        "        profile = G.__dict__['_edge_facet_profile'] = edge_facet_profile(G)\n"
        "    return profile\n"
    )
    assert _dict_writes(kept_profile) == [4]
    assert _dict_writes(ast.parse("G.__dict__.update(x=1)\ndel G.__dict__['x']\n")) == [1, 2]
