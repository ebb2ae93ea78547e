"""Exact multigraph representation and the primitives everything else consumes.

Vertices are arbitrary hashable labels (strings from the parser, ints for
internally built graphs).  Edge ids are small ints, unique within a graph and
stable under deletion.  All graphs are immutable; every operation returns a
new graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from .errors import GuardExceeded, ParseError

DEFAULT_GUARD = 10**6
# the subset tables take 2^n bits each, about 2n of them: 150 MB at 24 vertices
SUBSET_GUARD_VERTICES = 24
CHORDLESS_CYCLE_GUARD = 10**5


def label_key(x):
    """Total order on mixed-type vertex labels (ints and strs never compare)."""
    return (x.__class__.__name__, x)


class _MultigraphFields(NamedTuple):
    vertices: tuple
    edges: tuple  # of (edge_id, u, v)


class Multigraph(_MultigraphFields):
    # no __slots__: the instance __dict__ holds the cached properties

    @classmethod
    def build(cls, vertices, pairs) -> "Multigraph":
        """Build a graph from endpoint pairs, assigning edge ids 0..m-1."""
        vs = tuple(vertices)
        seen = set()
        for v in vs:
            if v in seen:
                raise ValueError(f"duplicate vertex label {v!r}")
            seen.add(v)
        edges = []
        for i, (u, v) in enumerate(pairs):
            if u not in seen or v not in seen:
                raise ValueError(f"edge ({u!r}, {v!r}) uses undeclared vertex")
            edges.append((i, u, v))
        return cls(vs, tuple(edges))

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_by_id(self) -> dict:
        return {eid: (u, v) for eid, u, v in self.edges}

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for eid, u, v in self.edges:
            adj[u].append((eid, v))
            if u != v:
                adj[v].append((eid, u))
        return adj

    def endpoints(self, eid: int):
        return self.edge_by_id[eid]

    def degree(self, v) -> int:
        # loops count twice
        return sum(2 if w == v else 1 for _, w in self.adjacency[v])

    @cached_property
    def sorted_vertices(self) -> tuple:
        return tuple(sorted(self.vertices, key=label_key))

    def has_edge(self, u, v) -> bool:
        return any(w == v for _, w in self.adjacency[u])

    def edge_between(self, u, v) -> Optional[int]:
        """Some edge id joining u and v, smallest id first; None if absent."""
        ids = [eid for eid, w in self.adjacency[u] if w == v]
        return min(ids) if ids else None

    @cached_property
    def parallel_classes(self) -> dict:
        """Map frozenset({u, v}) -> sorted tuple of edge ids (loops excluded)."""
        classes: dict = {}
        for eid, u, v in self.edges:
            if u == v:
                continue
            classes.setdefault(frozenset((u, v)), []).append(eid)
        return {k: tuple(sorted(v)) for k, v in classes.items()}

    def is_simple(self) -> bool:
        """No loop and no parallel edge, seen on the pairs i <= j of vertex
        positions.  The answer is kept in the instance __dict__ (graphs are
        immutable); blocks() and blow_up_factor() record it."""
        if "_simple" not in self.__dict__:
            pos = {v: i for i, v in enumerate(self.vertices)}
            n = len(pos)
            pairs: set = set()
            simple = True
            for _, u, v in self.edges:
                i, j = pos[u], pos[v]
                pair = i * n + j if i < j else j * n + i
                if i == j or pair in pairs:
                    simple = False
                    break
                pairs.add(pair)
            self.__dict__["_simple"] = simple
        return self.__dict__["_simple"]

    # -- derived graphs ----------------------------------------------------

    def without_edges(self, eids) -> "Multigraph":
        drop = set(eids)
        unknown = drop - set(self.edge_by_id)
        if unknown:
            raise KeyError(f"unknown edge ids {sorted(unknown)}")
        return Multigraph(self.vertices, tuple(e for e in self.edges if e[0] not in drop))

    def without_vertices(self, vs) -> "Multigraph":
        drop = set(vs)
        return Multigraph(
            tuple(v for v in self.vertices if v not in drop),
            tuple(e for e in self.edges if e[1] not in drop and e[2] not in drop),
        )

    def induced(self, S) -> "Multigraph":
        keep = set(S)
        return Multigraph(
            tuple(v for v in self.vertices if v in keep),
            tuple(e for e in self.edges if e[1] in keep and e[2] in keep),
        )

    def with_edge(self, u, v) -> tuple:
        """Add an edge with a fresh id; returns (graph, new_edge_id)."""
        eid = max(self.edge_by_id, default=-1) + 1
        return Multigraph(self.vertices, self.edges + ((eid, u, v),)), eid

    def contract(self, eids) -> tuple:
        """Contract the given edges; returns (graph, old-vertex -> merged-vertex map).

        Each class of vertices the contracted edges join merges into its
        smallest label.  Resulting loops are dropped; parallel edges are kept.
        """
        contract_set = set(eids)
        unknown = contract_set - set(self.edge_by_id)
        if unknown:
            raise KeyError(f"unknown edge ids {sorted(unknown)}")
        joined = Multigraph(self.vertices, tuple(e for e in self.edges if e[0] in contract_set))
        mapping = {v: comp[0] for comp in components(joined) for v in comp}
        new_edges = tuple(
            (eid, mapping[u], mapping[v]) for eid, u, v in self.edges
            if eid not in contract_set and mapping[u] != mapping[v]
        )
        return Multigraph(tuple(v for v in self.vertices if mapping[v] == v), new_edges), mapping


# -- parsing and formatting ----------------------------------------------


def parse_graph(text: str) -> Multigraph:
    """Parse the shared edge-list format.

    One edge per line: "u v" or "u v m" with m >= 1 parallel copies.  '#'
    starts a comment; vertex labels are arbitrary non-whitespace tokens.
    A line that would take the edge count past DEFAULT_GUARD raises
    GuardExceeded before its pairs are listed.
    """
    vertices: list = []
    seen = set()
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'u v' or 'u v m', got {line!r}", lineno)
        u, v = tokens[0], tokens[1]
        mult = 1
        if len(tokens) == 3:
            try:
                mult = int(tokens[2])
            except ValueError:
                raise ParseError(f"multiplicity {tokens[2]!r} is not an integer", lineno)
            if mult < 1:
                raise ParseError(f"multiplicity must be >= 1, got {mult}", lineno)
        for w in (u, v):
            if w not in seen:
                seen.add(w)
                vertices.append(w)
        if len(pairs) + mult > DEFAULT_GUARD:
            raise GuardExceeded(
                f"edge list guarded at {DEFAULT_GUARD} edges; line {lineno} brings it to {len(pairs) + mult}"
            )
        pairs.extend([(u, v)] * mult)
    if not pairs:
        raise ParseError("document contains no edges", 1)
    return Multigraph.build(vertices, pairs)


def format_edge_list(G: Multigraph) -> str:
    """Inverse of parse_graph; parallel classes collapse to a multiplicity column."""
    lines = []
    for pair, eids in sorted(
        G.parallel_classes.items(),
        key=lambda kv: tuple(sorted((label_key(x) for x in kv[0]))),
    ):
        u, v = sorted(pair, key=label_key)
        if len(eids) == 1:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {len(eids)}")
    return "\n".join(lines) + "\n"


def normalize(G: Multigraph) -> Multigraph:
    """Strip loops: they never affect Gorensteinness.

    A graph with loops keeps its loop-free graph in its instance __dict__,
    so every caller reads the same graph and that graph's one low-link pass.
    """
    H = G.__dict__.get("_loop_free")
    if H is None:
        edges = tuple(e for e in G.edges if e[1] != e[2])
        if len(edges) == G.m:
            return G
        H = G.__dict__["_loop_free"] = Multigraph(G.vertices, edges)
    return H


# -- connectivity ----------------------------------------------------------


class LowLink(NamedTuple):
    """What one depth-first pass learns about the 2-connectivity of a graph."""

    components: int
    cut_vertices: frozenset
    bridges: frozenset  # edge ids
    blocks: tuple  # edge-id tuples of the biconnected components, loops left out


def low_link(G: Multigraph, skip=None) -> LowLink:
    """One iterative Hopcroft-Tarjan low-link pass over G - skip.

    skip is one vertex or None; the subgraph is never built, the pass just
    does not enter skip.  Isolated vertices count as components.  Only the
    tree edge a vertex was entered by is excluded from its low value, so a
    parallel edge to the parent is a back edge and a doubled edge is no
    bridge; loops join no block.  The pass over all of G (skip None) is
    kept in G's instance __dict__, as graphs are immutable, and dies with G.
    """
    if skip is None and "_low_link" in G.__dict__:
        return G.__dict__["_low_link"]
    adj = G.adjacency
    disc: dict = {}
    low: dict = {}
    stack: list = []  # edge ids of the blocks still open
    cuts, bridges, out = set(), [], []
    roots = 0
    for root in G.vertices:
        if root in disc or root == skip:
            continue
        roots += 1
        disc[root] = low[root] = len(disc)
        root_children = 0
        # frames: vertex, tree edge in, adjacency iterator, stack size before that edge
        work = [(root, None, iter(adj[root]), 0)]
        while work:
            v, in_eid, it, mark = work[-1]
            for eid, w in it:
                if w == skip or eid == in_eid:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    work.append((w, eid, iter(adj[w]), len(stack)))
                    stack.append(eid)
                    break
                if disc[w] < disc[v]:  # back edge up; loops and edges already pushed fail this
                    stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                work.pop()
                if not work:
                    continue
                p = work[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:  # p separates v's subtree: close its block
                    out.append(tuple(stack[mark:]))
                    del stack[mark:]
                    if low[v] > disc[p]:
                        bridges.append(in_eid)
                    if p == root:
                        root_children += 1
                    else:
                        cuts.add(p)
        if root_children > 1:
            cuts.add(root)
    ll = LowLink(roots, frozenset(cuts), frozenset(bridges), tuple(out))
    if skip is None:
        G.__dict__["_low_link"] = ll
    return ll


def is_connected(G: Multigraph) -> bool:
    return G.n > 0 and low_link(G).components == 1


def components(G: Multigraph) -> list:
    """Connected components as sorted vertex tuples, sorted by first vertex."""
    seen: set = set()
    out = []
    for v in G.sorted_vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for _, w in G.adjacency[x]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp, key=label_key)))
    return out


def is_two_connected(G: Multigraph) -> bool:
    """Connected, >= 2 vertices, no cut vertex.

    K2 and the 2-cycle count as 2-connected; a single vertex never does.
    Loops and parallel edges never change the answer.  A block from
    blocks() records that it is, and needs no pass.
    """
    if G.__dict__.get("_two_connected"):
        return True
    if G.n < 2:
        return False
    ll = low_link(G)
    return ll.components == 1 and not ll.cut_vertices


def blocks(G: Multigraph) -> list:
    """Biconnected components; bridges appear as K2 blocks, isolated vertices drop.

    Deterministic order: sorted by each block's sorted edge-id tuple.  A
    block's vertices come in G.sorted_vertices order, which it keeps as its
    own sorted_vertices, so no block sorts labels again.  A block that holds
    all of G's vertices and edges, in G's edge order, is G in that vertex
    order: it shares G's sorted_vertices, edge_by_id and adjacency, whose
    keys stay in G.vertices order.  Each block records that it is
    2-connected, and that it is simple when G is known to be.  Every call
    builds new blocks from G's one low-link pass.
    """
    simple = G.__dict__.get("_simple")
    pos = None  # G's vertex -> its position in G.sorted_vertices, built once if needed
    result = []
    for comp in sorted(tuple(sorted(b)) for b in low_link(G).blocks):
        if len(comp) == G.m and comp == tuple(e[0] for e in G.edges) and all(G.adjacency.values()):
            order = G.sorted_vertices
            b = Multigraph(order, G.edges)
            b.__dict__.update(edge_by_id=G.edge_by_id, adjacency=G.adjacency)
        else:
            edges = tuple((eid,) + G.edge_by_id[eid] for eid in comp)
            vs = {x for _, u, v in edges for x in (u, v)}
            if len(vs) == G.n:
                order = G.sorted_vertices
            else:
                pos = pos or {v: i for i, v in enumerate(G.sorted_vertices)}
                order = tuple(sorted(vs, key=pos.__getitem__))
            b = Multigraph(order, edges)
        b.__dict__.update(sorted_vertices=order, _two_connected=True)
        if simple:
            b.__dict__["_simple"] = True
        result.append(b)
    return result


# -- vertex subsets --------------------------------------------------------


def _subset_kernel(G: Multigraph) -> tuple:
    """Connectivity of every induced subgraph of G at once, as three big integers.

    Vertex i is G.sorted_vertices[i], and a vertex set is the bitmask S with
    bit i set for each member.  A table over all 2^n masks is one 2^n-bit
    integer whose bit S is that mask's entry, so one integer operation works
    on every subset together.  Returns (conn, biconn, cycles): bit S of conn
    is set when G[S] is nonempty and connected, of biconn when G[S] is
    2-connected (an edge for |S| = 2), and of cycles when G[S] is a chordless
    cycle, i.e. connected with every member adjacent to exactly two others.
    Loops and parallel edges are ignored: neither changes connectivity.
    Memory is about 2n integers of 2^n bits, hence SUBSET_GUARD_VERTICES.
    """
    n = G.n
    if n > SUBSET_GUARD_VERTICES:
        raise GuardExceeded(
            f"subset enumeration guarded at {SUBSET_GUARD_VERTICES} vertices, graph has {n}"
        )
    index = {v: i for i, v in enumerate(G.sorted_vertices)}
    nbrs = [set() for _ in range(n)]
    for _, u, v in G.edges:
        if u != v:
            nbrs[index[u]].add(index[v])
            nbrs[index[v]].add(index[u])
    size = 1 << n
    table_all = (1 << size) - 1
    # member[i]: masks containing vertex i, i.e. 2^i clear bits then 2^i set
    # bits, repeated
    member = []
    for i in range(n):
        period = 2 << i
        x = ((1 << (1 << i)) - 1) << (1 << i)
        while period < size:
            x |= x << period
            period *= 2
        member.append(x)
    # reach[i]: masks in which vertex i is reached from the lowest member;
    # it starts as the masks whose lowest member is i and grows edge by edge
    reach = []
    lower = 0
    for i in range(n):
        reach.append(member[i] & ~lower)
        lower |= member[i]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = 0
            for j in nbrs[i]:
                grown |= reach[j]
            grown = reach[i] | (grown & member[i])
            if grown != reach[i]:
                reach[i] = grown
                changed = True
    conn = table_all ^ 1  # the empty mask is not connected
    for i in range(n):
        conn &= reach[i] | ~member[i]
    # G[S] is 2-connected when it is connected and so is G[S - v] for every
    # v in S; bit S of conn << 2^v is conn's bit S - v.  A singleton fails:
    # removing its vertex leaves the empty mask
    biconn = conn
    for v in range(n):
        biconn &= (conn << (1 << v)) | ~member[v]
    # G[S] is a chordless cycle when it is connected and every member has
    # exactly two neighbours in S; one / two / three: the masks in which
    # vertex i has at least that many, a counter that saturates at three
    cycles = conn
    for i in range(n):
        one = two = three = 0
        for j in nbrs[i]:
            three |= two & member[j]
            two |= one & member[j]
            one |= member[j]
        cycles &= (two & ~three) | ~member[i]
    return conn, biconn & table_all, cycles


def _vertex_sets(G: Multigraph, table: int) -> list:
    """The masks set in a table, as vertex tuples by size, then lexicographically.

    That is the itertools.combinations order over sorted_vertices.
    """
    verts = G.sorted_vertices
    bits = format(table, "b")[::-1]
    masks = []
    S = bits.find("1")
    while S >= 0:
        masks.append(tuple(i for i in range(G.n) if S >> i & 1))
        S = bits.find("1", S + 1)
    masks.sort(key=lambda idx: (len(idx), idx))
    return [tuple(verts[i] for i in idx) for idx in masks]


# -- cycles ----------------------------------------------------------------


def induced_cycles(G: Multigraph) -> list:
    """All chordless cycles of a simple graph, as vertex tuples in cycle order.

    The vertex sets come from the subset kernel's cycle table, by size, then
    lexicographically; each cycle starts at its set's first vertex and leaves
    it by that vertex's first neighbour in the set, in adjacency order.
    Graphs over SUBSET_GUARD_VERTICES vertices, and graphs with more than
    CHORDLESS_CYCLE_GUARD chordless cycles, raise GuardExceeded before any
    cycle is walked.
    """
    if not G.is_simple():
        raise ValueError("induced_cycles requires a simple graph")
    table = _subset_kernel(G)[2]
    if table.bit_count() > CHORDLESS_CYCLE_GUARD:
        raise GuardExceeded(f"more than {CHORDLESS_CYCLE_GUARD} chordless cycles")
    cycles = []
    for S in _vertex_sets(G, table):
        members = set(S)
        nbrs = {v: [w for _, w in G.adjacency[v] if w in members] for v in S}
        order = [S[0], nbrs[S[0]][0]]
        while len(order) < len(S):
            a, b = nbrs[order[-1]]
            order.append(b if a == order[-2] else a)
        cycles.append(tuple(order))
    return cycles


# -- K4 minors -------------------------------------------------------------


def _sp_reducible(block: Multigraph) -> Optional[frozenset]:
    """Series-parallel reduction of a block: the ids of its light edges, or
    None when the reduction gets stuck, which it does exactly when the
    block has a K4 minor.

    A worklist of the vertices of degree at most 2: each is deleted, and one
    of degree 2 joins its two neighbours by an edge (a series merge); when
    they are already adjacent the two edges merge at once (a parallel merge).
    No reduction raises a degree, so a queued vertex stays reducible until it
    is taken, and a reduction queues each neighbour it leaves at degree 2 or
    less.  The order does not change whether it gets stuck: both reductions
    take minors, so a K4-minor-free graph stays one and always has a vertex
    of degree at most 2, and a K4 minor (a K4 subdivision, as K4 is cubic)
    survives every reduction.

    In a 2-connected simple block, an input edge uv is light exactly when
    it is merged in parallel while more than two vertices remain, and heavy
    otherwise.  Such a merge means that {u, v} separates the block (the
    merged branch from a vertex left), and when {u, v} separates, u and v
    keep a neighbour on each side until one side shrinks to an edge uv,
    which merges with uv at once.  A separating {u, v} leaves uv's deletion
    2-connected and not its contraction; any other pair leaves the
    contraction 2-connected, and then not the deletion, or two disjoint
    u-v paths and a path between them would make a K4 subdivision with uv.

    The answer is kept in the block's instance __dict__, as low_link keeps
    its pass, so the checker and the Glue/Subdivide peel share one
    reduction.
    """
    if "_light" in block.__dict__:
        return block.__dict__["_light"]
    adj = {v: {} for v in block.vertices}  # neighbour -> input edge id, None once merged
    for eid, u, v in block.edges:
        if u != v:
            adj[u][v] = adj[v][u] = None if v in adj[u] else eid
    light = set()
    work = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while work:
        v = work.pop()
        if v not in adj:
            continue
        nbrs = adj.pop(v)
        for w in nbrs:
            del adj[w][v]
        if len(nbrs) == 2:
            a, b = nbrs
            if adj[a].get(b) is not None and len(adj) > 2:
                light.add(adj[a][b])
            adj[a][b] = adj[b][a] = None
        work += (w for w in nbrs if len(adj[w]) <= 2)
    block.__dict__["_light"] = light = frozenset(light) if len(adj) <= 2 else None
    return light


def is_k4_minor_free(G: Multigraph) -> bool:
    """True iff G has no K4 minor; series-parallel reduction per block."""
    return all(_sp_reducible(b) is not None for b in blocks(G))


# -- matroid bases and independent sets ------------------------------------


def bases_and_forests(
    G: Multigraph, kind: str, guard: int = DEFAULT_GUARD
) -> Iterator[int]:
    """Enumerate spanning forests ("spanning_trees") or all forests ("forests").

    spanning_trees yields all maximal forests (one spanning tree per
    component); forests yields every acyclic edge subset including the empty
    one.  Each forest is an int edge mask whose bit j is G's j-th smallest
    edge id.  The walk takes each edge before leaving it out, so the masks
    come in decreasing lexicographic order of their 0/1 vectors
    (x_0, ..., x_{m-1}), x_j being bit j.  Raises GuardExceeded past `guard`
    yields.
    """
    if kind not in ("spanning_trees", "forests"):
        raise ValueError(f"kind must be 'spanning_trees' or 'forests', got {kind!r}")
    index = {v: i for i, v in enumerate(G.vertices)}
    ends = [(index[u], index[v]) for _, u, v in sorted(G.edges)]
    m = len(ends)
    trees = kind == "spanning_trees"
    # the package's one union-find, over vertex indexes: by size without path
    # compression, so that a union can be rolled back when the walk leaves
    # its edge
    parent = list(range(G.n))
    size = [1] * G.n
    # for spanning forests, the rank of E, read off G's one low-link pass
    target = G.n - low_link(G).components if trees else 0
    joined: list = []  # the root each chosen edge hung below another
    mask = count = 0
    # depth-first over edge indexes, taking each edge before leaving it out
    # and stepping over one that closes a cycle (for spanning forests, only
    # while the edges left can complete one); an entry ~i rolls back edge i's
    # union before the walk goes on to i+1 without it
    stack: list = [0]
    while stack:
        i = stack.pop()
        if i < 0:
            i = ~i
            rv = joined.pop()
            size[parent[rv]] -= size[rv]
            parent[rv] = rv
            mask ^= 1 << i
            i += 1
        while not trees or len(joined) + m - i >= target:
            if (len(joined) == target) if trees else (i == m):
                count += 1
                if count > guard:
                    raise GuardExceeded(f"more than {guard} {'spanning forests' if trees else 'forests'}")
                yield mask
                break
            ru, rv = ends[i]
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                joined.append(rv)
                mask |= 1 << i
                stack.append(~i)
            i += 1


# -- blow-ups ---------------------------------------------------------------


class BlowUpFactor(NamedTuple):
    multiplicity: int
    base_graph: Multigraph


def blow_up_factor(G: Multigraph) -> Optional[BlowUpFactor]:
    """Factor G as the m-fold parallel blow-up of a simple graph, if uniform.

    Classes are counted on the pairs i < j of positions in G.sorted_vertices,
    and the base graph has one edge per class in the order of those pairs.
    It shares G's sorted_vertices, keeps a block's 2-connectivity record and
    records that it is simple.
    """
    if G.m == 0:
        raise ValueError("blow_up_factor requires at least one edge")
    order = G.sorted_vertices
    pos = {v: i for i, v in enumerate(order)}
    counts: dict = {}
    for _, u, v in G.edges:
        i, j = pos[u], pos[v]
        if i == j:
            raise ValueError("blow_up_factor requires a normalized (loop-free) graph")
        pair = (i, j) if i < j else (j, i)
        counts[pair] = counts.get(pair, 0) + 1
    mults = set(counts.values())
    if len(mults) != 1:
        return None
    (m,) = mults
    H = Multigraph(G.vertices, tuple((k, order[i], order[j]) for k, (i, j) in enumerate(sorted(counts))))
    H.__dict__.update(sorted_vertices=order, _simple=True)
    if G.__dict__.get("_two_connected"):
        H.__dict__["_two_connected"] = True
    return BlowUpFactor(m, H)
