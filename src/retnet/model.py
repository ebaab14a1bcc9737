"""Value types for phylogenetic networks, plus basic structural operations.

One graph type, `Graph`, holds rooted and unrooted networks; a tree is
a graph without reticulations.  All graphs use contiguous 0-based node
ids.  Rooted edges are directed pairs (parent, child); unrooted edges
are stored as (min, max) pairs.  Leaf labels map leaf nodes bijectively
onto 1..n.  All types are immutable named tuples, compared and hashed
by value: operations return new values and never mutate their inputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .errors import LeafsetMismatch, ModeMismatch, NotATree

ROOTED = "rooted"
UNROOTED = "unrooted"

Edge = tuple[int, int]


def _norm_edge(mode: str, u: int, v: int) -> Edge:
    if mode == ROOTED:
        return (u, v)
    return (u, v) if u <= v else (v, u)


class Graph(NamedTuple):
    """A binary phylogenetic network, rooted or unrooted, with leaves labelled 1..n.

    Rooted: a single-source DAG of tree nodes and reticulations.
    Unrooted: a connected simple graph with internal degree 3.
    """

    mode: str
    num_nodes: int
    edges: tuple[Edge, ...]
    leaf_labels: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.leaf_labels)


class Switching(NamedTuple):
    """An edge 2-labelling of a network: "on" edges (label 0) vs "off" edges (⊥).

    Rooted: every non-root node keeps exactly one on parent edge, so the
    off edges are one parent edge per reticulation.  Unrooted: the on
    edges form a spanning tree, so the off edges are the r excess edges.
    `off` holds the off edges' indices in `host.edges`, which tell apart
    two parallel edges.
    """

    host: Graph
    off: frozenset[int]


class ReticulationLabelling(NamedTuple):
    """A switching extended by a bijective numbering of its off edges with 1..r."""

    host: Graph
    numbered: tuple[tuple[int, int], ...]  # (index in host.edges, h) sorted by h

    def switching(self) -> Switching:
        return Switching(self.host, frozenset(i for i, _ in self.numbered))


class TreeSet(NamedTuple):
    """A set of pairwise non-isomorphic trees sharing one mode and leaf set."""

    mode: str
    trees: tuple[Graph, ...]

    @property
    def t(self) -> int:
        return len(self.trees)

    @property
    def n(self) -> int:
        return self.trees[0].n


class ValidationReport(NamedTuple):
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# graph construction and accessors


def make_graph(mode: str, nodes: Iterable[int], edges: Iterable[tuple[int, int]],
               labels: Mapping[int, int]) -> Graph:
    """Build a graph value from raw ids, renumbering nodes to contiguous 0-based ids.

    Node order (and hence renumbering) follows the sorted order of the
    input ids, so construction is deterministic.
    """
    order = sorted(set(nodes))
    idx = {v: i for i, v in enumerate(order)}
    new_edges = tuple(sorted(_norm_edge(mode, idx[u], idx[v]) for u, v in edges))
    new_labels = tuple(sorted((idx[v], x) for v, x in labels.items()))
    return Graph(mode, len(order), new_edges, new_labels)


def label_map(G: Graph) -> dict[int, int]:
    """label -> node, the inverse of `dict(G.leaf_labels)`."""
    return {x: v for v, x in G.leaf_labels}


def adjacency(G: Graph, off: Collection[int] = frozenset()) -> list[list[int]]:
    """Each node's children (rooted) or neighbours (unrooted), in edge order,
    over the edges whose index in `G.edges` is not in `off`."""
    adj: list[list[int]] = [[] for _ in range(G.num_nodes)]
    undirected = G.mode != ROOTED
    for u, v in [e for i, e in enumerate(G.edges) if i not in off] if off else G.edges:
        adj[u].append(v)
        if undirected:
            adj[v].append(u)
    return adj


def _indegrees(G: Graph) -> list[int]:
    indeg = [0] * G.num_nodes
    for _, v in G.edges:
        indeg[v] += 1
    return indeg


def root_of(G: Graph) -> int:
    """The unique in-degree-0 node of a rooted graph."""
    roots = [v for v, d in enumerate(_indegrees(G)) if d == 0]
    if len(roots) != 1:
        raise ValueError("graph does not have a single root")
    return roots[0]


def reticulations_of(G: Graph) -> list[int]:
    """In-degree-2 nodes of a rooted graph, in id order."""
    return [v for v, d in enumerate(_indegrees(G)) if d >= 2]


def reticulation_count(N: Graph) -> int:
    """r(N): in-degree-2 node count (rooted) or |E| - |V| + 1 (unrooted)."""
    if N.mode == ROOTED:
        return len(reticulations_of(N))
    return len(N.edges) - N.num_nodes + 1


# ---------------------------------------------------------------------------
# walks


def hang(G: Graph, start: int, off: Collection[int] = frozenset()) -> tuple[list[int], list[int]]:
    """BFS order of the nodes reachable from `start`, and each one's parent.

    Rooted graphs are walked along their edge directions, and the edges
    whose index is in `off` are left out.  `start` is its own parent;
    unreached nodes have parent -1.
    """
    adj = adjacency(G, off)
    parent = [-1] * G.num_nodes
    parent[start] = start
    order = [start]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def topological_order(G: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """Nodes of a rooted graph, each after all of its parents (Kahn, sources first),
    and the `adjacency(G)` children and `_indegrees(G)` in-degrees it read, unchanged.

    Nodes on or below a directed cycle are missing: a cycle shows as a short order.
    """
    children, indeg = adjacency(G), _indegrees(G)
    left = indeg[:]
    order = [v for v, d in enumerate(indeg) if d == 0]
    for v in order:
        for c in children[v]:
            left[c] -= 1
            if left[c] == 0:
                order.append(c)
    return order, children, indeg


# ---------------------------------------------------------------------------
# validation


def _is_connected(num_nodes: int, edges: Iterable[Edge]) -> bool:
    G = Graph(UNROOTED, num_nodes, tuple(edges), ())
    return num_nodes > 0 and len(hang(G, 0)[0]) == num_nodes


def _common_violations(G: Graph) -> list[str]:
    bad = []
    for u, v in G.edges:
        if not (0 <= u < G.num_nodes and 0 <= v < G.num_nodes):
            bad.append("edge endpoint out of range")
        if u == v:
            bad.append("self-loop")
    if len(set(_norm_edge(UNROOTED, u, v) for u, v in G.edges)) != len(G.edges):
        bad.append("parallel edges")
    labels = [x for _, x in G.leaf_labels]
    nodes = [v for v, _ in G.leaf_labels]
    if len(set(nodes)) != len(nodes):
        bad.append("node labelled twice")
    if sorted(labels) != list(range(1, len(labels) + 1)):
        bad.append("leaf labels are not a bijection onto [n]")
    return bad


def _validate_rooted_graph(G: Graph) -> list[str]:
    bad = _common_violations(G)
    if bad:
        return bad
    if G.num_nodes == 1:
        if len(G.edges) != 0:
            bad.append("single node with edges")
        if dict(G.leaf_labels) != {0: 1}:
            bad.append("degenerate tree must be one leaf labelled 1")
        return bad
    order, children, indeg = topological_order(G)
    if len(order) < G.num_nodes:
        bad.append("directed cycle")
    if indeg.count(0) != 1:
        bad.append("single source violated")
        return bad
    # a DAG with one source reaches every node from it
    if len(order) < G.num_nodes and not _is_connected(G.num_nodes, G.edges):
        bad.append("not connected")
    # with every degree right, |E| = the sum of in-degrees = |V| - 1 + r
    labelled = set(v for v, _ in G.leaf_labels)
    for v in range(G.num_nodes):
        din, dout = indeg[v], len(children[v])
        if din == 0:
            if dout != 2:
                bad.append("root out-degree must be 2")
            if v in labelled:
                bad.append("root is labelled")
        elif dout == 0:
            if din != 1:
                bad.append("leaf in-degree must be 1")
            if v not in labelled:
                bad.append("unlabelled leaf")
        elif din + dout == 3:  # both are at least 1: a tree node or a reticulation
            if v in labelled:
                bad.append("internal node is labelled")
        else:
            bad.append("not binary")
    return bad


def _validate_unrooted_graph(G: Graph) -> list[str]:
    bad = _common_violations(G)
    if bad:
        return bad
    for u, v in G.edges:
        if u > v:
            bad.append("unrooted edge not stored as (min, max)")
            return bad
    if G.num_nodes == 1:
        if len(G.edges) != 0 or dict(G.leaf_labels) != {0: 1}:
            bad.append("degenerate tree must be one leaf labelled 1")
        return bad
    if not _is_connected(G.num_nodes, G.edges):
        bad.append("not connected")
        return bad
    deg = [len(nb) for nb in adjacency(G)]
    labelled = set(v for v, _ in G.leaf_labels)
    for v in range(G.num_nodes):
        if deg[v] == 1:
            if v not in labelled:
                bad.append("unlabelled leaf")
        elif deg[v] == 3:
            if v in labelled:
                bad.append("internal node is labelled")
        else:
            bad.append("not binary (internal degree must be 3)")
    return bad


def _validate_switching(s: Switching) -> list[str]:
    host = s.host
    bad = list(validate(host).violations)
    if bad:
        return ["host invalid: " + b for b in bad]
    if not all(type(i) is int and 0 <= i < len(host.edges) for i in s.off):
        return ["off edge not in host"]
    r = reticulation_count(host)
    if len(s.off) != r:
        bad.append("off edge count differs from reticulation number")
    if host.mode == ROOTED:
        per_ret = defaultdict(int)  # the messages below come in edge order
        for i in sorted(s.off):
            per_ret[host.edges[i][1]] += 1
        rets = set(reticulations_of(host))
        for v, k in per_ret.items():
            if v not in rets:
                bad.append("off edge does not enter a reticulation")
            elif k != 1:
                bad.append("reticulation with two off parent edges")
    elif (len(host.edges) - len(s.off) != host.num_nodes - 1
          or len(hang(host, 0, s.off)[0]) != host.num_nodes):
        bad.append("on edges do not form a spanning tree")
    return bad


def _validate_labelling(lab: ReticulationLabelling) -> list[str]:
    bad = _validate_switching(lab.switching())
    if bad:
        return bad
    hs = [h for _, h in lab.numbered]
    if sorted(hs) != list(range(1, len(hs) + 1)):
        bad.append("numbered labels are not a bijection onto [r]")
    return bad


def validate(obj) -> ValidationReport:
    """List every violated invariant of a graph, switching, labelling, or tree set.

    Total: never raises, never mutates.  An empty report means valid.
    """
    if isinstance(obj, Graph):
        v = (_validate_rooted_graph if obj.mode == ROOTED else _validate_unrooted_graph)(obj)
    elif isinstance(obj, Switching):
        v = _validate_switching(obj)
    elif isinstance(obj, ReticulationLabelling):
        v = _validate_labelling(obj)
    elif isinstance(obj, TreeSet):
        v = []
        if not obj.trees:
            v.append("t must be at least 1")
        else:
            from .canonical import canonical_code

            for T in obj.trees:
                if T.mode != obj.mode:
                    v.append("member mode mismatch")
                bad = validate(T).violations
                v.extend(bad)
                if not bad and reticulation_count(T) != 0:
                    v.append("member is not a tree")
            if len({T.n for T in obj.trees}) != 1:
                v.append("members disagree on n")
            codes = [canonical_code(T).bytes for T in obj.trees]
            if len(set(codes)) != len(codes):
                v.append("members are not pairwise non-isomorphic")
    else:
        v = ["unknown object type"]
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# suppression


def suppress(G: Graph, off: Collection[int] = frozenset()) -> Graph:
    """The phylogenetic tree that G's edges, less those whose index is in `off`, subdivide.

    Removes unlabelled pendant chains, then contracts degree-2 vertices
    (rooted: in-degree-1/out-degree-1 nodes and out-degree-1 roots).
    Inverse of edge subdivision.  The tree a switching sigma of N
    certifies is `suppress(N, sigma.off)`.

    One walk along the kept edges from G's first in-degree-0 node
    (rooted) or its least labelled node (unrooted) must enter every node
    exactly once, else the kept edges are not a tree and NotATree is
    raised.  Then one bottom-up pass: a node survives iff it is labelled
    or at least two of its subtrees hold labels; each survivor hangs from
    its nearest surviving ancestor.
    """
    return next(_suppressions(G, (off,)))


def _suppressions(G: Graph, offs: Iterable[Collection[int]]) -> Iterator[Graph]:
    """`suppress(G, off)` for each off in offs, with G's edge lists and start built once."""
    mode, num_nodes, labels = G.mode, G.num_nodes, dict(G.leaf_labels)
    lists: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]  # (edge index, child)
    undirected = mode != ROOTED
    for i, (u, v) in enumerate(G.edges):
        lists[u].append((i, v))
        if undirected:
            lists[v].append((i, u))
    if mode == ROOTED:
        start = next((v for v, d in enumerate(_indegrees(G)) if d == 0), None)
    else:
        start = min(labels, default=0) if num_nodes else None
    if start is None:
        raise NotATree("input is not a tree")
    for off in offs:
        parent = [-1] * num_nodes
        up = [-1] * num_nodes  # the edge each node is entered by
        parent[start] = start
        order = [start]
        for v in order:
            u = up[v]
            for i, w in lists[v]:
                if i == u or i in off:
                    continue
                if parent[w] >= 0:  # a second way into w: a cycle or two parents
                    raise NotATree("input is not a tree")
                parent[w] = v
                up[w] = i
                order.append(w)
        if len(order) != num_nodes:
            raise NotATree("input is not a tree")
        below: list[list[int]] = [[] for _ in range(num_nodes)]  # topmost survivors under v
        kept: list[int] = []
        edges: list[Edge] = []
        for v in reversed(order):
            b = below[v]
            if v in labels or len(b) >= 2:
                kept.append(v)
                for w in b:  # faster here than edges.extend of a generator
                    edges.append((v, w))
                below[parent[v]].append(v)
            elif b:
                below[parent[v]].append(b[0])
        yield make_graph(mode, kept, edges, labels)


# ---------------------------------------------------------------------------
# leaf-connecting restriction (unrooted)


def is_leaf_connecting(N: Graph) -> bool:
    """True iff every edge of N lies on a simple path between two leaves.

    Join a new node s to every leaf.  An edge lies on a leaf-to-leaf path
    iff it lies on a cycle through s.  A node that disconnects N + s
    separates some edge from every such cycle, and without one any two
    edges lie on a common cycle; so N is leaf-connecting iff no node of N
    disconnects N + s.
    """
    s = N.num_nodes
    edges = list(N.edges) + [(v, s) for v, _ in N.leaf_labels]
    return all(_is_connected(s, [(a - (a > x), b - (b > x)) for a, b in edges if x not in (a, b)])
               for x in range(s))


def tree_set(trees: Iterable[Graph]) -> TreeSet:
    """Build a TreeSet, dropping isomorphic duplicates, in canonical-code order.

    Members must share one mode (else ModeMismatch) and n (else LeafsetMismatch)."""
    from .canonical import classes

    trees = list(trees)
    if not trees:
        raise ValueError("a tree set needs at least one tree")
    mode, n = trees[0].mode, trees[0].n
    for T in trees:
        if T.mode != mode:
            raise ModeMismatch(f"{mode} vs {T.mode}")
        if T.n != n:
            raise LeafsetMismatch(f"{n} vs {T.n} leaves")
    return TreeSet(mode, classes(trees))
