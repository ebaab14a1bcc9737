"""Slow, independent oracles for the fast paths of retnet.

`retnet.display` decides display through switchings; the brute-force
embedding search here is the direct subdivision-subgraph definition it
is checked against.  `retnet.generate` builds networks by edge
addition; `sweep` lists them by decoding every tree through the codec.
`model.is_leaf_connecting` is a cut-node test; `is_leaf_connecting`
here searches the leaf-to-leaf paths themselves.  `subdivide` is the
inverse of suppression.  `model.suppress(G, off)` walks G's edge lists
once, skipping the off edges; `suppress` here builds no such lists: it
checks the edge count, hangs the graph with `model.hang` and keeps the
survivors, and `displayed_tree` runs it on a graph of the on edges.  The
writers
here sort every node's children by the sorted leaf labels below them,
where `retnet.serialize` writes trees by least leaf and breaks ties in
networks only when there are some.  `validate_rooted_graph` builds the
adjacency and in-degrees apart from its Kahn pass, always tests
connectivity and checks the edge count, where `model.validate` reads
all three from one `model.topological_order` call.
"""

from __future__ import annotations

import itertools
from typing import Optional

from retnet import codec, generate, model
from retnet.canonical import classes
from retnet.canonical import canonical_positions
from retnet.errors import ModeMismatch, NotATree, NotInImage, SwitchingMismatch
from retnet.model import Edge, Graph, Switching, ROOTED


def find_embedding(N: Graph, T: Graph) -> Optional[frozenset[Edge]]:
    """Brute-force search for a subgraph of N that is a subdivision of T.

    Returns the edge set of the embedding, or None.  Exponential; meant
    as the ground-truth oracle for `displays` at desk scale.
    """
    if N.mode != T.mode:
        raise ModeMismatch(f"{N.mode} vs {T.mode}")
    directed = N.mode == ROOTED
    n_leaf_of = model.label_map(N)
    t_leaves = dict(T.leaf_labels)
    t_internal = [v for v in range(T.num_nodes) if v not in t_leaves]
    n_leaves = set(dict(N.leaf_labels))
    n_candidates = [v for v in range(N.num_nodes) if v not in n_leaves]

    nbr = model.adjacency(N)
    t_edges = list(T.edges)

    if not t_internal:
        # T is a single leaf or a single edge
        if len(t_leaves) == 1:
            return frozenset()
        (a, la), (b, lb) = sorted(t_leaves.items())
        image = {a: n_leaf_of[la], b: n_leaf_of[lb]}
        return _match_paths(N, t_edges, image, directed, nbr)

    for assignment in itertools.permutations(n_candidates, len(t_internal)):
        image = {tv: nv for tv, nv in zip(t_internal, assignment)}
        for tv, lab in t_leaves.items():
            image[tv] = n_leaf_of[lab]
        emb = _match_paths(N, t_edges, image, directed, nbr)
        if emb is not None:
            return emb
    return None


def _match_paths(N: Graph, t_edges, image: dict[int, int], directed: bool,
                 nbr) -> Optional[frozenset[Edge]]:
    """Internally vertex-disjoint paths realizing each tree edge, by backtracking."""
    targets = set(image.values())
    if len(targets) != len(image):
        return None

    def simple_paths(a: int, b: int, blocked: set[int]):
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for w in nbr[v]:
                if w in path or w in blocked:
                    continue
                if w == b:
                    yield path + (w,)
                elif w not in targets:
                    stack.append((w, path + (w,)))

    def rec(i: int, used: set[int], acc: list[Edge]):
        if i == len(t_edges):
            return frozenset(acc)
        tu, tv = t_edges[i]
        a, b = image[tu], image[tv]
        for path in simple_paths(a, b, used):
            internal = set(path[1:-1])
            new_edges = [model._norm_edge(N.mode, path[j], path[j + 1])
                         for j in range(len(path) - 1)]
            res = rec(i + 1, used | internal, acc + new_edges)
            if res is not None:
                return res
        return None

    return rec(0, set(), [])


def displays_by_subdivision(N: Graph, T: Graph) -> bool:
    """Display per the direct definition: N contains a subdivision of T."""
    return find_embedding(N, T) is not None


def is_leaf_connecting(N: Graph) -> bool:
    """True iff every edge of N lies on a simple path between two leaves, by path search.

    Exponential in the worst case; the oracle for `model.is_leaf_connecting`.
    """
    leaves = set(dict(N.leaf_labels))
    adj = model.adjacency(N)

    def paths_to_leaves(start: int, blocked: frozenset[int]):
        # all simple paths from start to any leaf, avoiding blocked vertices
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if v in leaves:
                yield path
                continue
            for w in adj[v]:
                if w not in blocked and w not in path:
                    stack.append((w, path + (w,)))

    return all(any(True for pu in paths_to_leaves(u, frozenset({v}))
                   for _ in paths_to_leaves(v, frozenset(pu)))
               for u, v in N.edges)


def subdivide(G: Graph, edge: Edge, times: int = 1) -> Graph:
    """Replace one edge of G by a path with `times` internal vertices."""
    edges = list(G.edges)
    edges.remove(edge)
    u, v = edge
    prev = u
    nid = G.num_nodes
    for _ in range(times):
        edges.append(model._norm_edge(G.mode, prev, nid))
        prev = nid
        nid += 1
    edges.append(model._norm_edge(G.mode, prev, v))
    return model.make_graph(G.mode, range(nid), edges, dict(G.leaf_labels))


def sweep(n: int, r: int, mode: str, leaf_connecting: bool) -> tuple[Graph, ...]:
    """Decode every tree on n + 2r leaves and keep one network per class.

    Complete because every labelled network decodes from its own
    encoding.  Ordered by canonical code, like `enumerate_networks`.
    """
    def decoded():
        for T in generate.enumerate_trees(n + 2 * r, mode):
            try:
                yield codec.decode_tau(T, n, r)[0]
            except NotInImage:
                pass

    return classes(N for N in decoded()
                   if mode == ROOTED or not leaf_connecting or is_leaf_connecting(N))


def validate_rooted_graph(G: Graph) -> list[str]:
    """The violations `model.validate` lists for a rooted graph, each found on its own."""
    bad = model._common_violations(G)
    if bad:
        return bad
    if G.num_nodes == 1:
        if len(G.edges) != 0:
            bad.append("single node with edges")
        if dict(G.leaf_labels) != {0: 1}:
            bad.append("degenerate tree must be one leaf labelled 1")
        return bad
    indeg, outdeg = model._indegrees(G), [len(c) for c in model.adjacency(G)]
    if len(model.topological_order(G)[0]) != G.num_nodes:
        bad.append("directed cycle")
    roots = [v for v in range(G.num_nodes) if indeg[v] == 0]
    if len(roots) != 1:
        bad.append("single source violated")
        return bad
    if not model._is_connected(G.num_nodes, G.edges):
        bad.append("not connected")
    labelled = set(v for v, _ in G.leaf_labels)
    r = 0
    for v in range(G.num_nodes):
        din, dout = indeg[v], outdeg[v]
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
        elif din == 1 and dout == 2:
            if v in labelled:
                bad.append("internal node is labelled")
        elif din == 2 and dout == 1:
            if v in labelled:
                bad.append("internal node is labelled")
            r += 1
        else:
            bad.append("not binary")
    if not bad and len(G.edges) != G.num_nodes - 1 + r:
        bad.append("edge count does not match |V| - 1 + r")
    return bad


def suppress(G: Graph) -> Graph:
    """Contract a graph-theoretic tree down to a phylogenetic tree.

    One bottom-up pass over the BFS order from the root (rooted) or the
    least labelled node (unrooted): a node survives iff it is labelled or
    at least two of its subtrees hold labels; each survivor hangs from its
    nearest surviving ancestor.
    """
    mode, num_nodes, labels = G.mode, G.num_nodes, dict(G.leaf_labels)
    if mode == ROOTED:
        start = next((v for v, d in enumerate(model._indegrees(G)) if d == 0), None)
    else:
        start = min(labels, default=0)
    # |E| = |V| - 1 and every node reached from the start: a tree (rooted:
    # an arborescence, so no node with two parents and no directed cycle)
    if len(G.edges) != num_nodes - 1 or start is None:
        raise NotATree("input is not a tree")
    order, parent = model.hang(G, start)
    if len(order) != num_nodes:
        raise NotATree("input is not a tree")
    below: list[list[int]] = [[] for _ in range(num_nodes)]  # topmost survivors under v
    kept: list[int] = []
    new_edges: list[Edge] = []
    for v in reversed(order):
        if v in labels or len(below[v]) >= 2:
            kept.append(v)
            new_edges.extend((v, w) for w in below[v])
            below[parent[v]].append(v)
        elif below[v]:
            below[parent[v]].append(below[v][0])
    return model.make_graph(mode, kept, new_edges, labels)


def displayed_tree(N: Graph, sigma: Switching) -> Graph:
    """The tree of one switching: a graph of the on edges, suppressed."""
    if sigma.host != N:
        raise SwitchingMismatch("switching is not hosted by this network")
    on_edges = tuple(e for i, e in enumerate(N.edges) if i not in sigma.off)
    return suppress(Graph(N.mode, N.num_nodes, on_edges, N.leaf_labels))


def tree_to_newick(T: Graph) -> str:
    """Newick for a tree, an unrooted one drawn rooted at the internal node next to leaf 1."""
    if T.mode == ROOTED:
        return network_to_enewick(T)
    if T.num_nodes == 2:
        return "(1,2);"
    if T.num_nodes > 2:
        leaf1 = model.label_map(T)[1]
        order, parent = model.hang(T, leaf1)
        edges = ((order[1], leaf1),) + tuple((parent[w], w) for w in order[2:])
        T = Graph(ROOTED, T.num_nodes, edges, T.leaf_labels)
    return network_to_enewick(T)


def network_to_enewick(N: Graph) -> str:
    """Extended Newick with every node's children sorted by the sorted
    labels of the leaves below them, and by canonical position after that."""
    children = model.adjacency(N)
    leaves = dict(N.leaf_labels)
    rets = model.reticulations_of(N)
    order = model.topological_order(N)[0]
    reach: dict[int, tuple] = {}
    for v in reversed(order):
        if v in leaves:
            reach[v] = (leaves[v],)
        else:
            reach[v] = tuple(sorted({x for c in children[v] for x in reach[c]}))
    key = reach.__getitem__
    if rets:
        pos_of = canonical_positions(N)
        key = lambda v: (reach[v], pos_of[v])
    ret_tag = {v: k for k, v in enumerate(sorted(rets, key=key), 1)}
    out: list[str] = []
    written: set[int] = set()
    stack: list = [order[0]]
    while stack:
        v = stack.pop()
        if type(v) is str:
            out.append(v)
        elif v in leaves:
            out.append(str(leaves[v]))
        elif v in written:
            out.append(f"#H{ret_tag[v]}")
        else:
            written.add(v)
            stack.append(f")#H{ret_tag[v]}" if v in ret_tag else ")")
            kids = sorted(children[v], key=key)
            for c in reversed(kids[1:]):
                stack += [c, ","]
            stack.append(kids[0])
            out.append("(")
    return "".join(out) + ";"
