"""Slow, independent oracles for the fast paths of retnet.

`retnet.display` decides display through switchings; the brute-force
embedding search here is the direct subdivision-subgraph definition it
is checked against.  `retnet.generate` builds networks by edge
addition; `sweep` lists them by decoding every tree through the codec.
`model.is_leaf_connecting` is a cut-node test; `is_leaf_connecting`
here searches the leaf-to-leaf paths themselves.  `subdivide` is the
inverse of suppression.  `generate._level` codes each leaf-insertion
child along the move's path and sorts the level once; `leaf_insertion`
here codes every child from scratch and keeps one per class.
`model.suppress(G, off)` walks G's edge lists once, skipping the off
edges; `suppress` here builds no such lists: it
checks the edge count, hangs the graph with `model.hang` and keeps the
survivors, and `displayed_tree` runs it on a graph of the on edges.
`generate._off_edges` walks only the edge sets that leave N connected;
`unrooted_off_edges` tests every r-set of edges by union-find.  The
writers here sort every node's children by the sorted leaf labels below them,
where `retnet.serialize` writes trees by least leaf and breaks ties in
networks only when there are some.  `validate_rooted_graph` builds the
adjacency and in-degrees apart from its Kahn pass, always tests
connectivity and checks the edge count, where `model.validate` reads
all three from one `model.topological_order` call;
`validate_unrooted_graph` keeps the unrooted checks and degree loop
apart from the rooted ones, where `model.validate` writes one loop for
both modes.  `bounds` encloses
lg m!, lg k!! and lg C(k!!, t) with integer fixed-point logarithms; the
`iv_*` evaluators here are the same Robbins bounds in `mpmath.iv` at 192
bits, and `iv_formula_lower_bound` rounds `mpmath.iv` endpoints to nearest
at 53 bits through `mpmath.mpf`.  `canonical._canon_general` splits cells
in place and re-reads only the cells a round can split;
`canon_general_rounds` re-ranks every node in every round.
`solver._labelled_classes` reads a network's labelled classes off its
automorphisms; `labelled_classes` searches each labelling.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional

import mpmath

from retnet import bounds, canonical, codec, generate, model
from retnet.canonical import classes
from retnet.canonical import canonical_positions
from retnet.errors import MODES, ModeMismatch, NotATree, NotInImage
from retnet.model import Edge, Graph, ReticulationLabelling, Switching, ROOTED, UNROOTED


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


def leaf_insertion(n: int, mode: str) -> tuple[Graph, ...]:
    """The trees on [n]: every leaf-insertion child of every tree on [n - 1],
    one per class, ordered by canonical code, like `enumerate_trees`."""
    if n == 1:
        return (Graph(mode, 1, (), ((0, 1),)),)
    if n == 2 and mode == UNROOTED:  # the one-node tree has no edge to subdivide
        return (Graph(UNROOTED, 2, ((0, 1),), ((0, 1), (1, 2))),)
    return classes(C for P in leaf_insertion(n - 1, mode) for C in generate._add_leaf(P))


def sweep(n: int, r: int, mode: str, leaf_connecting: bool) -> tuple[Graph, ...]:
    """Decode every tree on n + 2r leaves and keep one network per class.

    Complete because every labelled network decodes from its own
    encoding.  Ordered by canonical code, like `enumerate_networks`.
    """
    def decoded():
        for T in generate.enumerate_trees(n + 2 * r, mode):
            try:
                yield codec.decode_tau(T, n, r).host
            except NotInImage:
                pass

    return classes(N for N in decoded()
                   if mode == ROOTED or not leaf_connecting or is_leaf_connecting(N))


def _int_pairs(items) -> bool:
    return isinstance(items, tuple) and all(
        type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
        for p in items)


def _common_violations(G: Graph) -> list[str]:
    """The mode, the fields' types, then the edges' and labels' checks of both modes."""
    bad = [] if G.mode in MODES else ["unknown mode"]
    if type(G.num_nodes) is not int:
        bad.append("node count is not an integer")
    if not _int_pairs(G.edges):
        bad.append("edges are not a tuple of integer pairs")
    if not _int_pairs(G.leaf_labels):
        bad.append("leaf labels are not a tuple of integer (node, label) pairs")
    if bad:
        return bad
    for u, v in G.edges:
        if not (0 <= u < G.num_nodes and 0 <= v < G.num_nodes):
            bad.append("edge endpoint out of range")
        if u == v:
            bad.append("self-loop")
    if len(set(frozenset(e) for e in G.edges)) != len(G.edges):
        bad.append("parallel edges")
    labels = [x for _, x in G.leaf_labels]
    nodes = [v for v, _ in G.leaf_labels]
    if len(set(nodes)) != len(nodes):
        bad.append("node labelled twice")
    if sorted(labels) != list(range(1, len(labels) + 1)):
        bad.append("leaf labels are not a bijection onto [n]")
    return bad


def validate_rooted_graph(G: Graph) -> list[str]:
    """The violations `model.validate` lists for a rooted graph, each found on its own."""
    bad = _common_violations(G)
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


def validate_unrooted_graph(G: Graph) -> list[str]:
    """The violations `model.validate` lists for an unrooted graph, with its own degree loop."""
    bad = _common_violations(G)
    if bad:
        return bad
    for u, v in G.edges:
        if u > v:
            bad.append("unrooted edge not stored as (min, max)")
            return bad
    if G.num_nodes == 1:
        if dict(G.leaf_labels) != {0: 1}:
            bad.append("degenerate tree must be one leaf labelled 1")
        return bad
    if not model._is_connected(G.num_nodes, G.edges):
        bad.append("not connected")
        return bad
    deg = [len(nb) for nb in model.adjacency(G)]
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


def displayed_tree(sigma: Switching) -> Graph:
    """The tree of one switching: a graph of its network's on edges, suppressed."""
    N = sigma.host
    on_edges = tuple(e for i, e in enumerate(N.edges) if i not in sigma.off)
    return suppress(Graph(N.mode, N.num_nodes, on_edges, N.leaf_labels))


def unrooted_off_edges(N: Graph) -> list[tuple[int, ...]]:
    """Each r-set of N's edges, in sorted edge order as `itertools.combinations`
    lists them, whose other |V| - 1 edges close no cycle, by union-find: the
    unrooted switchings, in `generate._off_edges` order."""
    r = model.reticulation_count(N)
    found = []
    for off in itertools.combinations(sorted(range(len(N.edges)), key=N.edges.__getitem__), r):
        root = list(range(N.num_nodes))
        for i, (a, b) in enumerate(N.edges):
            if i not in off:
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                if a == b:
                    break
                root[a] = b
        else:
            found.append(off)
    return found


def canon_general_rounds(X) -> tuple[bytes, tuple[int, ...], int]:
    """`canonical._canon_general` by whole rounds: the general-path code of a graph
    or labelled network, its node -> position map, and how many search leaves
    reach the least encoding.

    Each round ranks every node by (colour, sorted in-colours, sorted
    out-colours), with edge numbers, until the number of colours stops
    growing; a node is individualized by re-ranking every node.
    """
    G, elabels = (X, {}) if isinstance(X, Graph) else (X.host, dict(X.numbered))
    num_nodes, edges, vlabels = G.num_nodes, G.edges, dict(G.leaf_labels)
    directed = G.mode == ROOTED
    out_nb: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    in_nb = [[] for _ in range(num_nodes)] if directed else out_nb  # unrooted: one list
    for i, (u, v) in enumerate(edges):
        lab = elabels.get(i, 0)
        out_nb[u].append((v, lab))
        in_nb[v].append((u, lab))

    def rank(keys: list) -> list[int]:
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [order[k] for k in keys]

    def refine(cols: list[int]) -> list[int]:
        while True:
            new = rank([(cols[v],
                         tuple(sorted((cols[u], lab) for u, lab in in_nb[v])),
                         tuple(sorted((cols[u], lab) for u, lab in out_nb[v])))
                        for v in range(num_nodes)])
            if len(set(new)) == len(set(cols)):
                return new
            cols = new

    def encode(pos: list[int]) -> bytes:
        if directed:
            es = sorted((pos[u], pos[v], elabels.get(i, 0)) for i, (u, v) in enumerate(edges))
        else:
            es = sorted(tuple(sorted((pos[u], pos[v]))) + (elabels.get(i, 0),)
                        for i, (u, v) in enumerate(edges))
        ls = sorted((pos[v], x) for v, x in vlabels.items())
        return repr((num_nodes, es, ls)).encode()

    best: list = []

    def search(cols: list[int]) -> None:
        cols = refine(cols)
        cells: dict[int, list[int]] = {}
        for v in range(num_nodes):
            cells.setdefault(cols[v], []).append(v)
        target = min((c for c in cells if len(cells[c]) > 1), default=None)
        if target is None:
            enc = encode(cols)
            if not best or enc < best[0]:
                best[:] = [enc, tuple(cols), 1]
            elif enc == best[0]:
                best[2] += 1
            return
        for v in cells[target]:
            search(rank([(cols[u], 0 if u == v else 1) if cols[u] == target else (cols[u], 2)
                         for u in range(num_nodes)]))

    search(rank([("L", vlabels[v]) if v in vlabels else ("I", 0) for v in range(num_nodes)]))
    return canonical._header(G.mode) + b"G" + best[0], best[1], best[2]


def labelled_classes(N: Graph) -> Iterator[tuple[ReticulationLabelling, bytes, int]]:
    """Each reticulation labelling of N with its canonical code and automorphism
    count, each read from the labelling's own search, where `solver` reads
    them off one search of N."""
    for lab in generate.all_reticulation_labellings(N):
        yield lab, canonical.canonical_code(lab).bytes, canonical.automorphism_count(lab)


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


IV_PREC = 192  # bits


def _iv():
    mpmath.iv.prec = IV_PREC
    return mpmath.iv


def mpf_to_fraction(x) -> Fraction:
    """x rounded to nearest at the `mp` context's precision, 53 bits by default."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    num = -man if sign else man
    if exp >= 0:
        return Fraction(num * (1 << exp))
    return Fraction(num, 1 << -exp)


def iv_lg_factorial(m: int):
    """An `mpmath.iv` enclosure of lg m!, by Robbins' bounds for m >= 2:
    ln m! in [S + 1/(12m+1), S + 1/(12m)], S = ln(2 pi m)/2 + m ln m - m."""
    iv = _iv()
    if m < 2:
        return iv.mpf(0)
    mm = iv.mpf(m)
    s = iv.log(2 * iv.pi * mm) / 2 + mm * iv.log(mm) - mm
    return (s + 1 / (12 * mm + iv.mpf([0, 1]))) / iv.log(2)


def iv_lg_double_factorial(k: int):
    """An `mpmath.iv` enclosure of lg k!! for odd k = 2m - 1: lg (2m)! - m - lg m!."""
    m = (k + 1) // 2
    return iv_lg_factorial(2 * m) - m - iv_lg_factorial(m)


def iv_lg_binomial_of_df(df_arg: int, t: int):
    """An `mpmath.iv` enclosure of lg C(M, t) with M = df_arg!!, for lg M > 64."""
    lgm = iv_lg_double_factorial(df_arg)
    return t * (lgm - _iv().mpf([0, 3 * t]) / 2 ** 64) - iv_lg_factorial(t)


def iv_formula_lower_bound(n: int, t: int, mode: str) -> bounds.RealInterval:
    """`bounds.formula_lower_bound` off its power-of-two path, with lg n and lg t
    in `mpmath.iv` and each end of the quotient rounded by `mpf_to_fraction`."""
    iv = _iv()
    lg_n = iv.log(iv.mpf(n)) / iv.log(2)
    lg_t = iv.log(iv.mpf(t)) / iv.log(2)
    if mode == ROOTED:
        v = ((t - 1) * n * lg_n - 6 * t * n - t * lg_t) / (lg_n + t + lg_t)
    else:
        v = ((t - 1) * n * lg_n - t * (8 * n + lg_n + lg_t - 1)) / (lg_n + 3 * t + lg_t)
    return bounds.RealInterval(mpf_to_fraction(v.a), mpf_to_fraction(v.b))
