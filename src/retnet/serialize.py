"""Newick / extended Newick / JSON serialization.

Leaves are written as their decimal labels.  `network_to_enewick`
writes rooted networks as extended Newick with reticulations tagged
#H1..#Hr, where the first traversal visit carries the reticulation's
subtree and later visits are bare tags.  Children and reticulations are
ordered by the sorted labels of the leaves below them; the canonical
position search breaks ties, and runs only when two siblings or two
reticulations reach the same leaves.  A tree has no tags, and its
sibling leaf sets are disjoint, so `network_to_enewick` and
`tree_to_newick` hand trees to `_tree_newick`, which orders siblings by
their least leaf label: the same order, with no leaf sets built.  One
bottom-up fold finds each node's least leaf and writes its text.  A
rooted tree's children and root come from one pass over its edges; an
unrooted tree is drawn rooted at the internal node next to leaf 1.
Networks are written by the stack emitter `_newick`.
Unrooted networks are JSON edge lists.
One iterative reader, `_parse`, reads both written forms.  It numbers a
leaf or bare tag when it is read and an internal node at its ")" (a
tagged node when its tag is first seen); `newick_to_tree` renumbers
tree nodes in written order (pre-order).  So parse(serialize(G))
reproduces G's serialization byte for byte.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import defaultdict

from . import model
from .errors import InvalidLabelling, ParseError, RetnetError
from .model import Edge, Graph, ReticulationLabelling, ROOTED, UNROOTED


# ---------------------------------------------------------------------------
# trees and rooted networks (one writer)


def tree_to_newick(T: Graph) -> str:
    """Newick for a rooted or unrooted tree, siblings by least leaf label."""
    if T.mode == ROOTED:
        return network_to_enewick(T)
    if T.num_nodes == 2:
        return "(1,2);"
    kids: list[list[int]] = [[] for _ in range(T.num_nodes)]
    order = [0]
    if T.num_nodes > 2:
        # root the drawing at the internal node next to leaf 1: hung from
        # leaf 1, only the edge between the two points the other way
        leaf1 = model.label_map(T)[1]
        order, parent = model.hang(T, leaf1)
        for w in order[2:]:
            kids[parent[w]].append(w)
        kids[order[1]].append(leaf1)
        order[:2] = order[1], leaf1
    return _tree_newick(kids, T.leaf_labels, order)


def _tree_newick(kids: list[list[int]], labels: tuple[tuple[int, int], ...],
                 order: list[int]) -> str:
    """Newick of the tree hung from order[0] by `kids`, with its (leaf, label) pairs;
    `order` lists each node after its parent.

    One bottom-up fold writes each node's text and finds its least leaf
    label, by which its children are written.  Sibling leaf sets are
    disjoint, so this is the order of their sorted leaf sets, the key
    `network_to_enewick` sorts networks by.
    """
    least = [0] * len(kids)
    text = [""] * len(kids)
    for v, x in labels:
        least[v] = x
        text[v] = str(x)
    for v in reversed(order):
        below = kids[v]
        if len(below) == 2:
            a, b = below
            if least[b] < least[a]:
                a, b = b, a
            least[v] = least[a]
            text[v] = "(" + text[a] + "," + text[b] + ")"
            text[a] = text[b] = ""  # each text is held once: memory stays linear
        elif below:  # the drawn root of an unrooted tree has three children
            below.sort(key=least.__getitem__)
            least[v] = least[below[0]]
            text[v] = "(" + ",".join([text[c] for c in below]) + ")"
    return text[order[0]] + ";"


def _newick(root: int, kids: list[list[int]], leaves: dict[int, int], tag: dict[int, int]) -> str:
    """Newick of the graph hung from `root` by `kids`, children in list order; a node
    in `tag` is written #H<tag> after its subtree on its first visit, bare later."""
    text = {v: str(x) for v, x in leaves.items()}
    out: list[str] = []
    stack: list = [root]
    while stack:
        v = stack.pop()
        if type(v) is str:
            out.append(v)
        elif v in text:
            out.append(text[v])
        else:
            if v in tag:  # written as the bare tag from now on
                text[v] = f"#H{tag[v]}"
                stack.append(")" + text[v])
            else:
                stack.append(")")
            below = kids[v]
            for c in reversed(below[1:]):
                stack += [c, ","]
            stack.append(below[0])
            out.append("(")
    return "".join(out) + ";"


_TOKEN = re.compile(r"\(|\)|,|;|#H\d+|\d+")


def _tokenize(s: str) -> list[str]:
    toks = _TOKEN.findall(s)
    if "".join(toks) != s.replace(" ", "").replace("\n", ""):
        raise ParseError(f"unrecognized characters in {s!r}")
    return toks


def _parse(s: str, what: str) -> tuple[int, list[Edge], dict[int, int]]:
    """Read one written tree or network into (num_nodes, edges, labels).

    Nodes are numbered as they complete: a leaf or a bare tag when it is
    read, an internal node at its ")" unless its tag was seen first.
    Only `what == "network"` accepts #H tags.
    """
    toks = _tokenize(s)
    if not toks or toks[-1] != ";":
        raise ParseError("missing trailing semicolon")
    network = what == "network"
    fresh = itertools.count().__next__
    edges: list[Edge] = []
    labels: dict[int, int] = {}
    tag_node: dict[str, int] = defaultdict(fresh)  # numbered when first seen
    has_subtree: set[str] = set()
    open_kids: list[list[int]] = []  # children read so far under each open "("
    pos = 0
    while True:
        tok = toks[pos]
        pos += 1
        if tok == "(":
            open_kids.append([])
            continue
        if tok.isdigit():
            v = fresh()
            labels[v] = int(tok)
        elif network and tok.startswith("#H"):
            v = tag_node[tok]
        else:
            raise ParseError(f"unexpected token {tok!r}")
        # v is complete: close every ")" that follows it
        while open_kids:
            tok = toks[pos]
            pos += 1
            if tok == ",":
                open_kids[-1].append(v)
                break
            if tok != ")":
                raise ParseError("expected ',' or ')'")
            kids = open_kids.pop() + [v]
            if network and toks[pos].startswith("#H"):
                tag = toks[pos]
                pos += 1
                if tag in has_subtree:
                    raise ParseError(f"duplicate subtree for {tag}")
                has_subtree.add(tag)
                v = tag_node[tag]
            else:
                v = fresh()
            edges.extend((v, c) for c in kids)
        if not open_kids:  # v is the root
            if pos != len(toks) - 1:
                raise ParseError(f"trailing content after {what}")
            return fresh(), edges, labels  # the next unused id is the node count


def newick_to_tree(s: str, mode: str = ROOTED) -> Graph:
    num, edges, labels = _parse(s, "tree")
    # renumber in pre-order (written order): siblings' ids are in written order
    kids = model.adjacency(Graph(ROOTED, num, tuple(edges), ()))
    pre = [0] * num
    stack = [num - 1]
    for k in range(num):
        v = stack.pop()
        pre[v] = k
        stack += reversed(kids[v])
    T = model.make_graph(mode, range(num), [(pre[u], pre[c]) for u, c in edges],
                         {pre[v]: x for v, x in labels.items()})
    if mode == UNROOTED and T.num_nodes > 1:
        # the written form roots the drawing at an internal node; a
        # two-leaf tree leaves that node with degree 2, so contract it
        try:
            T = model.suppress(T)
        except RetnetError as exc:
            raise ParseError(str(exc)) from exc
    model.check(T, ParseError)
    return T


def network_to_enewick(N: Graph) -> str:
    """Extended Newick for a rooted network or tree, children in sorted order."""
    if len(N.edges) < N.num_nodes:  # |E| = |V| - 1 + r: a tree
        kids: list[list[int]] = [[] for _ in range(N.num_nodes)]
        root = N.num_nodes * (N.num_nodes - 1) // 2  # less every node with a parent
        for u, v in N.edges:
            kids[u].append(v)
            root -= v
        order = [root]
        for v in order:
            order += kids[v]
        return _tree_newick(kids, N.leaf_labels, order)
    leaves = dict(N.leaf_labels)
    order, children, indeg = model.topological_order(N)
    rets = [v for v, d in enumerate(indeg) if d >= 2]
    reach: dict[int, tuple] = {}  # sorted labels of the leaves below each node
    for v in reversed(order):
        if v in leaves:
            reach[v] = (leaves[v],)
        else:
            reach[v] = tuple(sorted({x for c in children[v] for x in reach[c]}))
    key = reach.__getitem__
    if _ties(rets, reach) or any(_ties(children[v], reach) for v in order if v not in leaves):
        # ties in reachable-leaf sets (nested reticulations) are broken by
        # canonical position, so the output is a graph invariant
        from .canonical import canonical_positions
        pos_of = canonical_positions(N)
        key = lambda v: (reach[v], pos_of[v])
    ret_tag = {v: k for k, v in enumerate(sorted(rets, key=key), 1)}
    # children in sorted order, so a reticulation's first textual occurrence
    # carries its subtree and later ones are bare tags
    return _newick(order[0], [sorted(c, key=key) for c in children], leaves, ret_tag)


def _ties(nodes: list[int], reach: dict[int, tuple]) -> bool:
    """Whether two of the nodes reach the same leaves (a node listed twice does)."""
    return len({reach[v] for v in nodes}) < len(nodes)


def enewick_to_network(s: str) -> Graph:
    num, edges, labels = _parse(s, "network")
    N = model.make_graph(ROOTED, range(num), edges, labels)
    model.check(N, ParseError)
    return N


# ---------------------------------------------------------------------------
# unrooted networks (JSON edge lists)


def network_to_json(N: Graph) -> str:
    doc = {
        "nodes": list(range(N.num_nodes)),
        "edges": [[u, v] for u, v in N.edges],
        "leaves": {str(x): v for v, x in N.leaf_labels},
    }
    return json.dumps(doc, sort_keys=True)


# what bad JSON, or JSON of the wrong shape, raises when it is unpacked
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError)


def _malformed(what: str, exc: Exception) -> ParseError:
    return ParseError(f"malformed {what} JSON: {type(exc).__name__}: {exc}")


def json_to_network(s: str) -> Graph:
    try:
        doc = json.loads(s)
        leaves = doc["leaves"]
        for v in [*doc["nodes"], *(u for e in doc["edges"] for u in e), *leaves.values()]:
            if type(v) is not int:
                raise ParseError(f"node ids must be integers, not {v!r}")
        labels = {v: int(x) for x, v in leaves.items()}
        N = model.make_graph(UNROOTED, doc["nodes"], [tuple(e) for e in doc["edges"]], labels)
    except _MALFORMED as exc:
        raise _malformed("network", exc) from exc
    model.check(N, ParseError)
    return N


# ---------------------------------------------------------------------------
# labelled networks (graph serialization plus an edge-number sidecar)


def labelling_to_json(lab: ReticulationLabelling) -> str:
    """The sidecar: each numbered edge as [u, v, h], its end nodes in the host and its number."""
    doc = {"edge_labels": [[*lab.host.edges[i], h] for i, h in lab.numbered]}
    return json.dumps(doc, sort_keys=True)


def json_to_labelling(host, s: str) -> ReticulationLabelling:
    """Read a sidecar against its host; a pair that is not a host edge raises InvalidLabelling."""
    pairs = []
    try:
        doc = json.loads(s)
        for u, v, h in doc["edge_labels"]:
            if not all(type(x) is int for x in (u, v, h)):
                raise ParseError(f"edge label entries must be integers, not {[u, v, h]}")
            pairs.append((model._norm_edge(host.mode, u, v), h))
    except _MALFORMED as exc:
        raise _malformed("labels", exc) from exc
    index = {e: i for i, e in enumerate(host.edges)}
    if not all(e in index for e, _ in pairs):
        raise InvalidLabelling("off edge not in host")
    pairs.sort(key=lambda eh: eh[1])
    return ReticulationLabelling(host, tuple((index[e], h) for e, h in pairs))
