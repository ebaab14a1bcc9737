"""Newick / extended Newick / JSON serialization.

Leaves are written as their decimal labels.  One writer,
`network_to_enewick`, writes trees and rooted networks: extended Newick
with reticulations tagged #H1..#Hr, where the first traversal visit
carries the reticulation's subtree and later visits are bare tags.  A
tree has no tags; an unrooted tree is drawn rooted at the internal node
next to leaf 1.  Unrooted networks are JSON edge lists.
Parsers assign node ids in a deterministic order, so parse(serialize(G))
reproduces G's serialization byte for byte.
"""

from __future__ import annotations

import json
import re

from . import model
from .errors import ParseError, RetnetError
from .model import Edge, Graph, ReticulationLabelling, ROOTED, UNROOTED


# ---------------------------------------------------------------------------
# trees and rooted networks (one writer)


def tree_to_newick(T: Graph) -> str:
    """Newick for a rooted or unrooted tree, written by `network_to_enewick`."""
    if T.mode == ROOTED:
        return network_to_enewick(T)
    if T.num_nodes == 2:
        return "(1,2);"
    if T.num_nodes > 2:
        # root the drawing at the internal node next to leaf 1
        adj = model.undirected_adj(T)
        center = adj[model.label_map(T)[1]][0]
        parent = {center: center}
        order = [center]
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        edges = tuple((parent[w], w) for w in order[1:])
        T = Graph(ROOTED, T.num_nodes, edges, T.leaf_labels)
    return network_to_enewick(T)


_TOKEN = re.compile(r"\(|\)|,|;|#H\d+|\d+")


def _tokenize(s: str) -> list[str]:
    toks = _TOKEN.findall(s)
    if "".join(toks) != s.replace(" ", "").replace("\n", ""):
        raise ParseError(f"unrecognized characters in {s!r}")
    return toks


def newick_to_tree(s: str, mode: str = ROOTED) -> Graph:
    toks = _tokenize(s)
    if not toks or toks[-1] != ";":
        raise ParseError("missing trailing semicolon")
    pos = 0
    nid = [0]
    edges: list[Edge] = []
    labels: dict[int, int] = {}

    def fresh() -> int:
        nid[0] += 1
        return nid[0] - 1

    def parse_node() -> int:
        nonlocal pos
        if toks[pos] == "(":
            v = fresh()
            pos += 1
            while True:
                c = parse_node()
                edges.append((v, c))
                if toks[pos] == ",":
                    pos += 1
                    continue
                if toks[pos] == ")":
                    pos += 1
                    break
                raise ParseError("expected ',' or ')'")
            return v
        if toks[pos].isdigit():
            v = fresh()
            labels[v] = int(toks[pos])
            pos += 1
            return v
        raise ParseError(f"unexpected token {toks[pos]!r}")

    root = parse_node()
    if toks[pos] != ";":
        raise ParseError("trailing content after tree")
    T = model.make_graph(mode, range(nid[0]), edges, labels)
    if mode == UNROOTED and T.num_nodes > 1:
        # the written form roots the drawing at an internal node; a
        # two-leaf tree leaves that node with degree 2, so contract it
        try:
            T = model.suppress(T)
        except RetnetError as exc:
            raise ParseError(str(exc)) from exc
    report = model.validate(T)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
    return T


def network_to_enewick(N: Graph) -> str:
    """Extended Newick for a rooted network or tree, children in sorted order."""
    children = model.out_adj(N)
    leaves = model.leaf_map(N)
    rets = model.reticulations_of(N)
    root = model.root_of(N)
    indeg = [0] * N.num_nodes
    for _, v in N.edges:
        indeg[v] += 1
    order = [root]  # topological: a node follows all of its parents
    for v in order:
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    reach: dict[int, tuple] = {}  # sorted labels of the leaves below each node
    for v in reversed(order):
        if v in leaves:
            reach[v] = (leaves[v],)
        else:
            reach[v] = tuple(sorted({x for c in children[v] for x in reach[c]}))
    key = reach.__getitem__
    if rets:
        # ties in reachable-leaf sets (nested reticulations) are broken by
        # canonical position, so the output is a graph invariant; sibling
        # leaf sets in a tree are disjoint and never tie
        from .canonical import canonical_positions
        pos_of = canonical_positions(N)
        key = lambda v: (reach[v], pos_of[v])
    ret_tag = {v: k for k, v in enumerate(sorted(rets, key=key), 1)}
    # children are emitted in sorted order, so a reticulation's first
    # textual occurrence carries its subtree and later ones are bare tags
    out: list[str] = []
    written: set[int] = set()
    stack: list = [root]
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


def enewick_to_network(s: str) -> Graph:
    toks = _tokenize(s)
    if not toks or toks[-1] != ";":
        raise ParseError("missing trailing semicolon")
    pos = 0
    nid = [0]
    edges: list[Edge] = []
    labels: dict[int, int] = {}
    ret_node: dict[str, int] = {}

    def fresh() -> int:
        nid[0] += 1
        return nid[0] - 1

    has_subtree: set[str] = set()

    def parse_node() -> int:
        nonlocal pos
        if toks[pos] == "(":
            pos += 1
            kids = []
            while True:
                kids.append(parse_node())
                if toks[pos] == ",":
                    pos += 1
                    continue
                if toks[pos] == ")":
                    pos += 1
                    break
                raise ParseError("expected ',' or ')'")
            if pos < len(toks) and toks[pos].startswith("#H"):
                tag = toks[pos]
                pos += 1
                if tag in has_subtree:
                    raise ParseError(f"duplicate subtree for {tag}")
                has_subtree.add(tag)
                if tag not in ret_node:
                    ret_node[tag] = fresh()
                v = ret_node[tag]
            else:
                v = fresh()
            for c in kids:
                edges.append((v, c))
            return v
        if toks[pos].startswith("#H"):
            tag = toks[pos]
            pos += 1
            if tag not in ret_node:
                ret_node[tag] = fresh()
            return ret_node[tag]
        if toks[pos].isdigit():
            v = fresh()
            labels[v] = int(toks[pos])
            pos += 1
            return v
        raise ParseError(f"unexpected token {toks[pos]!r}")

    parse_node()
    if toks[pos] != ";":
        raise ParseError("trailing content after network")
    N = model.make_graph(ROOTED, range(nid[0]), edges, labels)
    report = model.validate(N)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
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
    report = model.validate(N)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
    return N


# ---------------------------------------------------------------------------
# labelled networks (graph serialization plus an edge-number sidecar)


def labelling_to_json(lab: ReticulationLabelling) -> str:
    doc = {"edge_labels": [[u, v, h] for (u, v), h in lab.numbered]}
    return json.dumps(doc, sort_keys=True)


def json_to_labelling(host, s: str) -> ReticulationLabelling:
    pairs = []
    try:
        doc = json.loads(s)
        for u, v, h in doc["edge_labels"]:
            if not all(type(x) is int for x in (u, v, h)):
                raise ParseError(f"edge label entries must be integers, not {[u, v, h]}")
            e = (u, v) if host.mode == ROOTED else model._norm_edge(UNROOTED, u, v)
            pairs.append((e, h))
    except _MALFORMED as exc:
        raise _malformed("labels", exc) from exc
    pairs.sort(key=lambda eh: eh[1])
    return ReticulationLabelling(host, tuple(pairs))
