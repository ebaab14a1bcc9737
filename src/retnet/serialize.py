"""Newick / extended Newick / JSON serialization.

Leaves are written as their decimal labels.  Rooted networks use
extended Newick with reticulations tagged #H1..#Hr; the first traversal
visit carries the reticulation's subtree, later visits are bare tags.
Parsers assign node ids in a deterministic order, so parse(serialize(G))
reproduces G's serialization byte for byte.
"""

from __future__ import annotations

import json
import re

from . import model
from .errors import ParseError, RetnetError
from .model import (Edge, PhyloTree, ReticulationLabelling, RootedNetwork,
                    UnrootedNetwork, ROOTED, UNROOTED)


# ---------------------------------------------------------------------------
# trees


def _subtree_labels(G, v: int, children) -> tuple:
    leaves = model.leaf_map(G)
    if v in leaves:
        return (leaves[v],)
    out: list[int] = []
    for c in children[v]:
        out.extend(_subtree_labels(G, c, children))
    return tuple(sorted(out))


def tree_to_newick(T: PhyloTree) -> str:
    leaves = model.leaf_map(T)
    if T.mode == ROOTED:
        children = model.out_adj(T)
        start = model.root_of(T)

        def write(v: int) -> str:
            if v in leaves:
                return str(leaves[v])
            parts = sorted((_subtree_labels(T, c, children), c) for c in children[v])
            return "(" + ",".join(write(c) for _, c in parts) + ")"

        return write(start) + ";"

    if T.num_nodes == 1:
        return "1;"
    if T.num_nodes == 2:
        return "(1,2);"
    # root the drawing at the internal node next to leaf 1
    adj = model.undirected_adj(T)
    leaf1 = model.label_map(T)[1]
    center = adj[leaf1][0]

    def uwrite(v: int, parent: int) -> str:
        nb = [w for w in adj[v] if w != parent]
        if not nb:
            return str(leaves[v])
        keyed = sorted((_usub_labels(v, w), w) for w in nb)
        return "(" + ",".join(uwrite(w, v) for _, w in keyed) + ")"

    def _usub_labels(parent: int, v: int) -> tuple:
        nb = [w for w in adj[v] if w != parent]
        if not nb:
            return (leaves[v],)
        out: list[int] = []
        for w in nb:
            out.extend(_usub_labels(v, w))
        return tuple(sorted(out))

    keyed = sorted((_usub_labels(center, w), w) for w in adj[center])
    return "(" + ",".join(uwrite(w, center) for _, w in keyed) + ");"


_TOKEN = re.compile(r"\(|\)|,|;|#H\d+|\d+")


def _tokenize(s: str) -> list[str]:
    toks = _TOKEN.findall(s)
    if "".join(toks) != s.replace(" ", "").replace("\n", ""):
        raise ParseError(f"unrecognized characters in {s!r}")
    return toks


def newick_to_tree(s: str, mode: str = ROOTED) -> PhyloTree:
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


# ---------------------------------------------------------------------------
# rooted networks (extended Newick)


def network_to_enewick(N: RootedNetwork) -> str:
    children = model.out_adj(N)
    leaves = model.leaf_map(N)
    rets = model.reticulations_of(N)
    reach: dict[int, tuple] = {}

    def reach_of(v: int, seen: frozenset) -> tuple:
        if v in leaves:
            return (leaves[v],)
        if v in reach:
            return reach[v]
        out: set[int] = set()
        for c in children[v]:
            if c not in seen:
                out.update(reach_of(c, seen | {v}))
        reach[v] = tuple(sorted(out))
        return reach[v]

    root = model.root_of(N)
    reach_of(root, frozenset())
    # ties in reachable-leaf sets (nested reticulations) are broken by
    # canonical position, so the output is a graph invariant
    from .canonical import canonical_positions
    pos_of = canonical_positions(N)
    key = lambda v: (reach_of(v, frozenset()), pos_of[v])
    ret_tag = {v: k for k, v in enumerate(sorted(rets, key=key), 1)}
    written: set[int] = set()

    def write(v: int) -> str:
        if v in ret_tag:
            if v in written:
                return f"#H{ret_tag[v]}"
            written.add(v)
            (c,) = children[v]
            return "(" + write(c) + f")#H{ret_tag[v]}"
        if v in leaves:
            return str(leaves[v])
        # children are emitted in sorted order and written in that same
        # order, so a reticulation's first textual occurrence carries its
        # subtree and later occurrences are bare tags
        order = sorted(children[v], key=key)
        return "(" + ",".join(write(c) for c in order) + ")"

    return write(root) + ";"


def enewick_to_network(s: str) -> RootedNetwork:
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
    N = model.make_graph(ROOTED, range(nid[0]), edges, labels, cls=RootedNetwork)
    report = model.validate(N)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
    return N


# ---------------------------------------------------------------------------
# unrooted networks (JSON edge lists)


def network_to_json(N: UnrootedNetwork) -> str:
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


def json_to_network(s: str) -> UnrootedNetwork:
    try:
        doc = json.loads(s)
        labels = {int(v): int(x) for x, v in doc["leaves"].items()}
        N = model.make_graph(UNROOTED, doc["nodes"], [tuple(e) for e in doc["edges"]],
                             labels, cls=UnrootedNetwork)
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
