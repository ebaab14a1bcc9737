"""Output checks written independently of the retnet package.

Nothing here imports retnet: the parsers, tree keys and switching-based
display below are separate implementations, so a check cannot pass
because the code it checks agrees with itself.
"""

from __future__ import annotations

import itertools
import re
import warnings

_TOKEN = re.compile(r"\(|\)|,|;|#H\d+|\d+")


class CheckFailed(Exception):
    """An output of the program is wrong or malformed."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _tokens(s: str) -> list[str]:
    s = s.strip()
    toks = _TOKEN.findall(s)
    require("".join(toks) == s.replace(" ", ""), f"unparsable text {s[:60]!r}")
    require(bool(toks) and toks[-1] == ";", "missing trailing ';'")
    return toks


def _parse(s: str):
    """(Extended) Newick -> (children, labels) with node 0 the root.

    children[v] lists v's child nodes; labels maps leaf node -> label;
    a reticulation tag ``#Hk`` names one shared node.
    """
    toks = _tokens(s)
    children: list[list[int]] = []
    labels: dict[int, int] = {}
    tag_node: dict[str, int] = {}
    with_subtree: set[str] = set()
    pos = 0

    def fresh() -> int:
        children.append([])
        return len(children) - 1

    def tagged(tag: str) -> int:
        if tag not in tag_node:
            tag_node[tag] = fresh()
        return tag_node[tag]

    def node() -> int:
        nonlocal pos
        tok = toks[pos]
        if tok == "(":
            pos += 1
            kids = [node()]
            while toks[pos] == ",":
                pos += 1
                kids.append(node())
            require(toks[pos] == ")", "expected ')'")
            pos += 1
            if toks[pos].startswith("#H"):
                tag = toks[pos]
                pos += 1
                require(tag not in with_subtree, f"{tag} defined twice")
                with_subtree.add(tag)
                v = tagged(tag)
            else:
                v = fresh()
            children[v].extend(kids)
            return v
        pos += 1
        if tok.startswith("#H"):
            return tagged(tok)
        require(tok.isdigit(), f"unexpected token {tok!r}")
        v = fresh()
        labels[v] = int(tok)
        return v

    root = node()
    require(toks[pos:] == [";"], "trailing text after the root")
    require(with_subtree == set(tag_node), "reticulation tag without a subtree")
    # renumber so that the root is node 0
    order = [root] + [v for v in range(len(children)) if v != root]
    idx = {v: i for i, v in enumerate(order)}
    kids = [[idx[c] for c in children[v]] for v in order]
    return kids, {idx[v]: x for v, x in labels.items()}


class RootedNet:
    """A rooted network read from extended Newick; node 0 is the root."""

    def __init__(self, text: str):
        self.children, self.labels = _parse(text)
        self.parents: list[list[int]] = [[] for _ in self.children]
        for u, kids in enumerate(self.children):
            for c in kids:
                self.parents[c].append(u)
        self.reticulations = [v for v, ps in enumerate(self.parents) if len(ps) == 2]

    def check(self, n: int, r: int) -> None:
        """Binary, acyclic, single root, r reticulations, leaves labelled 1..n."""
        kids, pars = self.children, self.parents
        require(sorted(self.labels.values()) == list(range(1, n + 1)),
                f"leaf labels are not 1..{n}")
        for v in range(len(kids)):
            require(len(set(kids[v])) == len(kids[v]), "parallel edges")
            shape = (len(pars[v]), len(kids[v]))
            if v in self.labels:
                require(shape == (1, 0), "bad leaf")
            elif v == 0:
                require(shape == (0, 2), "root is not binary")
            else:
                require(shape in ((1, 2), (2, 1)), f"node degree {shape}")
        # Kahn's algorithm: every node is reached only if there is no cycle
        indeg = [len(p) for p in pars]
        stack = [v for v in range(len(kids)) if indeg[v] == 0]
        require(stack == [0], "not a single-rooted graph")
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for c in kids[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        require(seen == len(kids), "directed cycle")
        require(len(self.reticulations) == r,
                f"{len(self.reticulations)} reticulations, expected {r}")

    def displayed_keys(self) -> set[str]:
        """Tree keys of every switching: each reticulation keeps one parent."""
        kids, labels = self.children, self.labels
        rets = self.reticulations
        choices = [self.parents[v] for v in rets]
        out: set[str] = set()
        for keep in itertools.product(*choices):
            off = {(p, v) for v, k in zip(rets, keep) for p in self.parents[v] if p != k}

            def key(v: int) -> str | None:
                if v in labels:
                    return str(labels[v])
                ks = [k for c in kids[v] if (v, c) not in off
                      for k in (key(c),) if k is not None]
                if not ks:
                    return None
                if len(ks) == 1:
                    return ks[0]
                return "(" + ",".join(sorted(ks)) + ")"

            out.add(key(0))
        return out


def tree_key(text: str, n: int) -> str:
    """Canonical key of a rooted binary tree on leaves 1..n, checking its shape.

    Leaves are their labels; an inner node is its children's keys,
    sorted, in parentheses. Equal keys mean equal leaf-labelled trees.
    """
    toks = _tokens(text)
    stack: list[list[str]] = [[]]
    labels = []
    for tok in toks[:-1]:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            kids = stack.pop()
            require(len(kids) == 2 and bool(stack), "tree is not binary")
            stack[-1].append("(" + ",".join(sorted(kids)) + ")")
        elif tok != ",":
            require(tok.isdigit(), f"unexpected token {tok!r}")
            labels.append(int(tok))
            stack[-1].append(tok)
    require(len(stack) == 1 and len(stack[0]) == 1, "unbalanced parentheses")
    require(sorted(labels) == list(range(1, n + 1)), f"leaf labels are not 1..{n}")
    return stack[0][0]


def unrooted_tree_check(text: str, n: int) -> None:
    """A written unrooted tree: a 3-way (n >= 3) top node, binary below."""
    kids, labels = _parse(text)
    require(sorted(labels.values()) == list(range(1, n + 1)), f"leaf labels are not 1..{n}")
    for v, ks in enumerate(kids):
        want = (0,) if v in labels else ((3,) if v == 0 and n >= 3 else (2,))
        require(len(ks) in want, "unrooted tree is not binary")


def unrooted_net_check(doc: dict, n: int, r: int) -> None:
    """JSON edge list: connected, leaves of degree 1, inner nodes of degree 3."""
    nodes = list(doc["nodes"])
    edges = [tuple(e) for e in doc["edges"]]
    labels = {int(v): int(x) for x, v in doc["leaves"].items()}
    require(nodes == list(range(len(nodes))), "node ids are not 0..k-1")
    require(sorted(labels.values()) == list(range(1, n + 1)), f"leaf labels are not 1..{n}")
    norm = {(min(e), max(e)) for e in edges}
    require(len(norm) == len(edges) and all(u != v for u, v in edges),
            "parallel edge or loop")
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in nodes:
        require(len(adj[v]) == (1 if v in labels else 3), f"node {v} has degree {len(adj[v])}")
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    require(len(seen) == len(nodes), "disconnected")
    require(len(edges) - len(nodes) + 1 == r, "wrong cycle rank")


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def rooted_pairwise_distinct(texts: list[str], n: int, r: int) -> None:
    """Every network valid and no two isomorphic as leaf-labelled graphs.

    Uses networkx: Weisfeiler-Lehman hashes bucket the graphs, then
    ``is_isomorphic`` with leaf-label matching compares within a bucket.
    """
    graphs = []
    for s in texts:
        N = RootedNet(s)
        N.check(n, r)
        graphs.append(_nx_graph(N.children, N.labels, directed=True))
    _no_isomorphic_pair(graphs)


def unrooted_pairwise_distinct(docs: list[dict], n: int, r: int) -> None:
    graphs = []
    for doc in docs:
        unrooted_net_check(doc, n, r)
        labels = {int(v): int(x) for x, v in doc["leaves"].items()}
        kids = [[] for _ in doc["nodes"]]
        for u, v in doc["edges"]:
            kids[u].append(v)
        graphs.append(_nx_graph(kids, labels, directed=False))
    _no_isomorphic_pair(graphs)


def _nx_graph(children, labels, directed: bool):
    import networkx as nx
    G = nx.DiGraph() if directed else nx.Graph()
    for v in range(len(children)):
        G.add_node(v, label=str(labels.get(v, 0)))
    for u, kids in enumerate(children):
        G.add_edges_from((u, c) for c in kids)
    return G


def _no_isomorphic_pair(graphs) -> None:
    import networkx as nx
    buckets: dict[str, list] = {}
    with warnings.catch_warnings():  # networkx notes that directed hashes changed in 3.5
        warnings.simplefilter("ignore", UserWarning)
        for G in graphs:
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(G, node_attr="label"), []).append(G)
    same = lambda a, b: a["label"] == b["label"]
    for group in buckets.values():
        for A, B in itertools.combinations(group, 2):
            require(not nx.is_isomorphic(A, B, node_match=same), "two outputs are isomorphic")
